"""Scattered-pilot phase-noise estimation for OFDM.

The package models an OFDM receiver whose oscillator phase noise multiplies
the time-domain signal by ``exp(1j*theta[n])``, estimates the corresponding
spectral rotation vector from pilot subcarriers only, and studies how
enforcing the vector's intrinsic constant-modulus geometry improves the
estimate and the coded error rate.

Layout:

* :mod:`pnofdm.spectral`: the unitary DFT, the shift-form table and the geometry residual.
* :mod:`pnofdm.phasenoise`: Wiener trajectories and spectral vectors.
* :mod:`pnofdm.dimred`: low-frequency and geometry-preserving reduction models.
* :mod:`pnofdm.estimators`: the five pilot-based estimators and diagnostics.
* :mod:`pnofdm.sdp`: the local certificate and the dual semidefinite program behind the constrained fit.
* :mod:`pnofdm.sproc`: certified primal oracle and duality verification.
* :mod:`pnofdm.coding`, :mod:`pnofdm.qam`, :mod:`pnofdm.link`: the coded link.
* :mod:`pnofdm.experiments`, :mod:`pnofdm.cli`: scenario harness and CLI.
"""

__version__ = "0.1.0"

from .dimred import DimRedModel, default_lft, lft, lift, pc_ppt, validate_ppt
from .estimators import (
    EstimationError,
    EstimatorOutput,
    LsSystem,
    build_ls_system,
    c_matrix,
    cis,
    cpe_only,
    error_decomposition,
    estimate_frame,
    gls,
    nls,
    uls,
)
from .link import LinkConfig, OfdmFrame, compensate, make_frame_pair, run_link
from .phasenoise import (
    SpectralVector,
    spectral_vector,
    wiener_realization,
)
from .sdp import SdpSolution, assemble_lmi, certify_local, kkt_recover, solve_dual
from .spectral import (
    GeometryResidual,
    dft_matrix,
    geometry_residual,
    shift_form_table,
)
from .sproc import duality_gap, primal_oracle, qmatnew_nullspace, regularity_matrix

__all__ = [
    "DimRedModel",
    "EstimationError",
    "EstimatorOutput",
    "GeometryResidual",
    "LinkConfig",
    "LsSystem",
    "OfdmFrame",
    "SdpSolution",
    "SpectralVector",
    "__version__",
    "assemble_lmi",
    "build_ls_system",
    "c_matrix",
    "certify_local",
    "cis",
    "compensate",
    "cpe_only",
    "default_lft",
    "dft_matrix",
    "duality_gap",
    "error_decomposition",
    "estimate_frame",
    "geometry_residual",
    "gls",
    "kkt_recover",
    "lft",
    "lift",
    "make_frame_pair",
    "nls",
    "pc_ppt",
    "primal_oracle",
    "qmatnew_nullspace",
    "regularity_matrix",
    "run_link",
    "shift_form_table",
    "solve_dual",
    "spectral_vector",
    "uls",
    "validate_ppt",
    "wiener_realization",
]
