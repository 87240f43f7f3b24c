"""Scattered-pilot phase-noise estimation for OFDM.

The package models an OFDM receiver whose oscillator phase noise multiplies
the time-domain signal by ``exp(1j*theta[n])``, estimates the corresponding
spectral rotation vector from pilot subcarriers only, and studies how
enforcing the vector's intrinsic constant-modulus geometry improves the
estimate and the coded error rate.

Layout:

* :mod:`pnofdm.spectral`: DFT/circulant primitives and the geometry residual.
* :mod:`pnofdm.phasenoise`: Wiener trajectories and spectral vectors.
* :mod:`pnofdm.dimred`: low-frequency and geometry-preserving reduction models.
* :mod:`pnofdm.estimators`: the five pilot-based estimators and diagnostics.
* :mod:`pnofdm.sdp`: the dual semidefinite program behind the constrained fit.
* :mod:`pnofdm.sproc`: brute-force oracles and duality verification.
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
    PhaseNoiseRealization,
    SpectralVector,
    cpe,
    spectral_vector,
    wiener_realization,
)
from .sdp import SdpInstance, SdpSolution, assemble_lmi, kkt_recover, solve_dual
from .spectral import (
    GeometryResidual,
    build_V,
    circulant_from_column,
    dft_matrix,
    geometry_residual,
    hermitian_split,
    permutation_matrix,
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
    "PhaseNoiseRealization",
    "SdpInstance",
    "SdpSolution",
    "SpectralVector",
    "__version__",
    "assemble_lmi",
    "build_V",
    "build_ls_system",
    "c_matrix",
    "cis",
    "compensate",
    "cpe",
    "cpe_only",
    "circulant_from_column",
    "default_lft",
    "dft_matrix",
    "duality_gap",
    "error_decomposition",
    "estimate_frame",
    "geometry_residual",
    "gls",
    "hermitian_split",
    "kkt_recover",
    "lft",
    "lift",
    "make_frame_pair",
    "nls",
    "pc_ppt",
    "permutation_matrix",
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
