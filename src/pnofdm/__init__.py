"""Scattered-pilot phase-noise estimation for OFDM.

The package models an OFDM receiver whose oscillator phase noise multiplies
the time-domain signal by ``exp(1j*theta[n])``, estimates the corresponding
spectral rotation vector from pilot subcarriers only, and studies how
enforcing the vector's intrinsic constant-modulus geometry improves the
estimate and the coded error rate.

Layout:

* :mod:`pnofdm.spectral`: the unitary DFT convention (the package's one DFT is
  ``np.fft.fft(x, norm="ortho")``), the geometry residual and the spectral
  vector of a phase trajectory.
* :mod:`pnofdm.dimred`: low-frequency and geometry-preserving reduction models, each its lift matrix.
* :mod:`pnofdm.estimators`: the five pilot-based estimators and diagnostics.
* :mod:`pnofdm.sdp`: the local certificate and the dual semidefinite program behind the constrained fit.
* :mod:`pnofdm.sproc`: certified primal oracle and duality verification.
* :mod:`pnofdm.coding`, :mod:`pnofdm.qam`, :mod:`pnofdm.link`: the coded link, its Rayleigh channel and Wiener phase noise.
* :mod:`pnofdm.experiments`, :mod:`pnofdm.cli`: scenario harness and CLI.

Apart from ``__version__`` the package binds no names of its own: import
each one from the module that defines it, as in
``from pnofdm.link import LinkConfig, run_link``.
"""

__version__ = "0.1.0"
