"""The unitary DFT and the constant-modulus spectral geometry.

Conventions fixed for the whole package:

* The DFT is unitary: ``F[k, m] = exp(-2j*pi*k*m/n) / sqrt(n)``.  It is
  applied as ``np.fft.fft(x, norm="ortho")`` and its inverse ``F^H`` as
  ``np.fft.ifft(x, norm="ortho")``.  Every DFT in the package is numpy's
  FFT, the entries of a lift matrix (:mod:`pnofdm.dimred`) included.
* ``P1`` is the cyclic down-shift (its first column is ``e_1``), and
  ``P_l = P1 ** l``.  ``P_l`` is diagonalized by the DFT with eigenvalue
  ``exp(2j*pi*m*l/n)`` on the ``m``-th Fourier column.
* A vector ``v`` of length ``n`` lies on the *spectral geometry* when
  ``v^H P_l v`` equals 1 for ``l = 0`` and 0 otherwise.  This holds exactly
  when the unitary inverse DFT of ``v`` has constant modulus ``1/sqrt(n)``,
  i.e. when ``v`` is the spectrum of a pure phase signal.
* The real constraint forms of the geometry (unit norm plus the Hermitian
  split parts of the shifts) are all diagonal in the Fourier columns; the
  regularity construction of :mod:`pnofdm.sproc` evaluates their
  eigenvalues there.  In the time basis the same constraints are the
  diagonal entries ``|x_m|^2 = 1/n``, which is how the dual solver reads
  them.
* A phase trajectory ``theta`` (the receiver oscillator multiplies the
  time-domain signal by ``exp(1j*theta[n])``) acts on the subcarriers as the
  unitary row-circulant matrix built from its *spectral vector*
  ``delta = fft(exp(-1j*theta)) / n`` (:func:`spectral_vector`), which
  always lies on the geometry.  Its zeroth component is the common phase
  error (CPE), the rotation shared by all subcarriers.
  :func:`phase_trajectory` maps a spectral vector back to ``theta``.
  Trajectories and spectra are plain arrays.

All operations are pure functions of immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GEOMETRY_TOL",
    "geometry_residual",
    "phase_trajectory",
    "spectral_vector",
]

# Residual threshold below which a vector is treated as lying on the geometry.
GEOMETRY_TOL = 1e-10


def _as_complex_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("v must be a non-empty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("v must have finite entries")
    return v


def geometry_residual(v) -> float:
    """Largest geometry residual ``max_l |v^H P_l v - delta_{l0}|`` of a vector.

    All ``n`` residuals are evaluated at once through the FFT diagonalization
    of the cyclic shifts: ``v^H P_l v = sum_m |x_m|^2 exp(2j*pi*m*l/n)`` with
    ``x`` the unitary inverse DFT of ``v``.  This matches the dense
    definition to roundoff.  The ``l = 0`` residual is the unit-norm defect.
    """
    v = _as_complex_vector(v)
    n = v.size
    power = np.abs(np.fft.ifft(v)) ** 2
    residuals = n * n * np.fft.ifft(power)
    residuals[0] -= 1.0
    return float(np.max(np.abs(residuals)))


def spectral_vector(theta) -> np.ndarray:
    """Map a phase trajectory to its spectral vector ``fft(exp(-1j*theta))/n``.

    ``theta`` is an array of radians.  The result has unit norm and
    vanishing geometry residuals for every ``theta`` (constant-modulus time
    samples).
    """
    th = np.asarray(theta, float)
    if th.ndim != 1 or th.size == 0:
        raise ValueError("theta must be a non-empty 1-D vector")
    return np.fft.fft(np.exp(-1j * th)) / th.size


def phase_trajectory(delta) -> np.ndarray:
    """Phase trajectory read off a spectral vector: ``-angle(ifft(delta))``.

    For ``delta = spectral_vector(theta)`` the inverse transform is
    ``exp(-1j*theta) / n``, so this recovers ``theta`` wrapped to
    ``(-pi, pi]``.
    """
    return -np.angle(np.fft.ifft(delta))
