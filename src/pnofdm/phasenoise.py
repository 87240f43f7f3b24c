"""Wiener phase-noise trajectories and their spectral-domain representation.

The receiver oscillator multiplies the time-domain signal by
``exp(1j*theta[n])``.  In the subcarrier domain this is the unitary
row-circulant matrix built from the *spectral vector*

    ``delta_k = (1/n) * sum_m exp(-1j*theta[m]) * exp(-2j*pi*k*m/n)``

which is computed here as ``np.fft.fft(exp(-1j*theta)) / n``.  The vector
``delta`` always has unit norm and, more strongly, lies on the spectral
geometry (see :mod:`pnofdm.spectral`).  Its zeroth component is the common
phase error (CPE), the rotation shared by all subcarriers.

Trajectories are plain arrays of radians: :func:`wiener_realization` returns
one, and every function that takes a trajectory takes an array.  Spectra are
plain arrays too: :func:`spectral_vector` returns the complex ``delta``, and
its geometry residual is :func:`pnofdm.spectral.geometry_residual`, computed
only where it is read.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WIENER_VARIANCE_FACTOR",
    "phase_trajectory",
    "spectral_vector",
    "wiener_realization",
]

# Increment variance is WIENER_VARIANCE_FACTOR * rho / n per sample, the
# Lorentzian-linewidth convention for a free-running oscillator whose 3-dB
# bandwidth is rho subcarrier spacings.
WIENER_VARIANCE_FACTOR = 4.0 * np.pi


def wiener_realization(n: int, rho: float, seed) -> np.ndarray:
    """Draw a Wiener (random-walk) phase trajectory ``theta`` of length ``n``.

    ``theta[0]`` is uniform on ``[-pi, pi)`` (an unknown initial phase is
    physically present).  Increments are i.i.d. zero-mean Gaussian with
    variance ``WIENER_VARIANCE_FACTOR * rho / n``; ``rho`` must be finite
    and nonnegative.  Deterministic given ``seed``: the initial phase is
    drawn first, then the ``n - 1`` increments.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    if not 0 <= rho < np.inf:
        raise ValueError("rho must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    theta0 = rng.uniform(-np.pi, np.pi)
    return _wiener_path(rng, int(n), WIENER_VARIANCE_FACTOR * rho / n, theta0)


def _wiener_path(rng, n, step_variance, theta0):
    """Random-walk path helper shared with the frame simulator."""
    steps = rng.normal(0.0, np.sqrt(step_variance), n - 1) if n > 1 else np.empty(0)
    return theta0 + np.concatenate(([0.0], np.cumsum(steps)))


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
