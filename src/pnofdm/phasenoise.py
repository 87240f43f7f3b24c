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
    variance ``WIENER_VARIANCE_FACTOR * rho / n``; ``rho`` must be
    nonnegative with ``4*pi*rho`` finite.  Deterministic given ``seed``:
    the initial phase is drawn first, then the ``n - 1`` increments.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    if not 0 <= WIENER_VARIANCE_FACTOR * rho < np.inf:
        raise ValueError("rho must be finite and nonnegative, with 4*pi*rho finite")
    rng = np.random.default_rng(seed)
    theta0 = rng.uniform(-np.pi, np.pi)
    steps = rng.normal(0.0, np.sqrt(WIENER_VARIANCE_FACTOR * rho / n), int(n) - 1)
    return _wiener_path([theta0], steps[None])[0]


def _wiener_path(theta0, steps):
    """Random-walk paths of a block, shared with the frame simulator.

    ``theta0`` holds ``B`` initial phases and ``steps`` their ``(B, n - 1)``
    increments; row ``i`` of the ``(B, n)`` result is
    ``theta0[i] + [0, cumsum(steps[i])]``.
    """
    path = np.zeros((steps.shape[0], steps.shape[1] + 1))
    np.cumsum(steps, axis=1, out=path[:, 1:])
    path += np.asarray(theta0, dtype=float)[:, None]
    return path


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
