"""Wiener phase-noise trajectories and their spectral-domain representation.

The receiver oscillator multiplies the time-domain signal by
``exp(1j*theta[n])``.  In the subcarrier domain this is the unitary
row-circulant matrix built from the *spectral vector*

    ``delta_k = (1/n) * sum_m exp(-1j*theta[m]) * exp(-2j*pi*k*m/n)``

which is computed here as ``np.fft.fft(exp(-1j*theta)) / n``.  The vector
``delta`` always has unit norm and, more strongly, lies on the spectral
geometry (see :mod:`pnofdm.spectral`).  Its zeroth component is the common
phase error (CPE), the rotation shared by all subcarriers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import GEOMETRY_TOL, geometry_residual

__all__ = [
    "WIENER_VARIANCE_FACTOR",
    "PhaseNoiseRealization",
    "SpectralVector",
    "cpe",
    "phase_trajectory",
    "spectral_vector",
    "time_samples",
    "wiener_realization",
]

# Increment variance is WIENER_VARIANCE_FACTOR * rho / n per sample, the
# Lorentzian-linewidth convention for a free-running oscillator whose 3-dB
# bandwidth is rho subcarrier spacings.
WIENER_VARIANCE_FACTOR = 4.0 * np.pi


@dataclass(frozen=True)
class PhaseNoiseRealization:
    """One phase trajectory ``theta`` (radians) with its normalized bandwidth."""

    theta: np.ndarray
    rho: float
    seed: int | None = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1 or theta.size == 0:
            raise ValueError("theta must be a non-empty 1-D real vector")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", theta)

    @property
    def n(self) -> int:
        return self.theta.size

    @property
    def increments(self) -> np.ndarray:
        """The realized Gaussian steps ``theta[k+1] - theta[k]``."""
        return np.diff(self.theta)


def wiener_realization(
    n: int, rho: float, seed, *, zero_initial_phase: bool = False
) -> PhaseNoiseRealization:
    """Draw a Wiener (random-walk) phase trajectory of length ``n``.

    ``theta[0]`` is uniform on ``[-pi, pi)`` unless ``zero_initial_phase``
    is set (an unknown initial phase is physically present; the flag exists
    for unit tests).  Increments are i.i.d. zero-mean Gaussian with variance
    ``WIENER_VARIANCE_FACTOR * rho / n``.  Deterministic given ``seed``: the
    initial phase is drawn first, then the ``n - 1`` increments.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    rng = np.random.default_rng(seed)
    theta0 = 0.0 if zero_initial_phase else rng.uniform(-np.pi, np.pi)
    theta = _wiener_path(rng, int(n), WIENER_VARIANCE_FACTOR * rho / n, theta0)
    return PhaseNoiseRealization(theta, float(rho), seed)


def _wiener_path(rng, n, step_variance, theta0):
    """Random-walk path helper shared with the frame simulator."""
    steps = rng.normal(0.0, np.sqrt(step_variance), n - 1) if n > 1 else np.empty(0)
    return theta0 + np.concatenate(([0.0], np.cumsum(steps)))


@dataclass(frozen=True)
class SpectralVector:
    """A complex spectrum with cached geometry-residual metadata."""

    values: np.ndarray
    domain_dim: int
    geometry_ok: bool
    residual_max: float = field(default=np.nan)

    @classmethod
    def from_values(cls, values, tol: float = GEOMETRY_TOL) -> "SpectralVector":
        values = np.asarray(values, dtype=complex)
        res = geometry_residual(values)
        return cls(values, values.size, bool(res.max_abs < tol), res.max_abs)

    def __len__(self) -> int:
        return self.domain_dim


def _values(v) -> np.ndarray:
    return v.values if isinstance(v, SpectralVector) else np.asarray(v, dtype=complex)


def spectral_vector(theta) -> SpectralVector:
    """Map a phase trajectory to its spectral vector.

    Accepts a :class:`PhaseNoiseRealization` or a bare array of radians.
    The result has unit norm and vanishing geometry residuals for every
    ``theta`` (constant-modulus time samples).
    """
    th = theta.theta if isinstance(theta, PhaseNoiseRealization) else np.asarray(theta, float)
    if th.ndim != 1 or th.size == 0:
        raise ValueError("theta must be a non-empty 1-D vector")
    values = np.fft.fft(np.exp(-1j * th)) / th.size
    return SpectralVector.from_values(values)


def cpe(delta) -> complex:
    """Common phase error: the zeroth component of the spectral vector."""
    values = _values(delta)
    if values.size == 0:
        raise ValueError("empty spectral vector")
    return complex(values[0])


def time_samples(delta) -> np.ndarray:
    """Inverse transform of a spectral vector.

    For ``delta = spectral_vector(theta)`` this recovers
    ``exp(-1j*theta[m]) / n`` exactly.
    """
    return np.fft.ifft(_values(delta))


def phase_trajectory(delta) -> np.ndarray:
    """Phase trajectory read off a spectral vector: ``-angle(time_samples)``."""
    return -np.angle(time_samples(delta))
