"""16-QAM mapper with max-log per-bit LLR demapping.

Bit-to-level table (per axis, two bits, first bit is the MSB):

    00 -> +1,  01 -> +3,  10 -> -3,  11 -> -1      (in units of 1/sqrt(10))

The first two bits of a 4-bit group select the in-phase level and the last
two the quadrature level, so ``0000`` maps to ``(1 + 1j)/sqrt(10)``.  Average
symbol energy is 1.  This table is not Gray: the neighbouring levels ``-1``
(``11``) and ``+1`` (``00``) differ in both bits.  Making it Gray changes
every BER figure and is tracked as item 6 of the ROADMAP.

LLRs follow the ``log P(0)/P(1)`` convention of :mod:`pnofdm.coding` and use
the max-log approximation, which is exact per real axis for this separable
constellation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["qam16_llr", "qam16_map"]

_LEVELS = np.array([1.0, 3.0, -3.0, -1.0]) / np.sqrt(10.0)


def qam16_map(bits) -> np.ndarray:
    """Map a block of 0/1 bit rows to unit-energy 16-QAM symbols.

    ``bits`` is ``(B, 4m)``, one row per symbol sequence; returns the ``m``
    symbols of each row, shape ``(B, m)``.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("bits must be a block (B, 4m)")
    if bits.shape[1] % 4 != 0:
        raise ValueError("bit count per row must be divisible by 4")
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0/1")
    b = bits.astype(int, copy=False).reshape(len(bits), -1, 4)
    i_idx = 2 * b[..., 0] + b[..., 1]
    q_idx = 2 * b[..., 2] + b[..., 3]
    return _LEVELS[i_idx] + 1j * _LEVELS[q_idx]


def qam16_llr(y, gain, noise_var) -> np.ndarray:
    """Max-log LLRs for a block of received samples ``y = gain * s + noise``.

    Parameters
    ----------
    y : array_like
        Received complex samples: ``B`` rows of equal length, shape ``(B, n)``.
    gain : array_like
        Complex channel gain per sample, shape ``(B, n)`` like ``y``.
    noise_var : array_like
        Variance of the complex noise per sample, one per row, shape ``(B,)``.
        Each must be positive and finite.

    Returns
    -------
    ndarray
        ``4 * n`` LLRs per row in transmit bit order, shape ``(B, 4n)``.  Each
        row depends on that row's inputs only, and its values scale linearly
        with ``1/noise_var``.
    """
    y = np.asarray(y, dtype=complex)
    gain = np.asarray(gain, dtype=complex)
    noise_var = np.asarray(noise_var, dtype=float)
    if y.ndim != 2 or gain.shape != y.shape:
        raise ValueError("y and gain must share one block shape (B, n)")
    if noise_var.shape != y.shape[:1]:
        raise ValueError("noise_var must hold one value per row, shape (B,)")
    if not np.all((noise_var > 0) & np.isfinite(noise_var)):
        raise ValueError("noise_var must be positive and finite")
    g2 = np.abs(gain) ** 2
    z = np.conj(gain) * y
    # |y - gain*s|^2 splits per axis: g2*a^2 - 2*Re(z)*a + (const), same for Im.
    # metric[b, n, axis, level], axis 0 in-phase and 1 quadrature.
    z_axes = np.stack([z.real, z.imag], axis=-1)
    metric = g2[..., None, None] * _LEVELS**2 - 2 * z_axes[..., None] * _LEVELS
    m00, m01, m10, m11 = np.moveaxis(metric, -1, 0)  # by the level's two bits
    msb = np.minimum(m10, m11) - np.minimum(m00, m01)
    lsb = np.minimum(m01, m11) - np.minimum(m00, m10)
    return (np.stack([msb, lsb], axis=-1) / noise_var[:, None, None, None]).reshape(len(y), -1)
