"""Dimensionality-reduction models mapping ``n`` reduced time samples ``x``
(spectrum ``gamma = F_n x``, unitary DFT ``F_n``) to a full spectrum ``delta``
(length ``n_c``).  A model is its lift matrix ``T``, the plain ``n_c x n``
array ``lft`` and ``pc_ppt`` return: ``delta = T @ x``.  Every transform
here is numpy's FFT at ``norm="ortho"``, which is ``F`` (``fft``) or
``F^H`` (``ifft``).

Two families are provided:

* ``lft``: the conventional low-frequency model that keeps the top
  ``m = (n + 2) // 2`` and bottom ``k = n - m`` subcarriers of ``gamma``:
  its rows there are the rows of ``F_n``, and all others are zero.  It does
  *not* preserve the spectral geometry.
* ``pc_ppt``: the piecewise-constant geometry-preserving transformation
  ``T = F @ Ttilde`` whose time-domain core ``Ttilde`` repeats each of the
  ``n`` time samples ``n_c/n`` times, scaled by ``sqrt(n/n_c)`` so its
  columns are orthonormal.  When ``x`` has constant modulus ``1/sqrt(n)``,
  ``T @ x`` lies on the ``n_c``-dimensional geometry.

``validate_ppt`` checks the three geometry-preservation conditions on the
time-domain core ``Ttilde = F^H T`` of a lift matrix ``T``, for every
shift ``l = 1..n_c-1``, to ``PPT_TOL``:

    (a) ``Ttilde^H Ttilde = I``
    (b) ``t_i^H D_l t_j = 0`` for ``i != j``
    (c) ``sum_i t_i^H D_l t_i = 0``

where ``D_l = F^H P_l F = diag(exp(2j*pi*m*l/n_c))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PptValidation",
    "lft",
    "pc_ppt",
    "validate_ppt",
]

PPT_TOL = 1e-12


def lft(n_c: int, n: int) -> np.ndarray:
    """Low-frequency selection model keeping ``m = (n + 2) // 2`` top and ``k = n - m`` bottom bins.

    Rows ``0..m-1`` of ``T`` are rows ``0..m-1`` of ``F_n`` and rows
    ``n_c-k..n_c-1`` its rows ``m..n-1``, so ``T @ x`` places the reduced
    spectrum ``gamma = F_n x`` on those bins; all other rows are zero.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > n_c:
        raise ValueError(f"n = {n} exceeds n_c = {n_c}")
    m = (n + 2) // 2
    F = np.fft.fft(np.eye(n), axis=0, norm="ortho")
    T = np.zeros((n_c, n), dtype=complex)
    T[:m] = F[:m]
    T[n_c - (n - m):] = F[m:]
    return T


def pc_ppt(n_c: int, n: int) -> np.ndarray:
    """Piecewise-constant geometry-preserving model.

    Requires ``n`` to divide ``n_c``.  The core ``Ttilde`` has blocks
    ``sqrt(n/n_c) * ones(n_c/n)`` down the diagonal, which makes its columns
    orthonormal and maps constant-modulus ``1/sqrt(n)`` time samples to
    constant-modulus ``1/sqrt(n_c)`` ones.
    """
    if n < 1 or n_c < 1:
        raise ValueError("dimensions must be positive")
    if n_c % n != 0:
        raise ValueError(f"n = {n} must divide n_c = {n_c} for a ppt model")
    Ttilde = np.repeat(np.sqrt(n / n_c) * np.eye(n), n_c // n, axis=0)
    return np.fft.fft(Ttilde, axis=0, norm="ortho")


@dataclass(frozen=True)
class PptValidation:
    """Worst violation of each geometry-preservation condition."""

    unitarity: float  # max |Ttilde^H Ttilde - I|
    off_diagonal: float  # max over l>=1, i != j of |t_i^H D_l t_j|
    trace_sum: float  # max over l>=1 of |sum_i t_i^H D_l t_i|
    passed: bool


def validate_ppt(T) -> PptValidation:
    """Check the three conditions on the core ``F^H T`` of the lift matrix
    ``T`` for all shifts ``l = 1..n_c-1``.

    ``passed`` is true when every worst violation is below ``PPT_TOL``.

    The inner products against the diagonal ``D_l`` are evaluated for all
    ``l`` at once via FFTs of the columnwise products, which is exact up to
    roundoff and O(n^2 * n_c log n_c).
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2:
        raise ValueError("T must be a matrix")
    n_c, n = T.shape
    Tt = np.fft.ifft(T, axis=0, norm="ortho")
    # forms[l, i, j] = t_i^H D_l t_j = sum_m conj(Tt[m,i]) Tt[m,j] e^{2j pi m l / n_c}
    prods = np.conj(Tt)[:, :, None] * Tt[:, None, :]
    forms = n_c * np.fft.ifft(prods, axis=0)
    unitarity = float(np.max(np.abs(forms[0] - np.eye(n))))
    off = np.abs(forms[1:]).copy()
    off[:, np.arange(n), np.arange(n)] = 0.0
    off_diagonal = float(off.max()) if off.size else 0.0
    traces = np.trace(forms[1:], axis1=1, axis2=2)
    trace_sum = float(np.max(np.abs(traces))) if traces.size else 0.0
    passed = max(unitarity, off_diagonal, trace_sum) < PPT_TOL
    return PptValidation(unitarity, off_diagonal, trace_sum, passed)

