"""Dimensionality-reduction models mapping a short spectrum ``gamma`` (length
``n``) to a full one ``delta`` (length ``n_c``).  A model is its lift matrix
``T``, the plain ``n_c x n`` array ``lft`` and ``pc_ppt`` return: ``delta = T @ gamma``.

Two families are provided:

* ``lft``: the conventional low-frequency selection matrix that keeps the top
  ``m = (n + 2) // 2`` and bottom ``k = n - m`` subcarriers and zeroes the
  rest.  It does *not* preserve the spectral geometry.
* ``pc_ppt``: the piecewise-constant geometry-preserving transformation
  ``T = F @ Ttilde @ Ftilde^H`` whose time-domain core ``Ttilde`` repeats each
  of the ``n`` time samples ``n_c/n`` times, scaled by ``sqrt(n/n_c)`` so its
  columns are orthonormal.  When ``gamma`` lies on the ``n``-dimensional
  geometry, ``T @ gamma`` lies on the ``n_c``-dimensional one.

``validate_ppt`` checks the three geometry-preservation conditions on the
time-domain core ``Ttilde = F^H T Ftilde`` of a lift matrix ``T``, for every
shift ``l = 1..n_c-1``, to ``PPT_TOL``:

    (a) ``Ttilde^H Ttilde = I``
    (b) ``t_i^H D_l t_j = 0`` for ``i != j``
    (c) ``sum_i t_i^H D_l t_i = 0``

where ``D_l = F^H P_l F = diag(exp(2j*pi*m*l/n_c))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import dft_matrix

__all__ = [
    "PptValidation",
    "lft",
    "pc_ppt",
    "validate_ppt",
]

PPT_TOL = 1e-12


def lft(n_c: int, n: int) -> np.ndarray:
    """Low-frequency selection model keeping ``m = (n + 2) // 2`` top and ``k = n - m`` bottom bins.

    Rows ``0..m-1`` of ``T`` map to ``gamma[0..m-1]`` and rows
    ``n_c-k..n_c-1`` to ``gamma[m..n-1]``; all other rows are zero.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > n_c:
        raise ValueError(f"n = {n} exceeds n_c = {n_c}")
    m = (n + 2) // 2
    k = n - m
    T = np.zeros((n_c, n), dtype=complex)
    T[:m, :m] = np.eye(m)
    if k:
        T[n_c - k:, m:] = np.eye(k)
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
    rep = n_c // n
    Ttilde = np.zeros((n_c, n), dtype=complex)
    scale = np.sqrt(n / n_c)
    for i in range(n):
        Ttilde[i * rep:(i + 1) * rep, i] = scale
    return dft_matrix(n_c) @ Ttilde @ dft_matrix(n).conj().T


@dataclass(frozen=True)
class PptValidation:
    """Worst violation of each geometry-preservation condition."""

    unitarity: float  # max |Ttilde^H Ttilde - I|
    off_diagonal: float  # max over l>=1, i != j of |t_i^H D_l t_j|
    trace_sum: float  # max over l>=1 of |sum_i t_i^H D_l t_i|
    passed: bool


def validate_ppt(T) -> PptValidation:
    """Check the three conditions on the core ``F^H T Ftilde`` of the lift
    matrix ``T`` for all shifts ``l = 1..n_c-1``.

    ``passed`` is true when every worst violation is below ``PPT_TOL``.

    The inner products against the diagonal ``D_l`` are evaluated for all
    ``l`` at once via FFTs of the columnwise products, which is exact up to
    roundoff and O(n^2 * n_c log n_c).
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2:
        raise ValueError("T must be a matrix")
    n_c, n = T.shape
    Tt = dft_matrix(n_c).conj().T @ T @ dft_matrix(n)
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

