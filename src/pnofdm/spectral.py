"""Dense complex linear algebra for circulant/DFT structure and the
constant-modulus spectral geometry.

Conventions fixed for the whole package:

* DFT matrices are unitary: ``F[k, m] = exp(-2j*pi*k*m/n) / sqrt(n)``, so
  ``F @ x == np.fft.fft(x) / sqrt(n)`` and ``F.conj().T @ F == I``.
* ``P1`` is the cyclic down-shift (its first column is ``e_1``), and
  ``P_l = P1 ** l``.  ``P_l`` is diagonalized by the DFT with eigenvalue
  ``exp(2j*pi*m*l/n)`` on the ``m``-th Fourier column.
* A vector ``v`` of length ``n`` lies on the *spectral geometry* when
  ``v^H P_l v`` equals 1 for ``l = 0`` and 0 otherwise.  This holds exactly
  when the unitary inverse DFT of ``v`` has constant modulus ``1/sqrt(n)``,
  i.e. when ``v`` is the spectrum of a pure phase signal.
* The real constraint forms of the geometry (unit norm plus the Hermitian
  split parts of the shifts) are all diagonal in the Fourier columns; their
  eigenvalues are :func:`shift_form_table`, which the dual solver and the
  duality checks read.  :func:`permutation_matrix` and
  :func:`hermitian_split` build the same forms densely, as a reference.

All operations are pure functions of immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GEOMETRY_TOL",
    "GeometryResidual",
    "build_V",
    "circulant_apply",
    "circulant_eigenvalues",
    "circulant_from_column",
    "dft_matrix",
    "geometry_residual",
    "hermitian_split",
    "permutation_matrix",
    "shift_form_table",
]

# Residual threshold below which a vector is treated as lying on the geometry.
GEOMETRY_TOL = 1e-10


def _as_complex_vector(v, name: str = "v") -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must have finite entries")
    return v


def dft_matrix(n: int) -> np.ndarray:
    """Unitary ``n x n`` DFT matrix.

    Parameters
    ----------
    n : int
        Positive matrix dimension.

    Returns
    -------
    ndarray
        Complex matrix with ``F[k, m] = exp(-2j*pi*k*m/n)/sqrt(n)``;
        its Gram matrix is the identity to machine precision.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    n = int(n)
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def permutation_matrix(n: int, l: int) -> np.ndarray:
    """Cyclic shift matrix ``P_l = P_1 ** l`` of size ``n x n``.

    ``P_1`` has first column ``(0, 1, 0, ..., 0)^T`` and each subsequent
    column is the previous one circularly shifted one step down, so
    ``(P_l x)[i] = x[(i - l) % n]``.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    if not 0 <= l < n:
        raise ValueError(f"shift l={l} must lie in [0, {n})")
    P = np.zeros((n, n), dtype=complex)
    P[(np.arange(n) + l) % n, np.arange(n)] = 1.0
    return P


def hermitian_split(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a square matrix into the Hermitian pair ``(P_R, P_I)``.

    ``P_R = (P + P^H)/2`` and ``P_I = j (P^H - P)/2`` are both Hermitian,
    ``P = P_R + j P_I``, and for every vector ``v``:

    * ``Re(v^H P v) = v^H P_R v``
    * ``Im(v^H P v) = v^H P_I v``

    so the complex quadratic equality ``v^H P v = 0`` is equivalent to the
    two real equalities on the split pair.
    """
    P = np.asarray(P, dtype=complex)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("P must be a square matrix")
    Ph = P.conj().T
    return (P + Ph) / 2, 1j * (Ph - P) / 2


def shift_form_table(n: int) -> np.ndarray:
    """Eigenvalues of the geometry's real constraint forms on the Fourier columns.

    Returns the ``n x n`` real table whose column ``m`` belongs to the
    ``m``-th Fourier column.  Row 0 is the norm form (all ones), the next
    ``n//2`` rows are ``cos(2*pi*l*m/n)`` for ``l = 1..n//2`` (the forms
    ``hermitian_split(P_l)[0]``) and the last ``(n-1)//2`` rows are
    ``sin(2*pi*l*m/n)`` for ``l = 1..(n-1)//2`` (the forms
    ``hermitian_split(P_l)[1]``).  Each form equals ``F @ diag(row) @ F^H``.
    For even ``n`` the ``l = n/2`` shift is Hermitian and has a cosine row
    only.  The rows are orthogonal, so they span the real diagonals.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    n = int(n)
    m = np.arange(n)

    def phases(count):
        return 2 * np.pi * (np.outer(np.arange(1, count + 1), m) % n) / n

    return np.vstack([np.ones((1, n)), np.cos(phases(n // 2)), np.sin(phases((n - 1) // 2))])


@dataclass(frozen=True)
class GeometryResidual:
    """Residuals ``r_l = v^H P_l v - delta_{l0}`` of the spectral geometry.

    ``residuals[0]`` is the unit-norm defect; the remaining entries come in
    conjugate pairs (``r_{n-l} = conj(r_l)``) because ``P_l^H = P_{n-l}``.
    """

    residuals: np.ndarray
    max_abs: float

    def ok(self, tol: float = GEOMETRY_TOL) -> bool:
        return self.max_abs < tol


def geometry_residual(v) -> GeometryResidual:
    """Evaluate all ``n`` geometry residuals of a vector at once.

    Uses the FFT diagonalization of the cyclic shifts:
    ``v^H P_l v = sum_m |x_m|^2 exp(2j*pi*m*l/n)`` with ``x`` the unitary
    inverse DFT of ``v``.  This matches the dense definition to roundoff.
    """
    v = _as_complex_vector(v)
    n = v.size
    power = np.abs(np.fft.ifft(v)) ** 2
    forms = n * n * np.fft.ifft(power)
    residuals = forms.copy()
    residuals[0] -= 1.0
    return GeometryResidual(residuals, float(np.max(np.abs(residuals))))


def circulant_from_column(c) -> np.ndarray:
    """Column-circulant matrix with first column ``c``.

    Column ``j`` is ``c`` circularly shifted down ``j`` steps, i.e.
    ``C[i, j] = c[(i - j) % n]``.  ``C`` is diagonalized by the unitary DFT:
    ``C = F @ diag(circulant_eigenvalues(c)) @ F^H``.
    """
    c = _as_complex_vector(c, "c")
    n = c.size
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return c[idx]


def circulant_eigenvalues(c) -> np.ndarray:
    """Eigenvalues of ``circulant_from_column(c)`` paired with the DFT columns.

    The eigenvalue on Fourier column ``m`` is ``n * ifft(c)[m]``, i.e. the
    positive-exponent (unnormalized) DFT of ``c``; as a multiset this equals
    ``np.fft.fft(c)`` read in reversed index order.
    """
    c = _as_complex_vector(c, "c")
    return c.size * np.fft.ifft(c)


def circulant_apply(c, x) -> np.ndarray:
    """Fast product ``circulant_from_column(c) @ x`` via the FFT (circular convolution)."""
    c = _as_complex_vector(c, "c")
    x = _as_complex_vector(x, "x")
    if c.size != x.size:
        raise ValueError("c and x must have equal length")
    return np.fft.ifft(np.fft.fft(c) * np.fft.fft(x))


def build_V(delta) -> np.ndarray:
    """Row-circulant phase-rotation matrix with first row ``delta^H``.

    ``V[i, m] = conj(delta[(m - i) % n])``.  When ``delta`` is the spectral
    vector of a phase trajectory ``theta`` this equals
    ``F @ diag(exp(1j*theta)) @ F^H`` and is unitary; for an arbitrary
    ``delta`` it is the matrix whose adjoint applies the circular
    convolution ``V^H r = delta (*) r``.
    """
    d = _as_complex_vector(delta, "delta")
    n = d.size
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return np.conj(d)[idx]
