"""Numerical verification of the quadratic-equality duality machinery.

The constrained estimator rests on two checkable facts about the quadratic
forms involved (unit norm plus the split shift forms):

1. *Regularity*: evaluating the constraint forms at the DFT columns (padded
   with a zero last coordinate) plus one extra point ``(0, sqrt(n))`` yields
   an ``n x (n+1)`` matrix of full rank ``n`` whose columns sum to zero with
   unit weights.  This rules out a separating hyperplane through the origin
   with all evaluation points on one side.  The DFT columns diagonalize
   every form, so the first ``n`` columns are those of
   :func:`~pnofdm.spectral.shift_form_table`, the table the dual solver
   uses.
2. *Zero duality gap*: the brute-force minimum of the cost over the
   constant-modulus set coincides with the dual SDP optimum.  The brute
   force (grid search plus exact coordinate descent on the torus of time
   phases) is independent of the solver and feasible for small dimensions.

Weak duality needs no sampling: every dual solution carries the minimum
eigenvalue of its LMI matrix, and ``min_eig >= 0`` certifies that the cost
minus ``tau`` is nonnegative on the whole constraint set.  The
infimum/conic-hull steps of the derivation are observable only through the
measured zero gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sdp import SdpInstance, solve_dual
from .spectral import dft_matrix, geometry_residual, shift_form_table

__all__ = [
    "GapResult",
    "NullspaceReport",
    "OracleResult",
    "duality_gap",
    "primal_oracle",
    "qmatnew_nullspace",
    "random_gram_instance",
    "regularity_matrix",
]


def regularity_matrix(n: int) -> np.ndarray:
    """Constraint forms evaluated at the canonical regularity points.

    For odd ``n``, evaluates the ``n`` constraint forms (norm plus split
    shifts) at ``x_i = [f_i; 0]`` for the ``n`` DFT columns ``f_i`` and at
    ``x_{n+1} = [0; sqrt(n)]``.  The result is an ``n x (n+1)`` real matrix
    of rank ``n`` whose rows each sum to zero: the first row is
    ``(1, ..., 1, -n)`` and the others sample the cosine/sine eigenvalue
    patterns of the shifts.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("the construction requires odd n >= 3")
    Q = np.zeros((n, n + 1))
    Q[:, :n] = shift_form_table(n)
    Q[0, n] = -float(n)
    return Q


@dataclass(frozen=True)
class NullspaceReport:
    matrix: np.ndarray
    rank: int
    expected_rank: int
    null_residual: float
    null_vector: np.ndarray
    ok: bool


def qmatnew_nullspace(n: int, tol: float = 1e-12) -> NullspaceReport:
    """Null space of the cosine/sine system behind the zero-set argument.

    Builds the ``(n-1) x n`` matrix with rows ``cos(2*pi*i*l/n)`` and
    ``sin(2*pi*i*l/n)`` for ``l = 1..(n-1)/2`` and verifies it has rank
    ``n - 1`` with nonnegative null space spanned by ``(1/n) * ones``.
    """
    if n < 3 or n % 2 == 0 or n > 11:
        raise ValueError("supported for odd n in [3, 11]")
    Q = shift_form_table(n)[1:]  # odd n: the cosine rows, then the sine rows
    v = np.ones(n) / n
    residual = float(np.linalg.norm(Q @ v))
    u, s, vh = np.linalg.svd(Q)
    rank = int(np.count_nonzero(s > 1e-10 * s[0]))
    null_vec = vh[-1]
    null_vec = null_vec * np.sign(null_vec[np.argmax(np.abs(null_vec))])
    ones_dir = np.ones(n) / np.sqrt(n)
    aligned = float(np.linalg.norm(null_vec - ones_dir)) < 1e-10
    ok = rank == n - 1 and residual < tol and aligned and np.all(null_vec > 0)
    return NullspaceReport(Q, rank, n - 1, residual, null_vec, ok)


@dataclass(frozen=True)
class OracleResult:
    """Brute-force constrained minimum over the constant-modulus set."""

    p_star: float
    phases: np.ndarray
    gamma: np.ndarray
    grid_points: int
    sweeps: int


def _phases_to_gamma(phases: np.ndarray) -> np.ndarray:
    n = phases.shape[-1]
    x = np.exp(1j * phases) / np.sqrt(n)
    return np.fft.fft(x, axis=-1) / np.sqrt(n)


def _cost_batch(phases, M, b):
    g = _phases_to_gamma(phases)
    quad = np.einsum("...i,ij,...j->...", g.conj(), M, g).real
    lin = 2 * np.real(g @ b.conj())
    return quad - lin


def primal_oracle(M, b, *, grid_points: int | None = None, tau_shift: float = 0.0,
                  refine_tol: float = 1e-10, max_sweeps: int = 500) -> OracleResult:
    """Global minimum of ``g^H M g - 2 Re(b^H g) + tau_shift`` over the geometry.

    The feasible set is parametrized exactly by time phases:
    ``g = fft(exp(1j*phi)/sqrt(n))/sqrt(n)``.  A dense grid over the phase
    torus (64 points per axis up to n = 3, 24 up to n = 5) locates the basin;
    exact per-coordinate minimization (the cost is a single sinusoid in each
    phase) then refines to stationarity below ``refine_tol``.  Grid ties are
    broken to the lexicographically smallest phase tuple.  The returned
    minimizer is exactly feasible by construction.
    """
    M = np.asarray(M, dtype=complex)
    b = np.asarray(b, dtype=complex).ravel()
    n = b.size
    if M.shape != (n, n):
        raise ValueError("M must match b")
    if grid_points is None:
        if n <= 3:
            grid_points = 64
        elif n <= 5:
            grid_points = 24
        else:
            raise ValueError("exhaustive oracle is sized for n <= 5")
    axis = 2 * np.pi * np.arange(grid_points) / grid_points

    best_val = np.inf
    best_phases = None
    if n == 1:
        grids = axis[:, None]
        vals = _cost_batch(grids, M, b)
        k = int(np.argmin(vals))
        best_val, best_phases = float(vals[k]), grids[k]
    else:
        # Chunk over the first axis to bound memory; C-order scan keeps the
        # first minimum lexicographically smallest.
        tail = np.stack(
            np.meshgrid(*([axis] * (n - 1)), indexing="ij"), axis=-1
        ).reshape(-1, n - 1)
        for p0 in axis:
            chunk = np.empty((tail.shape[0], n))
            chunk[:, 0] = p0
            chunk[:, 1:] = tail
            vals = _cost_batch(chunk, M, b)
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val = float(vals[k])
                best_phases = chunk[k].copy()

    # Exact coordinate descent: with all other phases fixed the cost is
    # const + 2*Re(z * exp(1j*phi_i)), minimized at phi_i = pi - angle(z).
    Ft = dft_matrix(n)
    # gamma = sum_i exp(1j*phi_i) * colv[i] with colv[i] the i-th DFT column
    # over sqrt(n); the DFT matrix is symmetric, so rows of Ft.T are columns.
    colv = Ft.T / np.sqrt(n)
    phases = best_phases.copy()
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        moved = 0.0
        for i in range(n):
            e = np.exp(1j * phases)
            g_other = (e[:, None] * colv).sum(axis=0) - e[i] * colv[i]
            z = (M @ g_other - b).conj() @ colv[i]
            new_phase = np.pi - np.angle(z) if z != 0 else phases[i]
            moved = max(moved, abs(np.exp(1j * new_phase) - np.exp(1j * phases[i])))
            phases[i] = new_phase
        e = np.exp(1j * phases)
        gamma = (e[:, None] * colv).sum(axis=0)
        grad = np.array(
            [
                -2 * np.imag(np.exp(1j * phases[i]) * ((M @ (gamma - np.exp(1j * phases[i]) * colv[i]) - b).conj() @ colv[i]))
                for i in range(n)
            ]
        )
        val = float(np.real(gamma.conj() @ M @ gamma) - 2 * np.real(b.conj() @ gamma))
        if np.max(np.abs(grad)) <= refine_tol * (1 + abs(val)):
            break
    phases = np.mod(phases, 2 * np.pi)
    gamma = _phases_to_gamma(phases)
    p_star = float(np.real(gamma.conj() @ M @ gamma) - 2 * np.real(b.conj() @ gamma)) + tau_shift
    assert geometry_residual(gamma).max_abs < 1e-12
    return OracleResult(p_star, phases, gamma, grid_points, sweeps)


@dataclass(frozen=True)
class GapResult:
    p_star: float
    d_star: float
    gap: float
    relative: float
    oracle: OracleResult
    solution: object


def duality_gap(M, b, *, grid_points: int | None = None) -> GapResult:
    """Measured gap between the brute-force primal and the dual SDP optimum.

    Both sides drop the constant cost term.  Expected: ``gap >= -1e-6``
    (weak duality up to numerics) and relative gap below 1e-3 on this
    constraint family.
    """
    oracle = primal_oracle(M, b, grid_points=grid_points)
    inst = SdpInstance.from_ls(M, b)
    sol = solve_dual(inst)
    gap = oracle.p_star - sol.tau
    return GapResult(oracle.p_star, sol.tau, gap, gap / (1 + abs(oracle.p_star)), oracle, sol)


def random_gram_instance(n: int, k: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Random PSD normal-equation pair ``(M, b) = (A^H A, A^H w)``."""
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
    w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    M = A.conj().T @ A
    return (M + M.conj().T) / 2, A.conj().T @ w
