"""Numerical verification of the quadratic-equality duality machinery.

The constrained estimator rests on two checkable facts about the quadratic
forms involved (unit norm plus the split shift forms):

1. *Regularity*: evaluating the constraint forms at the DFT columns (padded
   with a zero last coordinate) plus one extra point ``(0, sqrt(n))`` yields
   an ``n x (n+1)`` matrix of full rank ``n`` whose columns sum to zero with
   unit weights.  This rules out a separating hyperplane through the origin
   with all evaluation points on one side.  The DFT columns diagonalize
   every form, so the first ``n`` columns are the forms' eigenvalues on
   them.  The construction holds for every ``n``: for even ``n`` the
   ``n/2`` shift is Hermitian, so it has a cosine row and no sine row, and
   there are still ``n`` forms.
2. *Zero duality gap*, measured per instance: a branch-and-bound oracle
   brackets the minimum of the cost over the constant-modulus set from
   both sides to 1e-9 relative (n <= 5), independently of the solver, and
   :func:`duality_gap` labels an instance ``tight`` (the dual optimum within
   1e-6 relative of the bracket's upper end) or ``proven_gap`` (more than
   that below its lower end).  On the 30 Gram instances of the acceptance
   suite's strong-duality criterion the dual is tight on 29 and has a
   proven gap on ``random_gram_instance(5, 10, 72000)`` (3.6e-4 relative);
   on the 30 of the full ``verify`` run it is tight on 29 and has a proven
   gap on ``random_gram_instance(5, 10, 203)`` (1.4e-2).  Of the 120
   draws of the benchmark's duality check at seeds 11-20 (four rounds) it
   is tight on 114; the other six, 5 of 40 at n = 5 and 1 of 80 at n = 3,
   have proven gaps of 4.7e-3 to 0.18 relative.  So the relaxation is
   tight on most, not all, instances of this constraint family.

A box of centre ``psi`` and half-width ``h`` on the torus of time phases is
bounded below from the integral remainder with the torus-wide entrywise
Hessian bound ``L``, except on the diagonal: there it keeps the box's own
Hessian diagonal at the centre less its largest move over the box, floored
at ``-L_ii``, ``a_i = max(H_ii(psi) - 2 h L_ii, -L_ii)``.  Each
``g_i d + a_i d^2 / 2`` is minimized exactly over ``|d| <= h``, which gives
``-h |g_i| + a_i h^2 / 2 - max(a_i h - |g_i|, 0)^2 / (2 a_i)``, and the cross
terms add ``-(h^2/2) sum_{i != j} L_ij``.  With the floor this is never
below the Taylor bound ``J(psi) - h sum_i |g_i| - (h^2/2) sum L`` up to
rounding (it equals it where every coordinate is floored); near a
minimizer the diagonal is positive and the slope small, so it is far above
it: at n = 5 about 5x fewer boxes are scored.

The oracle's upper bound is the cost where the Newton solve on the time
phases that :func:`pnofdm.sdp.certify_local` runs ends, started from a
level's best box centre.  Its iterates stay feasible, so even an unconverged
solve gives an upper bound, and the lower end is the branch-and-bound's own:
a poorer solve can widen the bracket, never make an instance ``tight``.

The oracle evaluates its boxes in chunks: a level is its parents times its
turns, its box centres are built and scored ``CHUNK`` at a time, and only
the survivors are kept as arrays.  The first level is the seed grid, one
all-ones parent whose turns are the ``SEED_GRID^n`` grid centres; each later
level is the previous level's survivors times the ``2^n`` half-width turns.
Each level descends once, from its best centre, so ``CHUNK`` sets only the
working memory, and the bracket is bit for bit the same for any ``CHUNK``.

Weak duality needs no sampling: every dual solution carries the minimum
eigenvalue of its LMI matrix, and ``min_eig >= 0`` certifies that the cost
minus ``tau`` is nonnegative on the whole constraint set.  The
infimum/conic-hull steps of the derivation are observable only through the
measured gap, and the proven gaps show they do not carry over to every
instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sdp import _cost_pair, _lapack, _local_newton, solve_dual

__all__ = [
    "GapResult",
    "OracleResult",
    "duality_gap",
    "primal_oracle",
    "random_gram_instance",
    "regularity_matrix",
]

MAX_N = 5  # largest dimension the oracle accepts
SEED_GRID = 4  # seed boxes per torus axis
CHUNK = 1 << 12  # boxes built and scored per vectorized call
BOX_BUDGET = 1 << 23  # boxes evaluated before the search stops unresolved
CLOSE_TOL = 1e-9  # relative bracket width at which a box is pruned
GAP_TOL = 1e-6  # relative gap that separates tight from gapped instances
GAP_KINDS = ("tight", "proven_gap", "unresolved")


def regularity_matrix(n: int) -> np.ndarray:
    """Constraint forms evaluated at the canonical regularity points.

    Evaluates the ``n`` constraint forms (norm plus split shifts) at
    ``x_i = [f_i; 0]`` for the ``n`` DFT columns ``f_i`` and at
    ``x_{n+1} = [0; sqrt(n)]``.  The result is an ``n x (n+1)`` real matrix
    of rank ``n`` whose rows each sum to zero.  Every form is diagonal in
    the Fourier columns, so column ``m < n`` holds its eigenvalues on
    ``f_m``: row 0 is the norm form, ``(1, ..., 1, -n)``, the next ``n//2``
    rows are ``cos(2*pi*l*m/n)`` for ``l = 1..n//2`` (the real parts
    ``(P_l + P_l^H)/2``) and the last ``(n-1)//2`` are ``sin(2*pi*l*m/n)``
    (the imaginary parts ``j(P_l^H - P_l)/2``), so for even ``n`` the
    Hermitian ``n/2`` shift gives a cosine row only.  Only the first row
    has a nonzero last entry, so rank ``n`` and zero row sums also show
    that the cosine/sine block has rank ``n - 1`` with null space spanned
    by ``ones / n``.  Raises ``ValueError`` unless ``n`` is a positive
    integer.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    n = int(n)
    phases = 2 * np.pi * (np.outer(np.arange(1, n // 2 + 1), np.arange(n)) % n) / n
    Q = np.zeros((n, n + 1))
    Q[0, :n], Q[0, n] = 1.0, -float(n)
    Q[1:n // 2 + 1, :n] = np.cos(phases)
    Q[n // 2 + 1:, :n] = np.sin(phases[:(n - 1) // 2])
    return Q


@dataclass(frozen=True)
class OracleResult:
    """Certified bracket ``lower <= p* <= p_star`` of the constrained minimum.

    ``p_star`` is the cost at the time samples ``x``, which are exactly
    feasible, so it is an upper bound; ``lower`` is the branch-and-bound
    lower bound.  The cost has no constant term.  The two agree to
    ``CLOSE_TOL`` relative unless the box budget ran out.
    ``grid_points`` is the per-axis size of the seed grid and ``sweeps`` the
    number of Newton steps of all its local solves (the benchmark reads it by
    this name).
    """

    p_star: float
    lower: float
    x: np.ndarray
    grid_points: int
    sweeps: int


def _box_values(A, c, x):
    """Cost, absolute phase gradient and phase-Hessian diagonal at each row of
    ``x = exp(1j*phi)/sqrt(n)``.

    With ``r = conj(x) * (A x - c)``: ``J = Re(sum r) - Re(c^H x)``,
    ``|dJ/dphi_i| = 2 |Im r_i|`` and ``d^2J/dphi_i^2 = 2 A_ii / n - 2 Re(r_i)``.
    Row sums go through BLAS, which is faster than a reduction along the
    short axis.
    """
    r = x @ A.T
    r -= c
    np.conjugate(r, out=r)
    r *= x  # the conjugate of r: same real part, negated imaginary part
    cost = r.real @ np.ones(c.size) - (x @ c.conj()).real
    return cost, 2 * np.abs(r.imag), 2 * np.diag(A).real / c.size - 2 * r.real


def _hessian_bound(A, c):
    """Entrywise bound ``L`` on the phase Hessian of ``J`` over the whole torus."""
    n = c.size
    L = 2 * np.abs(A) / n
    np.fill_diagonal(L, L.sum(axis=1) - np.diag(L) + 2 * np.abs(c) / np.sqrt(n))
    return L


def _curvature(A, c):
    """``(diag L, sum of L off the diagonal)`` of ``L = _hessian_bound(A, c)``."""
    L = _hessian_bound(A, c)
    diagonal = np.diag(L)
    return diagonal, L.sum() - diagonal.sum()


def _box_bounds(A, c, x, h, curvature):
    """Cost at each box centre (rows of ``x``) and the lower bound of
    :func:`primal_oracle` over the box of half-width ``h`` around it;
    ``curvature`` is ``_curvature(A, c)``.

    The bound starts from the integral remainder
    ``J(psi + d) = J(psi) + g.d + int_0^1 (1 - t) d^T H(psi + t d) d dt``
    with ``|d_i| <= h``.  Off the diagonal it takes ``|H_ij| <= L_ij``.  On
    it, ``|dH_ii/dphi_i|`` is at most ``L_ii`` and
    ``sum_{j != i} |dH_ii/dphi_j|`` at most ``L_ii`` too, so over the box
    ``H_ii >= H_ii(psi) - 2 h L_ii``; and ``|H_ii| <= L_ii`` everywhere, so
    ``H_ii >= a_i = max(H_ii(psi) - 2 h L_ii, -L_ii)``.  Hence
    ``J(psi + d) >= J(psi) + sum_i (g_i d_i + a_i d_i^2/2)
    - (h^2/2) sum_{i != j} L_ij``, and each coordinate is minimized exactly:
    ``min_{|d| <= h} g d + a d^2/2 = -h|g| + a h^2/2 - max(a h - |g|, 0)^2/(2a)``
    (the last term is the interior minimum ``-g^2/(2a)`` when ``|g| < a h``).
    That minimum is at least ``-h|g| - L_ii h^2/2``, so the bound is never
    below the Taylor bound ``J(psi) - h sum|g_i| - (h^2/2) sum L`` up to
    rounding; where every coordinate is floored the two are equal.
    """
    diagonal, off_diagonal = curvature
    cost, slope, a = _box_values(A, c, x)
    a -= 2 * h * diagonal
    np.maximum(a, -diagonal, out=a)
    excess = np.maximum(h * a - slope, 0.0)  # nonzero only where a_i > 0
    interior = np.divide(excess * excess, 2 * a, out=np.zeros_like(a), where=excess > 0)
    ones = np.ones(c.size)
    bound = cost - h * (slope @ ones) + (h * h / 2) * (a @ ones) - interior @ ones
    return cost, bound - h * h * off_diagonal / 2


def _children(parents, turn, index):
    """Centres of the boxes numbered ``index`` in the level ``parents x turn``."""
    kids = len(turn)
    return parents[index // kids] * turn[index % kids]


def primal_oracle(M, b) -> OracleResult:
    """Certified global minimum of ``x^H M x - 2 Re(b^H x)`` over the time
    samples ``x`` of constant modulus.

    The feasible set is parametrized exactly by time phases,
    ``x = exp(1j*phi)/sqrt(n)``, and with the pair written ``(A, c) = (M, b)``
    the cost is ``J(phi) = x^H A x - 2 Re(c^H x)``.  A
    breadth-first branch-and-bound covers the phase torus with boxes, its
    first level a ``SEED_GRID``-per-axis grid.  ``L`` bounds the phase
    Hessian entrywise over the torus: ``2|A_ij|/n`` off the diagonal and
    ``(2/n) sum_{j != i} |A_ij| + 2|c_i|/sqrt(n)`` on it.  A box of centre
    ``psi`` and half-width ``h``, with gradient ``g`` and Hessian diagonal
    ``H_ii(psi)`` at its centre and ``a_i = max(H_ii(psi) - 2 h L_ii, -L_ii)``,
    has the lower bound ``J(psi) + sum_i [-h|g_i| + a_i h^2/2
    - max(a_i h - |g_i|, 0)^2/(2 a_i)] - (h^2/2) sum_{i != j} L_ij``, never
    below the Taylor bound ``J(psi) - h ||g||_1 - (h^2/2) sum L`` (see
    ``_box_bounds`` for the derivation).  The upper bound comes from the
    Newton solve of :func:`pnofdm.sdp.certify_local` (see the module
    docstring).  Boxes whose bound lies within ``CLOSE_TOL`` (relative) of
    the upper bound are pruned and the rest split in ``2^n`` halves; after
    ``BOX_BUDGET`` boxes the search stops and the unpruned boxes' bounds
    still give a valid ``lower``.  ``M`` must be ``n x n`` Hermitian with
    ``n = len(b)``, as for the dual solve.

    Every level is its parents times its turns (the seed grid: one all-ones
    parent times the grid centres) and is searched in one pass, ``CHUNK``
    boxes at a time: each chunk's centres are built and scored, the level's
    lowest-cost centre is remembered, and the chunk's boxes are pruned
    against the upper bound as it stands and the kept ones carried as
    indices (the seed level, with no upper bound yet, keeps them all).
    After the pass the descent starts from the level's best centre when it
    beats the upper bound, and the kept boxes are pruned again against the
    bound it leaves.  The working memory is a few ``CHUNK``-sized arrays
    plus the survivors, and every box centre is the same product of parent
    and turn whatever the chunking, so the result is bit for bit
    independent of ``CHUNK``.
    """
    A, c = _cost_pair(M, b)
    n = c.size
    if n > MAX_N:
        raise ValueError(f"exhaustive oracle is sized for n <= {MAX_N}")
    scale = 1.0 + float(np.linalg.svd(A, compute_uv=False)[0])  # 1 + ||M||_2, as certify_local's
    offsets = np.stack(np.meshgrid(*[[-1.0, 1.0]] * n, indexing="ij"), axis=-1).reshape(-1, n)
    curvature = _curvature(A, c)

    # Boxes are carried as the time samples of their centres, so a child's
    # centre is its parent's times a fixed rotation per axis.  The seed
    # grid's parent is all ones, and ``(1+0j) * v`` is exactly ``v``.
    h = np.pi / SEED_GRID
    axis = np.exp(2j * h * np.arange(SEED_GRID))
    parents = np.ones((1, n), complex)
    turn = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n) / np.sqrt(n)
    upper, best, steps = np.inf, None, 0
    lower = np.inf  # smallest bound of a pruned box
    evaluated = 0
    while True:
        kids = len(turn)
        per_chunk = max(1, CHUNK // kids)
        buffer = np.empty((min(per_chunk, len(parents)), kids, n), complex)
        # The seed level has no upper bound yet, so it keeps every box.
        cut = upper - CLOSE_TOL * (1 + abs(upper)) if upper < np.inf else np.inf
        least, start = np.inf, 0  # the level's lowest centre cost and its box
        kept, kept_bounds = [], []
        for lo in range(0, len(parents), per_chunk):
            hi = min(lo + per_chunk, len(parents))
            x = np.multiply(parents[lo:hi, None, :], turn, out=buffer[:hi - lo]).reshape(-1, n)
            cost, bound = _box_bounds(A, c, x, h, curvature)
            k = int(np.argmin(cost))
            if cost[k] < least:
                least, start = cost[k], lo * kids + k
            keep = bound <= cut
            lower = min(lower, bound[~keep].min(initial=np.inf))
            kept.append(lo * kids + np.flatnonzero(keep))
            kept_bounds.append(bound[keep])
        evaluated += len(parents) * kids
        if least < upper:
            with _lapack():
                x, _, _, used, _ = _local_newton(A, c, np.angle(_children(parents, turn, start)), scale)
            steps += used
            value = float(_box_values(A, c, x[None])[0][0])
            if value < upper:
                upper, best = value, x
        # The chunks were pruned against the upper bound before the descent.
        bound = np.concatenate(kept_bounds)
        keep = bound <= upper - CLOSE_TOL * (1 + abs(upper))
        lower = min(lower, bound[~keep].min(initial=np.inf))
        parents = _children(parents, turn, np.concatenate(kept)[keep])
        if not len(parents):
            break
        if evaluated + (len(parents) << n) > BOX_BUDGET:
            lower = min(lower, bound[keep].min())
            break
        h /= 2
        turn = np.exp(1j * h * offsets)

    if not np.abs(n * np.abs(best) ** 2 - 1).max() < 1e-12:
        raise RuntimeError("oracle minimizer left the constant-modulus set")
    return OracleResult(upper, float(min(lower, upper)), best, SEED_GRID, steps)


@dataclass(frozen=True)
class GapResult:
    """Primal bracket against the dual optimum, classified.

    ``kind`` is ``"tight"`` when ``p_star - d_star <= GAP_TOL (1 + |p_star|)``,
    ``"proven_gap"`` when the dual solve is optimal and even the certified
    ``lower`` exceeds ``d_star`` by more than that, and ``"unresolved"``
    otherwise.
    """

    p_star: float
    lower: float
    d_star: float
    gap: float
    relative: float
    kind: str
    solution: object


def duality_gap(M, b) -> GapResult:
    """Measured gap between the certified primal bracket and the dual SDP optimum.

    Both sides drop the constant cost term.  Weak duality gives
    ``gap >= 0`` up to numerics.
    """
    oracle = primal_oracle(M, b)
    sol = solve_dual(M, b)
    gap = oracle.p_star - sol.tau
    scale = 1 + abs(oracle.p_star)
    if gap <= GAP_TOL * scale:
        kind = "tight"
    elif sol.status == "optimal" and oracle.lower - sol.tau > GAP_TOL * scale:
        kind = "proven_gap"
    else:
        kind = "unresolved"
    return GapResult(oracle.p_star, oracle.lower, sol.tau, gap, gap / scale, kind, sol)


def random_gram_instance(n: int, k: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Random PSD time pair ``(B^H B, B^H w)`` of a complex Gaussian ``k x n``
    design ``A`` on the spectrum and ``w``: ``B = A F``, the FFT of ``A``'s rows.

    It is the time pair ``(F^H M F, F^H b)`` of the spectral pair
    ``(M, b) = (A^H A, A^H w)``, made Hermitian once.
    """
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
    w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    B = np.fft.fft(A, axis=1, norm="ortho")
    M = B.conj().T @ B
    return (M + M.conj().T) / 2, B.conj().T @ w
