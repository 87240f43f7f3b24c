"""Dense dual semidefinite program for geometry-constrained least squares.

The constrained problem minimizes ``J(g) = g^H M g - 2 Re(b^H g)`` over the
spectral geometry (unit norm plus the vanishing shift forms).  Its convex
dual maximizes ``tau`` subject to the ``(n+1) x (n+1)`` linear matrix
inequality

    [[ M + lam*I + sum_l alpha_l*PR_l + beta_l*PI_l ,  b      ]
     [ b^H                                          , -tau-lam ]]  >= 0

over the real variables ``(tau, lam, alpha, beta)``.  ``PR_l / PI_l`` are the
Hermitian split parts of the cyclic shifts; only ``l = 1..floor(n/2)`` are
needed (the remaining shift forms are conjugates), and for even ``n`` the
``l = n/2`` shift is Hermitian so it contributes a real part only.

The unitary DFT diagonalizes every shift, ``F^H P_l F = diag(exp(2j*pi*l*m/n))``,
so ``F^H PR_l F`` and ``F^H PI_l F`` are the cosine and sine rows of
:func:`~pnofdm.spectral.shift_form_table`.  In the time basis the LMI is

    G(y) = [[ A + Diag(mu) , c          ]
            [ c^H          , -tau - lam ]]  >= 0,   A = F^H M F,  c = F^H b,

with ``mu = table^T (lam, alpha, beta)`` and ``lam = sum(mu)/n``: every
constraint is a real diagonal, and ``G(y) = G0 + Diag(V y)`` where ``V`` is
the transposed table plus the corner column of ``tau`` and ``lam``.

Any dual-feasible point certifies ``tau <= J(g)`` for every feasible ``g``
(weak duality), and ``min_eig >= 0`` checks that certificate on every solve.
Equality of the two optima is not proven here, and it does not always hold:
the certified branch-and-bound oracle of :mod:`pnofdm.sproc` brackets the
primal minimum to 1e-9 relative and finds the dual tight on most small random
Gram instances, but proves a gap on some (3.6e-4 relative on the worst
instance of the acceptance suite).  The primal point is recovered from the
stationarity system ``(M + lam*I + sum ...) g = b``.  Weak duality also bounds the dual, so it
has no ascent ray: the solver scales the data to ``||M||_2 <= 1`` and
``max|b_i| <= 1``, and then ``tau <= 1 + 2*sqrt(n)``.

The solver is a log-det barrier interior-point method: Newton centering steps
on ``-t*tau - logdet G(y)`` along an increasing barrier schedule.  With
``S = G^-1`` the gradient of ``logdet G`` is ``V^T diag(S)`` and its negated
Hessian is the Hadamard form ``V^T |S|^2 V``, as for the MaxCut relaxation
(Helmberg, Rendl, Vanderbei and Wolkowicz, SIAM J. Optim. 1996), so a Newton
step costs one ``(n+1) x (n+1)`` Cholesky factorization and its inverse.
Every iterate is strictly feasible, which makes the returned certificate
unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import dft_matrix, shift_form_table

__all__ = [
    "SdpInstance",
    "SdpSolution",
    "SolverError",
    "assemble_lmi",
    "kkt_recover",
    "solve_dual",
]

TOL = 1e-9  # barrier suboptimality target, absolute plus relative in tau
MAX_NEWTON = 200  # Newton steps over all centering stages of one solve
BARRIER_GROWTH = 20.0  # factor on the barrier parameter between stages
DECREMENT_TOL = 2e-11  # squared Newton decrement of a centered point
KKT_RCOND = 1e-10  # relative singular-value cutoff of the recovery solve


class SolverError(RuntimeError):
    """Raised when the dual solve cannot produce a certified solution."""


@dataclass(frozen=True)
class SdpInstance:
    """Dual problem data: the cost pair ``(M, b)`` of the constrained fit."""

    M: np.ndarray
    b: np.ndarray
    n: int

    @classmethod
    def from_ls(cls, M, b) -> "SdpInstance":
        M = np.asarray(M, dtype=complex)
        b = np.asarray(b, dtype=complex).ravel()
        n = b.size
        if M.shape != (n, n):
            raise ValueError("M must be n x n with n = len(b)")
        if np.max(np.abs(M - M.conj().T)) > 1e-10 * (1 + np.max(np.abs(M))):
            raise ValueError("M must be Hermitian")
        return cls(M, b, n)

    @property
    def n_alpha(self) -> int:
        return self.n // 2

    @property
    def n_beta(self) -> int:
        return (self.n - 1) // 2


def assemble_lmi(inst: SdpInstance, tau: float, lam: float, alpha, beta) -> np.ndarray:
    """Assemble the ``(n+1) x (n+1)`` Hermitian LMI at the given variables."""
    alpha = np.asarray(alpha, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    if alpha.size != inst.n_alpha or beta.size != inst.n_beta:
        raise ValueError(
            f"expected {inst.n_alpha} alpha and {inst.n_beta} beta multipliers, "
            f"got {alpha.size} and {beta.size}"
        )
    n = inst.n
    F = dft_matrix(n)
    mu = shift_form_table(n).T @ np.concatenate(([lam], alpha, beta))
    G = np.empty((n + 1, n + 1), dtype=complex)
    G[:n, :n] = inst.M + (F * mu) @ F.conj().T
    G[:n, n] = inst.b
    G[n, :n] = inst.b.conj()
    G[n, n] = -tau - lam
    return G


@dataclass(frozen=True)
class SdpSolution:
    """Certified dual solution.

    ``min_eig`` is the smallest eigenvalue of the LMI re-assembled at the
    returned variables; ``gap_bound`` bounds ``d_star - tau`` from the
    barrier parameter.  ``tau_path`` records the objective at the end of
    each centering stage (nondecreasing along the schedule).
    """

    tau: float
    lam: float
    alpha: np.ndarray
    beta: np.ndarray
    min_eig: float
    iterations: int
    status: str  # "optimal" | "max_iter"
    gap_bound: float
    tau_path: np.ndarray = field(default_factory=lambda: np.empty(0))


def _symmetrize(G):
    return (G + G.conj().T) / 2


def _center(y, t, G0, V, budget):
    """Newton-center ``-t*y[0] - logdet(G0 + Diag(V y))`` starting from ``y``.

    Returns ``(y, steps, ok)``: the centered point (or the last iterate),
    the Newton steps taken, and ``False`` when the stage needed more than
    ``budget`` steps.  Every iterate keeps the LMI strictly positive definite;
    the Cholesky factor that accepts a line-search trial is the next step's.
    """
    diag = np.diag_indices(G0.shape[0])

    def lmi_at(yv):
        G = G0.copy()
        G[diag] += V @ yv
        return G

    L = np.linalg.cholesky(lmi_at(y))
    steps = 0
    for _ in range(60):
        if steps == budget:
            return y, steps, False
        steps += 1
        Linv = np.linalg.inv(L)
        S = Linv.conj().T @ Linv
        grad = V.T @ S.diagonal().real
        H = V.T @ np.abs(S) ** 2 @ V
        rhs = grad.copy()
        rhs[0] += t
        try:
            step = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, rhs, rcond=None)[0]
        if float(step @ rhs) <= DECREMENT_TOL:
            return y, steps, True
        alpha_ls = 1.0
        for _ in range(60):
            y_trial = y + alpha_ls * step
            try:
                L = np.linalg.cholesky(lmi_at(y_trial))
                break
            except np.linalg.LinAlgError:
                alpha_ls *= 0.5
        else:
            return y, steps, True  # cannot move; treat as centered
        y = y_trial
    return y, steps, True


def solve_dual(inst: SdpInstance) -> SdpSolution:
    """Maximize ``tau`` over the dual LMI with a log-det barrier method.

    Stops when the barrier suboptimality bound drops below
    ``TOL * (1 + |tau|)`` (absolute plus relative) and the objective has
    stabilized across stages.  Every iterate keeps the LMI strictly positive
    definite, so the returned point is feasible and certifies weak duality
    on its own.  Deterministic given the inputs.
    """
    n = inst.n
    if n > 64:
        raise SolverError("dense solver is sized for n <= 64")
    m = n + 1

    scale = max(1.0, float(np.linalg.norm(inst.M, 2)), float(np.max(np.abs(inst.b))) if inst.b.size else 0.0)
    Ms = inst.M / scale
    bs = inst.b / scale

    # Time-basis LMI G0 + Diag(V y), variable layout y = [tau, lam, alpha..., beta...].
    F = dft_matrix(n)
    G0 = np.zeros((m, m), dtype=complex)
    G0[:n, :n] = _symmetrize(F.conj().T @ Ms @ F)
    G0[:n, n] = F.conj().T @ bs
    G0[n, :n] = G0[:n, n].conj()
    V = np.zeros((m, m))
    V[:n, 1:] = shift_form_table(n).T
    V[n, :2] = -1.0

    # Strictly feasible start: lift lam until the top block is PD, then push
    # tau below the Schur complement.
    lam0 = max(0.0, -float(np.linalg.eigvalsh(_symmetrize(Ms))[0])) + 1.0
    A0 = _symmetrize(Ms + lam0 * np.eye(n))
    schur = float(np.real(bs.conj() @ np.linalg.solve(A0, bs)))
    y = np.zeros(m)
    y[0] = -lam0 - schur - 1.0
    y[1] = lam0

    t = 1.0
    tau_path = []
    status = "optimal"
    tau_prev = None
    steps = 0
    while True:
        y, used, ok = _center(y, t, G0, V, MAX_NEWTON - steps)
        steps += used
        if not ok:
            status = "max_iter"
            break
        tau_path.append(y[0] * scale)
        gap_bound = m / t
        stabilized = tau_prev is not None and abs(y[0] - tau_prev) <= np.sqrt(TOL) * (1.0 + abs(y[0]))
        if gap_bound <= TOL * (1.0 + abs(y[0])) and stabilized:
            break
        tau_prev = y[0]
        t *= BARRIER_GROWTH

    tau = float(y[0] * scale)
    lam = float(y[1] * scale)
    alpha = y[2:2 + inst.n_alpha] * scale
    beta = y[2 + inst.n_alpha:] * scale
    G_final = assemble_lmi(inst, tau, lam, alpha, beta)
    min_eig = float(np.linalg.eigvalsh(_symmetrize(G_final))[0])
    gap_bound = float(m / t * scale)
    if status == "optimal" and min_eig < -1e-8 * (1.0 + np.linalg.norm(inst.M, 2)):
        status = "max_iter"  # certificate failed; do not report optimal
    return SdpSolution(
        tau=tau,
        lam=lam,
        alpha=np.asarray(alpha, dtype=float),
        beta=np.asarray(beta, dtype=float),
        min_eig=min_eig,
        iterations=steps,
        status=status,
        gap_bound=gap_bound,
        tau_path=np.asarray(tau_path),
    )


@dataclass(frozen=True)
class KktInfo:
    rank: int
    full_rank: bool
    singular_values: np.ndarray


def kkt_recover(inst: SdpInstance, sol: SdpSolution, *, return_info: bool = False):
    """Recover the primal estimate from the dual stationarity system.

    Solves ``(M + lam*I + sum alpha*PR + beta*PI) g = b`` by pseudo-inverse;
    singular values below ``KKT_RCOND`` times the largest are treated as
    zero, in which case the minimum-norm solution is returned and flagged
    through the accompanying :class:`KktInfo`.
    """
    if sol.status != "optimal":
        raise SolverError(f"dual solution status is {sol.status!r}, not optimal")
    n = inst.n
    A = assemble_lmi(inst, sol.tau, sol.lam, sol.alpha, sol.beta)[:n, :n]
    U, s, Vh = np.linalg.svd(_symmetrize(A))
    keep = s > KKT_RCOND * s[0]
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    gamma = Vh.conj().T @ (inv_s * (U.conj().T @ inst.b))
    if return_info:
        return gamma, KktInfo(rank, rank == n, s)
    return gamma
