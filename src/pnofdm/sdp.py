"""Local certificate and dense dual semidefinite program for geometry-constrained least squares.

The constrained problem minimizes ``J(g) = g^H M g - 2 Re(b^H g)`` over the
spectral geometry: ``g = F x`` with the unitary DFT ``F`` and a time vector
of constant modulus, ``|x_i|^2 = 1/n``.  In the time basis the cost is
``x^H A x - 2 Re(c^H x)`` with ``A = F^H M F`` and ``c = F^H b``, and each
constraint is one diagonal entry.  One real multiplier ``mu_i`` per equality
(the S-procedure) gives the convex dual: maximize ``tau`` subject to the
``(n+1) x (n+1)`` linear matrix inequality

    G = [[ A + Diag(mu) , c                ]
         [ c^H          , -tau - sum(mu)/n ]]  >= 0.

Its variable is the LMI's own diagonal ``d = (mu, -tau - sum(mu)/n)``:
``G = G0 + Diag(d)`` with ``G0 = [[A, c], [c^H, 0]]``, and the objective is
``tau = w.d`` with ``w = -(1/n, ..., 1/n, 1)``.  In the frequency basis the
top block is ``M + F Diag(mu) F^H``, the circulant the paper expands in the
cyclic shift forms.

Any dual-feasible point certifies ``tau <= J(g)`` for every feasible ``g``
(weak duality), and ``min_eig >= 0`` checks that certificate on every solve.
Equality of the two optima is not proven here, and it does not always hold:
the certified branch-and-bound oracle of :mod:`pnofdm.sproc` brackets the
primal minimum to 1e-9 relative and finds the dual tight on most small random
Gram instances, but proves a gap on some (3.6e-4 relative on the worst
instance of the acceptance suite).  The primal point is recovered from the
stationarity system ``(M + F Diag(mu) F^H) g = b``.  Weak duality also bounds
the dual, so it has no ascent ray: the solver scales the data to
``||M||_2 <= 1`` and ``max|b_i| <= 1``, and then ``tau <= 1 + 2*sqrt(n)``.

Most instances the coded link produces need no dual solve at all.
:func:`certify_local` runs damped Newton on the time phases ``phi`` of
``x = exp(1j*phi)/sqrt(n)``.  At its stationary point the multipliers
``mu_i = Re((c - A x)_i / x_i)`` are closed-form, and ``A + Diag(mu) >= 0``
proves ``x`` globally optimal: with ``tau`` the cost at ``x`` the LMI above
holds with a zero Schur complement (Boumal, "Nonconvex phase
synchronization", SIAM J. Optim. 2016).  The barrier solver runs only where
that certificate fails.

The solver is a log-det barrier interior-point method: Newton centering steps
on ``-t*w.d - logdet(G0 + Diag(d))`` along an increasing barrier schedule.
With ``S = G^-1`` the gradient of ``logdet G`` is ``diag(S)`` and its negated
Hessian is ``|S|^2`` (elementwise), as for the MaxCut relaxation (Helmberg,
Rendl, Vanderbei and Wolkowicz, SIAM J. Optim. 1996), so a Newton step solves
``|S|^2 step = diag(S) + t*w`` at the cost of one ``(n+1) x (n+1)`` Cholesky
factorization and its inverse.  Every iterate is strictly feasible, which
makes the returned certificate unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import dft_matrix

__all__ = [
    "SdpSolution",
    "SolverError",
    "assemble_lmi",
    "certify_local",
    "kkt_recover",
    "solve_dual",
]

TOL = 1e-9  # barrier suboptimality target, absolute plus relative in tau
MAX_NEWTON = 200  # Newton steps over all centering stages of one solve
BARRIER_GROWTH = 20.0  # factor on the barrier parameter between stages
DECREMENT_TOL = 2e-11  # squared Newton decrement of a centered point
KKT_RCOND = 1e-10  # relative singular-value cutoff of the recovery solve
MIN_EIG_TOL = 1e-8  # LMI min_eig >= -this * (1 + ||M||_2) reports a solution optimal

# Local solve and closed-form certificate; tolerances are relative to 1 + ||M||_2.
LOCAL_MAX_NEWTON = 50  # Newton steps on the time phases
LOCAL_MAX_BACKTRACK = 40  # Armijo halvings of one step
LOCAL_STEP_CAP = 0.5  # largest phase change of one step, radians
LOCAL_GRAD_TOL = 1e-11  # phase-gradient norm (max) of a stationary point
LOCAL_EIG_FLOOR = 1e-8  # smallest eigenvalue of the modified phase Hessian
LOCAL_COST_SLACK = 1e-14  # relative cost rounding the Armijo test forgives
ARMIJO = 1e-4  # sufficient-decrease fraction of the Armijo test
CERT_EIG_TOL = 1e-9  # A + Diag(mu) >= -this certifies the global optimum


class SolverError(RuntimeError):
    """Raised when the dual solve cannot produce a certified solution."""


def _cost_pair(M, b):
    """``(M, b)`` as complex arrays; ``M`` must be ``n x n`` Hermitian with ``n = len(b)``."""
    M = np.asarray(M, dtype=complex)
    b = np.asarray(b, dtype=complex).ravel()
    if M.shape != (b.size, b.size):
        raise ValueError("M must be n x n with n = len(b)")
    if np.max(np.abs(M - M.conj().T)) > 1e-10 * (1 + np.max(np.abs(M))):
        raise ValueError("M must be Hermitian")
    return M, b


def assemble_lmi(M, b, tau: float, mu) -> np.ndarray:
    """Assemble the ``(n+1) x (n+1)`` Hermitian LMI of ``(M, b)`` at ``(tau, mu)``."""
    M, b = _cost_pair(M, b)
    n = b.size
    mu = np.asarray(mu, dtype=float).ravel()
    if mu.size != n:
        raise ValueError(f"expected {n} multipliers, got {mu.size}")
    F = dft_matrix(n)
    G = np.empty((n + 1, n + 1), dtype=complex)
    G[:n, :n] = M + (F * mu) @ F.conj().T
    G[:n, n] = b
    G[n, :n] = b.conj()
    G[n, n] = -tau - mu.sum() / n
    return G


@dataclass(frozen=True)
class SdpSolution:
    """Certified dual solution.

    ``mu`` holds the time-basis multipliers; ``min_eig`` is the smallest
    eigenvalue of the LMI re-assembled at ``(tau, mu)``.  ``tau_path``
    records the objective at the end of each centering stage (nondecreasing
    along the schedule).  A solution from :func:`certify_local` has
    ``iterations = 0``, an empty ``tau_path`` and ``tau`` equal to the
    certified point's cost.
    """

    tau: float
    mu: np.ndarray
    min_eig: float
    iterations: int
    status: str  # "optimal" | "max_iter"
    tau_path: np.ndarray = field(default_factory=lambda: np.empty(0))


def certify_local(M, b):
    """Solve the constrained fit locally and certify the point as its global optimum.

    Damped Newton on the time phases ``phi`` of ``x = exp(1j*phi)/sqrt(n)``,
    started from the phases of the unconstrained solution ``ifft(M^-1 b)``.
    The phase Hessian is eigenvalue-modified where it is not positive
    definite, steps are capped at ``LOCAL_STEP_CAP`` radians per phase, and an
    Armijo backtracking search accepts them.  At the stationary point the
    multipliers ``mu_i = Re((c - A x)_i / x_i)`` are closed-form, and
    ``A + Diag(mu) >= 0`` proves ``x`` globally optimal (Boumal, SIAM J.
    Optim. 2016).  With ``tau`` the cost at ``x`` the LMI's Schur corner is
    zero, so the returned :class:`SdpSolution` certifies weak duality at
    equality.

    Returns ``(gamma, SdpSolution)`` with ``gamma = F x``, or ``None`` when
    the Newton solve does not converge or the certificate fails.  A numpy
    ``LinAlgError`` propagates.
    """
    M, b = _cost_pair(M, b)
    n = b.size
    scale = 1.0 + float(np.linalg.norm(M, 2))
    F = dft_matrix(n)
    A = _symmetrize(F.conj().T @ M @ F)
    c = F.conj().T @ b

    def cost(x):
        return float(np.real(x.conj() @ (A @ x)) - 2.0 * np.real(c.conj() @ x))

    phi = np.angle(np.fft.ifft(np.linalg.solve(M, b)))
    x = np.exp(1j * phi) / np.sqrt(n)
    J = cost(x)
    for _ in range(LOCAL_MAX_NEWTON):
        resid = np.conj(x) * (A @ x - c)
        grad = 2.0 * resid.imag
        if np.max(np.abs(grad)) <= LOCAL_GRAD_TOL * scale:
            break
        H = 2.0 * np.real(np.conj(x)[:, None] * A * x[None, :])
        H[np.diag_indices(n)] = 2.0 * A.diagonal().real / n - 2.0 * resid.real
        lam, V = np.linalg.eigh(H)
        lam = np.maximum(np.abs(lam), LOCAL_EIG_FLOOR * scale)
        step = -V @ ((V.T @ grad) / lam)
        step *= min(1.0, LOCAL_STEP_CAP / np.max(np.abs(step)))
        slope = float(grad @ step)
        alpha = 1.0
        for _ in range(LOCAL_MAX_BACKTRACK):
            x_trial = np.exp(1j * (phi + alpha * step)) / np.sqrt(n)
            J_trial = cost(x_trial)
            if J_trial <= J + ARMIJO * alpha * slope + LOCAL_COST_SLACK * (1.0 + abs(J)):
                break
            alpha *= 0.5
        else:
            return None
        phi, x, J = phi + alpha * step, x_trial, J_trial
    else:
        return None

    mu = np.real((c - A @ x) / x)
    if float(np.linalg.eigvalsh(A + np.diag(mu))[0]) < -CERT_EIG_TOL * scale:
        return None
    min_eig = float(np.linalg.eigvalsh(_symmetrize(assemble_lmi(M, b, J, mu)))[0])
    if min_eig < -MIN_EIG_TOL * scale:
        return None
    return F @ x, SdpSolution(tau=J, mu=mu, min_eig=min_eig, iterations=0, status="optimal")


def _symmetrize(G):
    return (G + G.conj().T) / 2


def _center(d, t, G0, w, budget):
    """Newton-center ``-t*w.d - logdet(G0 + Diag(d))`` starting from ``d``.

    Returns ``(d, steps, ok)``: the centered point (or the last iterate),
    the Newton steps taken, and ``False`` when the stage needed more than
    ``budget`` steps.  Every iterate keeps the LMI strictly positive definite;
    the Cholesky factor that accepts a line-search trial is the next step's.
    """
    diag = np.diag_indices(G0.shape[0])

    def lmi_at(dv):
        G = G0.copy()
        G[diag] += dv
        return G

    L = np.linalg.cholesky(lmi_at(d))
    steps = 0
    for _ in range(60):
        if steps == budget:
            return d, steps, False
        steps += 1
        Linv = np.linalg.inv(L)
        S = Linv.conj().T @ Linv
        H = np.abs(S) ** 2
        rhs = S.diagonal().real + t * w
        try:
            step = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, rhs, rcond=None)[0]
        if float(step @ rhs) <= DECREMENT_TOL:
            return d, steps, True
        alpha_ls = 1.0
        for _ in range(60):
            d_trial = d + alpha_ls * step
            try:
                L = np.linalg.cholesky(lmi_at(d_trial))
                break
            except np.linalg.LinAlgError:
                alpha_ls *= 0.5
        else:
            return d, steps, True  # cannot move; treat as centered
        d = d_trial
    return d, steps, True


def solve_dual(M, b) -> SdpSolution:
    """Maximize ``tau`` over the dual LMI of ``(M, b)`` with a log-det barrier method.

    Stops when the barrier suboptimality bound drops below
    ``TOL * (1 + |tau|)`` (absolute plus relative) and the objective has
    stabilized across stages.  Every iterate keeps the LMI strictly positive
    definite, so the returned point is feasible and certifies weak duality
    on its own.  Deterministic given the inputs.
    """
    M, b = _cost_pair(M, b)
    n = b.size
    if n > 64:
        raise SolverError("dense solver is sized for n <= 64")
    m = n + 1

    scale = max(1.0, float(np.linalg.norm(M, 2)), float(np.max(np.abs(b))) if n else 0.0)

    # Scaled time-basis LMI G0 + Diag(d) and the objective tau = w.d.
    F = dft_matrix(n)
    G0 = np.zeros((m, m), dtype=complex)
    G0[:n, :n] = _symmetrize(F.conj().T @ (M / scale) @ F)
    G0[:n, n] = F.conj().T @ (b / scale)
    G0[n, :n] = G0[:n, n].conj()
    w = np.full(m, -1.0 / n)
    w[n] = -1.0

    # Strictly feasible start: lift mu until the top block is PD, then push
    # tau below the Schur complement.
    A, c = G0[:n, :n], G0[:n, n]
    mu0 = max(0.0, -float(np.linalg.eigvalsh(A)[0])) + 1.0
    schur = float(np.real(c.conj() @ np.linalg.solve(A + mu0 * np.eye(n), c)))
    d = np.full(m, mu0)
    d[n] = schur + 1.0

    t = 1.0
    tau_path = []
    status = "optimal"
    tau_prev = None
    steps = 0
    while True:
        d, used, ok = _center(d, t, G0, w, MAX_NEWTON - steps)
        steps += used
        if not ok:
            status = "max_iter"
            break
        tau_s = float(w @ d)
        tau_path.append(tau_s * scale)
        stabilized = tau_prev is not None and abs(tau_s - tau_prev) <= np.sqrt(TOL) * (1.0 + abs(tau_s))
        if m / t <= TOL * (1.0 + abs(tau_s)) and stabilized:
            break
        tau_prev = tau_s
        t *= BARRIER_GROWTH

    tau = float(w @ d) * scale
    mu = d[:n] * scale
    min_eig = float(np.linalg.eigvalsh(_symmetrize(assemble_lmi(M, b, tau, mu)))[0])
    if status == "optimal" and min_eig < -MIN_EIG_TOL * (1.0 + np.linalg.norm(M, 2)):
        status = "max_iter"  # certificate failed; do not report optimal
    return SdpSolution(
        tau=tau,
        mu=mu,
        min_eig=min_eig,
        iterations=steps,
        status=status,
        tau_path=np.asarray(tau_path),
    )


@dataclass(frozen=True)
class KktInfo:
    rank: int
    full_rank: bool
    condition: float  # largest over smallest singular value of the top block


def kkt_recover(M, b, sol: SdpSolution):
    """Recover the primal estimate from the dual stationarity system.

    Solves ``(M + F Diag(mu) F^H) g = b`` by pseudo-inverse; singular values
    below ``KKT_RCOND`` times the largest are treated as zero, in which case
    the minimum-norm solution is returned.  Returns ``(g, KktInfo)``, whose
    ``rank`` and ``full_rank`` flag that case; ``condition`` is the top
    block's condition number, which can be large on full-rank recoveries.
    """
    if sol.status != "optimal":
        raise SolverError(f"dual solution status is {sol.status!r}, not optimal")
    G = assemble_lmi(M, b, sol.tau, sol.mu)
    n = G.shape[0] - 1
    U, s, Vh = np.linalg.svd(_symmetrize(G[:n, :n]))
    keep = s > KKT_RCOND * s[0]
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    gamma = Vh.conj().T @ (inv_s * (U.conj().T @ G[:n, n]))
    condition = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    return gamma, KktInfo(rank, rank == n, condition)
