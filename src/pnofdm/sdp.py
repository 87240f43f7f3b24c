"""Local certificate and dense dual semidefinite program for geometry-constrained least squares.

The constrained problem minimizes ``J(x) = x^H M x - 2 Re(b^H x)`` over the
reduced time samples ``x`` of constant modulus, ``|x_i|^2 = 1/n``: the pair
``(M, b)`` is the pilot fit's normal equations on the time samples that a
model lifts (:mod:`pnofdm.dimred`), so each constraint is one diagonal
entry.  One real multiplier ``mu_i`` per equality (the S-procedure) gives
the convex dual: maximize ``tau`` subject to the ``(n+1) x (n+1)`` linear
matrix inequality

    G = [[ M + Diag(mu) , b                ]
         [ b^H          , -tau - sum(mu)/n ]]  >= 0.

Its variable is the LMI's own diagonal ``d = (mu, -tau - sum(mu)/n)``:
``G = G0 + Diag(d)`` with ``G0 = [[M, b], [b^H, 0]]``, and the objective is
``tau = w.d`` with ``w = -(1/n, ..., 1/n, 1)``.  On the reduced spectrum
``gamma = F x`` (unitary DFT ``F``) the pair is ``(F M F^H, F b)`` and the
top block the circulant ``F (M + Diag(mu)) F^H``, which the paper expands in
the cyclic shift forms.  ``_cost_pair`` validates ``(M, b)`` and ``_lmi``
builds the LMI; no solver changes basis.

Any dual-feasible point certifies ``tau <= J(x)`` for every feasible ``x``
(weak duality), and ``min_eig >= 0`` checks that certificate on every solve.
Equality of the two optima is not proven here, and it does not always hold:
the certified branch-and-bound oracle of :mod:`pnofdm.sproc` brackets the
primal minimum to 1e-9 relative and finds the dual tight on most small random
Gram instances, but proves a gap on some (3.6e-4 relative on the worst
instance of the acceptance suite).  The primal point is the exact solve of
the stationarity system ``(M + Diag(mu)) x = b`` at the barrier's returned
iterate.  That iterate is strictly feasible, so its LMI is positive
definite, and ``M + Diag(mu)`` is a principal block of it, so it is positive
definite too and the solve needs no cutoff.  By the LMI's block inverse,
``x = -S[:n, n] / S[n, n]`` with ``S = G^-1``: the rounding of the barrier's
primal iterate, which along the central path converges to the analytic
centre of the optimal face (Halicka, de Klerk and Roos, SIAM J. Optim.
2002).  So ``x`` follows the dual optimum, not the barrier's schedule.
Weak duality also bounds the dual, so it has no ascent ray: the solver
scales the data to ``||M||_2 <= 1`` and ``max|b_i| <= 1``, and then
``tau <= 1 + 2*sqrt(n)``.

Most instances the coded link produces need no dual solve at all.
:func:`certify_local` runs damped Newton on the time phases ``phi`` of
``x = exp(1j*phi)/sqrt(n)``.  At its stationary point the multipliers
``mu_i = Re((b - M x)_i / x_i)`` are closed-form, and ``M + Diag(mu) >= 0``
proves ``x`` globally optimal (Boumal, "Nonconvex phase synchronization",
SIAM J. Optim. 2016).  With ``tau`` the cost at ``x`` the LMI above equals
``C^H (M + Diag(mu)) C``, ``C = [I, x]``, and is PSD exactly when its top
block is, so one test certifies the points of both solvers: the LMI's
``min_eig`` against ``MIN_EIG_TOL``.  The barrier runs only where it fails.
The primal oracle of :mod:`pnofdm.sproc` descends with the same Newton
loop, :func:`_local_newton`.

The solver is a log-det barrier interior-point method: Newton centering steps
on ``-t*w.d - logdet(G0 + Diag(d))`` along an increasing barrier schedule.
With ``S = G^-1`` the gradient of ``logdet G`` is ``diag(S)`` and its negated
Hessian is ``|S|^2`` (elementwise), as for the MaxCut relaxation (Helmberg,
Rendl, Vanderbei and Wolkowicz, SIAM J. Optim. 1996), so a Newton step solves
``|S|^2 step = diag(S) + t*w`` at the cost of one ``(n+1) x (n+1)`` Cholesky
factorization and its inverse.  One Newton loop runs all the stages: a
stage ends at a step whose decrement shows ``d`` centered, without moving
``d``, so the next stage's first step reuses its ``S`` and ``|S|^2`` with
the new ``t``.  Every iterate is strictly feasible, which makes the returned
certificate unconditional.  ``n`` has no cap: ``MAX_NEWTON`` bounds a solve,
which then reports ``status = "max_iter"`` (on random Gram instances, ``k =
2n``, for half of them at n = 96 and all at n = 128).  Bad input raises
``ValueError`` and a LAPACK failure ``np.linalg.LinAlgError``.

Every LAPACK call but the 2-norm's SVD goes through numpy's gufuncs
directly, one helper per routine: the start points' solves and
``eigvalsh``, the local solve's phase-Hessian ``eigh`` and the certificate's
one ``eigvalsh`` of the LMI, the barrier's Cholesky factorizations, inverse,
Newton solve and final ``eigvalsh``, and the recovery's solve.  On these
9 x 9 matrices ``numpy.linalg``'s per-call argument handling cost more than
LAPACK did, and about a third of a barrier step.  Each solver enters one
floating-point error state (:func:`_lapack`) around all its calls, so a
LAPACK failure still raises ``LinAlgError``.  The SVD stays on public
``numpy.linalg``, since the SVD gufuncs are named differently in numpy 1.x
and 2.x: the 2-norm is taken as ``svd(M, compute_uv=False)[0]``, bit for
bit ``norm(M, 2)`` without its axis handling.  The private helpers have run
on numpy 2.4; the tier-1 workflow also runs the tests on Python 3.10 with
numpy 1.24, the floor that ``pyproject.toml`` declares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "SdpSolution",
    "certify_local",
    "kkt_recover",
    "solve_dual",
]

TOL = 1e-9  # barrier suboptimality target, absolute plus relative in tau
MAX_NEWTON = 200  # Newton steps over all centering stages of one solve
BARRIER_GROWTH = 20.0  # factor on the barrier parameter between stages
DECREMENT_TOL = 2e-11  # squared Newton decrement of a centered point
MIN_EIG_TOL = 1e-8  # LMI min_eig >= -this * (1 + ||M||_2) reports a solution optimal

# Local solve; tolerances are relative to 1 + ||M||_2.
LOCAL_MAX_NEWTON = 50  # Newton steps on the time phases
LOCAL_MAX_BACKTRACK = 40  # Armijo halvings of one step
LOCAL_STEP_CAP = 0.5  # largest phase change of one step, radians
LOCAL_GRAD_TOL = 1e-11  # phase-gradient norm (max) of a stationary point
LOCAL_EIG_FLOOR = 1e-8  # smallest eigenvalue of the modified phase Hessian
LOCAL_COST_SLACK = 1e-14  # relative cost rounding the Armijo test forgives
ARMIJO = 1e-4  # sufficient-decrease fraction of the Armijo test


def _raise_lapack_error(err, flag):
    raise np.linalg.LinAlgError("LAPACK routine failed (singular, not positive definite or not converged) or gave NaN")


def _lapack():
    """The floating-point error state under which the LAPACK helpers raise as ``numpy.linalg`` does.

    :func:`_cholesky`, :func:`_inv`, :func:`_solve`, :func:`_solve_complex`,
    :func:`_eigh` and :func:`_eigvalsh` call numpy's private LAPACK gufuncs
    (``numpy.linalg._umath_linalg``, tested on numpy 2.4) with fixed
    signatures.  They skip ``numpy.linalg``'s per-call argument handling,
    which on these 9 x 9 matrices costs more than the routine itself, and
    run the routine ``numpy.linalg`` runs, so their results are bit for bit
    the same.  A gufunc reports a failed factorization or a non-convergence
    as an invalid floating-point operation; this state, with the settings
    ``numpy.linalg`` uses, turns it into ``np.linalg.LinAlgError``.  A solver
    enters it once around its set-up and Newton loop, not once per call, so
    inside it any NaN result raises ``LinAlgError`` too.
    """
    return np.errstate(call=_raise_lapack_error, invalid="call", over="ignore", divide="ignore", under="ignore")


def _cholesky(G):
    """Lower Cholesky factor of a complex Hermitian ``G``, as ``np.linalg.cholesky``."""
    return _umath_linalg.cholesky_lo(G, signature="D->D")


def _inv(L):
    """Inverse of a complex square ``L``, as ``np.linalg.inv``."""
    return _umath_linalg.inv(L, signature="D->D")


def _solve(H, rhs):
    """Solution of the real system ``H x = rhs`` for a vector ``rhs``, as ``np.linalg.solve``."""
    return _umath_linalg.solve1(H, rhs, signature="dd->d")


def _solve_complex(A, rhs):
    """Solution of the complex system ``A x = rhs`` for a vector ``rhs``, as ``np.linalg.solve``."""
    return _umath_linalg.solve1(A, rhs, signature="DD->D")


def _eigh(H):
    """Eigenvalues and eigenvectors of a real symmetric ``H``, as ``np.linalg.eigh``."""
    return _umath_linalg.eigh_lo(H, signature="d->dd")


def _eigvalsh(G):
    """Eigenvalues of a complex Hermitian ``G``, ascending, as ``np.linalg.eigvalsh``."""
    return _umath_linalg.eigvalsh_lo(G, signature="D->d")


def _cost_pair(M, b):
    """``(M, b)`` as complex arrays, ``M`` made exactly Hermitian; ``M`` must be
    ``n x n`` Hermitian (to rounding) with ``n = len(b) >= 1``."""
    M = np.asarray(M, dtype=complex)
    b = np.asarray(b, dtype=complex).ravel()
    if b.size == 0:
        raise ValueError("the pair must have n >= 1")
    if M.shape != (b.size, b.size):
        raise ValueError("M must be n x n with n = len(b)")
    if not (np.isfinite(M).all() and np.isfinite(b).all()):
        raise ValueError("M and b must be finite")
    if abs(M - M.conj().T).max() > 1e-10 * (1 + abs(M).max()):
        raise ValueError("M must be Hermitian")
    return (M + M.conj().T) / 2, b


def _lmi(M, b, tau: float, mu) -> np.ndarray:
    """The ``(n+1) x (n+1)`` LMI ``[[M + Diag(mu), b], [b^H, -tau - sum(mu)/n]]``."""
    n = b.size
    G = np.empty((n + 1, n + 1), dtype=complex)
    G[:n, :n] = M
    G.reshape(-1)[: n * (n + 2) : n + 2] += mu  # the top block's diagonal, in place
    G[:n, n] = b
    G[n, :n] = b.conj()
    G[n, n] = -tau - np.sum(mu) / n
    return G


@dataclass(frozen=True)
class SdpSolution:
    """Certified dual solution.

    ``mu`` holds the multipliers, one per time sample; ``min_eig`` is the smallest
    eigenvalue of the unscaled LMI at ``(tau, mu)``.  A solution from
    :func:`certify_local` has ``iterations = 0`` and ``tau`` equal to the
    certified point's cost.
    """

    tau: float
    mu: np.ndarray
    min_eig: float
    iterations: int
    status: str  # "optimal" | "max_iter"


def _local_newton(A, c, phi, scale: float):
    """Damped Newton on the time phases of ``x^H A x - 2 Re(c^H x)``, ``x = exp(1j*phi)/sqrt(n)``.

    The phase Hessian is eigenvalue-modified where it is not positive
    definite, steps are capped at ``LOCAL_STEP_CAP`` radians per phase, an
    Armijo backtracking search accepts them, and the tolerances are relative
    to ``scale``.  Returns ``(x, cost, A @ x, steps, converged)`` at the last
    accepted iterate, which is feasible whether it converged or not.  The
    caller enters :func:`_lapack`.
    """
    n = c.size
    grad_tol, eig_floor = LOCAL_GRAD_TOL * scale, LOCAL_EIG_FLOOR * scale
    c_conj, a_diag = c.conj(), 2.0 * A.diagonal().real / n
    H, root_n = np.empty((n, n)), np.sqrt(n)
    H_diag = H.reshape(-1)[:: n + 1]  # a writable view of the phase Hessian's diagonal

    def cost(x):  # the cost at x, and A @ x for the gradient there
        Ax = A @ x
        return float((x.conj() @ Ax).real - 2.0 * (c_conj @ x).real), Ax

    x = np.exp(1j * phi) / root_n
    J, Ax = cost(x)
    for steps in range(LOCAL_MAX_NEWTON):
        x_conj = x.conj()
        resid = x_conj * (Ax - c)
        grad = 2.0 * resid.imag
        if abs(grad).max() <= grad_tol:
            return x, J, Ax, steps, True
        np.multiply((x_conj[:, None] * A * x).real, 2.0, out=H)
        np.subtract(a_diag, 2.0 * resid.real, out=H_diag)
        lam, V = _eigh(H)
        lam = np.maximum(abs(lam), eig_floor)
        step = -V @ ((V.T @ grad) / lam)
        step *= min(1.0, LOCAL_STEP_CAP / abs(step).max())
        slope = float(grad @ step)
        alpha = 1.0
        for _ in range(LOCAL_MAX_BACKTRACK):
            phi_trial = phi + alpha * step
            x_trial = np.exp(1j * phi_trial) / root_n
            J_trial, Ax_trial = cost(x_trial)
            if J_trial <= J + ARMIJO * alpha * slope + LOCAL_COST_SLACK * (1.0 + abs(J)):
                break
            alpha *= 0.5
        else:
            return x, J, Ax, steps, False
        phi, x, J, Ax = phi_trial, x_trial, J_trial, Ax_trial
    return x, J, Ax, LOCAL_MAX_NEWTON, False


def certify_local(M, b):
    """Solve the constrained fit locally and certify the point as its global optimum.

    Damped Newton on the time phases (:func:`_local_newton`), started from
    the phases of the unconstrained solution ``M^-1 b``.  At the stationary
    point the multipliers ``mu_i = Re((b - M x)_i / x_i)`` are closed-form,
    and ``M + Diag(mu) >= 0`` proves ``x`` globally optimal (Boumal, SIAM J.
    Optim. 2016).  With ``tau`` the cost at ``x`` that is the reported LMI's
    ``min_eig >= -MIN_EIG_TOL * (1 + ||M||_2)`` (see the module docstring),
    and the :class:`SdpSolution` certifies weak duality at equality.

    Returns ``(x, SdpSolution)`` with the time samples ``x``, or ``None``
    when the Newton solve does not converge or the certificate fails.  A
    numpy ``LinAlgError`` propagates.
    """
    M, b = _cost_pair(M, b)
    scale = 1.0 + float(np.linalg.svd(M, compute_uv=False)[0])  # 1 + ||M||_2
    with _lapack():
        phi = np.angle(_solve_complex(M, b))
        x, J, Mx, _, converged = _local_newton(M, b, phi, scale)
        if not converged:
            return None
        mu = np.real((b - Mx) / x)
        min_eig = float(_eigvalsh(_lmi(M, b, J, mu))[0])
    if min_eig < -MIN_EIG_TOL * scale:
        return None
    return x, SdpSolution(tau=J, mu=mu, min_eig=min_eig, iterations=0, status="optimal")


def solve_dual(M, b) -> SdpSolution:
    """Maximize ``tau`` over the dual LMI of ``(M, b)`` with a log-det barrier method.

    One Newton loop runs all the barrier stages.  A step whose squared
    decrement is at most ``DECREMENT_TOL`` ends its stage without moving
    ``d``, and the next stage's first step reuses its ``S`` and ``|S|^2``;
    it counts as a step, and ``MAX_NEWTON`` bounds the steps of all stages;
    a solve that uses them up, or whose line search finds no feasible
    trial, returns ``status = "max_iter"``.
    Stops at the first centered stage whose barrier suboptimality bound
    ``m/t`` is at most ``TOL * (1 + |tau|)`` (absolute plus relative).  At a
    centered point that bound is the duality gap, so consecutive stage
    objectives already agree to ``BARRIER_GROWTH * m/t``.  Every iterate
    keeps the LMI strictly positive definite, so the returned point is
    feasible and certifies weak duality on its own.  Deterministic given the
    inputs.
    """
    M, b = _cost_pair(M, b)
    n = b.size
    m = n + 1
    norm_M = float(np.linalg.svd(M, compute_uv=False)[0])  # ||M||_2
    scale = max(1.0, norm_M, float(abs(b).max()))

    # Scaled LMI G0 + Diag(d) and the objective tau = w.d.
    A, c = M / scale, b / scale
    G0 = _lmi(A, c, 0.0, np.zeros(n))
    w = np.full(m, -1.0 / n)
    w[n] = -1.0

    t = 1.0
    status = "max_iter"
    steps = 0
    with _lapack():
        # Strictly feasible start: lift mu until the top block is PD, then
        # push tau below the Schur complement.
        mu0 = max(0.0, -float(_eigvalsh(A)[0])) + 1.0
        schur = float((c.conj() @ _solve_complex(A + mu0 * np.eye(n), c)).real)
        d = np.full(m, mu0)
        d[n] = schur + 1.0

        # The LMI at d.  Line-search trials write d_trial and G's diagonal in
        # place (G_diag is a writable view); acceptance swaps d and d_trial.
        G, g0, d_trial, H = G0 + np.diag(d), G0.diagonal(), np.empty(m), np.empty((m, m))
        G_diag = G.reshape(-1)[:: m + 1]
        tw = t * w
        L = _cholesky(G)  # the factor at a new d, until its inverse is taken
        while steps < MAX_NEWTON:
            steps += 1
            if L is not None:
                Linv = _inv(L)
                S = Linv.conj().T @ Linv
                np.square(np.abs(S, out=H), out=H)  # |S|^2
                S_diag, L = S.diagonal().real, None
            rhs = S_diag + tw
            try:
                step = _solve(H, rhs)
            except np.linalg.LinAlgError:
                break
            if float(step @ rhs) <= DECREMENT_TOL:  # centered: the stage ends here
                if m / t <= TOL * (1.0 + abs(float(w @ d))):
                    status = "optimal"
                    break
                t *= BARRIER_GROWTH
                tw = t * w
                continue
            alpha_ls = 1.0
            for _ in range(60):
                np.add(d, np.multiply(step, alpha_ls, out=d_trial), out=d_trial)
                np.add(g0, d_trial, out=G_diag)
                try:
                    L = _cholesky(G)
                    break
                except np.linalg.LinAlgError:
                    alpha_ls *= 0.5
            else:
                break
            d, d_trial = d_trial, d
        np.add(g0, d, out=G_diag)
        min_eig = scale * float(_eigvalsh(G)[0])  # the unscaled LMI at (tau, mu)

    tau = float(w @ d) * scale
    mu = d[:n] * scale
    if status == "optimal" and min_eig < -MIN_EIG_TOL * (1.0 + norm_M):
        status = "max_iter"  # certificate failed; do not report optimal
    return SdpSolution(tau=tau, mu=mu, min_eig=min_eig, iterations=steps, status=status)


@dataclass(frozen=True)
class KktInfo:
    full_rank: bool


def kkt_recover(M, b, sol: SdpSolution):
    """Recover the primal time samples from the dual stationarity system.

    Solves ``(M + Diag(mu)) x = b`` exactly.  At a :func:`solve_dual`
    iterate that matrix, a principal block of the positive definite LMI, is
    positive definite, and ``x`` is the iterate's rounding
    ``-S[:n, n] / S[n, n]``, ``S = G^-1`` (see the module docstring).
    Returns ``(x, KktInfo)``; ``full_rank`` is true whenever the call
    returns.  A ``sol`` whose status is not ``"optimal"`` raises
    ``ValueError``, and a singular system ``np.linalg.LinAlgError``.
    """
    if sol.status != "optimal":
        raise ValueError(f"dual solution status is {sol.status!r}, not optimal")
    M, b = _cost_pair(M, b)
    with _lapack():
        x = _solve_complex(M + np.diag(sol.mu), b)
    return x, KktInfo(True)
