"""Tests for the LMI assembly, the local certificate, the dual solver, and recovery."""

import dataclasses

import numpy as np
import pytest

from pnofdm import sdp
from pnofdm.estimators import build_ls_system, gls, project_constant_modulus
from pnofdm.link import DEFAULT_MODEL, LinkConfig, make_frame_pair, make_model
from pnofdm.sdp import (
    SdpSolution,
    _cost_pair,
    _lmi,
    certify_local,
    kkt_recover,
    solve_dual,
)
from pnofdm.sproc import duality_gap, primal_oracle, random_gram_instance
from test_link import dft


def eye_pair(n):
    return np.eye(n, dtype=complex), np.zeros(n, dtype=complex)


def reference_lmi(M, b, tau, mu):
    """The paper's frequency-basis LMI ``[[Mf + F Diag(mu) F^H, bf], [bf^H, -tau - sum(mu)/n]]``
    on the spectral pair ``(Mf, bf) = (F M F^H, F b)`` of the time pair ``(M, b)``.

    Written independently of :mod:`pnofdm.sdp`, which builds the LMI on the
    time pair as it is, so that the certificates it reports can be checked:
    the two LMIs are similar under ``blkdiag(F, 1)``.
    """
    n = len(b)
    F = dft(n)
    Mf, bf = F @ M @ F.conj().T, F @ b
    G = np.empty((n + 1, n + 1), dtype=complex)
    G[:n, :n] = Mf + (F * mu) @ F.conj().T
    G[:n, n] = bf
    G[n, :n] = np.conj(bf)
    G[n, n] = -tau - np.sum(mu) / n
    return (G + G.conj().T) / 2


def assert_min_eig_matches_reference(M, b, sol):
    ref = np.linalg.eigvalsh(reference_lmi(M, b, sol.tau, sol.mu)).min()
    assert abs(sol.min_eig - ref) <= 1e-12 * (1 + np.linalg.norm(M, 2))
    return ref


class TestAssemble:
    """The builder on the time pair against the paper's frequency-basis form."""

    def test_zero_variables(self):
        M, b = random_gram_instance(3, 5, 0)
        G = _lmi(M, b, 0.0, np.zeros(3))
        assert np.array_equal(G[:3, :3], M)
        assert np.array_equal(G[:3, 3], b)
        assert G[3, 3] == 0

    def test_block_diagonal_eigenvalues(self):
        eigs = np.sort(np.linalg.eigvalsh(_lmi(*eye_pair(3), 0.5, np.full(3, -0.5))))
        assert np.allclose(eigs, [0.0, 0.5, 0.5, 0.5], atol=1e-13)

    def test_hermitian_on_random_inputs(self):
        rng = np.random.default_rng(1)
        M, b = random_gram_instance(5, 8, 1)
        G = _lmi(M, b, rng.standard_normal(), rng.standard_normal(5))
        assert np.max(np.abs(G - G.conj().T)) < 1e-13

    def test_multipliers_are_the_time_basis_diagonal(self):
        # Conjugated by blkdiag(F, 1) the paper's LMI is the builder's
        # [[M + Diag(mu), b], [b^H, -tau - sum(mu)/n]], for scaled data too.
        rng = np.random.default_rng(2)
        M, b = random_gram_instance(5, 8, 2)
        tau, mu = rng.standard_normal(), rng.standard_normal(5)
        T = np.eye(6, dtype=complex)
        T[:5, :5] = dft(5)
        Gt = T.conj().T @ reference_lmi(M, b, tau, mu) @ T
        assert np.allclose(_lmi(M, b, tau, mu), Gt, atol=1e-13)
        assert np.allclose(4.0 * _lmi(M / 4.0, b / 4.0, tau / 4.0, mu / 4.0), Gt, atol=1e-13)

    def test_multiplier_counts(self):
        # One multiplier per time sample, for odd and even n alike.
        for n in (3, 5, 8):
            assert solve_dual(*eye_pair(n)).mu.shape == (n,)

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ValueError, match="n x n"):
            _cost_pair(np.eye(5), np.zeros(4))

    def test_column_b_accepted(self):
        # A column ``b`` reads as its entries, at every entry point.
        M, b = random_gram_instance(3, 6, 2)
        col = b[:, None]
        sol = solve_dual(M, b)
        sol_col = solve_dual(M, col)
        assert (sol_col.tau, sol_col.min_eig) == (sol.tau, sol.min_eig)
        assert np.array_equal(sol_col.mu, sol.mu)
        assert np.array_equal(kkt_recover(M, col, sol)[0], kkt_recover(M, b, sol)[0])
        local, local_col = certify_local(M, b), certify_local(M, col)
        assert (local is None) == (local_col is None)
        if local is not None:
            assert np.array_equal(local[0], local_col[0])
        assert primal_oracle(M, col).p_star == primal_oracle(M, b).p_star

    def test_non_hermitian_rejected(self):
        M = np.triu(np.ones((3, 3), dtype=complex))
        with pytest.raises(ValueError):
            solve_dual(M, np.zeros(3))


ENTRY_POINTS = {
    "certify_local": certify_local,
    "solve_dual": solve_dual,
    "kkt_recover": lambda M, b: kkt_recover(M, b, solve_dual(*eye_pair(3))),
    "primal_oracle": primal_oracle,
    "duality_gap": duality_gap,
}


BAD_PAIRS = [  # (id suffix, M, b, error): a non-Hermitian M, NaN or inf in a Hermitian pair, an empty pair
    ("", np.triu(np.ones((3, 3), dtype=complex)), np.zeros(3), "Hermitian"),
    ("-nan_M", np.diag([1.0, np.nan, 1.0]).astype(complex), np.zeros(3), "finite"),
    ("-inf_b", np.eye(3, dtype=complex), np.array([0.0, 0.0, np.inf]), "finite"),
    ("-empty", np.zeros((0, 0), dtype=complex), np.zeros(0, dtype=complex), "n >= 1"),
]


@pytest.mark.parametrize(
    "solve, M, b, error",
    [
        pytest.param(solve, M, b, error, id=name + suffix)
        for suffix, M, b, error in BAD_PAIRS
        for name, solve in ENTRY_POINTS.items()
    ],
)
def test_every_entry_point_rejects_non_hermitian(solve, M, b, error):
    # Non-finite data is rejected before any LAPACK call; NaN would pass the Hermitian test.
    # An empty pair is rejected by the pair check, not by a numpy reduction of a zero-size array.
    with pytest.raises(ValueError, match=error):
        solve(M, b)


class TestSolveDual:
    def test_identity_instance_feasibility_anchor(self):
        # With all variables zero the LMI is PSD (feasible anchor point).
        G = reference_lmi(*eye_pair(3), 0.0, np.zeros(3))
        assert np.linalg.eigvalsh(G).min() >= -1e-13

    def test_identity_instance_optimum(self):
        # The cost form equals 1 on the whole unit-norm feasible set, so the
        # certified optimum is 1 (reached at mu = -1).
        sol = solve_dual(*eye_pair(3))
        assert sol.status == "optimal"
        assert sol.tau == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(sol.mu, -1.0, atol=1e-6)

    def test_weak_duality_against_sampled_points(self):
        M, b = random_gram_instance(3, 6, 42)
        sol = solve_dual(M, b)
        rng = np.random.default_rng(0)
        phases = rng.uniform(0, 2 * np.pi, (1000, 3))
        x = np.exp(1j * phases) / np.sqrt(3)
        J = np.einsum("bi,ij,bj->b", x.conj(), M, x).real - 2 * np.real(x @ b.conj())
        assert np.min(J - sol.tau) > -1e-6

    def test_matches_oracle_on_random_instances(self):
        for n, k, seeds in ((3, 6, range(3)), (5, 10, range(2))):
            for s in seeds:
                M, b = random_gram_instance(n, k, 1000 + s)
                sol = solve_dual(M, b)
                p_star = primal_oracle(M, b).p_star
                assert abs(p_star - sol.tau) / (1 + abs(p_star)) < 1e-3

    def test_certificate(self):
        # Both solvers report the smallest eigenvalue of the paper's LMI at
        # their (tau, mu); random_gram_instance(8, 12, 5) certifies locally.
        M, b = random_gram_instance(8, 12, 5)
        _, local = certify_local(M, b)
        for sol in (solve_dual(M, b), local):
            ref = assert_min_eig_matches_reference(M, b, sol)
            assert ref >= -1e-8 * (1 + np.linalg.norm(M, 2))

    def test_deterministic(self):
        M, b = random_gram_instance(4, 7, 7)
        a = solve_dual(M, b)
        c = solve_dual(M, b)
        assert a.tau == c.tau and np.array_equal(a.mu, c.mu)

    def test_stuck_line_search_is_not_optimal(self, monkeypatch):
        # Every factorization after the start point fails, so the first line
        # search finds no feasible trial; the solve must not report optimal.
        cholesky = sdp._cholesky
        calls = []

        def first_only(G):
            calls.append(1)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(G)

        monkeypatch.setattr(sdp, "_cholesky", first_only)
        sol = solve_dual(*random_gram_instance(3, 6, 1))
        assert len(calls) > 1
        assert sol.status == "max_iter"

    def test_no_size_cap(self):
        # The step budget, not a size, limits the solve: n = 65 certifies in 126 steps.
        M, b = random_gram_instance(65, 130, 2)
        sol = solve_dual(M, b)
        assert sol.status == "optimal" and sol.iterations < sdp.MAX_NEWTON
        assert sol.min_eig >= -sdp.MIN_EIG_TOL * (1 + np.linalg.norm(M, 2))


class TestKktRecover:
    def test_full_rank_equals_direct_solve(self):
        M, b = random_gram_instance(5, 10, 8)
        sol = solve_dual(M, b)
        x, info = kkt_recover(M, b, sol)
        F = dft(5)
        A = reference_lmi(M, b, sol.tau, sol.mu)[:5, :5]  # the paper's system on the spectrum
        direct = F.conj().T @ np.linalg.solve(A, F @ b)
        assert info.full_rank
        assert np.linalg.norm(x - direct) < 1e-10 * (1 + np.linalg.norm(direct))

    def test_noise_free_instance_recovers_truth(self):
        # Known feasible minimizer: w = A x0 makes the constrained optimum x0.
        rng = np.random.default_rng(9)
        n, k = 5, 10
        x0 = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)
        A = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        M = A.conj().T @ A
        b = A.conj().T @ (A @ x0)
        M = (M + M.conj().T) / 2
        x, _ = kkt_recover(M, b, solve_dual(M, b))
        assert np.linalg.norm(x - x0) < 1e-6

    def test_rank_deficient_flagged_minimum_norm(self):
        M, b = np.diag([1.0, 1.0, 0.0]).astype(complex), np.array([1.0, 0.0, 0.0], complex)
        fake = dataclasses.replace(solve_dual(M, b), mu=np.zeros(3), status="optimal")
        x, info = kkt_recover(M, b, fake)
        assert not info.full_rank and info.rank == 2
        assert np.allclose(x, [1.0, 0.0, 0.0])  # minimum-norm solution

    def test_requires_optimal_status(self):
        M, b = random_gram_instance(3, 6, 10)
        sol = dataclasses.replace(solve_dual(M, b), status="max_iter")
        with pytest.raises(ValueError, match="not optimal"):
            kkt_recover(M, b, sol)


class TestLinkInstances:
    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    def test_certificate_and_weak_duality(self, snr_db):
        # The instances the coded link produces: n = 8 (even) with a ppt model.
        cfg = LinkConfig(snr_db=snr_db)
        model = make_model("ppt", cfg.n_c, DEFAULT_MODEL[1])
        assert model.shape == (cfg.n_c, 8)
        for f0, _ in make_frame_pair(cfg, np.random.SeedSequence([2024, int(snr_db)]).spawn(4)):
            sys = build_ls_system(f0, model)
            out = gls(sys, model)
            sol = out.diagnostics.solver
            assert sol.status == "optimal"
            bound = -1e-8 * (1 + np.linalg.norm(sys.M, 2))
            assert assert_min_eig_matches_reference(sys.M, sys.b, sol) >= bound
            assert out.diagnostics.cost - sys.const_term >= sol.tau - 1e-6
            if out.diagnostics.certified:
                assert sol.iterations == 0 and out.diagnostics.gap == 0
                assert sol.min_eig >= bound
                dual = solve_dual(sys.M, sys.b)
                ref, _ = project_constant_modulus(model @ kkt_recover(sys.M, sys.b, dual)[0])
                assert np.max(np.abs(out.delta_hat - ref)) < 1e-6
                # The certified cost is the dual optimum.
                assert abs(sol.tau - dual.tau) <= 1e-7 * (1 + abs(dual.tau))


class TestClosedFormCertificate:
    """Multipliers ``mu_i = Re((b - M x)_i / x_i)`` at the oracle's argmin ``x``.

    The LMI at ``(p_star, mu)`` is PSD exactly when ``x`` is a global optimum
    of the relaxation: it certifies tight instances and fails on gapped ones.
    """

    @staticmethod
    def certificate_min_eig(n, k, seed):
        M, b = random_gram_instance(n, k, seed)
        oracle = primal_oracle(M, b)
        x = oracle.x
        mu = np.real((b - M @ x) / x)
        return np.linalg.eigvalsh(reference_lmi(M, b, oracle.p_star, mu)).min()

    @pytest.mark.parametrize("n, k, seed", [(3, 6, 71000), (5, 10, 72001)])
    def test_psd_on_tight_instances(self, n, k, seed):
        assert self.certificate_min_eig(n, k, seed) >= -1e-9

    def test_fails_on_proven_gap_instance(self):
        assert self.certificate_min_eig(5, 10, 72000) < -0.1


def reference_time_lmi(A, c, tau, mu):
    """The time-basis LMI written with a fancy-indexed diagonal, the reference for :func:`pnofdm.sdp._lmi`."""
    n = c.size
    G = np.empty((n + 1, n + 1), dtype=complex)
    G[:n, :n] = A
    G[np.diag_indices(n)] += mu
    G[:n, n] = c
    G[n, :n] = c.conj()
    G[n, n] = -tau - np.sum(mu) / n
    return G


def reference_certify_local(M, b):
    """Loop reference for :func:`certify_local`, recomputing ``A @ x`` and every loop invariant per step."""
    A, c = _cost_pair(M, b)
    n = c.size
    scale = 1.0 + float(np.linalg.norm(A, 2))

    def cost(x):
        return float(np.real(x.conj() @ (A @ x)) - 2.0 * np.real(c.conj() @ x))

    phi = np.angle(np.linalg.solve(A, c))
    x = np.exp(1j * phi) / np.sqrt(n)
    J = cost(x)
    for _ in range(sdp.LOCAL_MAX_NEWTON):
        resid = np.conj(x) * (A @ x - c)
        grad = 2.0 * resid.imag
        if np.max(np.abs(grad)) <= sdp.LOCAL_GRAD_TOL * scale:
            break
        H = 2.0 * np.real(np.conj(x)[:, None] * A * x[None, :])
        H[np.diag_indices(n)] = 2.0 * A.diagonal().real / n - 2.0 * resid.real
        lam, V = np.linalg.eigh(H)
        lam = np.maximum(np.abs(lam), sdp.LOCAL_EIG_FLOOR * scale)
        step = -V @ ((V.T @ grad) / lam)
        step *= min(1.0, sdp.LOCAL_STEP_CAP / np.max(np.abs(step)))
        slope = float(grad @ step)
        alpha = 1.0
        for _ in range(sdp.LOCAL_MAX_BACKTRACK):
            x_trial = np.exp(1j * (phi + alpha * step)) / np.sqrt(n)
            J_trial = cost(x_trial)
            if J_trial <= J + sdp.ARMIJO * alpha * slope + sdp.LOCAL_COST_SLACK * (1.0 + abs(J)):
                break
            alpha *= 0.5
        else:
            return None
        phi, x, J = phi + alpha * step, x_trial, J_trial
    else:
        return None
    mu = np.real((c - A @ x) / x)
    G = reference_time_lmi(A, c, J, mu)
    if float(np.linalg.eigvalsh(G[:n, :n])[0]) < -sdp.CERT_EIG_TOL * scale:
        return None
    min_eig = float(np.linalg.eigvalsh(G)[0])
    if min_eig < -sdp.MIN_EIG_TOL * scale:
        return None
    return x, SdpSolution(tau=J, mu=mu, min_eig=min_eig, iterations=0, status="optimal")


def reference_center(d, t, G0, w, budget):
    """One centering stage from its own Cholesky factor, allocating each trial's LMI.

    Returns ``(d, steps, ok)``; ``ok`` is false when the stage needed more
    than ``budget`` steps, the Newton system is singular, or the line search
    finds no strictly feasible trial.
    """
    L = np.linalg.cholesky(G0 + np.diag(d))
    steps = 0
    while steps < budget:
        steps += 1
        Linv = np.linalg.inv(L)
        S = Linv.conj().T @ Linv
        H = np.abs(S) ** 2
        rhs = S.diagonal().real + t * w
        try:
            step = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            return d, steps, False
        if float(step @ rhs) <= sdp.DECREMENT_TOL:
            return d, steps, True
        alpha = 1.0
        for _ in range(60):
            d_trial = d + alpha * step
            try:
                L = np.linalg.cholesky(G0 + np.diag(d_trial))
                break
            except np.linalg.LinAlgError:
                alpha *= 0.5
        else:
            return d, steps, False
        d = d_trial
    return d, steps, False


def reference_solve_dual(M, b):
    """Stage-by-stage reference for :func:`solve_dual`, one :func:`reference_center` call per stage.

    Returns ``(SdpSolution, stage_ends)``, ``stage_ends`` the step count at
    the end of each completed stage.  It stops only once the stage objective
    has also stabilized to ``sqrt(TOL)`` relative, a test the certified bound
    ``m/t <= TOL * (1 + |tau|)`` already implies: equal solutions show that
    the test never decides a stop.
    """
    M, b = _cost_pair(M, b)
    n = b.size
    m = n + 1
    norm_M = float(np.linalg.norm(M, 2))
    scale = max(1.0, norm_M, float(np.max(np.abs(b))))
    A, c = M / scale, b / scale
    G0 = reference_time_lmi(A, c, 0.0, np.zeros(n))
    w = np.full(m, -1.0 / n)
    w[n] = -1.0
    mu0 = max(0.0, -float(np.linalg.eigvalsh(A)[0])) + 1.0
    schur = float(np.real(c.conj() @ np.linalg.solve(A + mu0 * np.eye(n), c)))
    d = np.full(m, mu0)
    d[n] = schur + 1.0
    t, stage_ends, status, tau_prev, steps = 1.0, [], "optimal", None, 0
    while True:
        d, used, ok = reference_center(d, t, G0, w, sdp.MAX_NEWTON - steps)
        steps += used
        if not ok:
            status = "max_iter"
            break
        stage_ends.append(steps)
        tau_s = float(w @ d)
        stabilized = tau_prev is not None and abs(tau_s - tau_prev) <= np.sqrt(sdp.TOL) * (1.0 + abs(tau_s))
        if m / t <= sdp.TOL * (1.0 + abs(tau_s)) and stabilized:
            break
        tau_prev = tau_s
        t *= sdp.BARRIER_GROWTH
    min_eig = scale * float(np.linalg.eigvalsh(G0 + np.diag(d))[0])
    if status == "optimal" and min_eig < -sdp.MIN_EIG_TOL * (1.0 + norm_M):
        status = "max_iter"
    sol = SdpSolution(float(w @ d) * scale, d[:n] * scale, min_eig, steps, status)
    return sol, stage_ends


def reference_kkt_recover(M, b, sol):
    """Reference for :func:`kkt_recover`: the pseudo-inverse solve written out.  Returns ``(x, rank)``."""
    M, b = _cost_pair(M, b)
    U, s, Vh = np.linalg.svd(M + np.diag(sol.mu))
    keep = s > sdp.KKT_RCOND * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return Vh.conj().T @ (inv_s * (U.conj().T @ b)), int(np.count_nonzero(keep))


def reference_gls(sys, model):
    """Reference for :func:`pnofdm.estimators.gls` on the reference solvers.

    Returns ``(delta, cost, gap, flags, certified)``.
    """
    local = reference_certify_local(sys.M, sys.b)
    flags = ()
    if local is not None:
        x, sol = local
        delta = model @ x
    else:
        sol = reference_solve_dual(sys.M, sys.b)[0]
        assert sol.status == "optimal"
        x, rank = reference_kkt_recover(sys.M, sys.b, sol)
        if rank < sys.b.size:
            flags = (f"kkt_rank_deficient:{rank}",)
        delta, n_zero = project_constant_modulus(model @ x)
        if n_zero:
            flags = flags + (f"zero_time_samples:{n_zero}",)
    cost = sys.cost_delta(delta)
    gap = 0.0 if local is not None else cost - sys.const_term - sol.tau
    return delta, cost, gap, flags, local is not None


def assert_same_solution(got, ref):
    assert (got.tau, got.min_eig, got.iterations, got.status) == (ref.tau, ref.min_eig, ref.iterations, ref.status)
    assert np.array_equal(got.mu, ref.mu)


@pytest.fixture(scope="module")
def link_systems():
    """``(LsSystem, model)`` of 40 link frames at each of 10, 20 and 30 dB."""
    systems = []
    for snr_db in (10.0, 20.0, 30.0):
        cfg = LinkConfig(snr_db=snr_db)
        model = make_model("ppt", cfg.n_c, DEFAULT_MODEL[1])
        for f0, _ in make_frame_pair(cfg, np.random.SeedSequence([4242, int(snr_db)]).spawn(40)):
            systems.append((build_ls_system(f0, model), model))
    return systems


@pytest.fixture(scope="module")
def link_pairs(link_systems):
    """``(M, b)`` of the 120 link frames."""
    return [(sys.M, sys.b) for sys, _ in link_systems]


GRAM_PAIRS = [random_gram_instance(n, k, 300 + seed) for n, k in ((3, 6), (5, 10), (8, 12)) for seed in range(10)]


class TestMatchesReference:
    """The solvers match their loop references bit for bit."""

    @staticmethod
    def check(M, b):
        got, ref = certify_local(M, b), reference_certify_local(M, b)
        assert (got is None) == (ref is None)
        if got is not None:
            assert np.array_equal(got[0], ref[0])
            assert_same_solution(got[1], ref[1])
        sol, ref_sol = solve_dual(M, b), reference_solve_dual(M, b)[0]
        assert_same_solution(sol, ref_sol)
        if sol.status == "optimal":
            x, info = kkt_recover(M, b, sol)
            ref_x, ref_rank = reference_kkt_recover(M, b, ref_sol)
            assert np.array_equal(x, ref_x)
            assert (info.rank, info.full_rank) == (ref_rank, ref_rank == np.size(b))
        return got is None

    def test_link_frames(self, link_pairs):
        uncertified = sum(self.check(M, b) for M, b in link_pairs)
        assert 0 < uncertified < len(link_pairs)  # both paths of gls are exercised

    def test_gram_instances(self):
        for M, b in GRAM_PAIRS:
            self.check(M, b)

    def test_gls_on_link_frames(self, link_systems):
        kinds = set()
        for sys, model in link_systems:
            out, ref = gls(sys, model), reference_gls(sys, model)
            d = out.diagnostics
            assert np.array_equal(out.delta_hat, ref[0])
            assert (d.cost, d.gap, d.flags, d.certified) == ref[1:]
            kinds.add(d.certified)
        assert kinds == {True, False}

    @pytest.mark.parametrize("budget", ["one_step", "mid_stage", "stage_end"])
    def test_step_budget_exhaustion(self, budget, link_pairs, monkeypatch):
        cases = [(M, b, reference_solve_dual(M, b)[1]) for M, b in GRAM_PAIRS[::7] + link_pairs[::30]]
        for M, b, stage_ends in cases:
            lengths = np.diff([0] + stage_ends)
            j = next(i for i in range(len(stage_ends) - 1) if lengths[i] >= 2)  # a long, non-final stage
            k = {"one_step": 1, "mid_stage": stage_ends[j] - 1, "stage_end": stage_ends[j]}[budget]
            monkeypatch.setattr(sdp, "MAX_NEWTON", k)
            got, ref = solve_dual(M, b), reference_solve_dual(M, b)[0]
            assert_same_solution(got, ref)
            assert (got.iterations, got.status) == (k, "max_iter")


LAPACK_HELPERS = {
    "_cholesky": np.linalg.cholesky,
    "_inv": np.linalg.inv,
    "_solve": np.linalg.solve,
    "_solve_complex": np.linalg.solve,
    "_eigh": np.linalg.eigh,
    "_eigvalsh": np.linalg.eigvalsh,
}


@pytest.fixture(scope="module")
def helper_inputs():
    """The arguments of every LAPACK helper call made by ``gls``'s solvers on 24 link frames at 10 and 30 dB."""
    seen = {name: [] for name in LAPACK_HELPERS}
    with pytest.MonkeyPatch.context() as mp:
        for name in LAPACK_HELPERS:

            def record(*args, _helper=getattr(sdp, name), _calls=seen[name]):
                _calls.append([a.copy() for a in args])  # the line search rewrites G in place
                return _helper(*args)

            mp.setattr(sdp, name, record)
        for snr_db in (10.0, 30.0):
            cfg = LinkConfig(snr_db=snr_db)
            model = make_model("ppt", cfg.n_c, DEFAULT_MODEL[1])
            for f0, _ in make_frame_pair(cfg, np.random.SeedSequence([4343, int(snr_db)]).spawn(12)):
                sys = build_ls_system(f0, model)
                if certify_local(sys.M, sys.b) is None:
                    solve_dual(sys.M, sys.b)
    return seen


def lapack_outcome(f, args):
    """``f(*args)`` as a tuple of arrays, or ``None`` when it raises ``LinAlgError``."""
    try:
        out = f(*args)
    except np.linalg.LinAlgError:
        return None
    return tuple(out) if isinstance(out, tuple) else (out,)


class TestLapackHelpers:
    """The direct LAPACK calls give what ``numpy.linalg`` gives, and fail where it fails."""

    @pytest.mark.parametrize("name", list(LAPACK_HELPERS))
    def test_bitwise_equal_on_link_matrices(self, name, helper_inputs):
        calls = helper_inputs[name]
        failed = 0
        with sdp._lapack():
            for args in calls:
                got, ref = lapack_outcome(getattr(sdp, name), args), lapack_outcome(LAPACK_HELPERS[name], args)
                assert (got is None) == (ref is None)
                if got is None:
                    failed += 1
                    continue
                assert all(g.dtype == r.dtype and np.array_equal(g, r) for g, r in zip(got, ref))
        assert len(calls) > 20 and failed < len(calls)
        if name == "_cholesky":
            assert failed > 0  # rejected line-search trials are compared too

    @pytest.mark.parametrize(
        "name, args",
        [
            ("_cholesky", (-np.eye(3, dtype=complex),)),
            ("_inv", (np.zeros((3, 3), dtype=complex),)),
            ("_solve", (np.ones((3, 3)), np.ones(3))),
            ("_solve_complex", (np.ones((3, 3), dtype=complex), np.ones(3, dtype=complex))),
        ],
        ids=["non_pd_cholesky", "singular_inv", "singular_solve", "singular_solve_complex"],
    )
    def test_raise_where_numpy_linalg_raises(self, name, args):
        before = np.geterr()
        with pytest.raises(np.linalg.LinAlgError):
            LAPACK_HELPERS[name](*args)
        with pytest.raises(np.linalg.LinAlgError), sdp._lapack():
            getattr(sdp, name)(*args)
        assert np.geterr() == before
