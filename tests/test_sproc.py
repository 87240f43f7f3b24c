"""Tests for the duality verification machinery."""

import numpy as np
import pytest

from pnofdm import sdp, sproc
from pnofdm.sdp import _cost_pair, certify_local
from pnofdm.spectral import geometry_residual
from pnofdm.sproc import (
    duality_gap,
    primal_oracle,
    random_gram_instance,
    regularity_matrix,
)
from test_link import dft
from test_spectral import _shift


def _hermitian_split(P):
    """Dense Hermitian pair ``((P + P^H)/2, j(P^H - P)/2)``, so ``P = P_R + j P_I``."""
    Ph = P.conj().T
    return (P + Ph) / 2, 1j * (Ph - P) / 2


class TestRegularityMatrix:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_regular_for_every_n(self, n):
        Q = regularity_matrix(n)
        assert Q.shape == (n, n + 1)
        assert np.linalg.matrix_rank(Q, tol=1e-10) == n
        assert np.max(np.abs(Q @ np.ones(n + 1))) < 1e-13
        assert np.array_equal(Q[0], [1.0] * n + [-n])

    def test_cosine_row_pattern(self):
        Q = regularity_matrix(5)
        expected = np.cos(2 * np.pi * np.arange(5) / 5)
        assert np.allclose(Q[1, :5], expected, atol=1e-12)
        assert Q[1, 5] == 0

    def test_non_positive_n_rejected(self):
        with pytest.raises(ValueError):
            regularity_matrix(0)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_rows_diagonalize_the_dense_split_shifts(self, n):
        # Reference forms in row order: norm, real parts l = 1..n//2, then
        # imaginary parts l = 1..(n-1)//2 (for even n the l = n/2 shift is
        # Hermitian, so it has a real part only).
        splits = [_hermitian_split(_shift(n, l)) for l in range(1, n // 2 + 1)]
        forms = [np.eye(n)] + [real for real, _ in splits] + [imag for _, imag in splits[: (n - 1) // 2]]
        F = dft(n)
        table = regularity_matrix(n)[:, :n]
        assert table.shape == (n, n) and len(forms) == n
        for row, W in zip(table, forms):
            D = F.conj().T @ W @ F
            assert np.max(np.abs(D - np.diag(row))) < 1e-13

    def test_rows_orthogonal(self):
        table = regularity_matrix(8)[:, :8]
        gram = table @ table.T
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-12
        assert np.linalg.matrix_rank(table) == 8


def _spectral_pair(M, b):
    """The paper's pair ``(F M F^H, F b)`` on the spectrum ``gamma = F x`` of the time pair ``(M, b)``."""
    F = dft(b.size)
    return F @ M @ F.conj().T, F @ b


def _costs(M, b, phases):
    """Cost at each row of time phases, evaluated in the spectral basis."""
    n = b.size
    M, b = _spectral_pair(M, b)
    g = np.fft.fft(np.exp(1j * phases) / np.sqrt(n), axis=1) / np.sqrt(n)
    return np.einsum("bi,ij,bj->b", g.conj(), M, g).real - 2 * np.real(g @ b.conj())


def _reference_oracle(M, b, grid_points=64, max_sweeps=500, refine_tol=1e-10):
    """Upper bound from a torus grid scan plus exact coordinate descent.

    The brute force that branch-and-bound replaced: the best point of a
    ``grid_points``-per-axis grid of time phases, refined one phase at a time
    in the spectral basis (with the others fixed the cost is a sinusoid in
    each phase) until stationary.
    """
    n = b.size
    M, b = _spectral_pair(M, b)
    colv = np.fft.fft(np.eye(n), axis=0).T / n  # gamma = sum_i exp(1j*phi_i) colv[i]
    axis = 2 * np.pi * np.arange(grid_points) / grid_points
    grid = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    g = np.exp(1j * grid) @ colv
    J = np.einsum("bi,ij,bj->b", g.conj(), M, g).real - 2 * np.real(g @ b.conj())
    phases = grid[np.argmin(J)].copy()
    for _ in range(max_sweeps):
        for i in range(n):
            g_other = np.exp(1j * phases) @ colv - np.exp(1j * phases[i]) * colv[i]
            z = (M @ g_other - b).conj() @ colv[i]
            phases[i] = np.pi - np.angle(z)
        gamma = np.exp(1j * phases) @ colv
        grad = [
            -2 * np.imag(np.exp(1j * phases[i])
                         * ((M @ (gamma - np.exp(1j * phases[i]) * colv[i]) - b).conj() @ colv[i]))
            for i in range(n)
        ]
        val = float(np.real(gamma.conj() @ M @ gamma) - 2 * np.real(b.conj() @ gamma))
        if np.max(np.abs(grad)) <= refine_tol * (1 + abs(val)):
            break
    return val


def reference_primal_oracle(M, b):
    """The oracle's level loop before chunking: every level is built as one
    complex block of centres and scored at once, the descent starts from its
    best centre and the block is pruned once, against the bound it leaves."""
    A, c = _cost_pair(M, b)
    n = c.size
    scale = 1.0 + float(np.linalg.norm(A, 2))
    offsets = np.stack(np.meshgrid(*[[-1.0, 1.0]] * n, indexing="ij"), axis=-1).reshape(-1, n)
    h = np.pi / sproc.SEED_GRID
    axis = np.exp(2j * h * np.arange(sproc.SEED_GRID))
    centres = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n) / np.sqrt(n)
    curvature = sproc._curvature(A, c)
    upper, best, steps = np.inf, None, 0
    lower = np.inf
    evaluated = 0
    while True:
        cost, bound = sproc._box_bounds(A, c, centres, h, curvature)
        evaluated += len(centres)
        k = int(np.argmin(cost))
        if cost[k] < upper:
            with sdp._lapack():
                x, _, _, used, _ = sdp._local_newton(A, c, np.angle(centres[k]), scale)
            steps += used
            value = float(sproc._box_values(A, c, x[None])[0][0])
            if value < upper:
                upper, best = value, x
        keep = bound <= upper - sproc.CLOSE_TOL * (1 + abs(upper))
        lower = min(lower, bound[~keep].min(initial=np.inf))
        survivors = centres[keep]
        if not len(survivors):
            break
        if evaluated + (len(survivors) << n) > sproc.BOX_BUDGET:
            lower = min(lower, bound[keep].min())
            break
        h /= 2
        centres = (survivors[:, None, :] * np.exp(1j * h * offsets)).reshape(-1, n)
    return sproc.OracleResult(upper, float(min(lower, upper)), best, sproc.SEED_GRID, steps)


def benchmark_draws(seeds):
    """The duality-check benchmark's draws: rounds 0-3 of its three cells per seed."""
    return [
        (n, k, [seed, rnd, j])
        for seed in seeds
        for rnd in range(4)
        for j, (n, k) in enumerate(((3, 6), (3, 6), (5, 10)))
    ]


# Instances the oracle's answers are published on: the duality-check
# benchmark's draws at seeds 1-8, the full `verify` run and acceptance
# criterion 7.
ORACLE_SETS = {
    "benchmark": benchmark_draws(range(1, 9)),
    "verify": [(3, 6, s) for s in range(100, 120)] + [(5, 10, s) for s in range(200, 210)],
    "criterion-7": [(3, 6, s) for s in range(71_000, 71_020)] + [(5, 10, s) for s in range(72_000, 72_010)],
}


def assert_oracles_equal(instances):
    for n, k, seed in instances:
        M, b = random_gram_instance(n, k, seed)
        got, want = primal_oracle(M, b), reference_primal_oracle(M, b)
        assert (got.p_star, got.lower, got.grid_points, got.sweeps) == (
            want.p_star, want.lower, want.grid_points, want.sweeps), seed
        assert np.array_equal(got.x, want.x), seed


class TestChunkedOracle:
    """The chunked level loop gives the reference loop's bracket bit for bit."""

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_bitwise_equal_to_reference(self, name):
        assert_oracles_equal(ORACLE_SETS[name])

    def test_bitwise_equal_under_exhausted_budget(self, monkeypatch):
        monkeypatch.setattr(sproc, "BOX_BUDGET", 50_000)
        instances = [(n, 2 * n, 80 + n) for n in range(1, 6)] + [(5, 10, 72_000), (5, 10, 203)]
        assert_oracles_equal(instances)
        M, b = random_gram_instance(5, 10, 72_000)
        res = primal_oracle(M, b)
        assert res.p_star - res.lower > 1e-3  # the budget did run out

    @pytest.mark.parametrize("chunk", [1, 100, 1 << 15])
    def test_chunk_size_does_not_change_the_answer(self, monkeypatch, chunk):
        M, b = random_gram_instance(5, 10, 72_009)
        want = reference_primal_oracle(M, b)
        monkeypatch.setattr(sproc, "CHUNK", chunk)
        got = primal_oracle(M, b)
        assert (got.p_star, got.lower, got.sweeps) == (want.p_star, want.lower, want.sweeps)
        assert np.array_equal(got.x, want.x)


def _coordinate_minima(slope, a, h):
    """``min_{|d| <= h} g d + a d^2 / 2`` with ``|g| = slope``, at its minimizer."""
    d = np.where(a > 0, np.minimum(slope / np.where(a > 0, a, 1.0), h), h)
    return a * d * d / 2 - slope * d


def _check_box_bounds(M, b, centres, h, rng):
    """Check the oracle's bound on the boxes of half-width ``h`` around
    ``centres``: below the cost at their corners and at random interior
    points, at least the Taylor bound, and at most the same bound rebuilt
    with each Hessian diagonal entry at its smallest value over those points
    (a sound ``a_i`` is no larger, and the bound grows with ``a_i``).
    Returns the bounds, the Taylor bounds and where a coordinate's minimum
    is interior (``a_i > 0`` and ``|g_i| < a_i h``)."""
    n = b.size
    A, c = M, b
    x = np.exp(1j * centres) / np.sqrt(n)
    L = sproc._hessian_bound(A, c)
    cost, bound = sproc._box_bounds(A, c, x, h, sproc._curvature(A, c))
    _, slope, curve = sproc._box_values(A, c, x)
    taylor = cost - h * slope.sum(axis=1) - h * h * L.sum() / 2
    a = np.maximum(curve - 2 * h * np.diag(L), -np.diag(L))
    floored = np.all(a == -np.diag(L), axis=1)
    assert np.all(bound[~floored] >= taylor[~floored])
    # Where every coordinate is floored the two are equal in exact arithmetic,
    # so they must agree to rounding, either way.
    scale = np.abs(cost) + h * slope.sum(axis=1) + h * h * L.sum()
    assert np.all(np.abs(bound - taylor)[floored] <= 8 * np.finfo(float).eps * scale[floored])
    off_diagonal = L.sum() - np.trace(L)
    for psi, j, g, lb in zip(centres, cost, slope, bound):
        pts = psi + h * np.vstack([rng.choice([-1.0, 1.0], (2000, n)), rng.uniform(-1, 1, (2000, n))])
        assert _costs(M, b, pts).min() >= lb - 1e-12
        lowest = sproc._box_values(A, c, np.exp(1j * pts) / np.sqrt(n))[2].min(axis=0)
        assert lb <= j + _coordinate_minima(g, lowest, h).sum() - h * h * off_diagonal / 2 + 1e-12
    return bound, taylor, (a > 0) & (slope < a * h)


class TestPrimalOracle:
    def test_identity_no_linear_term(self):
        res = primal_oracle(np.eye(3, dtype=complex), np.zeros(3, dtype=complex))
        assert res.p_star == pytest.approx(1.0, abs=1e-10)
        assert res.lower == pytest.approx(1.0, abs=1e-10)

    def test_zero_cost_instance(self):
        rng = np.random.default_rng(0)
        n = 3
        x0 = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)
        A = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        M = A.conj().T @ A
        M = (M + M.conj().T) / 2
        b = A.conj().T @ (A @ x0)
        res = primal_oracle(M, b)
        shift = float(np.real((A @ x0).conj() @ (A @ x0)))  # the constant term ||A x0||^2
        assert res.p_star + shift == pytest.approx(0.0, abs=1e-8)
        assert res.lower <= res.p_star
        assert res.lower + shift == pytest.approx(0.0, abs=1e-8)
        assert np.linalg.norm(res.x - x0) < 1e-5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bracket_closes(self, n):
        M, b = random_gram_instance(n, 2 * n, 80 + n)
        res = primal_oracle(M, b)
        assert res.lower <= res.p_star
        assert res.p_star - res.lower <= 2e-9 * (1 + abs(res.p_star))

    def test_dominates_random_feasible_samples(self):
        for n, k in ((3, 6), (5, 10)):
            M, b = random_gram_instance(n, k, 3)
            res = primal_oracle(M, b)
            J = _costs(M, b, np.random.default_rng(4).uniform(0, 2 * np.pi, (10_000, n)))
            assert res.lower <= res.p_star <= J.min() + 1e-9

    def test_hessian_bound_holds_and_is_attained(self):
        n = 5
        A, c = M, b = random_gram_instance(n, 10, 12)
        L = sproc._hessian_bound(A, c)
        step = 1e-4
        E = step * np.eye(n)

        def hessian(phi):
            cost = lambda d: _costs(M, b, (phi + d)[None])[0]  # noqa: E731
            return np.array([[(cost(E[i] + E[j]) - cost(E[i] - E[j]) - cost(E[j] - E[i])
                               + cost(-E[i] - E[j])) / (4 * step * step) for j in range(n)]
                             for i in range(n)])

        rng = np.random.default_rng(14)
        for phi in rng.uniform(0, 2 * np.pi, (20, n)):
            assert np.all(np.abs(hessian(phi)) <= L + 1e-6)
        for i in range(n):
            # Every term of the i-th diagonal entry at its extreme value.
            phi = np.angle(c[i]) + np.pi - np.angle(A[i])
            phi[i] = np.angle(c[i])
            assert hessian(phi)[i, i] == pytest.approx(L[i, i], rel=1e-5)

    @pytest.mark.parametrize("h", [np.pi / 4, 0.05])
    def test_box_bound_below_costs_in_box(self, h):
        M, b = random_gram_instance(5, 10, 12)
        rng = np.random.default_rng(13)
        centres = rng.uniform(0, 2 * np.pi, (20, 5))
        _check_box_bounds(M, b, centres, h, rng)

    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_box_bound_near_minimiser(self, h):
        # Near the minimiser the Hessian diagonal is positive and the slope
        # small, so each coordinate's minimum lies inside the box.
        M, b = random_gram_instance(5, 10, 12)
        phases = np.angle(primal_oracle(M, b).x)
        rng = np.random.default_rng(15)
        centres = phases + rng.uniform(-h, h, (20, 5))
        bound, taylor, interior = _check_box_bounds(M, b, centres, h, rng)
        assert interior.mean() > 0.5
        assert np.all(interior.any(axis=1))
        assert np.all(bound > taylor)

    @pytest.mark.parametrize("h", [np.pi / 4, 0.05, 1e-3])
    def test_box_bound_below_separable_box_minimum(self, h):
        # With a diagonal A the cost is const - sum_i k_i cos(phi_i - arg c_i),
        # L has nothing off the diagonal and each box's minimum is exact.
        rng = np.random.default_rng(21)
        n = 5
        A = np.diag(rng.uniform(1, 3, n)).astype(complex)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = rng.uniform(0, 2 * np.pi, (4000, n))
        _, bound = sproc._box_bounds(A, c, np.exp(1j * psi) / np.sqrt(n), h, sproc._curvature(A, c))
        delta = np.abs(np.angle(np.exp(1j * (psi - np.angle(c)))))
        exact = np.trace(A).real / n - (2 * np.abs(c) / np.sqrt(n) * np.cos(np.maximum(delta - h, 0))).sum(axis=1)
        assert np.all(bound <= exact + 1e-12)

    def test_hessian_diagonal_and_its_drift(self):
        # The box's own bound rests on d^2J/dphi_i^2 = 2 A_ii / n - 2 Re(r_i)
        # and on that diagonal moving by at most 2 h L_ii over a box.
        n = 5
        A, c = M, b = random_gram_instance(n, 10, 12)
        L = sproc._hessian_bound(A, c)
        rng = np.random.default_rng(17)
        phi = rng.uniform(0, 2 * np.pi, (20, n))
        step = 1e-4
        E = step * np.eye(n)
        second = np.stack([(_costs(M, b, phi + E[i]) - 2 * _costs(M, b, phi) + _costs(M, b, phi - E[i]))
                           / step ** 2 for i in range(n)], axis=1)
        curve = sproc._box_values(A, c, np.exp(1j * phi) / np.sqrt(n))[2]
        assert np.allclose(curve, second, atol=1e-5)
        for h in (np.pi / 4, 0.05):
            moved = phi[:, None] + rng.uniform(-h, h, (20, 200, n))
            drift = sproc._box_values(A, c, np.exp(1j * moved.reshape(-1, n)) / np.sqrt(n))[2]
            assert np.all(np.abs(drift.reshape(20, 200, n) - curve[:, None]) <= 2 * h * np.diag(L))

    def test_not_above_grid_reference(self):
        for seed in (3, 5, 71_002):
            M, b = random_gram_instance(3, 6, seed)
            assert primal_oracle(M, b).p_star <= _reference_oracle(M, b) + 1e-9

    @pytest.mark.parametrize("name, certified", [("verify", 29), ("criterion-7", 28)])
    def test_matches_the_certified_local_optimum(self, name, certified):
        # Where certify_local proves its Newton point globally optimal, the
        # oracle's descent, the same Newton solve from its best box centre,
        # lands on that point.
        seen = 0
        for n, k, seed in ORACLE_SETS[name]:
            M, b = random_gram_instance(n, k, seed)
            x, sol = certify_local(M, b)
            if sol is None:
                continue
            seen += 1
            res = primal_oracle(M, b)
            assert res.p_star == pytest.approx(sol.tau, rel=1e-12, abs=0), seed
            assert np.linalg.norm(res.x - x) <= 1e-8, seed
        assert seen == certified

    def test_argmin_feasible(self):
        M, b = random_gram_instance(3, 6, 5)
        res = primal_oracle(M, b)
        assert geometry_residual(dft(3) @ res.x) < 1e-12

    def test_infeasible_argmin_raises(self, monkeypatch):
        # A descent that left the constant-modulus set is caught.
        newton = sproc._local_newton

        def off_modulus(*args):
            x, *rest = newton(*args)
            return (2 * x, *rest)

        monkeypatch.setattr(sproc, "_local_newton", off_modulus)
        M, b = random_gram_instance(3, 6, 5)
        with pytest.raises(RuntimeError):
            primal_oracle(M, b)

    def test_exhausted_budget_leaves_valid_lower(self, monkeypatch):
        M, b = random_gram_instance(5, 10, 72_000)
        full = primal_oracle(M, b)
        monkeypatch.setattr(sproc, "BOX_BUDGET", 50_000)
        res = primal_oracle(M, b)
        assert res.lower <= full.lower
        assert res.p_star - res.lower > 1e-3
        g = duality_gap(M, b)
        assert g.kind == "unresolved"
        assert g.lower <= g.p_star

    def test_deterministic(self):
        M, b = random_gram_instance(5, 10, 9)
        first, second = primal_oracle(M, b), primal_oracle(M, b)
        assert (first.p_star, first.lower, first.sweeps) == (second.p_star, second.lower, second.sweeps)
        assert np.array_equal(first.x, second.x)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            primal_oracle(np.eye(6, dtype=complex), np.zeros(6, dtype=complex))


class TestDualityGap:
    def test_zero_cost_instance(self):
        rng = np.random.default_rng(6)
        n = 3
        x0 = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)
        A = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        M = A.conj().T @ A
        b = A.conj().T @ (A @ x0)
        g = duality_gap((M + M.conj().T) / 2, b)
        assert abs(g.gap) < 1e-6
        assert g.kind == "tight"

    def test_random_instances_small_gap(self):
        for seed in range(3):
            M, b = random_gram_instance(3, 6, 50 + seed)
            g = duality_gap(M, b)
            assert g.gap > -1e-6
            assert abs(g.relative) < 1e-3
            assert g.kind == "tight"

    def test_even_dimension_empirical(self):
        # Regularity holds at every n, even n included (TestRegularityMatrix),
        # but it does not make every instance tight (test_proven_gap), so the
        # measured gap decides: both n = 4 draws are tight.
        for seed in range(2):
            M, b = random_gram_instance(4, 8, 60 + seed)
            g = duality_gap(M, b)
            assert g.gap > -1e-6
            assert abs(g.relative) < 1e-3
            assert g.kind == "tight"

    @pytest.mark.parametrize(
        "instances, gapped",
        [
            (ORACLE_SETS["criterion-7"], [72_000]),
            (ORACLE_SETS["verify"], [203]),
            (benchmark_draws(range(11, 21)), [[11, 2, 2], [17, 1, 2], [17, 3, 2], [18, 0, 2], [18, 3, 2],
                                              [19, 3, 1]]),
        ],
        ids=["criterion-7", "verify", "benchmark-seeds-11-20"],
    )
    def test_published_kinds(self, instances, gapped):
        # The kind counts the sproc docstring and the README publish: 29
        # tight and 1 proven gap, twice, and 114 tight and 6 proven gaps.
        kinds = [duality_gap(*random_gram_instance(n, k, seed)).kind for n, k, seed in instances]
        assert [seed for (_, _, seed), kind in zip(instances, kinds) if kind != "tight"] == gapped
        assert kinds.count("proven_gap") == len(gapped)

    @pytest.mark.parametrize(
        "seed, lower, d_star, relative",
        [(72_000, -7.6762248, -7.6793137, 3.56e-4), ([11, 2, 2], None, None, 9.99e-3)],
        ids=["acceptance-worst", "benchmark-seed-11"],
    )
    def test_proven_gap(self, seed, lower, d_star, relative):
        # The certified lower bound of the primal lies above the dual optimum:
        # the relaxation is not tight on these instances.
        g = duality_gap(*random_gram_instance(5, 10, seed))
        assert g.kind == "proven_gap"
        assert g.solution.status == "optimal"
        assert g.lower - g.d_star > 1e-6 * (1 + abs(g.p_star))
        assert g.relative == pytest.approx(relative, rel=5e-3)
        if lower is not None:
            assert g.lower == pytest.approx(lower, abs=1e-7)
            assert g.d_star == pytest.approx(d_star, abs=1e-7)
