"""Tests for the duality verification machinery."""

import numpy as np
import pytest

from pnofdm.spectral import geometry_residual
from pnofdm.sproc import (
    duality_gap,
    primal_oracle,
    qmatnew_nullspace,
    random_gram_instance,
    regularity_matrix,
)


class TestRegularityMatrix:
    def test_shape_and_rank_n3(self):
        Q = regularity_matrix(3)
        assert Q.shape == (3, 4)
        assert np.linalg.matrix_rank(Q, tol=1e-10) == 3

    def test_first_row_n5(self):
        assert np.allclose(regularity_matrix(5)[0], [1, 1, 1, 1, 1, -5], atol=1e-12)

    def test_rows_sum_to_zero_all_odd_n(self):
        for n in (3, 5, 7, 9, 11):
            Q = regularity_matrix(n)
            assert np.max(np.abs(Q @ np.ones(n + 1))) < 1e-13
            assert np.linalg.matrix_rank(Q, tol=1e-10) == n

    def test_cosine_row_pattern(self):
        Q = regularity_matrix(5)
        expected = np.cos(2 * np.pi * np.arange(5) / 5)
        assert np.allclose(Q[1, :5], expected, atol=1e-12)
        assert Q[1, 5] == 0

    def test_even_n_unsupported(self):
        with pytest.raises(ValueError):
            regularity_matrix(4)


class TestQmatnewNullspace:
    def test_n3(self):
        rep = qmatnew_nullspace(3)
        assert rep.ok and rep.rank == 2
        assert np.allclose(rep.null_vector, np.ones(3) / np.sqrt(3), atol=1e-10)

    def test_n7_residual(self):
        rep = qmatnew_nullspace(7)
        assert rep.ok
        assert rep.null_residual < 1e-12

    def test_all_supported_n(self):
        for n in (3, 5, 7, 9, 11):
            assert qmatnew_nullspace(n).ok

    def test_perturbed_matrix_fails(self):
        rep = qmatnew_nullspace(5)
        Q = rep.matrix.copy()
        Q[0, 0] += 0.1
        assert np.linalg.norm(Q @ (np.ones(5) / 5)) > 1e-3


class TestPrimalOracle:
    def test_identity_no_linear_term(self):
        res = primal_oracle(np.eye(3, dtype=complex), np.zeros(3, dtype=complex))
        assert res.p_star == pytest.approx(1.0, abs=1e-10)

    def test_tau_shift_offsets_value(self):
        res = primal_oracle(np.eye(3, dtype=complex), np.zeros(3, dtype=complex), tau_shift=2.5)
        assert res.p_star == pytest.approx(3.5, abs=1e-10)

    def test_zero_cost_instance(self):
        rng = np.random.default_rng(0)
        n = 3
        g0 = np.fft.fft(np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)) / np.sqrt(n)
        A = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        M = A.conj().T @ A
        M = (M + M.conj().T) / 2
        b = A.conj().T @ (A @ g0)
        res = primal_oracle(M, b, tau_shift=float(np.real((A @ g0).conj() @ (A @ g0))))
        assert res.p_star == pytest.approx(0.0, abs=1e-8)
        assert np.linalg.norm(res.gamma - g0) < 1e-5

    def test_dominates_random_feasible_samples(self):
        M, b = random_gram_instance(3, 6, 3)
        res = primal_oracle(M, b)
        rng = np.random.default_rng(4)
        phases = rng.uniform(0, 2 * np.pi, (10_000, 3))
        g = np.fft.fft(np.exp(1j * phases) / np.sqrt(3), axis=1) / np.sqrt(3)
        J = np.einsum("bi,ij,bj->b", g.conj(), M, g).real - 2 * np.real(g @ b.conj())
        assert res.p_star <= J.min() + 1e-9

    def test_argmin_feasible(self):
        M, b = random_gram_instance(3, 6, 5)
        res = primal_oracle(M, b)
        assert geometry_residual(res.gamma).max_abs < 1e-12

    def test_size_limit(self):
        with pytest.raises(ValueError):
            primal_oracle(np.eye(6, dtype=complex), np.zeros(6, dtype=complex))


class TestDualityGap:
    def test_zero_cost_instance(self):
        rng = np.random.default_rng(6)
        n = 3
        g0 = np.fft.fft(np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)) / np.sqrt(n)
        A = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        M = A.conj().T @ A
        b = A.conj().T @ (A @ g0)
        g = duality_gap((M + M.conj().T) / 2, b)
        assert abs(g.gap) < 1e-6

    def test_random_instances_small_gap(self):
        for seed in range(3):
            M, b = random_gram_instance(3, 6, 50 + seed)
            g = duality_gap(M, b)
            assert g.gap > -1e-6
            assert abs(g.relative) < 1e-3

    def test_even_dimension_empirical(self):
        # The regularity construction assumes odd dimension; the even case
        # (half-shift form contributing a real part only) is checked
        # empirically here with no claim beyond the measured gap.
        for seed in range(2):
            M, b = random_gram_instance(4, 8, 60 + seed)
            g = duality_gap(M, b)
            assert g.gap > -1e-6
            assert abs(g.relative) < 1e-3
