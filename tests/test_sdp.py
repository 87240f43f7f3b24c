"""Tests for the dual SDP assembly, solver, and recovery."""

import dataclasses

import numpy as np
import pytest

from pnofdm.estimators import build_ls_system, gls, project_constant_modulus
from pnofdm.link import LinkConfig, make_frame_pair, make_model
from pnofdm.sdp import SolverError, assemble_lmi, kkt_recover, solve_dual
from pnofdm.spectral import dft_matrix
from pnofdm.sproc import primal_oracle, random_gram_instance


def eye_pair(n):
    return np.eye(n, dtype=complex), np.zeros(n, dtype=complex)


class TestAssemble:
    def test_zero_variables(self):
        M, b = random_gram_instance(3, 5, 0)
        G = assemble_lmi(M, b, 0.0, np.zeros(3))
        assert np.allclose(G[:3, :3], M)
        assert np.allclose(G[:3, 3], b)
        assert G[3, 3] == 0

    def test_block_diagonal_eigenvalues(self):
        G = assemble_lmi(*eye_pair(3), 0.5, np.full(3, -0.5))
        eigs = np.sort(np.linalg.eigvalsh(G))
        assert np.allclose(eigs, [0.0, 0.5, 0.5, 0.5], atol=1e-13)

    def test_hermitian_on_random_inputs(self):
        rng = np.random.default_rng(1)
        M, b = random_gram_instance(5, 8, 1)
        G = assemble_lmi(M, b, rng.standard_normal(), rng.standard_normal(5))
        assert np.max(np.abs(G - G.conj().T)) < 1e-13

    def test_multipliers_are_the_time_basis_diagonal(self):
        # Conjugated by blkdiag(F, 1) the LMI is [[A + Diag(mu), c], [c^H, -tau - sum(mu)/n]].
        rng = np.random.default_rng(2)
        M, b = random_gram_instance(5, 8, 2)
        tau, mu = rng.standard_normal(), rng.standard_normal(5)
        T = np.eye(6, dtype=complex)
        T[:5, :5] = dft_matrix(5)
        Gt = T.conj().T @ assemble_lmi(M, b, tau, mu) @ T
        Gt0 = T.conj().T @ assemble_lmi(M, b, 0.0, np.zeros(5)) @ T
        assert np.allclose(Gt - Gt0, np.diag(np.append(mu, -tau - mu.sum() / 5)), atol=1e-13)

    def test_multiplier_counts(self):
        # One multiplier per time sample, for odd and even n alike.
        for n in (3, 5, 8):
            assert solve_dual(*eye_pair(n)).mu.shape == (n,)

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ValueError):
            assemble_lmi(*eye_pair(5), 0.0, np.zeros(4))

    def test_non_hermitian_rejected(self):
        M = np.triu(np.ones((3, 3), dtype=complex))
        with pytest.raises(ValueError):
            solve_dual(M, np.zeros(3))
        with pytest.raises(ValueError):
            assemble_lmi(M, np.zeros(3), 0.0, np.zeros(3))


class TestSolveDual:
    def test_identity_instance_feasibility_anchor(self):
        # With all variables zero the LMI is PSD (feasible anchor point).
        G = assemble_lmi(*eye_pair(3), 0.0, np.zeros(3))
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
        g = np.fft.fft(np.exp(1j * phases) / np.sqrt(3), axis=1) / np.sqrt(3)
        J = np.einsum("bi,ij,bj->b", g.conj(), M, g).real - 2 * np.real(g @ b.conj())
        assert np.min(J - sol.tau) > -1e-6

    def test_matches_oracle_on_random_instances(self):
        for n, k, seeds in ((3, 6, range(3)), (5, 10, range(2))):
            for s in seeds:
                M, b = random_gram_instance(n, k, 1000 + s)
                sol = solve_dual(M, b)
                p_star = primal_oracle(M, b).p_star
                assert abs(p_star - sol.tau) / (1 + abs(p_star)) < 1e-3

    def test_certificate(self):
        M, b = random_gram_instance(8, 12, 5)
        sol = solve_dual(M, b)
        G = assemble_lmi(M, b, sol.tau, sol.mu)
        assert sol.min_eig == pytest.approx(np.linalg.eigvalsh(G).min(), abs=1e-12)
        assert np.linalg.eigvalsh(G).min() >= -1e-8 * (1 + np.linalg.norm(M, 2))

    def test_tau_path_monotone(self):
        M, b = random_gram_instance(5, 9, 6)
        sol = solve_dual(M, b)
        assert np.all(np.diff(sol.tau_path) >= -1e-9 * (1 + np.abs(sol.tau_path[1:])))

    def test_deterministic(self):
        M, b = random_gram_instance(4, 7, 7)
        a = solve_dual(M, b)
        c = solve_dual(M, b)
        assert a.tau == c.tau and np.array_equal(a.mu, c.mu)

    def test_size_limit(self):
        with pytest.raises(SolverError):
            solve_dual(*eye_pair(65))


class TestKktRecover:
    def test_full_rank_equals_direct_solve(self):
        M, b = random_gram_instance(5, 10, 8)
        sol = solve_dual(M, b)
        gamma, info = kkt_recover(M, b, sol)
        A = assemble_lmi(M, b, sol.tau, sol.mu)[:5, :5]
        direct = np.linalg.solve(A, b)
        assert info.full_rank
        assert np.linalg.norm(gamma - direct) < 1e-10 * (1 + np.linalg.norm(direct))

    def test_noise_free_instance_recovers_truth(self):
        # Known feasible minimizer: w = A g0 makes the constrained optimum g0.
        rng = np.random.default_rng(9)
        n, k = 5, 10
        g0 = np.fft.fft(np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)) / np.sqrt(n)
        A = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        M = A.conj().T @ A
        b = A.conj().T @ (A @ g0)
        M = (M + M.conj().T) / 2
        gamma, _ = kkt_recover(M, b, solve_dual(M, b))
        assert np.linalg.norm(gamma - g0) < 1e-6

    def test_rank_deficient_flagged_minimum_norm(self):
        M, b = np.diag([1.0, 1.0, 0.0]).astype(complex), np.array([1.0, 0.0, 0.0], complex)
        fake = dataclasses.replace(solve_dual(M, b), mu=np.zeros(3), status="optimal")
        gamma, info = kkt_recover(M, b, fake)
        assert not info.full_rank and info.rank == 2
        assert np.allclose(gamma, [1.0, 0.0, 0.0])  # minimum-norm solution

    def test_requires_optimal_status(self):
        M, b = random_gram_instance(3, 6, 10)
        sol = dataclasses.replace(solve_dual(M, b), status="max_iter")
        with pytest.raises(SolverError):
            kkt_recover(M, b, sol)


class TestLinkInstances:
    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    def test_certificate_and_weak_duality(self, snr_db):
        # The instances the coded link produces: n = 8 (even) with a ppt model.
        cfg = LinkConfig(snr_db=snr_db)
        model = make_model(cfg)
        assert (model.n, model.kind) == (8, "ppt")
        for child in np.random.SeedSequence([2024, int(snr_db)]).spawn(4):
            f0, _ = make_frame_pair(cfg, child)
            sys = build_ls_system(f0.r, f0.H, f0.pilot_idx, f0.pilot_values, model)
            out = gls(sys, model)
            sol = out.diagnostics.solver
            assert sol.status == "optimal"
            G = assemble_lmi(sys.M, sys.b, sol.tau, sol.mu)
            bound = -1e-8 * (1 + np.linalg.norm(sys.M, 2))
            assert np.linalg.eigvalsh(G).min() >= bound
            assert out.diagnostics.cost - sys.const_term >= sol.tau - 1e-6
            if out.diagnostics.certified:
                assert sol.iterations == 0 and out.diagnostics.gap == 0
                assert sol.min_eig >= bound
                dual = solve_dual(sys.M, sys.b)
                ref, _ = project_constant_modulus(kkt_recover(sys.M, sys.b, dual)[0])
                assert np.max(np.abs(out.gamma_hat.values - ref)) < 1e-6
                # The certified cost is the dual optimum.
                assert abs(sol.tau - dual.tau) <= 1e-7 * (1 + abs(dual.tau))


class TestClosedFormCertificate:
    """Multipliers ``mu_i = Re((c - A x)_i / x_i)`` at the oracle's argmin ``x``.

    The LMI at ``(p_star, mu)`` is PSD exactly when ``x`` is a global optimum
    of the relaxation: it certifies tight instances and fails on gapped ones.
    """

    @staticmethod
    def certificate_min_eig(n, k, seed):
        M, b = random_gram_instance(n, k, seed)
        oracle = primal_oracle(M, b)
        F = dft_matrix(n)
        A, c = F.conj().T @ M @ F, F.conj().T @ b
        x = np.exp(1j * oracle.phases) / np.sqrt(n)
        mu = np.real((c - A @ x) / x)
        return np.linalg.eigvalsh(assemble_lmi(M, b, oracle.p_star, mu)).min()

    @pytest.mark.parametrize("n, k, seed", [(3, 6, 71000), (5, 10, 72001)])
    def test_psd_on_tight_instances(self, n, k, seed):
        assert self.certificate_min_eig(n, k, seed) >= -1e-9

    def test_fails_on_proven_gap_instance(self):
        assert self.certificate_min_eig(5, 10, 72000) < -0.1
