"""Tests for the dual SDP assembly, solver, and recovery."""

import dataclasses

import numpy as np
import pytest

from pnofdm.estimators import build_ls_system, gls
from pnofdm.link import LinkConfig, make_frame_pair, make_model
from pnofdm.sdp import SdpInstance, SolverError, assemble_lmi, kkt_recover, solve_dual
from pnofdm.sproc import primal_oracle, random_gram_instance


def eye_instance(n):
    return SdpInstance.from_ls(np.eye(n, dtype=complex), np.zeros(n, dtype=complex))


class TestAssemble:
    def test_zero_variables(self):
        M, b = random_gram_instance(3, 5, 0)
        inst = SdpInstance.from_ls(M, b)
        G = assemble_lmi(inst, 0.0, 0.0, [0.0], [0.0])
        assert np.allclose(G[:3, :3], M)
        assert np.allclose(G[:3, 3], b)
        assert G[3, 3] == 0

    def test_block_diagonal_eigenvalues(self):
        inst = eye_instance(3)
        G = assemble_lmi(inst, 0.5, -0.5, [0.0], [0.0])
        eigs = np.sort(np.linalg.eigvalsh(G))
        assert np.allclose(eigs, [0.0, 0.5, 0.5, 0.5], atol=1e-13)

    def test_hermitian_on_random_inputs(self):
        rng = np.random.default_rng(1)
        M, b = random_gram_instance(5, 8, 1)
        inst = SdpInstance.from_ls(M, b)
        G = assemble_lmi(inst, *rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2))
        assert np.max(np.abs(G - G.conj().T)) < 1e-13

    def test_multiplier_counts(self):
        assert (eye_instance(3).n_alpha, eye_instance(3).n_beta) == (1, 1)
        assert (eye_instance(5).n_alpha, eye_instance(5).n_beta) == (2, 2)
        # even dimension: the half-shift contributes a real part only
        assert (eye_instance(8).n_alpha, eye_instance(8).n_beta) == (4, 3)

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ValueError):
            assemble_lmi(eye_instance(5), 0, 0, [0.0], [0.0])


class TestSolveDual:
    def test_identity_instance_feasibility_anchor(self):
        # With all variables zero the LMI is PSD (feasible anchor point).
        inst = eye_instance(3)
        G = assemble_lmi(inst, 0.0, 0.0, [0.0], [0.0])
        assert np.linalg.eigvalsh(G).min() >= -1e-13

    def test_identity_instance_optimum(self):
        # The cost form equals 1 on the whole unit-norm feasible set, so the
        # certified optimum is 1 (reached at lam = -1).
        sol = solve_dual(eye_instance(3))
        assert sol.status == "optimal"
        assert sol.tau == pytest.approx(1.0, abs=1e-6)
        assert sol.lam == pytest.approx(-1.0, abs=1e-6)

    def test_weak_duality_against_sampled_points(self):
        M, b = random_gram_instance(3, 6, 42)
        sol = solve_dual(SdpInstance.from_ls(M, b))
        rng = np.random.default_rng(0)
        phases = rng.uniform(0, 2 * np.pi, (1000, 3))
        g = np.fft.fft(np.exp(1j * phases) / np.sqrt(3), axis=1) / np.sqrt(3)
        J = np.einsum("bi,ij,bj->b", g.conj(), M, g).real - 2 * np.real(g @ b.conj())
        assert np.min(J - sol.tau) > -1e-6

    def test_matches_oracle_on_random_instances(self):
        for n, k, seeds in ((3, 6, range(3)), (5, 10, range(2))):
            for s in seeds:
                M, b = random_gram_instance(n, k, 1000 + s)
                sol = solve_dual(SdpInstance.from_ls(M, b))
                p_star = primal_oracle(M, b).p_star
                assert abs(p_star - sol.tau) / (1 + abs(p_star)) < 1e-3

    def test_certificate(self):
        M, b = random_gram_instance(8, 12, 5)
        inst = SdpInstance.from_ls(M, b)
        sol = solve_dual(inst)
        G = assemble_lmi(inst, sol.tau, sol.lam, sol.alpha, sol.beta)
        assert np.linalg.eigvalsh(G).min() >= -1e-8 * (1 + np.linalg.norm(M, 2))

    def test_tau_path_monotone(self):
        M, b = random_gram_instance(5, 9, 6)
        sol = solve_dual(SdpInstance.from_ls(M, b))
        assert np.all(np.diff(sol.tau_path) >= -1e-9 * (1 + np.abs(sol.tau_path[1:])))

    def test_deterministic(self):
        M, b = random_gram_instance(4, 7, 7)
        a = solve_dual(SdpInstance.from_ls(M, b))
        c = solve_dual(SdpInstance.from_ls(M, b))
        assert a.tau == c.tau and a.lam == c.lam
        assert np.array_equal(a.alpha, c.alpha) and np.array_equal(a.beta, c.beta)

    def test_size_limit(self):
        with pytest.raises(SolverError):
            solve_dual(eye_instance(65))


class TestKktRecover:
    def test_full_rank_equals_direct_solve(self):
        M, b = random_gram_instance(5, 10, 8)
        inst = SdpInstance.from_ls(M, b)
        sol = solve_dual(inst)
        gamma, info = kkt_recover(inst, sol, return_info=True)
        A = assemble_lmi(inst, sol.tau, sol.lam, sol.alpha, sol.beta)[:5, :5]
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
        inst = SdpInstance.from_ls((M + M.conj().T) / 2, b)
        sol = solve_dual(inst)
        gamma = kkt_recover(inst, sol)
        assert np.linalg.norm(gamma - g0) < 1e-6

    def test_rank_deficient_flagged_minimum_norm(self):
        inst = SdpInstance.from_ls(
            np.diag([1.0, 1.0, 0.0]).astype(complex), np.array([1.0, 0.0, 0.0], complex)
        )
        sol = solve_dual(inst)
        fake = dataclasses.replace(
            sol, lam=0.0, alpha=np.zeros(1), beta=np.zeros(1), status="optimal"
        )
        gamma, info = kkt_recover(inst, fake, return_info=True)
        assert not info.full_rank and info.rank == 2
        assert np.allclose(gamma, [1.0, 0.0, 0.0])  # minimum-norm solution

    def test_requires_optimal_status(self):
        M, b = random_gram_instance(3, 6, 10)
        inst = SdpInstance.from_ls(M, b)
        sol = dataclasses.replace(solve_dual(inst), status="max_iter")
        with pytest.raises(SolverError):
            kkt_recover(inst, sol)


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
            G = assemble_lmi(SdpInstance.from_ls(sys.M, sys.b), sol.tau, sol.lam, sol.alpha, sol.beta)
            assert np.linalg.eigvalsh(G).min() >= -1e-8 * (1 + np.linalg.norm(sys.M, 2))
            assert out.diagnostics.cost - sys.const_term >= sol.tau - 1e-6
