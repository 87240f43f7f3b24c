"""Tests for the pilot-based estimators and diagnostics."""

import numpy as np
import pytest

from pnofdm.dimred import default_lft, pc_ppt
from pnofdm.estimators import (
    EstimationError,
    build_ls_system,
    c_matrix,
    cis,
    cpe_only,
    error_decomposition,
    estimate_frame,
    gls,
    nls,
    pilot_scalar,
    project_constant_modulus,
    uls,
)
from pnofdm.link import LinkConfig, OfdmFrame, apply_phase_noise, make_frame_pair, make_model, pilot_sequence, rayleigh_channel
from pnofdm.phasenoise import spectral_vector
from pnofdm.sdp import certify_local
from pnofdm.sproc import primal_oracle, random_gram_instance
from pnofdm.estimators import LsSystem


def noise_free_system(n_c, seed, model=None, theta=None):
    """All-pilot, noise-free symbol with known channel."""
    rng = np.random.default_rng(seed)
    model = model or pc_ppt(n_c, n_c)
    cfg = LinkConfig(n_c=n_c)
    _, H = rayleigh_channel(cfg, rng)
    s = pilot_sequence(n_c)
    theta = rng.uniform(-np.pi, np.pi, n_c) if theta is None else theta
    r = apply_phase_noise(H * s, theta)
    sys = build_ls_system(r, H, np.arange(n_c), s, model)
    return sys, model, theta


def synthetic_system(n, k, seed):
    """Random Gram system wrapped as an LsSystem with a full-size model."""
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
    w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    M = A.conj().T @ A
    return LsSystem((M + M.conj().T) / 2, A.conj().T @ w, float(np.real(w.conj() @ w)), A, w)


@pytest.fixture(scope="module")
def desk_frame():
    cfg = LinkConfig()
    model = make_model(cfg)
    f0, f1 = make_frame_pair(cfg, 42)
    return cfg, model, f0, f1


class TestBuildLsSystem:
    def test_hermitian_psd(self, desk_frame):
        _, model, f0, _ = desk_frame
        sys = build_ls_system(f0.r, f0.H, f0.pilot_idx, f0.pilot_values, model)
        assert np.max(np.abs(sys.M - sys.M.conj().T)) < 1e-12 * (1 + np.max(np.abs(sys.M)))
        assert np.linalg.eigvalsh(sys.M).min() > -1e-10

    def test_zero_cost_at_truth_full_pilots(self):
        sys, model, theta = noise_free_system(16, 0)
        delta = spectral_vector(theta).values
        assert sys.cost_delta(delta) < 1e-20

    def test_underdetermined_rejected(self, desk_frame):
        _, model, f0, _ = desk_frame
        with pytest.raises(EstimationError):
            build_ls_system(f0.r, f0.H, f0.pilot_idx[:4], f0.pilot_values[:4], model)


class TestUls:
    def test_exact_recovery_noise_free_full_pilots(self):
        for n_c, seed in ((16, 0), (32, 1)):
            sys, model, theta = noise_free_system(n_c, seed)
            out = uls(sys, model)
            delta = spectral_vector(theta).values
            rel = np.linalg.norm(out.delta_hat.values - delta) / np.linalg.norm(delta)
            assert rel < 1e-8

    def test_zero_phase_noise_gives_unit_vector(self):
        sys, model, _ = noise_free_system(16, 2, theta=np.zeros(16))
        out = uls(sys, model)
        assert np.linalg.norm(out.delta_hat.values - np.eye(16)[:, 0]) < 1e-8

    def test_geometry_residual_significant_at_desk_scale(self):
        # The unconstrained estimate leaves the geometry set; this is the
        # motivation for the constrained variants.
        cfg = LinkConfig()
        model = make_model(cfg)
        residuals = []
        for child in np.random.SeedSequence(2024).spawn(20):
            f0, f1 = make_frame_pair(cfg, child)
            residuals.append(estimate_frame("uls", f0, f1, model).diagnostics.geometry_residual)
        assert np.median(residuals) > 1e-3

    def test_singular_beyond_regularization_raises(self):
        model = pc_ppt(16, 4)
        with pytest.raises(EstimationError, match="singular"):
            sys = build_ls_system(
                np.zeros(16), np.ones(16), np.arange(8), np.ones(8), model
            )
            uls(sys, model)


class TestNls:
    def test_idempotent_on_feasible_input(self):
        sys, model, _ = noise_free_system(16, 3, theta=np.zeros(16))
        out_u = uls(sys, model)
        out_n = nls(sys, model)
        assert np.linalg.norm(out_n.gamma_hat.values - out_u.gamma_hat.values) < 1e-10

    def test_reduced_domain_moduli_constant(self, desk_frame):
        _, model, f0, f1 = desk_frame
        out = estimate_frame("nls", f0, f1, model)
        x = np.fft.ifft(out.gamma_hat.values) * np.sqrt(model.n)
        assert np.max(np.abs(np.abs(x) - 1 / np.sqrt(model.n))) < 1e-13

    def test_lft_branch_full_domain_projection(self, desk_frame):
        cfg, _, f0, f1 = desk_frame
        model = default_lft(cfg.n_c, cfg.n_est)
        out = estimate_frame("nls", f0, f1, model)
        assert out.diagnostics.geometry_residual < 1e-10

    def test_projection_zero_sample_flagged(self):
        gamma = np.fft.fft(np.array([0.0, 1.0, 1.0, 1.0], dtype=complex)) / 4
        projected, n_zero = project_constant_modulus(gamma)
        assert n_zero == 1
        assert np.max(np.abs(np.abs(np.fft.ifft(projected)) - 0.25)) < 1e-15


class TestGls:
    def test_noise_free_equals_uls_equals_truth(self):
        sys, model, theta = noise_free_system(16, 4)
        out_u = uls(sys, model)
        out_g = gls(sys, model)
        delta = spectral_vector(theta).values
        assert np.linalg.norm(out_g.delta_hat.values - delta) < 1e-6
        assert np.linalg.norm(out_g.gamma_hat.values - out_u.gamma_hat.values) < 1e-6

    def test_feasibility_always(self, desk_frame):
        _, model, f0, f1 = desk_frame
        out = estimate_frame("gls", f0, f1, model)
        assert out.diagnostics.geometry_residual < 1e-10

    def test_cost_matches_oracle_n3(self):
        model = pc_ppt(3, 3)
        for seed in range(3):
            sys = synthetic_system(3, 6, seed)
            out = gls(sys, model)
            cost_q = out.diagnostics.cost - sys.const_term
            p_star = primal_oracle(sys.M, sys.b).p_star
            assert abs(cost_q - p_star) / (1 + abs(p_star)) < 1e-3

    def test_proven_gap_instance_takes_dual_path(self):
        # The same draw as random_gram_instance(5, 10, 72000), whose relaxation
        # has a proven gap: no point can be certified, and the gap is measured.
        sys = synthetic_system(5, 10, 72000)
        M, b = random_gram_instance(5, 10, 72000)
        assert np.array_equal(sys.M, M) and np.array_equal(sys.b, b)
        diag = gls(sys, pc_ppt(5, 5)).diagnostics
        assert diag.certified is False and diag.gap > 0

    def test_requires_geometry_preserving_model(self):
        sys = synthetic_system(4, 8, 0)
        with pytest.raises(ValueError):
            gls(sys, default_lft(16, 4))

    def test_linalg_error_becomes_estimation_error(self, monkeypatch):
        # A numpy LinAlgError inside the dual solve reaches run_link as an
        # EstimationError, so the frame is decoded with the fallback, flagged.
        # The local certificate is switched off so that every frame reaches
        # the dual solve.
        from pnofdm import estimators
        from pnofdm.link import run_link

        def failing_solve(M, b):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(estimators, "certify_local", lambda M, b: None)
        monkeypatch.setattr(estimators, "solve_dual", failing_solve)
        with pytest.raises(EstimationError, match="not positive definite"):
            gls(synthetic_system(3, 6, 0), pc_ppt(3, 3))
        assert run_link(LinkConfig(), "gls", 2, 1).flagged_frames == 2

    def test_linalg_error_in_local_solve_takes_dual_path(self):
        # A singular M makes the local solve's start M^-1 b raise; the frame
        # goes to the dual solve instead of failing.
        rows = np.diag(np.sqrt([2.0, 1.0, 0.0])).astype(complex)
        w = np.array([1 / np.sqrt(2), 0.5, 0.0], dtype=complex)
        sys = LsSystem(rows.conj().T @ rows, rows.conj().T @ w, float(np.real(w.conj() @ w)), rows, w)
        with pytest.raises(np.linalg.LinAlgError):
            certify_local(sys.M, sys.b)
        out = gls(sys, pc_ppt(3, 3))
        diag = out.diagnostics
        assert diag.certified is False and diag.solver.iterations > 0
        assert diag.gap >= -1e-6 and diag.geometry_residual < 1e-10

    def test_certified_and_gap_on_every_output(self, desk_frame):
        # Seed 42's first symbol is certified and seed 41's is not.
        cfg, model, _, _ = desk_frame
        seen = set()
        for seed in (41, 42):
            frame, _ = make_frame_pair(cfg, seed)
            sys = build_ls_system(frame.r, frame.H, frame.pilot_idx, frame.pilot_values, model)
            diag = gls(sys, model).diagnostics
            seen.add(diag.certified)
            if diag.certified:
                assert diag.gap == 0.0 and diag.solver.iterations == 0 and diag.condition is None
            else:
                assert diag.solver.iterations > 0 and diag.condition >= 1.0
                assert diag.gap == diag.cost - sys.const_term - diag.solver.tau
        assert seen == {True, False}

    def test_cost_ordering_single_frame(self, desk_frame):
        _, model, f0, f1 = desk_frame
        c_u = estimate_frame("uls", f0, f1, model).diagnostics.cost
        c_g = estimate_frame("gls", f0, f1, model).diagnostics.cost
        c_n = estimate_frame("nls", f0, f1, model).diagnostics.cost
        assert c_u <= c_g + 1e-9 * (1 + c_g)
        assert c_g <= c_n + 1e-9 * (1 + c_n)


class TestCpeOnly:
    def test_constant_phase_recovered(self):
        n_c = 16
        phi = 0.9
        rng = np.random.default_rng(5)
        _, H = rayleigh_channel(LinkConfig(n_c=n_c), rng)
        s = pilot_sequence(n_c)
        r = apply_phase_noise(H * s, np.full(n_c, phi))
        out = cpe_only(r, H, np.arange(4), s[:4])
        # estimate equals the true spectral vector exp(-1j*phi) * e_0
        assert abs(out.delta_hat.values[0] - np.exp(-1j * phi)) < 1e-12
        assert np.max(np.abs(out.delta_hat.values[1:])) == 0
        # the raw pilot scalar carries the opposite (mean-phase) rotation
        assert abs(pilot_scalar(r, H, np.arange(4), s[:4]) - np.exp(1j * phi)) < 1e-12

    def test_zero_phase(self):
        n_c = 16
        rng = np.random.default_rng(6)
        _, H = rayleigh_channel(LinkConfig(n_c=n_c), rng)
        s = pilot_sequence(n_c)
        out = cpe_only(H * s, H, np.arange(4), s[:4])
        assert np.linalg.norm(out.delta_hat.values - np.eye(16)[:, 0]) < 1e-12

    def test_tracks_true_cpe_at_30db(self):
        cfg = LinkConfig()
        errs = []
        for child in np.random.SeedSequence(7).spawn(50):
            f0, f1 = make_frame_pair(cfg, child)
            delta = spectral_vector(f0.theta).values
            out = cpe_only(f0.r, f0.H, f0.pilot_idx, f0.pilot_values)
            errs.append(abs(np.angle(out.delta_hat.values[0] / delta[0])))
        assert np.median(errs) < 0.05

    def test_zero_pilot_power_rejected(self):
        with pytest.raises(EstimationError):
            cpe_only(np.ones(8), np.zeros(8), np.arange(2), np.ones(2))


def _single_carrier_frame(theta, n_c):
    """Frame whose single active (pilot) subcarrier makes the pilot scalar an
    exact average of exp(1j*theta)."""
    s = np.zeros(n_c, dtype=complex)
    s[0] = np.sqrt(n_c)
    H = np.ones(n_c, dtype=complex)
    return OfdmFrame(
        info_bits=np.empty(0, dtype=int),
        s=s,
        pilot_idx=np.array([0]),
        pilot_values=s[:1],
        data_idx=np.arange(1, n_c),
        H=H,
        theta=np.asarray(theta, dtype=float),
        r=apply_phase_noise(H * s, theta),
        sigma2=1e-12,
    )


class TestCis:
    def test_linear_ramp_recovered(self):
        n_c = 32
        t = np.arange(2 * n_c)
        theta = 0.3 + 0.004 * t
        th_hat, out = cis(
            _single_carrier_frame(theta[:n_c], n_c), _single_carrier_frame(theta[n_c:], n_c)
        )
        assert np.max(np.abs(th_hat - theta[:n_c])) < 1e-3
        assert out.delta_hat.geometry_ok

    def test_constant_phase(self):
        n_c = 32
        th_hat, _ = cis(
            _single_carrier_frame(np.full(n_c, 0.8), n_c),
            _single_carrier_frame(np.full(n_c, 0.8), n_c),
        )
        assert np.max(np.abs(th_hat - 0.8)) < 1e-12

    def test_wrap_flagged(self):
        n_c = 32
        f0 = _single_carrier_frame(np.full(n_c, 3.0), n_c)
        f1 = _single_carrier_frame(np.full(n_c, -3.0), n_c)
        _, out = cis(f0, f1)
        assert "unwrapped" in out.diagnostics.flags


class TestErrorDecomposition:
    def test_perfect_estimate(self):
        rng = np.random.default_rng(8)
        theta = rng.uniform(-np.pi, np.pi, 32)
        dec = error_decomposition(spectral_vector(theta), theta)
        assert np.max(np.abs(dec.kappa - 1)) < 1e-12
        assert np.max(np.abs(dec.omega)) < 1e-12
        assert dec.total < 1e-25

    def test_constant_phase_error_anchor(self):
        # kappa = 1 and omega = 0.2 everywhere: relative error 2*(1-cos 0.2).
        rng = np.random.default_rng(9)
        n = 64
        theta = rng.uniform(-np.pi, np.pi, n)
        x = (1.0 / n) * np.exp(-1j * (theta - 0.2))
        dec = error_decomposition(np.fft.fft(x), theta)
        assert abs(dec.relative - 2 * (1 - np.cos(0.2))) < 1e-10

    def test_identity_on_random_estimates(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(8, 65))
            theta = rng.uniform(-np.pi, np.pi, n)
            delta_hat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            dec = error_decomposition(delta_hat, theta)
            assert abs(dec.total - dec.direct_total) < 1e-12


class TestCMatrix:
    def test_identity_in_ideal_case(self):
        n_c = 16
        rng = np.random.default_rng(11)
        model = pc_ppt(n_c, n_c)
        _, H = rayleigh_channel(LinkConfig(n_c=n_c), rng)
        s = pilot_sequence(n_c)
        theta = rng.uniform(-np.pi, np.pi, n_c)
        C = c_matrix(model, np.arange(n_c), theta, H, s, apply_phase_noise(H * s, theta))
        assert np.max(np.abs(C - np.eye(n_c))) < 1e-10

    def test_rank_equals_model_dimension(self, desk_frame):
        _, model, f0, _ = desk_frame
        C = c_matrix(model, f0.pilot_idx, f0.theta, f0.H, f0.s, f0.r)
        assert np.linalg.matrix_rank(C, tol=1e-8) == model.n

    def test_consistency_check_is_internal(self, desk_frame):
        # c_matrix raises if its reconstruction disagrees with the estimator;
        # returning means the check passed at 1e-8.
        cfg, _, f0, _ = desk_frame
        model = default_lft(cfg.n_c, cfg.n_est)
        C = c_matrix(model, f0.pilot_idx, f0.theta, f0.H, f0.s, f0.r)
        assert C.shape == (cfg.n_c, cfg.n_c)

    def test_zero_time_domain_symbol_product_rejected(self):
        # A symbol whose time-domain samples hit an exact zero makes the
        # inner diagonal singular.
        n_c = 8
        time = np.ones(n_c, dtype=complex)
        time[0] = 0.0
        s = np.fft.fft(time)  # time-domain product H*s has an exact zero
        model = pc_ppt(n_c, n_c)
        with pytest.raises(EstimationError, match="singular"):
            c_matrix(model, np.arange(n_c), np.zeros(n_c), np.ones(n_c), s, s)
