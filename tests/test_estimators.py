"""Tests for the pilot-based estimators and diagnostics."""

from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from pnofdm import estimators, sdp
from pnofdm.dimred import lft, pc_ppt
from pnofdm.estimators import (
    ESTIMATOR_IDS,
    EstimationError,
    build_ls_system,
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
from pnofdm.link import (DEFAULT_MODEL, LinkConfig, OfdmFrame, ber_records, make_frame_pair, make_model, run_link,
                         simulate)
from test_link import all_pilot_values, channel_one, dft, rotate_one, sent_symbol
from pnofdm.spectral import GEOMETRY_TOL, geometry_residual, phase_trajectory, spectral_vector
from pnofdm.sdp import certify_local
from pnofdm.sproc import primal_oracle, random_gram_instance
from pnofdm.estimators import LsSystem, _circulant_gather


def pilot_frame(r, H, pilot_idx, pilot_values, theta=None):
    """A frame of synthetic arrays, the estimators' one input form.

    The subcarriers that are not pilots are its data subcarriers; it carries
    no bits, and its phase path is ``theta`` (zero when not given).
    """
    n_c = len(r)
    pilot_idx = np.asarray(pilot_idx, dtype=int)
    return OfdmFrame(
        info_bits=np.empty(0, dtype=int),
        pilot_idx=pilot_idx,
        pilot_values=np.asarray(pilot_values, dtype=complex),
        data_idx=np.setdiff1d(np.arange(n_c), pilot_idx),
        H=np.asarray(H, dtype=complex),
        theta=np.zeros(n_c) if theta is None else np.asarray(theta, dtype=float),
        r=np.asarray(r, dtype=complex),
        sigma2=1e-12,
    )


def noise_free_system(n_c, seed, model=None, theta=None):
    """All-pilot, noise-free symbol with known channel."""
    rng = np.random.default_rng(seed)
    model = pc_ppt(n_c, n_c) if model is None else model
    cfg = LinkConfig(n_c=n_c)
    H = channel_one(cfg, rng)
    s = all_pilot_values(n_c)
    theta = rng.uniform(-np.pi, np.pi, n_c) if theta is None else theta
    r = rotate_one(H * s, theta)
    sys = build_ls_system(pilot_frame(r, H, np.arange(n_c), s, theta), model)
    return sys, model, theta


def synthetic_system(n, k, seed):
    """Random Gram system wrapped as an LsSystem for the full-size model ``pc_ppt(n, n) = F``.

    ``A`` is a design on the spectrum ``F x``, so the pair is the time pair
    ``(B^H B, B^H w)`` of ``B = A F``, the FFT of ``A``'s rows.
    """
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
    w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    B = np.fft.fft(A, axis=1, norm="ortho")
    M = B.conj().T @ B
    return LsSystem((M + M.conj().T) / 2, B.conj().T @ w, float(np.real(w.conj() @ w)), A, w)


def _count_residuals(monkeypatch):
    """Count the geometry residuals the estimators module computes."""
    calls = []

    def counted(v):
        calls.append(1)
        return geometry_residual(v)

    monkeypatch.setattr(estimators, "geometry_residual", counted)
    return calls


@pytest.fixture(scope="module")
def desk_frame():
    cfg = LinkConfig()
    model = make_model("ppt", cfg.n_c, DEFAULT_MODEL[1])
    f0, f1 = make_frame_pair(cfg, [42])[0]
    return cfg, model, f0, f1


class TestOutputContract:
    @pytest.mark.parametrize("name", ESTIMATOR_IDS)
    def test_plain_arrays_and_delta_residual(self, monkeypatch, desk_frame, name):
        cfg, model, f0, f1 = desk_frame
        calls = _count_residuals(monkeypatch)
        out = estimate_frame(name, f0, f1, model)
        assert calls == []  # computed when first read, not when built
        assert type(out.delta_hat) is np.ndarray
        assert out.delta_hat.dtype == complex and out.delta_hat.shape == (cfg.n_c,)
        assert [f.name for f in fields(out)] == ["delta_hat", "diagnostics"]  # one spectrum per estimate
        # The benchmark's geometry check reads this field; a second read is free.
        assert out.diagnostics.geometry_residual == geometry_residual(out.delta_hat)
        assert out.diagnostics.geometry_residual == geometry_residual(out.delta_hat)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name, error, match",
        [("cis", EstimationError, "cis requires the next symbol"), ("sls", ValueError, "unknown estimator 'sls'")],
    )
    def test_refused_without_an_estimate(self, desk_frame, name, error, match):
        _, _, f0, _ = desk_frame
        with pytest.raises(error, match=match):
            estimate_frame(name, f0, None, None)


class TestResidualOnRead:
    """The geometry residual costs a transform pair, paid only when read."""

    @pytest.mark.parametrize("name", ["cpe", "cis", "uls", "nls", "genie"])
    def test_link_computes_none(self, monkeypatch, name):
        calls = _count_residuals(monkeypatch)
        rec = run_link(LinkConfig(snr_db=10.0), name, 3, 7)
        assert rec.frames == 3 and calls == []

    def test_output_stays_frozen(self, desk_frame):
        _, model, f0, f1 = desk_frame
        out = estimate_frame("uls", f0, f1, model)
        assert out.diagnostics.geometry_residual >= 0  # the cached read must not unfreeze it
        with pytest.raises(FrozenInstanceError):
            out.diagnostics.cost = 0.0
        with pytest.raises(FrozenInstanceError):
            out.delta_hat = None

    def test_benchmark_checks_read_it(self, monkeypatch, desk_frame):
        # The benchmark's nls/gls output checks wrap the estimators and read
        # diagnostics.geometry_residual; a read they make must find the value.
        _, model, f0, f1 = desk_frame
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench.tracing import Patches
        from perfbench.workloads import Checks

        checks = Checks(snr=10.0)
        with Patches() as patches:
            checks.hook_estimators(patches)
            outs = [estimate_frame(name, f0, f1, model) for name in ("nls", "gls")]
        assert checks.problems == []
        for out in outs:
            assert np.isfinite(out.diagnostics.__dict__["geometry_residual"])


class TestBuildLsSystem:
    def test_hermitian_psd(self):
        # LsSystem does not check its pair: the builder makes M exactly
        # Hermitian, and a Gram matrix is PSD.
        for snr_db in (10.0, 30.0):
            cfg = LinkConfig(snr_db=snr_db)
            model = make_model("ppt", cfg.n_c, DEFAULT_MODEL[1])
            for f0, _ in make_frame_pair(cfg, np.random.SeedSequence(7).spawn(64), next_symbol=False):
                M = build_ls_system(f0, model).M
                assert np.array_equal(M, M.conj().T)
                assert np.linalg.eigvalsh(M)[0] >= -1e-12 * (1 + np.max(np.abs(M)))

    def test_zero_cost_at_truth_full_pilots(self):
        sys, model, theta = noise_free_system(16, 0)
        delta = spectral_vector(theta)
        assert sys.cost_delta(delta) < 1e-20

    def test_gather_index_shared_per_layout(self, desk_frame):
        # Frames of one layout share one read-only index; another layout of
        # the same length gets its own, so its pilot rows are its own.
        cfg, model, f0, f1 = desk_frame
        index = _circulant_gather(cfg.n_c, tuple(f0.pilot_idx.tolist()))
        assert _circulant_gather(cfg.n_c, tuple(f1.pilot_idx.tolist())) is index
        assert not index.flags.writeable
        for p in (f0.pilot_idx, f0.pilot_idx + 1):
            sys = build_ls_system(replace(f0, pilot_idx=p), model)
            assert np.array_equal(sys.pilot_rows, f0.r[(p[:, None] - np.arange(cfg.n_c)) % cfg.n_c])

    @pytest.mark.parametrize("t_kind", ["ppt", "lft"])
    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    def test_time_pair_fit_is_the_spectral_fit(self, t_kind, snr_db):
        # The paper fits the reduced spectrum gamma through the spectral lift
        # T F_n^H.  Its pair, built and solved here with numpy alone, gives
        # the uls and nls estimates that the time pair gives.
        cfg = LinkConfig(snr_db=snr_db)
        T = make_model(t_kind, cfg.n_c, DEFAULT_MODEL[1])
        T_spectral = T @ dft(T.shape[1]).conj().T
        for f0, _ in make_frame_pair(cfg, np.random.SeedSequence([46, int(snr_db)]).spawn(16), next_symbol=False):
            R = np.stack([np.roll(f0.r, m) for m in range(cfg.n_c)], axis=1)  # column-circulant, first column r
            A = R[f0.pilot_idx] @ T_spectral
            w_p = f0.H[f0.pilot_idx] * f0.pilot_values
            delta = T_spectral @ np.linalg.solve(A.conj().T @ A, A.conj().T @ w_p)
            sys = build_ls_system(f0, T)
            for got, want in ((uls(sys, T), delta), (nls(sys, T), project_constant_modulus(delta)[0])):
                assert np.linalg.norm(got.delta_hat - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "name, error, match",
        [("uls", EstimationError, "SVD"), ("nls", EstimationError, "SVD"), ("gls", ValueError, "finite")],
    )
    def test_non_finite_frame_raises(self, desk_frame, name, error, match):
        # A valid link config makes only finite frames; a hand-built NaN
        # frame still fails loudly, never with an estimate: uls and nls with
        # an EstimationError naming the condition number's failed SVD, gls in
        # the sdp pair check.
        _, model, f0, f1 = desk_frame
        r = f0.r.copy()
        r[3] = np.nan
        with pytest.raises(error, match=match):
            estimate_frame(name, replace(f0, r=r), f1, model)


class TestUls:
    def test_exact_recovery_noise_free_full_pilots(self):
        for n_c, seed in ((16, 0), (32, 1)):
            sys, model, theta = noise_free_system(n_c, seed)
            out = uls(sys, model)
            delta = spectral_vector(theta)
            rel = np.linalg.norm(out.delta_hat - delta) / np.linalg.norm(delta)
            assert rel < 1e-8

    def test_zero_phase_noise_gives_unit_vector(self):
        sys, model, _ = noise_free_system(16, 2, theta=np.zeros(16))
        out = uls(sys, model)
        assert np.linalg.norm(out.delta_hat - np.eye(16)[:, 0]) < 1e-8

    def test_geometry_residual_significant_at_desk_scale(self):
        # The unconstrained estimate leaves the geometry set; this is the
        # motivation for the constrained variants.
        cfg = LinkConfig()
        model = make_model("ppt", cfg.n_c, DEFAULT_MODEL[1])
        residuals = []
        for f0, f1 in make_frame_pair(cfg, np.random.SeedSequence(2024).spawn(20)):
            residuals.append(estimate_frame("uls", f0, f1, model).diagnostics.geometry_residual)
        assert np.median(residuals) > 1e-3

    def test_singular_system_raises(self):
        model = pc_ppt(16, 4)
        with pytest.raises(EstimationError, match="singular"):
            sys = build_ls_system(pilot_frame(np.zeros(16), np.ones(16), np.arange(8), np.ones(8)), model)
            uls(sys, model)

    @pytest.mark.parametrize("routine", ["cond", "solve"])
    def test_linalg_error_becomes_estimation_error(self, routine, monkeypatch):
        sys, model, _ = noise_free_system(16, 0)

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(np.linalg, routine, broken)
        for fn in (uls, nls):
            with pytest.raises(EstimationError, match="LinAlgError: injected"):
                fn(sys, model)

    @pytest.mark.parametrize("name", ["uls", "nls"])
    def test_linalg_error_flags_one_frame(self, name, monkeypatch):
        # A LinAlgError in the fifth solve flags that frame alone; the run
        # completes and every other frame decodes as in a run without it.
        cfg = LinkConfig(snr_db=20.0)
        clean = run_link(cfg, name, 10, 3)
        real, calls = np.linalg.solve, []

        def fail_fifth(*args, **kwargs):
            calls.append(None)
            if len(calls) == 5:
                raise np.linalg.LinAlgError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", fail_fifth)
        rec = run_link(cfg, name, 10, 3)
        assert (len(calls), rec.frames, rec.flagged_frames) == (10, 10, 1)
        others = np.arange(10) != 4
        assert np.array_equal(rec.frame_errors[others], clean.frame_errors[others])

    @pytest.mark.parametrize(
        "cond, match",
        [(None, r"singular \(cond 1\.000e\+13\)"), (np.nan, r"\(cond nan\)")],
        ids=["cond-1e13", "cond-nan"],
    )
    def test_ill_conditioned_system_raises(self, cond, match, monkeypatch):
        # cond(M) = 1e13 is past ULS_COND_LIMIT, and a NaN condition number
        # is not within it: both raise, naming the condition number.
        rows = np.diag([1.0, np.sqrt(1e-13)]).astype(complex)
        w = np.array([1.0, 1e-7], dtype=complex)
        sys = LsSystem(np.diag([1.0, 1e-13]).astype(complex), rows.conj().T @ w, 1.0, rows, w)
        assert np.linalg.cond(sys.M) > estimators.ULS_COND_LIMIT
        if cond is not None:
            monkeypatch.setattr(np.linalg, "cond", lambda M: cond)
        for fn in (uls, nls):
            with pytest.raises(EstimationError, match=match):
                fn(sys, pc_ppt(2, 2))

    @pytest.mark.parametrize("t_kind", ["ppt", "lft"])
    def test_singular_link_frames_flagged_at_the_config_limits(self, t_kind):
        # Link frames reach a numerically singular normal matrix only at the
        # config limits: no noise, one tap, no phase noise and as many
        # unknowns as pilots.  There uls and nls flag exactly the frames
        # past ULS_COND_LIMIT, 2 of 64 at seed 1, and decode them as cpe.
        cfg, model = LinkConfig(n_c=16, pilot_fraction=0.5, snr_db=1000.0, taps=1, rho=0.0), (t_kind, 8)
        T = make_model(t_kind, cfg.n_c, 8)
        blocks = list(simulate(cfg, ("uls", "nls", "cpe"), 64, 1, models=(model,)))
        past = [np.linalg.cond(build_ls_system(f, T).M) > estimators.ULS_COND_LIMIT
                for frames, _ in blocks for f in frames]
        assert sum(past) == 2
        fallback = [out for _, results in blocks for out, _ in results["cpe", None]]
        for name in ("uls", "nls"):
            outputs = [out for _, results in blocks for out in results[name, model]]
            assert [flagged for _, flagged in outputs] == past
            for (out, flagged), cpe in zip(outputs, fallback):
                assert not flagged or np.array_equal(out.delta_hat, cpe.delta_hat)
        for rec in ber_records(cfg, ("uls", "nls"), 64, 1, models=(model,)).values():
            assert (rec.frames, rec.flagged_frames) == (64, 2)


class TestNls:
    def test_idempotent_on_feasible_input(self):
        sys, model, _ = noise_free_system(16, 3, theta=np.zeros(16))
        out_u = uls(sys, model)
        out_n = nls(sys, model)
        assert np.linalg.norm(out_n.delta_hat - out_u.delta_hat) < 1e-10

    def test_reduced_domain_moduli_constant(self, desk_frame):
        _, model, f0, f1 = desk_frame
        out = estimate_frame("nls", f0, f1, model)
        n = model.shape[1]
        x = model.conj().T @ out.delta_hat  # the reduced time samples
        assert np.max(np.abs(np.abs(x) - 1 / np.sqrt(n))) < 1e-13

    @pytest.mark.parametrize("kind", ["ppt", "lft"])
    def test_projects_lifted_uls(self, kind):
        # Under every model nls is the lifted uls estimate with its
        # full-length time samples projected to constant modulus.
        cfg = LinkConfig(snr_db=10.0)
        model = make_model(kind, cfg.n_c, DEFAULT_MODEL[1])
        for f0, _ in make_frame_pair(cfg, range(8), next_symbol=False):
            sys = build_ls_system(f0, model)
            out = nls(sys, model)
            assert np.array_equal(out.delta_hat, project_constant_modulus(uls(sys, model).delta_hat)[0])
            assert out.diagnostics.geometry_residual < GEOMETRY_TOL

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
        delta = spectral_vector(theta)
        assert np.linalg.norm(out_g.delta_hat - delta) < 1e-6
        assert np.linalg.norm(out_g.delta_hat - out_u.delta_hat) < 1e-6

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

    def test_dual_solve_out_of_steps_is_flagged(self, monkeypatch):
        # A dual solve that uses up MAX_NEWTON raises, naming its status and
        # steps, on each frame the local certificate leaves uncertified
        # (9 of 12 at 10 dB, seed 3), and each such frame is flagged.
        monkeypatch.setattr(sdp, "MAX_NEWTON", 5)
        cfg = LinkConfig(snr_db=10.0)
        model = make_model("ppt", cfg.n_c, DEFAULT_MODEL[1])
        message, uncertified = r"^dual solve ended with status 'max_iter' after 5 Newton steps$", 0
        for frame, _ in make_frame_pair(cfg, np.random.SeedSequence(3).spawn(12), next_symbol=False):
            sys = build_ls_system(frame, model)
            if certify_local(sys.M, sys.b) is None:
                uncertified += 1
                with pytest.raises(EstimationError, match=message):
                    gls(sys, model)
        assert uncertified == 9
        assert run_link(cfg, "gls", 12, 3).flagged_frames == 9

    def test_linalg_error_in_local_solve_takes_dual_path(self):
        # A singular M makes the local solve's start M^-1 b raise; the frame
        # goes to the dual solve instead of failing.  ``rows`` acts on the
        # time samples, so the pilot rows on the spectrum are ``rows F^H``.
        rows = np.diag(np.sqrt([2.0, 1.0, 0.0])).astype(complex)
        w = np.array([1 / np.sqrt(2), 0.5, 0.0], dtype=complex)
        sys = LsSystem(rows.conj().T @ rows, rows.conj().T @ w, float(np.real(w.conj() @ w)),
                       rows @ dft(3).conj().T, w)
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
        for frame, _ in make_frame_pair(cfg, (41, 42)):
            sys = build_ls_system(frame, model)
            diag = gls(sys, model).diagnostics
            seen.add(diag.certified)
            if diag.certified:
                assert diag.gap == 0.0 and diag.solver.iterations == 0
            else:
                assert diag.solver.iterations > 0
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
        H = channel_one(LinkConfig(n_c=n_c), rng)
        s = all_pilot_values(n_c)
        r = rotate_one(H * s, np.full(n_c, phi))
        frame = pilot_frame(r, H, np.arange(4), s[:4])
        out = cpe_only(frame)
        # estimate equals the true spectral vector exp(-1j*phi) * e_0
        assert abs(out.delta_hat[0] - np.exp(-1j * phi)) < 1e-12
        assert np.max(np.abs(out.delta_hat[1:])) == 0
        # the raw pilot scalar carries the opposite (mean-phase) rotation
        assert abs(pilot_scalar(frame) - np.exp(1j * phi)) < 1e-12

    def test_zero_phase(self):
        n_c = 16
        rng = np.random.default_rng(6)
        H = channel_one(LinkConfig(n_c=n_c), rng)
        s = all_pilot_values(n_c)
        out = cpe_only(pilot_frame(H * s, H, np.arange(4), s[:4]))
        assert np.linalg.norm(out.delta_hat - np.eye(16)[:, 0]) < 1e-12

    def test_tracks_true_cpe_at_30db(self):
        cfg = LinkConfig()
        errs = []
        for f0, f1 in make_frame_pair(cfg, np.random.SeedSequence(7).spawn(50)):
            delta = spectral_vector(f0.theta)
            out = cpe_only(f0)
            errs.append(abs(np.angle(out.delta_hat[0] / delta[0])))
        assert np.median(errs) < 0.05

    def test_zero_pilot_power_rejected(self):
        # A zero channel on every pilot, and a frame with no pilots at all.
        for pilots, H in ((np.arange(2), np.zeros(8)), ([], np.ones(8))):
            frame = pilot_frame(np.ones(8), H, pilots, np.ones(len(pilots)))
            with pytest.raises(EstimationError, match="pilot powers are zero"):
                cpe_only(frame)

    def test_zero_pilot_fit_rejected(self):
        # The pilots carry power but were received as zeros: the fit has no phase.
        frame = pilot_frame(np.zeros(8), np.ones(8), np.arange(2), np.ones(2))
        with pytest.raises(EstimationError, match="pilot fit returned zero"):
            cpe_only(frame)

    @pytest.mark.parametrize("n_values", [1, 2, 4])
    def test_pilot_length_mismatch_rejected(self, n_values):
        # One value must not broadcast over three pilots: the frame, the
        # estimators' one input, refuses the layout when it is built.
        with pytest.raises(ValueError, match="pilot index/value length mismatch"):
            pilot_frame(np.arange(16), np.ones(16), np.array([0, 5, 10]), np.ones(n_values))

    def test_channel_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="H must match the symbol length"):
            pilot_frame(np.arange(16), np.ones(15), np.array([0, 5, 10]), np.ones(3))


def _single_carrier_frame(theta, n_c):
    """Frame whose single active (pilot) subcarrier makes the pilot scalar an
    exact average of exp(1j*theta)."""
    s = np.zeros(n_c, dtype=complex)
    s[0] = np.sqrt(n_c)
    H = np.ones(n_c, dtype=complex)
    return pilot_frame(rotate_one(H * s, theta), H, [0], s[:1], theta)


class TestCis:
    def test_linear_ramp_recovered(self):
        n_c = 32
        t = np.arange(2 * n_c)
        theta = 0.3 + 0.004 * t
        out = cis(
            _single_carrier_frame(theta[:n_c], n_c), _single_carrier_frame(theta[n_c:], n_c)
        )
        th_hat = phase_trajectory(out.delta_hat)
        assert np.max(np.abs(th_hat - theta[:n_c])) < 1e-3
        assert geometry_residual(out.delta_hat) < GEOMETRY_TOL

    def test_constant_phase(self):
        n_c = 32
        out = cis(
            _single_carrier_frame(np.full(n_c, 0.8), n_c),
            _single_carrier_frame(np.full(n_c, 0.8), n_c),
        )
        th_hat = phase_trajectory(out.delta_hat)
        assert np.max(np.abs(th_hat - 0.8)) < 1e-12

    def test_wrap_flagged(self):
        n_c = 32
        f0 = _single_carrier_frame(np.full(n_c, 3.0), n_c)
        f1 = _single_carrier_frame(np.full(n_c, -3.0), n_c)
        out = cis(f0, f1)
        assert "unwrapped" in out.diagnostics.flags


class TestErrorDecomposition:
    def test_perfect_estimate(self):
        rng = np.random.default_rng(8)
        theta = rng.uniform(-np.pi, np.pi, 32)
        dec = error_decomposition(spectral_vector(theta), theta)
        assert np.max(np.abs(dec.eps)) < 1e-12
        assert np.max(np.abs(dec.omega)) < 1e-12
        assert dec.total < 1e-25

    def test_constant_phase_error_anchor(self):
        # eps = 0 and omega = 0.2 everywhere: relative error 2*(1-cos 0.2).
        rng = np.random.default_rng(9)
        n = 64
        theta = rng.uniform(-np.pi, np.pi, n)
        x = (1.0 / n) * np.exp(-1j * (theta - 0.2))
        dec = error_decomposition(np.fft.fft(x), theta)
        assert abs(dec.total * n - 2 * (1 - np.cos(0.2))) < 1e-10

    def test_rejects_non_vector_inputs(self):
        # A column theta would broadcast against the samples.
        theta = np.random.default_rng(11).uniform(-np.pi, np.pi, 4)
        delta = spectral_vector(theta)
        with pytest.raises(ValueError, match="1-D"):
            error_decomposition(delta, theta[:, None])
        with pytest.raises(ValueError, match="1-D"):
            error_decomposition(delta[:, None], theta)

    def test_rejects_length_mismatch(self):
        theta = np.random.default_rng(11).uniform(-np.pi, np.pi, 4)
        with pytest.raises(ValueError, match="theta must match the estimate length"):
            error_decomposition(spectral_vector(theta), theta[:3])

    def test_identity_on_random_estimates(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(8, 65))
            theta = rng.uniform(-np.pi, np.pi, n)
            delta_hat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            direct = np.sum(np.abs(np.fft.ifft(delta_hat) - np.exp(-1j * theta) / n) ** 2)
            assert abs(error_decomposition(delta_hat, theta).total - direct) < 1e-12


def c_matrix(model, pilot_idx, theta, H, s, r):
    """Exact linear map ``C`` with ``delta_uls = F C F^H delta``, checked against
    ``uls`` on the same data to 1e-8 relative.

    Built from the full simulation state; the additive noise is ``r`` minus
    the rotated ``H s``.  ``C`` is the identity only with every subcarrier
    piloted, a full-dimension model and no noise; otherwise its rank equals
    the model dimension.
    """
    n_c = H.size
    F = dft(n_c)
    Fh = F.conj().T
    w = H * s
    E_w = Fh @ w
    if np.min(np.abs(E_w)) <= 1e-12 * np.max(np.abs(E_w)):
        raise EstimationError("zero time-domain symbol product: E_w is singular")
    E_theta = np.exp(1j * theta)
    E_n = Fh @ r - E_theta * E_w  # the additive term of r, in time
    E_snr = 1.0 + E_n / (E_theta * E_w)  # diagonal entries; diagonals commute
    K_sel = np.zeros((pilot_idx.size, n_c))
    K_sel[np.arange(pilot_idx.size), pilot_idx] = 1.0
    KF = K_sel @ F
    P_r = (KF * E_theta[None, :]).conj().T @ (KF * E_theta[None, :])
    E_p = Fh @ (K_sel.T @ w[pilot_idx])
    Ttilde = Fh @ model  # time-domain core, any model kind
    B = (E_snr * E_w)[:, None] * Ttilde
    inner = B.conj().T @ P_r @ B
    C = Ttilde @ np.linalg.solve(inner, B.conj().T * E_p[None, :])

    # Consistency: the map applied to the true delta must reproduce the
    # unconstrained estimate computed from the received vector.
    delta_uls = uls(build_ls_system(pilot_frame(r, H, pilot_idx, s[pilot_idx], theta), model), model).delta_hat
    delta_via_C = F @ (C @ (Fh @ spectral_vector(theta)))
    err = np.linalg.norm(delta_via_C - delta_uls) / np.linalg.norm(delta_uls)
    assert err <= 1e-8, f"C-matrix consistency check failed: relative error {err:.3e}"
    return C


class TestCMatrix:
    def test_identity_in_ideal_case(self):
        n_c = 16
        rng = np.random.default_rng(11)
        model = pc_ppt(n_c, n_c)
        H = channel_one(LinkConfig(n_c=n_c), rng)
        s = all_pilot_values(n_c)
        theta = rng.uniform(-np.pi, np.pi, n_c)
        C = c_matrix(model, np.arange(n_c), theta, H, s, rotate_one(H * s, theta))
        assert np.max(np.abs(C - np.eye(n_c))) < 1e-10

    def test_rank_equals_model_dimension(self, desk_frame):
        _, model, f0, _ = desk_frame
        C = c_matrix(model, f0.pilot_idx, f0.theta, f0.H, sent_symbol(f0), f0.r)
        assert np.linalg.matrix_rank(C, tol=1e-8) == model.shape[1]

    def test_consistency_check_is_internal(self, desk_frame):
        # c_matrix asserts that its reconstruction agrees with the estimator;
        # returning means the check passed at 1e-8.
        cfg, _, f0, _ = desk_frame
        model = lft(cfg.n_c, DEFAULT_MODEL[1])
        C = c_matrix(model, f0.pilot_idx, f0.theta, f0.H, sent_symbol(f0), f0.r)
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
