"""Tests for the channel, transmission, compensation, and the BER loop."""

import numpy as np
import pytest

from pnofdm.estimators import EstimationError, estimate_frame
from pnofdm.link import (
    LinkConfig,
    apply_phase_noise,
    channel_estimate_ls,
    compensate,
    decode_frame,
    make_frame_pair,
    make_model,
    pilot_indices,
    pilot_sequence,
    rayleigh_channel,
    run_link,
    simulate,
    transmit_receive,
    _tap_profile,
)
from pnofdm.phasenoise import spectral_vector
from pnofdm.spectral import build_V


class TestPilots:
    def test_count_and_spacing(self):
        idx = pilot_indices(128, 0.08)
        assert idx.size == 10
        assert idx[0] == 0
        assert np.all(np.diff(idx) > 0)

    def test_values_unit_modulus_and_fixed(self):
        v1, v2 = pilot_sequence(10), pilot_sequence(10)
        assert np.array_equal(v1, v2)
        assert np.max(np.abs(np.abs(v1) - 1)) < 1e-15


class TestChannel:
    def test_single_tap_flat(self):
        cfg = LinkConfig(taps=1)
        _, H = rayleigh_channel(cfg, 0)
        assert np.max(np.abs(np.abs(H) - np.abs(H[0]))) < 1e-12

    def test_parseval(self):
        cfg = LinkConfig()
        h, H = rayleigh_channel(cfg, 1)
        assert np.sum(np.abs(H) ** 2) == pytest.approx(cfg.n_c * np.sum(np.abs(h) ** 2))

    def test_unit_average_power(self):
        cfg = LinkConfig()
        rng = np.random.default_rng(2)
        powers = [np.sum(np.abs(rayleigh_channel(cfg, rng)[0]) ** 2) for _ in range(4000)]
        assert np.mean(powers) == pytest.approx(1.0, rel=0.05)

    def test_coherence_bandwidth_correlation(self):
        # Monte-Carlo frequency correlation at the configured coherence
        # bandwidth is 0.5 (the decay constant is solved for exactly).
        cfg = LinkConfig()
        rng = np.random.default_rng(3)
        dk = round(cfg.coherence_bw / cfg.f_sub)
        acc, norm = 0.0, 0.0
        for _ in range(3000):
            _, H = rayleigh_channel(cfg, rng)
            acc += np.mean(H * np.conj(np.roll(H, -dk)))
            norm += np.mean(np.abs(H) ** 2)
        assert abs(acc / norm) == pytest.approx(0.5, rel=0.10)

    def test_unreachable_coherence_raises(self):
        # Sample-spaced taps bound how decorrelated the channel can get.
        with pytest.raises(ValueError):
            _tap_profile(4, 800e3 / 7.68e6)

    def test_explicit_decay_override(self):
        # An explicit decay constant bypasses the coherence solve; this is
        # the route to full-scale (512-subcarrier) configurations whose
        # coherence target is out of the solvable range.
        cfg = LinkConfig(n_c=512, tap_decay=2.65)
        h, H = rayleigh_channel(cfg, 0)
        assert h.size == 4 and H.size == 512
        with pytest.raises(ValueError):
            LinkConfig(tap_decay=-1.0).validate()


class TestTransmit:
    def test_no_phase_noise_high_snr(self):
        rng = np.random.default_rng(4)
        H = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s = pilot_sequence(16)
        r = transmit_receive(s, H, np.zeros(16), 300.0, 5)
        assert np.max(np.abs(r - H * s)) < 1e-10

    def test_constant_phase_rotates(self):
        rng = np.random.default_rng(5)
        H = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s = pilot_sequence(16)
        phi = 1.3
        r = transmit_receive(s, H, np.full(16, phi), 300.0, 6)
        assert np.max(np.abs(r - np.exp(1j * phi) * H * s)) < 1e-10

    def test_programmed_snr(self):
        rng = np.random.default_rng(6)
        H = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        s = pilot_sequence(64)
        theta = np.zeros(64)
        ratio = []
        for seed in range(1000):
            r = transmit_receive(s, H, theta, 30.0, seed)
            ratio.append(np.sum(np.abs(r - H * s) ** 2) / np.sum(np.abs(H * s) ** 2))
        assert np.mean(ratio) == pytest.approx(1e-3, rel=0.05)

    def test_rotation_matches_dense_matrix(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(-np.pi, np.pi, 32)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        V = build_V(spectral_vector(theta).values)
        assert np.max(np.abs(apply_phase_noise(x, theta) - V @ x)) < 1e-12


class TestCompensate:
    def test_true_delta_restores_noiseless(self):
        rng = np.random.default_rng(8)
        theta = rng.uniform(-np.pi, np.pi, 32)
        H = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        s = pilot_sequence(32)
        r = apply_phase_noise(H * s, theta)
        y = compensate(r, spectral_vector(theta).values)
        assert np.max(np.abs(y - H * s)) < 1e-12

    def test_unit_vector_is_noop(self):
        rng = np.random.default_rng(9)
        r = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.allclose(compensate(r, np.eye(16)[:, 0]), r, atol=1e-14)

    def test_energy_preserved_for_feasible_delta(self):
        rng = np.random.default_rng(10)
        delta = spectral_vector(rng.uniform(-np.pi, np.pi, 64)).values
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.linalg.norm(compensate(x, delta)) == pytest.approx(np.linalg.norm(x))

    def test_nls_reduces_residual_interference(self):
        cfg = LinkConfig()
        model = make_model(cfg)
        gains = []
        for child in np.random.SeedSequence(11).spawn(40):
            f0, f1 = make_frame_pair(cfg, child)
            out = estimate_frame("nls", f0, f1, model)
            w = f0.w
            before = np.sum(np.abs(f0.r - w) ** 2)
            after = np.sum(np.abs(compensate(f0.r, out.delta_hat.values) - w) ** 2)
            gains.append(10 * np.log10(before / after))
        assert np.median(gains) >= 10.0

    def test_zero_estimate_rejected(self):
        with pytest.raises(ValueError):
            compensate(np.ones(4), np.zeros(4))


class TestFramePair:
    def test_phase_continuity(self):
        cfg = LinkConfig()
        f0, f1 = make_frame_pair(cfg, 12)
        step = f1.theta[0] - f0.theta[-1]
        sigma = np.sqrt(4 * np.pi * cfg.rho / cfg.n_c)
        assert abs(step) < 8 * sigma

    def test_independent_mode(self):
        cfg = LinkConfig(pn_mode="independent")
        f0, f1 = make_frame_pair(cfg, 12)
        assert abs(f1.theta[0] - f0.theta[-1]) > 0  # freshly drawn initial phase

    def test_genie_compensation_matches_clean_link(self):
        # Noise is drawn in the pre-rotation frame, so true-delta
        # compensation reproduces the zero-phase-noise link exactly.
        cfg = LinkConfig()
        f0, _ = make_frame_pair(cfg, 13)
        y = compensate(f0.r, spectral_vector(f0.theta).values)
        clean = f0.w + compensate(f0.noise, spectral_vector(f0.theta).values)
        assert np.max(np.abs(y - clean)) < 1e-12
        d1 = decode_frame(f0, spectral_vector(f0.theta).values)
        assert np.array_equal(d1, f0.info_bits)

    def test_unit_symbol_energy(self):
        cfg = LinkConfig()
        f0, _ = make_frame_pair(cfg, 14)
        assert np.mean(np.abs(f0.s) ** 2) == pytest.approx(1.0, rel=0.15)


class TestChannelEstimate:
    def test_exact_without_phase_noise(self):
        rng = np.random.default_rng(15)
        H = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s = pilot_sequence(16)
        assert np.allclose(channel_estimate_ls(H * s, s), H)

    def test_rejects_empty_subcarriers(self):
        with pytest.raises(ValueError):
            channel_estimate_ls(np.ones(4), np.array([1.0, 0.0, 1.0, 1.0]))


class TestSimulate:
    def test_trial_frames_follow_spawned_seeds(self):
        cfg = LinkConfig(snr_db=20.0)
        children = np.random.SeedSequence(5).spawn(3)
        trials = list(simulate(cfg, ("cpe",), 3, 5))
        assert len(trials) == 3
        for child, (frame, results) in zip(children, trials):
            expected, _ = make_frame_pair(cfg, child)
            for name in ("info_bits", "theta", "H", "r"):
                assert np.array_equal(getattr(frame, name), getattr(expected, name))
            assert list(results) == ["cpe"]

    def test_common_frames_reproduce_run_link(self):
        # One multi-estimator run sees the same frames as separate run_link
        # calls with the same seed (common random numbers).
        cfg = LinkConfig(snr_db=12.0)
        names = ("cpe", "cis", "uls", "nls", "gls")
        errors = {name: [] for name in names}
        for frame, results in simulate(cfg, names, 5, 77):
            for name, (out, _) in results.items():
                decoded = decode_frame(frame, out.delta_hat.values)
                errors[name].append(int(np.count_nonzero(decoded != frame.info_bits)))
        assert sum(errors["cpe"]) > 0
        for name in names:
            assert np.array_equal(run_link(cfg, name, 5, 77).frame_errors, errors[name])

    def test_failure_falls_back_for_that_estimator_only(self):
        def broken(frame, next_frame, model):
            raise EstimationError("intentional")

        for frame, results in simulate(LinkConfig(), ("uls", broken), 2, 3):
            out, flagged = results["uls"]
            assert not flagged and out.diagnostics.method == "uls"
            out, flagged = results[broken]
            assert flagged and out.diagnostics.method == "cpe"

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            run_link(LinkConfig(), "uls", 0, 1)


class TestRunLink:
    def test_deterministic(self):
        cfg = LinkConfig(snr_db=20.0)
        a = run_link(cfg, "nls", 10, 99)
        b = run_link(cfg, "nls", 10, 99)
        assert a.ber == b.ber
        assert np.array_equal(a.frame_errors, b.frame_errors)

    def test_genie_waterfall_location(self):
        # Calibrated clean-link reference: the 4-tap correlated Rayleigh
        # channel is fade-limited near 1e-4 at 30 dB and error-free by 35 dB
        # at this frame count.
        rec30 = run_link(LinkConfig(snr_db=30.0), "genie", 100, 123)
        assert rec30.ber < 1e-3
        rec35 = run_link(LinkConfig(snr_db=35.0), "genie", 50, 123)
        assert rec35.bit_errors == 0

    def test_zero_phase_noise_low_ber(self):
        rec = run_link(LinkConfig(rho=0.0), "cpe", 100, 321)
        assert rec.ber < 1e-3

    def test_validates_config(self):
        with pytest.raises(ValueError):
            run_link(LinkConfig(n_est=100), "uls", 2, 0)

    def test_custom_estimator_failure_falls_back_flagged(self):
        from pnofdm.estimators import EstimationError

        def broken(frame, next_frame, model):
            raise EstimationError("intentional")

        rec = run_link(LinkConfig(), broken, 5, 7)
        assert rec.flagged_frames == 5
        assert rec.frames == 5  # frames are decoded with the fallback, not dropped

    def test_ber_monotone_in_snr(self):
        # Statistical monotonicity across the sweep, allowing CI slack.
        for est in ("cpe", "nls"):
            recs = [run_link(LinkConfig(snr_db=s), est, 100, 1234) for s in (15.0, 22.0, 30.0)]
            for lo, hi in zip(recs[:-1], recs[1:]):
                assert hi.ber <= lo.ber + (lo.ci95_high - lo.ber)

    def test_preamble_ls_channel_knowledge(self):
        # Sensitivity mode: estimated channel from a phase-noise-corrupted
        # preamble still supports decoding at slow phase noise, but is not
        # the true response.
        cfg = LinkConfig(rho=0.002, channel_knowledge="preamble-ls")
        f0, _ = make_frame_pair(cfg, 17)
        cfg_genie = LinkConfig(rho=0.002)
        g0, _ = make_frame_pair(cfg_genie, 17)
        assert not np.allclose(f0.H, g0.H)
        rec = run_link(cfg, "nls", 30, 4321)
        assert rec.ber < 5e-2
