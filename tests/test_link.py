"""Tests for the channel, transmission, compensation, and the BER loop."""

import dataclasses

import numpy as np
import pytest

import pnofdm.estimators as estimators
import pnofdm.link as link
from pnofdm.estimators import EstimationError, estimate_frame
from pnofdm.link import (
    LinkConfig,
    apply_phase_noise,
    ber_records,
    compensate,
    decode_frame,
    make_frame_pair,
    make_model,
    pilot_indices,
    pilot_sequence,
    rayleigh_channel,
    run_link,
    simulate,
    _layout,
    _tap_profile,
)
from pnofdm.coding import conv_encode
from pnofdm.phasenoise import WIENER_VARIANCE_FACTOR, _wiener_path, spectral_vector
from pnofdm.qam import qam16_map
from pnofdm.spectral import dft_matrix


def _transmit(s, H, theta, snr_db, rng):
    """Reference: one symbol through the channel, ``r = V (H s + n0)``."""
    w = H * s
    sigma2 = float(np.mean(np.abs(w) ** 2)) / 10 ** (snr_db / 10)
    n0 = np.sqrt(sigma2 / 2) * (rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size))
    return apply_phase_noise(w + n0, theta), sigma2


def _build_symbol(cfg, H, theta, rng):
    """Reference: draw, encode, map and send one symbol on its own."""
    pilot_idx, pilot_values, data_idx = _layout(cfg.n_c, cfg.pilot_fraction)
    info_bits = rng.integers(0, 2, 2 * data_idx.size - 6)
    s = np.empty(cfg.n_c, dtype=complex)
    s[pilot_idx] = pilot_values
    s[data_idx] = qam16_map(conv_encode(info_bits))
    r, sigma2 = _transmit(s, H, theta, cfg.snr_db, rng)
    return {"info_bits": info_bits, "s": s, "H": H, "theta": theta, "r": r, "sigma2": sigma2}


def reference_pair(cfg, seed):
    """The frame pair built one symbol at a time, in the documented draw order."""
    rng = np.random.default_rng(seed)
    _, H = rayleigh_channel(cfg, rng)
    step_var = WIENER_VARIANCE_FACTOR * cfg.rho / cfg.n_c
    theta = _wiener_path(rng, 2 * cfg.n_c, step_var, rng.uniform(-np.pi, np.pi))
    return [_build_symbol(cfg, H, th, rng) for th in (theta[: cfg.n_c], theta[cfg.n_c :])]


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

    def test_full_scale_needs_more_taps(self):
        # At 512 subcarriers four taps cannot reach the default coherence
        # bandwidth; the config says so before any frame is drawn, and six
        # taps reach it.
        with pytest.raises(ValueError, match="increase taps"):
            LinkConfig(n_c=512).validate()
        h, H = rayleigh_channel(LinkConfig(n_c=512, taps=6).validate(), 0)
        assert h.size == 6 and H.size == 512


class TestTransmit:
    def test_no_phase_noise_high_snr(self):
        # Without phase noise the pair shares one constant phase, and
        # de-rotating by it leaves the noiseless channel output.
        f0, f1 = make_frame_pair(LinkConfig(rho=0.0, snr_db=300.0), [4])[0]
        theta = np.concatenate([f0.theta, f1.theta])
        assert np.all(theta == theta[0])
        for frame in (f0, f1):
            y = compensate(frame.r, spectral_vector(frame.theta))
            assert np.max(np.abs(y - frame.H * frame.s)) < 1e-10

    def test_constant_phase_rotates(self):
        for frame in make_frame_pair(LinkConfig(rho=0.0, snr_db=300.0), [5])[0]:
            assert np.max(np.abs(frame.r - np.exp(1j * frame.theta[0]) * frame.H * frame.s)) < 1e-10

    def test_programmed_snr(self):
        cfg = LinkConfig(snr_db=30.0)
        ratio = []
        for pair in make_frame_pair(cfg, range(500)):
            for frame in pair:
                w = frame.H * frame.s
                assert frame.sigma2 == pytest.approx(np.mean(np.abs(w) ** 2) * 1e-3, rel=1e-12)
                noise = frame.r - apply_phase_noise(w, frame.theta)
                ratio.append(np.sum(np.abs(noise) ** 2) / np.sum(np.abs(w) ** 2))
        assert np.mean(ratio) == pytest.approx(1e-3, rel=0.05)

    def test_rotation_matches_dense_matrix(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(-np.pi, np.pi, 32)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        F = dft_matrix(32)
        V = F @ np.diag(np.exp(1j * theta)) @ F.conj().T
        assert np.max(np.abs(apply_phase_noise(x, theta) - V @ x)) < 1e-12

    def test_batch_rows_match_single_rotations(self):
        rng = np.random.default_rng(8)
        theta = rng.uniform(-np.pi, np.pi, (3, 32))
        x = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        rotated = apply_phase_noise(x, theta)
        assert rotated.shape == (3, 32)
        for row, xi, ti in zip(rotated, x, theta):
            assert np.array_equal(row, apply_phase_noise(xi, ti))


class TestCompensate:
    def test_true_delta_restores_noiseless(self):
        rng = np.random.default_rng(8)
        theta = rng.uniform(-np.pi, np.pi, 32)
        H = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        s = pilot_sequence(32)
        r = apply_phase_noise(H * s, theta)
        y = compensate(r, spectral_vector(theta))
        assert np.max(np.abs(y - H * s)) < 1e-12

    def test_unit_vector_is_noop(self):
        rng = np.random.default_rng(9)
        r = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.allclose(compensate(r, np.eye(16)[:, 0]), r, atol=1e-14)

    def test_energy_preserved_for_feasible_delta(self):
        rng = np.random.default_rng(10)
        delta = spectral_vector(rng.uniform(-np.pi, np.pi, 64))
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.linalg.norm(compensate(x, delta)) == pytest.approx(np.linalg.norm(x))

    def test_nls_reduces_residual_interference(self):
        cfg = LinkConfig()
        model = make_model(cfg)
        gains = []
        for f0, f1 in make_frame_pair(cfg, np.random.SeedSequence(11).spawn(40)):
            out = estimate_frame("nls", f0, f1, model)
            w = f0.H * f0.s
            before = np.sum(np.abs(f0.r - w) ** 2)
            after = np.sum(np.abs(compensate(f0.r, out.delta_hat) - w) ** 2)
            gains.append(10 * np.log10(before / after))
        assert np.median(gains) >= 10.0

    def test_zero_estimate_rejected(self):
        with pytest.raises(ValueError):
            compensate(np.ones(4), np.zeros(4))

    def test_zero_row_in_block_rejected(self):
        d = np.ones((3, 4), dtype=complex)
        d[1] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            compensate(np.ones((3, 4)), d)

    def test_non_finite_estimate_rejected(self):
        d = np.eye(4)[0].astype(complex)
        d[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            compensate(np.ones(4), d)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            compensate(np.ones(8), np.eye(4)[0])
        with pytest.raises(ValueError, match="shape"):
            compensate(np.ones((2, 4)), np.eye(4)[0])

    def test_block_rows_match_single_compensations(self):
        cfg = LinkConfig(snr_db=10.0)
        model = make_model(cfg)
        pairs = make_frame_pair(cfg, range(6))
        r = np.stack([f0.r for f0, _ in pairs])
        d = np.stack([estimate_frame("uls", f0, f1, model).delta_hat for f0, f1 in pairs])
        d[2] *= 1e3  # rows of very different scale
        y = compensate(r, d)
        assert y.shape == r.shape
        for row, ri, di in zip(y, r, d):
            assert np.array_equal(row, compensate(ri, di))


class TestFramePair:
    @pytest.mark.parametrize(
        "cfg, seeds",
        [
            (LinkConfig(snr_db=10.0), np.random.SeedSequence(10).spawn(32)),
            (LinkConfig(snr_db=30.0), range(100, 132)),
            (LinkConfig(n_c=64, taps=1, n_est=4), range(32)),
            (LinkConfig(rho=0.0), range(200, 232)),
            (LinkConfig(taps=8, snr_db=-3.0), range(300, 332)),
        ],
    )
    def test_pair_matches_per_symbol_reference(self, cfg, seeds):
        # A block's pairs are built as (B, 2, n_c) arrays in one pass; each
        # symbol must equal the symbol built on its own from its seed's
        # draws, whatever the block size and the pair's place in the block.
        want = [reference_pair(cfg, seed) for seed in seeds]
        for block in (1, 4, 6, 32):
            pairs = []
            for start in range(0, len(seeds), block):
                pairs += make_frame_pair(cfg, seeds[start : start + block])
            for i, (pair, ref) in enumerate(zip(pairs, want, strict=True)):
                for frame, sym in zip(pair, ref, strict=True):
                    for name in ("info_bits", "s", "theta", "r", "H"):
                        assert np.array_equal(getattr(frame, name), sym[name]), (block, i, name)
                    assert frame.sigma2 == sym["sigma2"]
                    assert type(frame.sigma2) is float

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            make_frame_pair(LinkConfig(), [])

    def test_phase_continuity(self):
        cfg = LinkConfig()
        f0, f1 = make_frame_pair(cfg, [12])[0]
        step = f1.theta[0] - f0.theta[-1]
        sigma = np.sqrt(4 * np.pi * cfg.rho / cfg.n_c)
        assert abs(step) < 8 * sigma

    def test_genie_compensation_matches_clean_link(self):
        # Noise is drawn in the pre-rotation frame, so true-delta
        # compensation reproduces the zero-phase-noise link exactly.
        cfg = LinkConfig()
        f0, _ = make_frame_pair(cfg, [13])[0]
        y = compensate(f0.r, spectral_vector(f0.theta))
        w = f0.H * f0.s
        noise = f0.r - apply_phase_noise(w, f0.theta)
        clean = w + compensate(noise, spectral_vector(f0.theta))
        assert np.max(np.abs(y - clean)) < 1e-12
        d1 = decode_frame([f0], [spectral_vector(f0.theta)])
        assert d1.shape == (1, f0.info_bits.size)
        assert np.array_equal(d1[0], f0.info_bits)

    def test_unit_symbol_energy(self):
        cfg = LinkConfig()
        f0, _ = make_frame_pair(cfg, [14])[0]
        assert np.mean(np.abs(f0.s) ** 2) == pytest.approx(1.0, rel=0.15)

    def test_pairs_share_read_only_layout(self):
        cfg = LinkConfig()
        a0, a1 = make_frame_pair(cfg, [15])[0]
        b0, _ = make_frame_pair(LinkConfig(snr_db=10.0), [16])[0]
        pilot_idx = pilot_indices(cfg.n_c, cfg.pilot_fraction)
        expected = {
            "pilot_idx": pilot_idx,
            "pilot_values": pilot_sequence(pilot_idx.size),
            "data_idx": np.setdiff1d(np.arange(cfg.n_c), pilot_idx),
        }
        for name, want in expected.items():
            arr = getattr(a0, name)
            assert np.array_equal(arr, want)
            assert getattr(a1, name) is arr and getattr(b0, name) is arr
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]


class TestSimulate:
    def test_trial_frames_follow_spawned_seeds(self):
        # Frames are built and yielded a block at a time; a run crossing a
        # block boundary must still give trial i the pair of child i.
        cfg = LinkConfig(snr_db=20.0)
        n_trials = link.DECODE_BLOCK + 2
        children = np.random.SeedSequence(5).spawn(n_trials)
        blocks = list(simulate(cfg, ("cpe",), n_trials, 5))
        assert [len(frames) for frames, _ in blocks] == [link.DECODE_BLOCK, 2]
        for frames, results in blocks:
            assert list(results) == ["cpe"] and len(results["cpe"]) == len(frames)
        frames = [frame for block, _ in blocks for frame in block]
        for child, frame in zip(children, frames, strict=True):
            expected, _ = make_frame_pair(cfg, [child])[0]
            for name in ("info_bits", "theta", "H", "r"):
                assert np.array_equal(getattr(frame, name), getattr(expected, name))

    def test_common_frames_reproduce_run_link(self, monkeypatch):
        # One pass over every estimator sees the same frames as separate
        # run_link calls with the same seed (common random numbers), across a
        # block boundary and with one estimator falling back on some frames.
        def nls_fails_on_odd_first_bit(name, frame, next_frame, model):
            if name == "nls" and frame.info_bits[0]:
                raise EstimationError("intentional")
            return estimate_frame(name, frame, next_frame, model)

        monkeypatch.setattr(link, "estimate_frame", nls_fails_on_odd_first_bit)
        cfg = LinkConfig(snr_db=12.0)
        names = ("cpe", "cis", "uls", "nls", "gls")
        n_frames = link.DECODE_BLOCK + 3
        records = ber_records(cfg, names, n_frames, 77)
        assert list(records) == list(names)
        assert records["cpe"].bit_errors > 0
        assert 0 < records["nls"].flagged_frames < n_frames
        for name, rec in records.items():
            alone = run_link(cfg, name, n_frames, 77)
            for field in dataclasses.fields(rec):
                a, b = getattr(rec, field.name), getattr(alone, field.name)
                assert np.array_equal(a, b) and type(a) is type(b), (name, field.name)

    def test_failure_falls_back_for_that_estimator_only(self, monkeypatch):
        def nls_broken(name, frame, next_frame, model):
            if name == "nls":
                raise EstimationError("intentional")
            return estimate_frame(name, frame, next_frame, model)

        monkeypatch.setattr(link, "estimate_frame", nls_broken)
        for frames, results in simulate(LinkConfig(), ("uls", "nls"), 2, 3):
            assert len(frames) == len(results["uls"]) == len(results["nls"]) == 2
            for out, flagged in results["uls"]:
                assert not flagged and out.diagnostics.method == "uls"
            for out, flagged in results["nls"]:
                assert flagged and out.diagnostics.method == "cpe"

    def test_model_built_once_and_read_only(self, monkeypatch):
        models = []

        def record(name, frame, next_frame, model):
            models.append(model)
            return estimate_frame(name, frame, next_frame, model)

        monkeypatch.setattr(link, "estimate_frame", record)
        for _ in range(2):
            list(simulate(LinkConfig(), ("uls",), 1, 8))
        assert models[0] is models[1]
        assert models[0] is make_model(LinkConfig(snr_db=10.0))
        assert make_model(LinkConfig(t_kind="lft")) is not models[0]
        with pytest.raises(ValueError, match="read-only"):
            models[0].T[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            models[0].Ttilde[0, 0] = 0.0

    def test_block_boundaries_match_frame_by_frame_decode(self):
        # Two full blocks would hide a lost or reordered final partial block.
        cfg = LinkConfig(snr_db=12.0)
        n_frames = link.DECODE_BLOCK + 3
        expected = []
        for frames, results in simulate(cfg, ("uls",), n_frames, 31):
            for frame, (out, _) in zip(frames, results["uls"], strict=True):
                decoded = decode_frame([frame], [out.delta_hat])[0]
                expected.append(int(np.count_nonzero(decoded != frame.info_bits)))
        assert len(expected) == n_frames and sum(expected) > 0
        rec = run_link(cfg, "uls", n_frames, 31)
        assert np.array_equal(rec.frame_errors, expected)

    def test_decode_frame_rejects_unpaired_estimates(self):
        f0, _ = make_frame_pair(LinkConfig(), [17])[0]
        with pytest.raises(ValueError):
            decode_frame([f0, f0], [spectral_vector(f0.theta)])

    def test_decode_frame_rows_match_single_frame_decodes(self):
        cfg = LinkConfig(snr_db=10.0)
        model = make_model(cfg)
        frames, estimates = [], []
        for f0, f1 in make_frame_pair(cfg, range(6)):
            frames.append(f0)
            estimates.append(estimate_frame("uls", f0, f1, model).delta_hat)
        decoded = decode_frame(frames, estimates)
        assert decoded.shape == (6, frames[0].info_bits.size)
        for bits, frame, d in zip(decoded, frames, estimates):
            assert np.array_equal(bits, decode_frame([frame], [d])[0])
        assert any(np.any(bits != frame.info_bits) for bits, frame in zip(decoded, frames))

    def test_decode_frame_rejects_mixed_blocks_before_decoding(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("decode_frame reached a layer before rejecting its block")

        for name in ("compensate", "qam16_llr", "viterbi_decode_soft"):
            monkeypatch.setattr(link, name, refuse)
        f128, _ = make_frame_pair(LinkConfig(), [18])[0]
        f64, _ = make_frame_pair(LinkConfig(n_c=64, taps=1, n_est=4), [18])[0]
        d128, d64 = spectral_vector(f128.theta), spectral_vector(f64.theta)
        with pytest.raises(ValueError, match="pilot layout"):
            decode_frame([f128, f64], [d128, d64])
        with pytest.raises(ValueError):
            decode_frame([f128, f128], [d128, d64])
        monkeypatch.setattr(link, "compensate", compensate)
        with pytest.raises(ValueError, match="shape"):
            decode_frame([f128, f128], [d64, d64])

    def test_rejects_callable_estimator(self):
        def custom(frame, next_frame, model):
            return estimate_frame("uls", frame, next_frame, model)

        with pytest.raises(ValueError, match="unknown estimator"):
            list(simulate(LinkConfig(), (custom,), 1, 0))
        with pytest.raises(ValueError, match="unknown estimator"):
            run_link(LinkConfig(), custom, 1, 0)

    @pytest.mark.parametrize(
        "ids, message",
        [
            (("uls", "nope"), "unknown estimator 'nope'"),
            (("uls", "cpe", "uls"), "distinct"),
            ((), "at least one"),
        ],
    )
    def test_rejects_bad_ids_before_building_frames(self, monkeypatch, ids, message):
        # A repeated id would count twice in a reduction keyed by id.
        def refuse(*args):
            raise AssertionError("a frame was built before the ids were checked")

        monkeypatch.setattr(link, "make_frame_pair", refuse)
        with pytest.raises(ValueError, match=message):
            next(simulate(LinkConfig(), ids, 40, 0))
        with pytest.raises(ValueError, match=message):
            ber_records(LinkConfig(), ids, 40, 0)

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            run_link(LinkConfig(), "uls", 0, 1)


class TestTraceSeams:
    def test_run_link_reaches_each_layer_through_link_globals(self, monkeypatch):
        # The benchmark's per-layer trace wraps these names on the link
        # module; inlining one of them would silently drop its span.
        calls = {}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapped

        names = ("make_frame_pair", "conv_encode", "qam16_map", "decode_frame", "compensate",
                 "qam16_llr", "viterbi_decode_soft", "estimate_frame")
        for name in names:
            monkeypatch.setattr(link, name, counting(name, getattr(link, name)))
        n_frames = link.DECODE_BLOCK + 2  # one full block and one partial block
        run_link(LinkConfig(), "uls", n_frames, 5)
        assert calls == {
            "make_frame_pair": 2,  # once per block, every symbol of the block stacked
            "conv_encode": 2,
            "qam16_map": 2,
            "decode_frame": 2,  # once per block
            "compensate": 2,
            "qam16_llr": 2,
            "viterbi_decode_soft": 2,  # once per block
            "estimate_frame": n_frames,
        }

    @pytest.mark.parametrize(
        "estimator, fired",
        [
            ("nls", ("build_ls_system", "nls")),
            ("gls", ("build_ls_system", "gls", "certify_local", "solve_dual", "kkt_recover")),
        ],
    )
    def test_estimate_frame_reaches_solvers_through_estimators_globals(
        self, monkeypatch, estimator, fired
    ):
        # The benchmark checks every nls/gls estimate and times the LS build,
        # the dual solve and the recovery by wrapping these names on the
        # estimators module; inlining one would silently drop its check or span.
        calls = {}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapped

        names = ("build_ls_system", "nls", "gls", "certify_local", "solve_dual", "kkt_recover")
        for name in names:
            monkeypatch.setattr(estimators, name, counting(name, getattr(estimators, name)))
        n_frames = 4  # at seed 1 and 10 dB, two of the four gls frames need the dual
        rec = run_link(LinkConfig(snr_db=10.0), estimator, n_frames, 1)
        assert rec.flagged_frames == 0
        assert set(calls) == set(fired)
        assert calls["build_ls_system"] == calls[estimator] == n_frames
        if estimator == "gls":
            assert calls["certify_local"] == n_frames
            assert 0 < calls["solve_dual"] == calls["kkt_recover"] < n_frames


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

    def test_failing_estimator_falls_back_flagged(self, monkeypatch):
        def broken(name, frame, next_frame, model):
            raise EstimationError("intentional")

        monkeypatch.setattr(link, "estimate_frame", broken)
        rec = run_link(LinkConfig(), "uls", 5, 7)
        assert rec.estimator == "uls" and rec.flagged_frames == 5
        assert rec.frames == 5  # frames are decoded with the fallback, not dropped

    def test_ber_monotone_in_snr(self):
        # Statistical monotonicity across the sweep, allowing CI slack.
        for est in ("cpe", "nls"):
            recs = [run_link(LinkConfig(snr_db=s), est, 100, 1234) for s in (15.0, 22.0, 30.0)]
            for lo, hi in zip(recs[:-1], recs[1:]):
                assert hi.ber <= lo.ber + (lo.ci95_high - lo.ber)
