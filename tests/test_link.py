"""Tests for the channel, the Wiener phase-noise draws, transmission,
compensation, and the BER loop."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pnofdm.estimators as estimators
import pnofdm.link as link
from pnofdm.estimators import EstimationError, cpe_only, estimate_frame
from pnofdm.link import (
    DEFAULT_MODEL,
    SNR_DB_LIMIT,
    SUBCARRIER_SPACING,
    WIENER_VARIANCE_FACTOR,
    LinkConfig,
    ber_records,
    compensate,
    decode_frame,
    make_frame_pair,
    make_model,
    run_link,
    simulate,
    _apply_phase_noise,
    _layout,
    _rayleigh_channel,
    _tap_profile,
)
from pnofdm.coding import conv_encode
from pnofdm.estimators import ESTIMATOR_IDS, MODEL_FREE_IDS, NEXT_SYMBOL_IDS
from pnofdm.qam import qam16_map
from pnofdm.spectral import dft_matrix, spectral_vector


def sent_symbol(frame):
    """The symbol ``s`` a frame was sent with: its pilots plus its coded, mapped bits."""
    s = np.empty(frame.r.size, dtype=complex)
    s[frame.pilot_idx] = frame.pilot_values
    s[frame.data_idx] = qam16_map(conv_encode([frame.info_bits]))[0]
    return s


def compensate_one(r, delta_hat):
    """One received vector through the compensator, as a one-row block."""
    return compensate([r], [delta_hat])[0]


def rotate_one(x, theta):
    """One vector through the phase-noise rotation, as a one-row block."""
    return _apply_phase_noise(x[None], theta[None])[0]


def all_pilot_values(n_c):
    """The fixed pilot values of a symbol whose ``n_c`` subcarriers are all pilots."""
    return _layout(n_c, 1.0)[1]


def _transmit(s, H, theta, snr_db, rng):
    """Reference: one symbol through the channel, ``r = V (H s + n0)``."""
    w = H * s
    sigma2 = float(np.mean(np.abs(w) ** 2)) / 10 ** (snr_db / 10)
    n0 = np.sqrt(sigma2 / 2) * (rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size))
    return rotate_one(w + n0, theta), sigma2


def _build_symbol(cfg, H, theta, rng):
    """Reference: draw, encode, map and send one symbol on its own."""
    pilot_idx, pilot_values, data_idx = _layout(cfg.n_c, cfg.pilot_fraction)
    info_bits = rng.integers(0, 2, 2 * data_idx.size - 6)
    s = np.empty(cfg.n_c, dtype=complex)
    s[pilot_idx] = pilot_values
    s[data_idx] = qam16_map(conv_encode([info_bits]))[0]
    r, sigma2 = _transmit(s, H, theta, cfg.snr_db, rng)
    return {"info_bits": info_bits, "s": s, "H": H, "theta": theta, "r": r, "sigma2": sigma2}


def reference_pair(cfg, seed):
    """The frame pair built one seed and one symbol at a time, in the
    documented draw order, with its own channel and Wiener path code."""
    rng = np.random.default_rng(seed)
    p = np.asarray(_tap_profile(cfg.taps, cfg.coherence_bw / (cfg.n_c * SUBCARRIER_SPACING)))
    h = np.sqrt(p / 2) * (rng.standard_normal(cfg.taps) + 1j * rng.standard_normal(cfg.taps))
    H = np.fft.fft(h, cfg.n_c)
    theta0 = rng.uniform(-np.pi, np.pi)
    steps = rng.normal(0.0, np.sqrt(WIENER_VARIANCE_FACTOR * cfg.rho / cfg.n_c), 2 * cfg.n_c - 1)
    theta = theta0 + np.concatenate(([0.0], np.cumsum(steps)))
    return [_build_symbol(cfg, H, th, rng) for th in (theta[: cfg.n_c], theta[cfg.n_c :])]


def reference_tap_profile(taps, ratio):
    """The tap powers from all 200 bisection steps, without the early stop."""
    ell = np.arange(taps)
    phase = np.exp(-2j * np.pi * ratio * ell)

    def corr(decay):
        p = np.exp(-ell / decay)
        p = p / p.sum()
        return float(np.abs(np.sum(p * phase)))

    if corr(1e9) >= 0.5:
        raise ValueError("unreachable")
    lo, hi = 1e-6, 1e9
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if corr(mid) > 0.5:
            lo = mid
        else:
            hi = mid
    p = np.exp(-ell / np.sqrt(lo * hi))
    return tuple(p / p.sum())


def channel_draws(cfg, rng, n):
    """Standard normal tap draws of ``n`` channels, as the frame builder lays them out."""
    return rng.standard_normal((n, 2, cfg.taps))


def channel_one(cfg, rng):
    """One channel response from ``rng``'s next tap draws, as a one-row block."""
    return _rayleigh_channel(cfg, channel_draws(cfg, rng, 1))[0]


def thetas(rho, seeds):
    """The phase path of each seed's first symbol, one row per seed."""
    return np.array([f0.theta for f0, _ in make_frame_pair(LinkConfig(rho=rho), seeds, next_symbol=False)])


class TestPilots:
    def test_count_and_spacing(self):
        idx = _layout(128, 0.08)[0]
        assert idx.size == 10
        assert idx[0] == 0
        assert np.all(np.diff(idx) > 0)

    def test_values_unit_modulus_and_fixed(self):
        # Layouts with the same pilot count carry the same values.
        v1, v2 = _layout(128, 0.08)[1], _layout(125, 0.08)[1]
        assert v1.size == 10 and np.array_equal(v1, v2)
        assert np.max(np.abs(np.abs(v1) - 1)) < 1e-15


class TestSmallestLink:
    # n_c = 8 with half the subcarriers pilots leaves 4 data subcarriers:
    # 16 coded bits, a 6-bit tail and 2 information bits.
    # Its 4 pilots take a model of at most 4 coefficients.
    CFG = LinkConfig(n_c=8, pilot_fraction=0.5, taps=1)

    def test_runs_every_estimator(self):
        cfg = self.CFG.validate()
        (frame, _), = make_frame_pair(cfg, [1])
        assert frame.data_idx.size == 4 and frame.info_bits.size == 2
        for est in ESTIMATOR_IDS:
            (rec,) = ber_records(cfg, (est,), 16, 3, models=(("ppt", 4),)).values()
            assert np.isfinite(rec.ber) and rec.flagged_frames == 0, est

    def test_fewer_than_8_subcarriers_rejected(self):
        cfg = dataclasses.replace(self.CFG, n_c=7)
        assert cfg.violations() == ["n_c must be at least 8"]
        with pytest.raises(ValueError, match="n_c must be at least 8"):
            cfg.validate()


class TestChannel:
    def test_single_tap_flat(self):
        cfg = LinkConfig(taps=1)
        (H,) = _rayleigh_channel(cfg, channel_draws(cfg, np.random.default_rng(0), 1))
        assert np.max(np.abs(np.abs(H) - np.abs(H[0]))) < 1e-12

    def test_unit_average_power(self):
        # mean_k |H_k|^2 is the total tap power (Parseval), 1 on average.
        cfg = LinkConfig()
        H = _rayleigh_channel(cfg, channel_draws(cfg, np.random.default_rng(2), 4000))
        assert np.mean(np.abs(H) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_coherence_bandwidth_correlation(self):
        # Monte-Carlo frequency correlation at the configured coherence
        # bandwidth is 0.5 (the decay constant is solved for exactly).
        cfg = LinkConfig()
        dk = round(cfg.coherence_bw / SUBCARRIER_SPACING)
        H = _rayleigh_channel(cfg, channel_draws(cfg, np.random.default_rng(3), 3000))
        corr = np.mean(H * np.conj(np.roll(H, -dk, axis=1))) / np.mean(np.abs(H) ** 2)
        assert abs(corr) == pytest.approx(0.5, rel=0.10)

    def test_block_rows_match_single_channels(self):
        cfg = LinkConfig(taps=8)
        draws = channel_draws(cfg, np.random.default_rng(4), 5)
        H = _rayleigh_channel(cfg, draws)
        assert H.shape == (5, cfg.n_c)
        for row, d in zip(H, draws):
            assert np.array_equal(row, _rayleigh_channel(cfg, d[None])[0])

    def test_unreachable_coherence_raises(self):
        # Sample-spaced taps bound how decorrelated the channel can get.
        with pytest.raises(ValueError):
            _tap_profile(4, 800e3 / 7.68e6)

    @pytest.mark.parametrize("taps", [2, 3, 4, 6, 8, 16])
    def test_profile_equals_the_full_bisection(self, taps):
        # Stopping at the bracket's fixed point gives the 200-step profile,
        # at the default config's ratio and around it.
        for ratio in (0.05, 0.1, 0.2, 800e3 / (128 * 15e3), 0.6, 0.9):
            try:
                want = reference_tap_profile(taps, ratio)
            except ValueError:
                continue
            assert _tap_profile(taps, ratio) == want

    def test_full_scale_needs_more_taps(self):
        # At 512 subcarriers four taps cannot reach the default coherence
        # bandwidth; the config says so before any frame is drawn, and six
        # taps reach it.
        with pytest.raises(ValueError, match="increase taps"):
            LinkConfig(n_c=512).validate()
        cfg = LinkConfig(n_c=512, taps=6).validate()
        assert _rayleigh_channel(cfg, channel_draws(cfg, np.random.default_rng(0), 1)).shape == (1, 512)


class TestTransmit:
    def test_no_phase_noise_high_snr(self):
        # Without phase noise the pair shares one constant phase, and
        # de-rotating by it leaves the noiseless channel output.
        f0, f1 = make_frame_pair(LinkConfig(rho=0.0, snr_db=300.0), [4])[0]
        theta = np.concatenate([f0.theta, f1.theta])
        assert np.all(theta == theta[0])
        for frame in (f0, f1):
            y = compensate_one(frame.r, spectral_vector(frame.theta))
            assert np.max(np.abs(y - frame.H * sent_symbol(frame))) < 1e-10

    def test_constant_phase_rotates(self):
        for frame in make_frame_pair(LinkConfig(rho=0.0, snr_db=300.0), [5])[0]:
            assert np.max(np.abs(frame.r - np.exp(1j * frame.theta[0]) * frame.H * sent_symbol(frame))) < 1e-10

    def test_programmed_snr(self):
        cfg = LinkConfig(snr_db=30.0)
        ratio = []
        for pair in make_frame_pair(cfg, range(500)):
            for frame in pair:
                w = frame.H * sent_symbol(frame)
                assert frame.sigma2 == pytest.approx(np.mean(np.abs(w) ** 2) * 1e-3, rel=1e-12)
                noise = frame.r - rotate_one(w, frame.theta)
                ratio.append(np.sum(np.abs(noise) ** 2) / np.sum(np.abs(w) ** 2))
        assert np.mean(ratio) == pytest.approx(1e-3, rel=0.05)

    def test_rotation_matches_dense_matrix(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(-np.pi, np.pi, 32)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        F = dft_matrix(32)
        V = F @ np.diag(np.exp(1j * theta)) @ F.conj().T
        assert np.max(np.abs(rotate_one(x, theta) - V @ x)) < 1e-12

    def test_batch_rows_match_single_rotations(self):
        rng = np.random.default_rng(8)
        theta = rng.uniform(-np.pi, np.pi, (3, 32))
        x = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        rotated = _apply_phase_noise(x, theta)
        assert rotated.shape == (3, 32)
        for row, xi, ti in zip(rotated, x, theta):
            assert np.array_equal(row, rotate_one(xi, ti))


class TestCompensate:
    def test_true_delta_restores_noiseless(self):
        rng = np.random.default_rng(8)
        theta = rng.uniform(-np.pi, np.pi, 32)
        H = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        s = all_pilot_values(32)
        r = rotate_one(H * s, theta)
        y = compensate_one(r, spectral_vector(theta))
        assert np.max(np.abs(y - H * s)) < 1e-12

    def test_unit_vector_is_noop(self):
        rng = np.random.default_rng(9)
        r = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.allclose(compensate_one(r, np.eye(16)[:, 0]), r, atol=1e-14)

    def test_energy_preserved_for_feasible_delta(self):
        rng = np.random.default_rng(10)
        delta = spectral_vector(rng.uniform(-np.pi, np.pi, 64))
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.linalg.norm(compensate_one(x, delta)) == pytest.approx(np.linalg.norm(x))

    def test_nls_reduces_residual_interference(self):
        cfg = LinkConfig()
        model = make_model("ppt", cfg.n_c, DEFAULT_MODEL[1])
        gains = []
        for f0, f1 in make_frame_pair(cfg, np.random.SeedSequence(11).spawn(40)):
            out = estimate_frame("nls", f0, f1, model)
            w = f0.H * sent_symbol(f0)
            before = np.sum(np.abs(f0.r - w) ** 2)
            after = np.sum(np.abs(compensate_one(f0.r, out.delta_hat) - w) ** 2)
            gains.append(10 * np.log10(before / after))
        assert np.median(gains) >= 10.0

    def test_zero_estimate_rejected(self):
        with pytest.raises(ValueError):
            compensate(np.ones((1, 4)), np.zeros((1, 4)))

    def test_zero_row_in_block_rejected(self):
        d = np.ones((3, 4), dtype=complex)
        d[1] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            compensate(np.ones((3, 4)), d)

    def test_non_finite_estimate_rejected(self):
        d = np.eye(4)[:1].astype(complex)
        d[0, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            compensate(np.ones((1, 4)), d)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            compensate(np.ones((1, 8)), np.eye(4)[:1])
        with pytest.raises(ValueError, match="shape"):
            compensate(np.ones((2, 4)), np.eye(4)[0])
        with pytest.raises(ValueError, match="block"):
            compensate(np.ones(4), np.eye(4)[0])  # one vector is a one-row block

    def test_block_rows_match_single_compensations(self):
        cfg = LinkConfig(snr_db=10.0)
        model = make_model("ppt", cfg.n_c, DEFAULT_MODEL[1])
        pairs = make_frame_pair(cfg, range(6))
        r = np.stack([f0.r for f0, _ in pairs])
        d = np.stack([estimate_frame("uls", f0, f1, model).delta_hat for f0, f1 in pairs])
        d[2] *= 1e3  # rows of very different scale
        y = compensate(r, d)
        assert y.shape == r.shape
        for row, ri, di in zip(y, r, d):
            assert np.array_equal(row, compensate_one(ri, di))


class TestFramePair:
    @pytest.mark.parametrize(
        "cfg, seeds",
        [
            (LinkConfig(snr_db=10.0), np.random.SeedSequence(10).spawn(33)),
            (LinkConfig(snr_db=30.0), range(100, 133)),
            (LinkConfig(n_c=64, taps=1), range(33)),
            (LinkConfig(rho=0.0), range(200, 233)),
            (LinkConfig(taps=8, snr_db=-3.0), range(300, 333)),
        ],
    )
    def test_pair_matches_per_symbol_reference(self, cfg, seeds):
        # A block's pairs are built as (B, 2, n_c) arrays in one pass; each
        # symbol must equal the symbol built on its own from its seed's
        # draws, whatever the block size, the pair's place in the block
        # (33 seeds end every block size in a partial block) and whether
        # the second symbol is built at all.
        want = [reference_pair(cfg, seed) for seed in seeds]
        for block in (1, 4, 6, 32):
            for next_symbol in (True, False):
                pairs = []
                for start in range(0, len(seeds), block):
                    pairs += make_frame_pair(cfg, seeds[start : start + block], next_symbol=next_symbol)
                for i, (pair, ref) in enumerate(zip(pairs, want, strict=True)):
                    if not next_symbol:
                        assert pair[1] is None
                        pair, ref = pair[:1], ref[:1]
                    for frame, sym in zip(pair, ref, strict=True):
                        for name in ("info_bits", "theta", "r", "H"):
                            assert np.array_equal(getattr(frame, name), sym[name]), (block, i, name)
                        assert np.array_equal(sent_symbol(frame), sym["s"]), (block, i, "s")
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
        y = compensate_one(f0.r, spectral_vector(f0.theta))
        w = f0.H * sent_symbol(f0)
        noise = f0.r - rotate_one(w, f0.theta)
        clean = w + compensate_one(noise, spectral_vector(f0.theta))
        assert np.max(np.abs(y - clean)) < 1e-12
        d1 = decode_frame([f0], [spectral_vector(f0.theta)])
        assert d1.shape == (1, f0.info_bits.size)
        assert np.array_equal(d1[0], f0.info_bits)

    def test_unit_symbol_energy(self):
        cfg = LinkConfig()
        f0, _ = make_frame_pair(cfg, [14])[0]
        assert np.mean(np.abs(sent_symbol(f0)) ** 2) == pytest.approx(1.0, rel=0.15)

    def test_pairs_share_read_only_layout(self):
        cfg = LinkConfig()
        a0, a1 = make_frame_pair(cfg, [15])[0]
        b0, _ = make_frame_pair(LinkConfig(snr_db=10.0), [16])[0]
        pilot_idx = np.floor(np.arange(10) * cfg.n_c / 10).astype(int)
        expected = {
            "pilot_idx": pilot_idx,
            "pilot_values": all_pilot_values(10),
            "data_idx": np.setdiff1d(np.arange(cfg.n_c), pilot_idx),
        }
        for name, want in expected.items():
            arr = getattr(a0, name)
            assert np.array_equal(arr, want) and arr.dtype == want.dtype
            assert getattr(a1, name) is arr and getattr(b0, name) is arr
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]


class TestWienerRealization:
    def test_zero_rho_constant(self):
        for f0, f1 in make_frame_pair(LinkConfig(rho=0.0), range(50)):
            for frame in (f0, f1):
                assert np.all(frame.theta == frame.theta[0])

    def test_deterministic(self):
        assert np.array_equal(thetas(0.05, [99]), thetas(0.05, [99]))

    def test_programmed_diffusion(self):
        # Sample variance of theta[-1] - theta[0] over many frames matches the
        # configured band: 4*pi*rho * (n_c-1)/n_c.
        rho, n_c = 0.02, LinkConfig().n_c
        drifts = thetas(rho, range(10_000, 20_000))
        var = np.var(drifts[:, -1] - drifts[:, 0])
        target = 4 * np.pi * rho * (n_c - 1) / n_c
        assert abs(var - target) / target < 0.05

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            LinkConfig(rho=-0.1).validate()

    # At 1e308 the variance 4*pi*rho overflows; the draws would hold inf and nan.
    @pytest.mark.parametrize("rho", [np.nan, np.inf, 1e308])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            LinkConfig(rho=rho).validate()


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
            assert list(results) == [("cpe", None)] and len(results["cpe", None]) == len(frames)
        frames = [frame for block, _ in blocks for frame in block]
        for child, frame in zip(children, frames, strict=True):
            expected, _ = make_frame_pair(cfg, [child])[0]
            for name in ("info_bits", "theta", "H", "r"):
                assert np.array_equal(getattr(frame, name), getattr(expected, name))

    @pytest.mark.parametrize("ids, built", [(("cis", "uls"), True), (("uls",), False)])
    def test_second_symbol_built_only_for_its_readers(self, monkeypatch, ids, built):
        # Only the estimators in NEXT_SYMBOL_IDS read a pair's second symbol,
        # so simulate builds it for them and for no one else.
        assert NEXT_SYMBOL_IDS == ("cis",)
        seen = []

        def record(name, frame, next_frame, model):
            seen.append(next_frame is not None)
            return estimate_frame(name, frame, next_frame, model)

        monkeypatch.setattr(link, "estimate_frame", record)
        n_trials = link.DECODE_BLOCK + 1
        blocks = list(simulate(LinkConfig(), ids, n_trials, 9))
        assert seen == [built] * (n_trials * len(ids))
        assert not any(flagged for _, results in blocks for _, flagged in results["uls", DEFAULT_MODEL])
        if built:
            assert not any(flagged for _, results in blocks for _, flagged in results["cis", None])

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
        assert list(records) == [(name, None if name in MODEL_FREE_IDS else DEFAULT_MODEL) for name in names]
        assert records["cpe", None].bit_errors > 0
        assert 0 < records["nls", DEFAULT_MODEL].flagged_frames < n_frames
        for (name, _), rec in records.items():
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
        cfg = LinkConfig()
        for frames, results in simulate(cfg, ("uls", "nls"), 2, 3):
            assert len(frames) == len(results["uls", DEFAULT_MODEL]) == len(results["nls", DEFAULT_MODEL]) == 2
            for f, (out, flagged) in zip(frames, results["uls", DEFAULT_MODEL]):
                own = estimate_frame("uls", f, None, make_model("ppt", cfg.n_c, DEFAULT_MODEL[1]))
                assert not flagged and np.array_equal(out.delta_hat, own.delta_hat)
            for f, (out, flagged) in zip(frames, results["nls", DEFAULT_MODEL]):
                fallback = cpe_only(f)
                assert flagged and np.array_equal(out.delta_hat, fallback.delta_hat)

    def test_model_free_ids_run_once_per_frame(self, monkeypatch):
        # cpe, cis and genie read no model: under two models each is
        # estimated and decoded once per frame, and gets the record of a run
        # under one model, keyed by no model.
        cpe_calls, decodes = [], []
        real_cpe, real_decode = estimators.cpe_only, link.decode_frame
        monkeypatch.setattr(estimators, "cpe_only", lambda frame: cpe_calls.append(1) or real_cpe(frame))
        monkeypatch.setattr(link, "decode_frame", lambda *a: decodes.append(1) or real_decode(*a))
        cfg, n_frames, ppt, lft = LinkConfig(snr_db=10.0), 8, ("ppt", 8), ("lft", 8)
        records = ber_records(cfg, ("cpe", "cis", "genie", "uls"), n_frames, 3, models=(ppt, lft))
        assert len(cpe_calls) == n_frames
        assert len(decodes) == len(records) == 5
        assert list(records) == [("cpe", None), ("cis", None), ("genie", None), ("uls", ppt), ("uls", lft)]
        alone = run_link(cfg, "cpe", n_frames, 3)
        for field in dataclasses.fields(alone):
            assert np.array_equal(getattr(records["cpe", None], field.name), getattr(alone, field.name)), field.name

    def test_model_built_once_and_read_only(self, monkeypatch):
        models = []

        def record(name, frame, next_frame, model):
            models.append(model)
            return estimate_frame(name, frame, next_frame, model)

        monkeypatch.setattr(link, "estimate_frame", record)
        for _ in range(2):
            list(simulate(LinkConfig(), ("uls",), 1, 8))
        assert models[0] is models[1]
        assert models[0] is make_model("ppt", 128, 8)
        assert type(models[0]) is np.ndarray and models[0].shape == (128, 8)  # the model is its lift matrix T
        assert make_model("lft", 128, 8) is not models[0]
        with pytest.raises(ValueError, match="read-only"):
            models[0][0, 0] = 0.0

    def test_make_model_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="t_kind must be 'ppt' or 'lft', got 'bogus'"):
            make_model("bogus", 128, 8)

    def test_ppt_divisibility_binds_the_model_not_the_frames(self, monkeypatch):
        # n = 7 does not divide n_c = 128: the lft model of that size runs on
        # the link's frames, and a ppt run is refused before it builds a frame.
        ((_, results),) = simulate(LinkConfig(), ("uls",), 1, 0, models=(("lft", 7),))
        assert results["uls", ("lft", 7)][0][0].delta_hat.size == 128

        def refuse(*args, **kwargs):
            raise AssertionError("a frame was built before the model was checked")

        monkeypatch.setattr(link, "make_frame_pair", refuse)
        with pytest.raises(ValueError, match="n = 7 must divide n_c = 128 for a ppt model"):
            next(simulate(LinkConfig(), ("uls",), 1, 0, models=(("ppt", 7),)))

    def test_block_boundaries_match_frame_by_frame_decode(self):
        # Two full blocks would hide a lost or reordered final partial block.
        cfg = LinkConfig(snr_db=12.0)
        n_frames = link.DECODE_BLOCK + 3
        expected = []
        for frames, results in simulate(cfg, ("uls",), n_frames, 31):
            for frame, (out, _) in zip(frames, results["uls", DEFAULT_MODEL], strict=True):
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
        model = make_model("ppt", cfg.n_c, DEFAULT_MODEL[1])
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
        f64, _ = make_frame_pair(LinkConfig(n_c=64, taps=1), [18])[0]
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
            (("gls",), "gls requires a geometry-preserving model: nothing runs under t_kind = 'lft'"),
        ],
    )
    def test_rejects_bad_ids_before_building_frames(self, monkeypatch, ids, message):
        # A repeated id would count twice in a reduction keyed by id.  The
        # run takes the lft model, under which gls cannot run, so gls alone
        # runs nothing; the other rules hold under either model.
        def refuse(*args, **kwargs):
            raise AssertionError("a frame was built before the ids were checked")

        monkeypatch.setattr(link, "make_frame_pair", refuse)
        with pytest.raises(ValueError, match=re.escape(message)):
            next(simulate(LinkConfig(), ids, 40, 0, models=(("lft", 8),)))
        with pytest.raises(ValueError, match=re.escape(message)):
            ber_records(LinkConfig(), ids, 40, 0, models=(("lft", 8),))

    def test_models_share_each_block_of_frames(self, monkeypatch):
        # The model enters only the estimate: one pass under both models
        # builds each block once, leaves gls out under lft, and gives every
        # run the outputs of a pass under its model alone, across a block
        # boundary (blocks of two trials keep the test short).
        built, real = [], link.make_frame_pair
        monkeypatch.setattr(link, "make_frame_pair", lambda *a, **k: built.append(1) or real(*a, **k))
        monkeypatch.setattr(link, "DECODE_BLOCK", 2)
        cfg, names, n_trials = LinkConfig(snr_db=20.0), ("uls", "nls", "gls"), 3
        ppt, lft = ("ppt", 8), ("lft", 8)
        blocks = list(simulate(cfg, names, n_trials, 4, models=(ppt, lft)))
        assert len(built) == len(blocks) == 2
        assert list(blocks[0][1]) == [(name, ppt) for name in names] + [("uls", lft), ("nls", lft)]
        for model in (ppt, lft):
            alone = list(simulate(cfg, names if model == ppt else names[:2], n_trials, 4, models=(model,)))
            for (_, results), (_, own) in zip(blocks, alone, strict=True):
                for (name, model), outputs in own.items():
                    got = results[name, model]
                    assert [flagged for _, flagged in got] == [flagged for _, flagged in outputs]
                    assert all(np.array_equal(a.delta_hat, b.delta_hat) for (a, _), (b, _) in zip(got, outputs))

    @pytest.mark.parametrize(
        "ids, t_kinds, message",
        [
            (("uls",), ("ppt", "ppt"), "models must be at least one distinct value, got [('ppt', 8), ('ppt', 8)]"),
            (("uls",), (), "models must be at least one distinct value, got []"),
            (("uls",), ("ppt", "bogus"), "t_kind must be 'ppt' or 'lft', got 'bogus'"),
            (("gls",), ("ppt", "lft"), "gls requires a geometry-preserving model: nothing runs under t_kind = 'lft'"),
        ],
    )
    def test_rejects_bad_models_before_building_frames(self, monkeypatch, ids, t_kinds, message):
        # Each model here has 8 coefficients; the size rules are tested below.
        def refuse(*args, **kwargs):
            raise AssertionError("a frame was built before the models were checked")

        monkeypatch.setattr(link, "make_frame_pair", refuse)
        with pytest.raises(ValueError, match=re.escape(message)):
            next(simulate(LinkConfig(), ids, 1, 0, models=[(t_kind, 8) for t_kind in t_kinds]))

    @pytest.mark.parametrize(
        "model, message",
        [
            (("ppt", 0), "n must be >= 1, got 0"),
            (("lft", 100), "pilot count 10 is below the model size n = 100"),
        ],
    )
    def test_rejects_bad_sizes_before_building_frames(self, monkeypatch, model, message):
        # The model size is the receiver's: the link's 10 pilots bound it, and
        # a run under a model the pilots cannot determine builds no frame.
        def refuse(*args, **kwargs):
            raise AssertionError("a frame was built before the model size was checked")

        monkeypatch.setattr(link, "make_frame_pair", refuse)
        with pytest.raises(ValueError, match=re.escape(message)):
            next(simulate(LinkConfig(), ("uls", "cpe"), 1, 0, models=(model,)))

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
        # Every estimator reads pilots, the cpe fallback too, so a link needs one.
        cfg = LinkConfig(n_c=8, pilot_fraction=0.05)
        assert cfg.violations() == ["pilot_fraction = 0.05 leaves no pilot on n_c = 8 subcarriers"]
        with pytest.raises(ValueError, match="leaves no pilot"):
            run_link(cfg, "cpe", 2, 0)

    @pytest.mark.parametrize("key, value", [("snr_db", 4000.0), ("snr_db", -4000.0), ("rho", 1e308)])
    def test_non_finite_frames_rejected_before_building(self, monkeypatch, key, value):
        # Each of these would build frames with inf or nan entries.
        built, real = [], link.make_frame_pair
        monkeypatch.setattr(link, "make_frame_pair", lambda *a, **k: built.append(1) or real(*a, **k))
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            ber_records(LinkConfig(**{key: value}), ESTIMATOR_IDS, 2, 0)
        assert built == []

    @pytest.mark.parametrize(
        "snr_db, rho",
        # Both ends of the SNR range, and a rho next to the largest with 4*pi*rho finite.
        [(-SNR_DB_LIMIT, 0.02), (SNR_DB_LIMIT, 0.02), (30.0, np.nextafter(np.finfo(float).max / 4 / np.pi, 0))],
    )
    def test_every_estimator_finite_at_the_config_limits(self, snr_db, rho):
        recs = ber_records(LinkConfig(snr_db=snr_db, rho=rho), ESTIMATOR_IDS, 3, 11)
        assert set(recs) == {(est, None if est in MODEL_FREE_IDS else DEFAULT_MODEL) for est in ESTIMATOR_IDS}
        for rec in recs.values():
            assert np.isfinite([rec.ber, rec.ci95_low, rec.ci95_high]).all()
            assert rec.flagged_frames == 0

    def test_failing_estimator_falls_back_flagged(self, monkeypatch):
        def broken(name, frame, next_frame, model):
            raise EstimationError("intentional")

        monkeypatch.setattr(link, "estimate_frame", broken)
        rec = run_link(LinkConfig(), "uls", 5, 7)
        assert rec.flagged_frames == 5
        assert rec.frames == 5  # frames are decoded with the fallback, not dropped

    def test_ber_monotone_in_snr(self):
        # Statistical monotonicity across the sweep, allowing CI slack.
        for est in ("cpe", "nls"):
            recs = [run_link(LinkConfig(snr_db=s), est, 100, 1234) for s in (15.0, 22.0, 30.0)]
            for lo, hi in zip(recs[:-1], recs[1:]):
                assert hi.ber <= lo.ber + (lo.ci95_high - lo.ber)


COLD_START = """
import sys
from pnofdm.link import LinkConfig, run_link
from pnofdm.sproc import duality_gap, random_gram_instance
run_link(LinkConfig(snr_db=10.0), "gls", 1, 0)
duality_gap(*random_gram_instance(3, 6, 0))
print("numpy.ma" in sys.modules)
"""


def test_cold_start_does_not_import_numpy_ma():
    # A fresh interpreter that runs one link frame and one duality check
    # never pays for importing numpy.ma.
    src = str(Path(link.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
