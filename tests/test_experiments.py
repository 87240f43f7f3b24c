"""Tests for config parsing, scenarios, the verify suite, and the CLI."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pnofdm.cli as cli
import pnofdm.estimators as estimators
import pnofdm.experiments as experiments
import pnofdm.link as link
from pnofdm.estimators import EstimationError, cpe_only
from pnofdm.experiments import (
    ConfigError,
    ExperimentConfig,
    SCENARIOS,
    VerifyReport,
    parse_config,
    run_scenario,
    verify,
)
from pnofdm.link import make_frame_pair
from pnofdm.spectral import phase_trajectory


TINY = "scenario = trajectory-traces\nn_c = 64\nn = 4\nseed = 5\n"


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("scenario = ber-vs-snr\n")
        assert cfg.scenario == "ber-vs-snr"
        assert cfg.snr_db == (10.0, 15.0, 20.0, 25.0, 30.0)  # scenario defaults apply

    def test_overrides_and_comments(self):
        cfg = parse_config("# comment\nscenario = ber-vs-snr\ntrials = 7\nsnr_db = 10,30\n")
        assert cfg.trials == 7
        assert cfg.snr_db == (10.0, 30.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("scenario = ber-vs-snr\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("scenario = ber-vs-snr\ntrials = 1\ntrials = 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("scenario = ber-vs-snr\ntrials 7\n", "line 2: expected 'key = value', got 'trials 7'"),
            ("trials = 7\n", "missing required key 'scenario'"),
        ],
    )
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config("scenario = ber-vs-snr\ntrials = 0\n")

    def test_all_violations_listed(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = ber-vs-snr\ntrials = 0\nn = 100\n")
        assert "trials" in str(err.value)
        assert "pilot count" in str(err.value)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config("scenario = nope\n")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_config_echo_replays(self, name):
        # The ``cfg.*`` lines of the CSV metadata parse back to the config that
        # wrote them, including the list keys ``snr_db``, ``rho`` and
        # ``t_kind`` and the keys a scenario does not read, echoed at their
        # defaults.
        cfg = SCENARIOS[name].defaults
        meta = experiments._meta(cfg)
        lines = [f"{key[4:]} = {value}" for key, value in meta.items() if key.startswith("cfg.")]
        assert parse_config("\n".join(lines)) == cfg

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("ber-vs-snr", "77e1d0c65a67f612"),
            ("mse-vs-bandwidth", "ff5633c4eb8d0847"),
            ("phase-error-pdf", "f551e44c891d3d92"),
            ("estimate-error-pdf", "eeb110ed21d002b3"),
            ("trajectory-traces", "193f81e6d7def460"),
        ],
    )
    def test_default_config_hash_pinned(self, name, digest):
        # The hash every CSV of a scenario's minimal config records: a
        # reordered, renamed or reformatted key moves it.
        assert SCENARIOS[name].defaults.config_hash() == digest

    @pytest.mark.parametrize(
        "scenario, overrides",
        [
            ("phase-error-pdf", {"estimators": ("cpe", "nls")}),
            ("trajectory-traces", {"trials": 7}),
            ("estimate-error-pdf", {"taps": 1, "coherence_bw": 400e3}),
        ],
    )
    def test_run_scenario_refuses_what_parse_config_refuses(self, tmp_path, scenario, overrides):
        # One check binds both entry points: a config built in code from the
        # scenario's defaults sets a key the runner would not read, and
        # run_scenario refuses it with parse_config's message for the same
        # config, before it writes anything.
        cfg = dataclasses.replace(SCENARIOS[scenario].defaults, **overrides)
        with pytest.raises(ConfigError) as parsed:
            parse_config("\n".join(f"{key} = {value}" for key, value in cfg.echo().items()))
        with pytest.raises(ConfigError) as ran:
            run_scenario(cfg, tmp_path / "out")
        assert str(ran.value) == str(parsed.value)
        assert str(ran.value) == f"scenario {scenario!r} does not read key {list(overrides)[-1]!r}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario, line",
        [
            ("phase-error-pdf", "estimators = uls,nls"),
        ],
    )
    def test_unread_key_rejected(self, tmp_path, capsys, scenario, line):
        # The runner ignores the key, so any value but the echoed default is an error.
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(f"scenario = {scenario}\ntrials = 2\n{line}\n")
        assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        key = line.split(" = ")[0]
        assert f"does not read key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario, lines, message",
        [
            ("trajectory-traces", "trials = 9", "does not read key 'trials'"),
            ("mse-vs-bandwidth", "t_kind = ppt,lft", "takes one value of key 't_kind'"),
            ("estimate-error-pdf", "t_kind = ppt,lft", "takes one value of key 't_kind'"),
            ("estimate-error-pdf", "rho = 0.1,0.2", "takes one value of key 'rho'"),
            ("phase-error-pdf", "snr_db = 10,30", "takes one value of key 'snr_db'"),
            ("estimate-error-pdf", "taps = 1\ncoherence_bw = 400000",
             "does not read key 'coherence_bw'"),
            ("estimate-error-pdf", "f_sub = 15000", "unknown key 'f_sub'"),
            ("mse-vs-bandwidth", "rho = 0.02,-0.1", "rho must be finite and nonnegative"),
            ("ber-vs-snr", "estimators =", "cannot parse value for 'estimators'"),
            ("ber-vs-snr", "estimators = uls, uls", "estimators must be at least one distinct value"),
            ("ber-vs-snr", "estimators = gls\nt_kind = lft", "nothing runs under t_kind = 'lft'"),
            ("ber-vs-snr", "t_kind = ppt,lft\nestimators = gls", "nothing runs under t_kind = 'lft'"),
            ("ber-vs-snr", "t_kind = ppt,ppt", "t_kind must be at least one distinct value"),
            ("ber-vs-snr", "snr_db = 10,10", "snr_db must be at least one distinct value, got [10.0, 10.0]"),
            ("mse-vs-bandwidth", "rho = 0.02,0.02", "rho must be at least one distinct value, got [0.02, 0.02]"),
            ("ber-vs-snr", "t_kind = ppt,bogus", "t_kind must be 'ppt' or 'lft', got 'bogus'"),
        ],
    )
    def test_no_key_silently_ignored(self, tmp_path, capsys, scenario, lines, message):
        # Each config sets a key the runner would not read, a list value the
        # link would not accept, or an estimator list that would write no row
        # or a repeated one; all are config errors (exit 1), not a run.
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(f"scenario = {scenario}\nn_c = 64\nn = 4\n{lines}\n")
        assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("snr_db = nan", "snr_db must be finite"),
            # Past about 3000 dB the noise scale overflows; the range stops at 1000 dB.
            ("snr_db = 4000", "snr_db must be finite"),
            ("snr_db = -4000", "snr_db must be finite"),
            ("rho = nan", "rho must be finite and nonnegative"),
            # 4*pi*rho overflows, so every phase step would be inf or nan.
            ("rho = 1e308", "rho must be finite and nonnegative"),
            ("rho = -0.1", "rho must be finite and nonnegative"),
            ("pilot_fraction = nan", "pilot_fraction must lie in (0, 0.5]"),
            ("pilot_fraction = inf", "pilot_fraction must lie in (0, 0.5]"),
            ("coherence_bw = -1", "coherence_bw must be positive"),
            ("coherence_bw = inf", "coherence_bw must be positive and finite"),
            ("coherence_bw = 1000", "coherence target unreachable"),
            ("n_c = 512", "increase taps"),
            # A 128-point DFT of 400 taps would drop those beyond it, 0.8% of this profile's power.
            ("taps = 400\ncoherence_bw = 20e3", "taps = 400 must not exceed n_c = 128"),
            ("seed = -1", "seed must be non-negative"),
            ("taps = 0", "taps must be >= 1"),
        ],
    )
    def test_bad_link_value_rejected(self, tmp_path, capsys, monkeypatch, line, message):
        built, real = [], link.make_frame_pair
        monkeypatch.setattr(link, "make_frame_pair", lambda *a, **k: built.append(1) or real(*a, **k))
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(f"scenario = estimate-error-pdf\ntrials = 2\n{line}\n")
        assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert built == []  # rejected before any frame is built

    def test_ppt_divisibility_binds_ppt_runs_only(self):
        # The frames do not depend on the model, so n = 7 on 128 subcarriers
        # is a link that only the ppt model cannot reduce.
        with pytest.raises(ConfigError, match="n = 7 must divide n_c = 128 for a ppt model"):
            parse_config("scenario = ber-vs-snr\nn = 7\nt_kind = lft,ppt\n")
        assert parse_config("scenario = ber-vs-snr\nn = 7\nt_kind = lft\n").t_kind == ("lft",)

    @pytest.mark.parametrize(
        "scenario, value, message",
        [
            ("ber-vs-snr", "0", "n must be >= 1, got 0"),
            ("ber-vs-snr", "4,4", "n must be at least one distinct value, got [4, 4]"),
            ("ber-vs-snr", "2,100", "pilot count 10 is below the model size n = 100"),
            # Its reduced-spectrum error T^H delta is one model's.
            ("mse-vs-bandwidth", "2,4", "takes one value of key 'n'"),
        ],
    )
    def test_model_size_rules_name_n(self, scenario, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(f"scenario = {scenario}\nn = {value}\n")

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse value for 'snr_db'"):
            parse_config("scenario = ber-vs-snr\nsnr_db =\n")

    @pytest.mark.parametrize(
        "key, value",
        [("estimators", "cpe,,gls"), ("t_kind", "ppt,"), ("snr_db", "10,,20"), ("n", "8,"), ("rho", ", 1e-4")],
    )
    def test_empty_list_item_rejected(self, key, value):
        # Every list key reads its items one way: an empty item is a parse
        # error, never dropped.
        with pytest.raises(ConfigError) as err:
            parse_config(f"scenario = ber-vs-snr\n{key} = {value}\n")
        assert str(err.value) == f"line 2: cannot parse value for {key!r}: {value!r}"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("t_kind = ppt,ppt", "t_kind must be at least one distinct value, got ['ppt', 'ppt']"),
            ("n = 4,4", "n must be at least one distinct value, got [4, 4]"),
            ("t_kind =", "line 2: cannot parse value for 't_kind': ''"),
        ],
    )
    def test_model_list_error_named_once_under_its_key(self, line, message):
        # The models are every (t_kind, n) pair: a repeated or empty value of
        # either key is reported once, under that key, never as 'models'.
        with pytest.raises(ConfigError) as err:
            parse_config(f"scenario = ber-vs-snr\n{line}\n")
        assert str(err.value) == message

    def test_readme_config_blocks_parse(self):
        # Every fenced block of the README that names a scenario is a config
        # a reader may copy; it must parse against the current key set.
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M)
        configs = [b for b in blocks if re.search(r"^scenario\s*=", b, re.M)]
        assert configs
        for block in configs:
            parse_config(block)


class TestScenarios:
    def test_realization_writes_metadata_and_columns(self, tmp_path):
        cfg = parse_config(TINY)
        (path,) = run_scenario(cfg, tmp_path)
        text = path.read_text()
        assert f"# config_hash = {cfg.config_hash()}" in text
        assert "# seed = 5" in text
        assert f"# seed_rule = {experiments.SEED_RULE}" in text
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header.startswith("index,theta,theta_hat_")

    def test_seed_rule_names_the_engine_rule(self):
        # The seed_rule metadata, evaluated, seeds each trial's frame pair as
        # simulate does, on both sides of a block boundary.
        cfg, master, trials = link.LinkConfig(snr_db=20.0), 8, link.DECODE_BLOCK + 8
        frames = [frame for block, _ in link.simulate(cfg, ("cpe",), trials, master) for frame in block]
        rule = experiments.SEED_RULE.removeprefix("numpy ")
        for i in (0, 1, link.DECODE_BLOCK - 1, link.DECODE_BLOCK, trials - 1):
            seed = eval(rule, {"SeedSequence": np.random.SeedSequence, "master_seed": master, "trial_index": i})
            expected, _ = make_frame_pair(cfg, [seed])[0]
            for name in ("info_bits", "theta", "H", "r"):
                assert np.array_equal(getattr(frames[i], name), getattr(expected, name)), (i, name)

    def test_realization_falls_back_to_cpe_on_a_failing_estimator(self, tmp_path, monkeypatch):
        # trajectory-traces runs through simulate like every other scenario:
        # an estimator that fails on the frame gets the common-phase-only fit.
        def fail(sys, model):
            raise EstimationError("injected failure")

        monkeypatch.setattr(estimators, "uls", fail)
        cfg = parse_config(TINY)
        (path,) = run_scenario(cfg, tmp_path)
        header, *rows = [l.split(",") for l in path.read_text().splitlines() if not l.startswith("#")]
        f0, _ = make_frame_pair(cfg.link_config(), np.random.SeedSequence(cfg.seed).spawn(1))[0]
        cpe = phase_trajectory(cpe_only(f0).delta_hat)
        for t_kind in ("lft", "ppt"):
            column = header.index(f"theta_hat_uls_{t_kind}")
            assert np.array_equal([float(row[column]) for row in rows], cpe)

    def test_ber_scenario_columns(self, tmp_path):
        cfg = parse_config(
            "scenario = ber-vs-snr\ntrials = 4\nsnr_db = 30\nestimators = cpe,nls\nn_c = 64\nn = 4\n"
        )
        (path,) = run_scenario(cfg, tmp_path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "snr_db,t_kind,n,estimator,frames,bit_errors,ber,ci95_low,ci95_high,flagged_frames"
        assert len(lines) == 1 + 2  # one row per estimator

    def test_ber_sweeps_every_snr(self, tmp_path):
        cfg = parse_config(
            "scenario = ber-vs-snr\ntrials = 2\nsnr_db = 10,30\nestimators = cpe\nn_c = 64\nn = 4\n"
        )
        (path,) = run_scenario(cfg, tmp_path)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        # cpe reads no model, so its rows name none.
        assert [row.split(",")[:4] for row in rows] == [["10.0", "", "", "cpe"], ["30.0", "", "", "cpe"]]

    def test_ber_builds_each_snr_frames_once(self, tmp_path, monkeypatch):
        # Every estimator at one SNR reads the same frames: one block of
        # three trials is built once per SNR, not once per estimator.
        built = []

        def counting(cfg, seeds, **kwargs):
            built.append(cfg.snr_db)
            return make_frame_pair(cfg, seeds, **kwargs)

        monkeypatch.setattr(link, "make_frame_pair", counting)
        cfg = parse_config(
            "scenario = ber-vs-snr\ntrials = 3\nsnr_db = 10,30\nestimators = cpe,uls,nls\nn_c = 64\nn = 4\n"
        )
        (path,) = run_scenario(cfg, tmp_path)
        assert built == [10.0, 30.0]
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + 6  # one row per (SNR, estimator)

    def test_two_model_runs_build_each_block_once(self, tmp_path, monkeypatch):
        # The model enters only the estimate: a run under every (t_kind, n)
        # model builds each block of frames once per operating point, not
        # once per model, and writes one file whose t_kind and n columns tell
        # the models apart; cpe reads no model and writes one row, with none.
        built = []

        def counting(cfg, seeds, **kwargs):
            built.append(cfg.snr_db)
            return make_frame_pair(cfg, seeds, **kwargs)

        monkeypatch.setattr(link, "make_frame_pair", counting)
        cfg = parse_config(
            "scenario = ber-vs-snr\ntrials = 3\nsnr_db = 10,30\nt_kind = ppt,lft\n"
            "estimators = cpe,nls,gls\nn_c = 64\nn = 2,4\n"
        )
        (path,) = run_scenario(cfg, tmp_path / "ber")
        assert built == [10.0, 30.0] and path.name == "ber_vs_snr.csv"
        rows = [l.split(",")[:4] for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        runs = [["", "", "cpe"], *([t_kind, n, est] for t_kind, ests in (("ppt", ("nls", "gls")), ("lft", ("nls",)))
                                   for n in ("2", "4") for est in ests)]
        assert rows == [[snr, *run] for snr in ("10.0", "30.0") for run in runs]
        built.clear()
        cfg = parse_config("scenario = phase-error-pdf\ntrials = 3\nn_c = 64\nn = 4\n")
        assert cfg.t_kind == ("ppt", "lft")
        (path,) = run_scenario(cfg, tmp_path / "omega")
        assert built == [30.0]
        labels = [l.split(",")[0] for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        assert set(labels) == {"ppt", "lft"}

    def test_ber_csv_counts_flagged_frames(self, tmp_path, monkeypatch):
        # A frame on which an estimator fails is decoded with the cpe fallback
        # and counted in its row's flagged_frames.  One model and one id that
        # reads it make nls call k estimate trial k - 1 of the first SNR, then
        # trial k - 5 of the second.
        calls = []

        def fail_on_chosen(name, frame, next_frame, model):
            calls.append(name)
            if name == "nls" and calls.count("nls") in (2, 5, 6, 8):
                raise EstimationError("injected failure")
            return estimators.estimate_frame(name, frame, next_frame, model)

        monkeypatch.setattr(link, "estimate_frame", fail_on_chosen)
        cfg = parse_config("scenario = ber-vs-snr\ntrials = 4\nsnr_db = 10,30\nestimators = cpe,nls\n")
        (path,) = run_scenario(cfg, tmp_path)
        header, *rows = [l.split(",") for l in path.read_text().splitlines() if not l.startswith("#")]
        flagged = header.index("flagged_frames")
        assert [(row[0], row[3], row[flagged]) for row in rows] == [
            ("10.0", "cpe", "0"), ("10.0", "nls", "1"), ("30.0", "cpe", "0"), ("30.0", "nls", "3")]

    def test_mse_scenario(self, tmp_path):
        cfg = parse_config(
            "scenario = mse-vs-bandwidth\ntrials = 3\nrho = 0.02,0.1\nestimators = cpe,nls\nn_c = 64\nn = 4\n"
        )
        (path,) = run_scenario(cfg, tmp_path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("rho,estimator,trials,mse")
        assert len(lines) == 1 + 4

    def test_mse_interval_clipped_at_zero(self, tmp_path):
        # A mean of squares is nonnegative, and so is its interval: with no
        # phase noise and two trials, the normal interval of uls, nls and
        # cis would reach below zero.
        cfg = parse_config("scenario = mse-vs-bandwidth\nrho = 0\ntrials = 2\n")
        (path,) = run_scenario(cfg, tmp_path)
        rows = [l.split(",") for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        lows = {est: float(low) for _, est, _, _, low, _ in rows}
        assert lows["uls"] == lows["nls"] == lows["cis"] == 0.0
        assert lows["gls"] > 0.0

    def test_error_pdf_scenario(self, tmp_path):
        cfg = parse_config(
            "scenario = estimate-error-pdf\ntrials = 20\nn_c = 64\nn = 4\nestimators = cpe,nls\n"
        )
        (path,) = run_scenario(cfg, tmp_path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "snr_db,estimator,bin_left,bin_right,count,density"
        counts = {}
        for line in lines[1:]:
            snr, est, _, _, count, _ = line.split(",")
            counts[snr, est] = counts.get((snr, est), 0) + int(count)
        # The default sweeps 10 and 30 dB; every trial lands in a bin.
        assert counts == {(snr, est): 20 for snr in ("10.0", "30.0") for est in ("cpe", "nls")}

    def test_reproducible_byte_identical(self, tmp_path):
        cfg = parse_config(
            "scenario = phase-error-pdf\ntrials = 5\nn_c = 64\nn = 4\nseed = 77\n"
        )
        (a,) = run_scenario(cfg, tmp_path / "a")
        (b,) = run_scenario(cfg, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "scenario", ["ber-vs-snr", "mse-vs-bandwidth", "estimate-error-pdf", "trajectory-traces"]
    )
    def test_gls_left_out_under_lft(self, tmp_path, capsys, scenario):
        # gls needs the geometry-preserving model: under lft every runner
        # skips it instead of failing the whole run.  trajectory-traces runs
        # one frame under both models by default.
        if scenario == "trajectory-traces":
            extra = "estimators = uls,gls,cis\n"
        else:
            extra = "t_kind = lft\ntrials = 2\n"
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(f"scenario = {scenario}\n{extra}")
        assert "gls" in parse_config(cfg_file.read_text()).estimators
        assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        (path,) = (tmp_path / "out").iterdir()
        assert capsys.readouterr().out == f"{path}\n"
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        fields = [set(line.split(",")) for line in lines]
        assert not any("gls" in f or "theta_hat_gls_lft" in f for f in fields)
        assert len(lines) > 1
        if scenario == "trajectory-traces":
            assert "theta_hat_gls_ppt" in fields[0]  # the ppt model still runs it

    def test_all_scenarios_registered(self):
        # The model comparison and the 10 dB error density are configs of
        # ber-vs-snr and estimate-error-pdf (README), not scenarios.
        assert {name: sc.sweep for name, sc in SCENARIOS.items()} == {
            "ber-vs-snr": ("snr_db", "t_kind", "n"),
            "mse-vs-bandwidth": ("rho",),
            "phase-error-pdf": ("t_kind",),
            "estimate-error-pdf": ("snr_db",),
            "trajectory-traces": ("t_kind",),
        }


def unnormalized_spectral_vector(real):
    """``spectral_vector`` without its ``1/n``."""
    return lambda theta: real(theta) * np.size(theta)


class TestVerify:
    @pytest.fixture(autouse=True, scope="class")
    def memoised_duality_gap(self):
        # Every verify run solves the same 30 duality instances: solve each
        # once for the class.  The duality-fault tests wrap this function.
        real, solved = experiments.duality_gap, {}

        def memoised(M, b):
            key = (M.tobytes(), b.tobytes())
            if key not in solved:
                solved[key] = real(M, b)
            return solved[key]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "duality_gap", memoised)
            yield

    def test_passes(self):
        report = verify()
        assert report.passed
        assert all(ok for _, ok, _ in report.rows)

    # The check behind each row.  A fault test replaces every other check
    # with a pass, so ``verify`` runs only the check the fault breaks;
    # ``test_each_fault_reaches_only_its_row`` shows no other row reads it.
    CHECKS = {
        "geometry-construction": "_check_geometry",
        "ppt-validation": "_check_ppt",
        "regularity": "_check_regularity",
        "duality-gap": "_check_duality",
        "error-identity": "_check_error_identity",
    }

    def verify_only(self, monkeypatch, suite):
        for row, name in self.CHECKS.items():
            if row != suite:
                stub = (True, "not run", 0.0) if row == "duality-gap" else (True, "not run")
                monkeypatch.setattr(experiments, name, lambda *args, _stub=stub: _stub)
        report = verify()
        assert not report.passed
        assert [s for s, ok, _ in report.rows if not ok] == [suite]

    def test_fault_injection_fails(self, monkeypatch):
        real = experiments.validate_ppt

        def corrupted(Ttilde):
            return dataclasses.replace(real(Ttilde), unitarity=0.05, passed=False)

        monkeypatch.setattr(experiments, "validate_ppt", corrupted)
        self.verify_only(monkeypatch, "ppt-validation")

    # One fault per row: the module, the attribute to replace and a wrapper
    # of the real function.
    FAULTS = {
        "geometry-construction": (estimators, "spectral_vector", unnormalized_spectral_vector),
        # The row validates the lift matrices the link uses: 1e-11 on every
        # T breaks unitarity past PPT_TOL while each lifted residual stays
        # below GEOMETRY_TOL.
        "ppt-validation": (
            experiments,
            "make_model",
            lambda real: lambda *args: real(*args) * (1 + 1e-11),
        ),
        "regularity": (experiments, "regularity_matrix", lambda real: lambda n: real(n) + 1e-3 * np.eye(n, n + 1)),
        "error-identity": (
            experiments,
            "error_decomposition",
            lambda real: lambda d, t: dataclasses.replace(real(d, t), total=real(d, t).total + 1e-9),
        ),
    }

    @pytest.mark.parametrize("suite", list(FAULTS))
    def test_injected_fault_fails_only_its_row(self, monkeypatch, suite):
        module, name, wrap = self.FAULTS[suite]
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
        self.verify_only(monkeypatch, suite)

    @pytest.mark.parametrize("fault", ["unresolved", "negative_gap", "not_optimal"])
    def test_unsound_duality_instance_fails_only_its_row(self, monkeypatch, fault):
        real = experiments.duality_gap

        def faulty(M, b):
            g = real(M, b)
            if fault == "unresolved":
                return dataclasses.replace(g, kind="unresolved")
            if fault == "negative_gap":
                return dataclasses.replace(g, gap=-1e-3, relative=-1e-3)
            return dataclasses.replace(g, solution=dataclasses.replace(g.solution, status="max_iter"))

        monkeypatch.setattr(experiments, "duality_gap", faulty)
        self.verify_only(monkeypatch, "duality-gap")

    def test_each_fault_reaches_only_its_row(self, monkeypatch):
        # A fault moves a row only through the function it replaces.  One
        # verify run records which rows call each of the faulted functions.
        row, readers = [None], {}

        def enter(suite, check):
            def run(*args):
                row[0] = suite
                return check(*args)

            return run

        def spy(name, real):
            def call(*args, **kwargs):
                readers.setdefault(name, set()).add(row[0])
                return real(*args, **kwargs)

            return call

        for suite, name in self.CHECKS.items():
            monkeypatch.setattr(experiments, name, enter(suite, getattr(experiments, name)))
        faulted = [(experiments, "validate_ppt"), (experiments, "duality_gap")]
        for module, name in faulted + [(module, name) for module, name, _ in self.FAULTS.values()]:
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        assert verify().passed
        assert readers == {
            "spectral_vector": {"geometry-construction"},
            "validate_ppt": {"ppt-validation"},
            "make_model": {"ppt-validation"},
            "regularity_matrix": {"regularity"},
            "duality_gap": {"duality-gap"},
            "error_decomposition": {"error-identity"},
        }


def run_cli(*args):
    # The child imports the package these tests import, with or without PYTHONPATH.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "pnofdm.cli", *args], capture_output=True, text=True, env=env
    )


class TestCli:
    def test_list_scenarios(self):
        proc = run_cli("list-scenarios")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()[: len(SCENARIOS)]
        assert [line.split()[0] for line in lines] == list(SCENARIOS)
        # Every description starts in one column, after the longest id and a
        # space, and is followed by the list keys the scenario sweeps.
        column = max(map(len, SCENARIOS)) + 1
        for line, sc in zip(lines, SCENARIOS.values()):
            assert line.index(sc.description) == column
            assert line.endswith(f"{sc.description} (sweeps {', '.join(sc.sweep)})")
        assert lines[0].endswith("(sweeps snr_db, t_kind, n)")

    def test_run_tiny_scenario(self, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(TINY)
        proc = run_cli("run", "--config", str(cfg_file), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0
        assert (tmp_path / "out" / "realization.csv").exists()

    def test_invalid_config_exit_1(self, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("scenario = ber-vs-snr\nbogus = 1\n")
        proc = run_cli("run", "--config", str(cfg_file), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "unknown key" in proc.stderr

    def test_missing_config_exit_1(self, tmp_path):
        proc = run_cli("run", "--config", str(tmp_path / "nope.txt"), "--out", str(tmp_path))
        assert proc.returncode == 1

    def test_config_not_utf8_exit_1(self, tmp_path, capsys):
        # A file that is not UTF-8 text is a config the run cannot read, like a missing one.
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_bytes(b"\xff\xfescenario = ber-vs-snr\n")
        assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("cannot read config: 'utf-8' codec can't decode byte 0xff")
        assert not (tmp_path / "out").exists()

    def test_verify_full_exit_0(self, tmp_path):
        # The full run draws a proven-gap instance; that is reported, not failed.
        proc = run_cli("verify", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "verification passed" in proc.stdout
        lines = (tmp_path / "verify_summary.csv").read_text().splitlines()
        assert "# passed = True" in lines
        rows = [line.split(",", 2) for line in lines[lines.index("suite,result,detail") + 1 :]]
        suites = ("geometry-construction", "ppt-validation", "regularity", "duality-gap", "error-identity")
        assert [row[:2] for row in rows] == [[suite, "pass"] for suite in suites]

    def test_verify_fault_injection_exit_3(self, monkeypatch, capsys):
        failing = VerifyReport((("ppt-validation", False, "injected fault"),), False)
        monkeypatch.setattr(cli, "verify", lambda: failing)
        assert cli.main(["verify"]) == 3
        assert "FAIL" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--quick"])
        assert exc.value.code == 2
