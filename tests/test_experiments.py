"""Tests for config parsing, scenarios, the verify suite, and the CLI."""

import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pnofdm.cli as cli
import pnofdm.experiments as experiments
import pnofdm.link as link
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
        # wrote them, including the list keys ``snr_db`` and ``rho`` and the
        # keys a scenario does not read, echoed at their defaults.
        cfg = SCENARIOS[name].defaults
        meta = experiments._meta(cfg)
        lines = [f"{key[4:]} = {value}" for key, value in meta.items() if key.startswith("cfg.")]
        assert parse_config("\n".join(lines)) == cfg

    @pytest.mark.parametrize(
        "scenario, line",
        [
            ("phase-error-pdf", "estimators = uls,nls"),
            ("phase-error-pdf", "t_kind = lft"),
            ("ber-model-compare", "t_kind = lft"),
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
            ("trajectory-traces", "t_kind = lft", "does not read key 't_kind'"),
            ("estimate-error-pdf", "snr_db = 10,30", "takes one value of key 'snr_db'"),
            ("estimate-error-pdf", "rho = 0.1,0.2", "takes one value of key 'rho'"),
            ("phase-error-pdf", "snr_db = 10,30", "takes one value of key 'snr_db'"),
            ("estimate-error-pdf", "taps = 1\ncoherence_bw = 400000",
             "does not read key 'coherence_bw'"),
            ("estimate-error-pdf", "taps = 1\nf_sub = 30000", "does not read key 'f_sub'"),
            ("mse-vs-bandwidth", "rho = 0.02,-0.1", "rho must be finite and nonnegative"),
            ("ber-vs-snr", "estimators =", "estimators must be at least one distinct id"),
            ("ber-vs-snr", "estimators = uls, uls", "estimators must be at least one distinct id"),
            ("ber-vs-snr", "estimators = gls\nt_kind = lft", "run nothing under t_kind = 'lft'"),
            ("ber-model-compare", "estimators = gls", "run nothing under t_kind = 'lft'"),
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
            ("rho = nan", "rho must be finite and nonnegative"),
            ("pilot_fraction = nan", "pilot_fraction must lie in (0, 0.5]"),
            ("pilot_fraction = inf", "pilot_fraction must lie in (0, 0.5]"),
            ("f_sub = 0", "f_sub must be positive"),
            ("f_sub = inf", "f_sub must be positive and finite"),
            ("coherence_bw = -1", "coherence_bw must be positive"),
            ("coherence_bw = inf", "coherence_bw must be positive and finite"),
            ("coherence_bw = 1000", "coherence target unreachable"),
            ("n_c = 512", "increase taps"),
            ("seed = -1", "seed must be non-negative"),
        ],
    )
    def test_bad_link_value_rejected(self, tmp_path, capsys, line, message):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(f"scenario = estimate-error-pdf\ntrials = 2\n{line}\n")
        assert cli.main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse value for 'snr_db'"):
            parse_config("scenario = ber-vs-snr\nsnr_db =\n")

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
        assert "# seed_rule" in text
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header.startswith("index,theta,theta_hat_")

    def test_ber_scenario_columns(self, tmp_path):
        cfg = parse_config(
            "scenario = ber-vs-snr\ntrials = 4\nsnr_db = 30\nestimators = cpe,nls\nn_c = 64\nn = 4\n"
        )
        (path,) = run_scenario(cfg, tmp_path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "snr_db,estimator,frames,bit_errors,ber,ci95_low,ci95_high"
        assert len(lines) == 1 + 2  # one row per estimator

    def test_ber_sweeps_every_snr(self, tmp_path):
        cfg = parse_config(
            "scenario = ber-vs-snr\ntrials = 2\nsnr_db = 10,30\nestimators = cpe\nn_c = 64\nn = 4\n"
        )
        (path,) = run_scenario(cfg, tmp_path)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        assert [row.split(",")[:2] for row in rows] == [["10.0", "cpe"], ["30.0", "cpe"]]

    def test_ber_builds_each_snr_frames_once(self, tmp_path, monkeypatch):
        # Every estimator at one SNR reads the same frames: one block of
        # three trials is built once per SNR, not once per estimator.
        built = []

        def counting(cfg, seeds):
            built.append(cfg.snr_db)
            return make_frame_pair(cfg, seeds)

        monkeypatch.setattr(link, "make_frame_pair", counting)
        cfg = parse_config(
            "scenario = ber-vs-snr\ntrials = 3\nsnr_db = 10,30\nestimators = cpe,uls,nls\nn_c = 64\nn = 4\n"
        )
        (path,) = run_scenario(cfg, tmp_path)
        assert built == [10.0, 30.0]
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + 6  # one row per (SNR, estimator)

    def test_mse_scenario(self, tmp_path):
        cfg = parse_config(
            "scenario = mse-vs-bandwidth\ntrials = 3\nrho = 0.02,0.1\nestimators = cpe,nls\nn_c = 64\nn = 4\n"
        )
        (path,) = run_scenario(cfg, tmp_path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("rho,estimator,trials,mse")
        assert len(lines) == 1 + 4

    def test_error_pdf_scenario(self, tmp_path):
        cfg = parse_config(
            "scenario = estimate-error-pdf\ntrials = 20\nn_c = 64\nn = 4\nestimators = cpe,nls\n"
        )
        (path,) = run_scenario(cfg, tmp_path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "estimator,bin_left,bin_right,count,density"
        counts = {}
        for line in lines[1:]:
            est, _, _, count, _ = line.split(",")
            counts[est] = counts.get(est, 0) + int(count)
        assert counts == {"cpe": 20, "nls": 20}  # every trial lands in a bin

    def test_tcompare_writes_two_files(self, tmp_path):
        cfg = parse_config(
            "scenario = ber-model-compare\ntrials = 3\nsnr_db = 30\nestimators = nls\nn_c = 64\nn = 4\n"
        )
        paths = run_scenario(cfg, tmp_path)
        assert sorted(p.name for p in paths) == ["ber_vs_snr_lft.csv", "ber_vs_snr_ppt.csv"]

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
        # one frame under both models whatever the config says.
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
        assert set(SCENARIOS) == {
            "ber-vs-snr",
            "ber-model-compare",
            "mse-vs-bandwidth",
            "phase-error-pdf",
            "estimate-error-pdf",
            "estimate-error-pdf-10db",
            "trajectory-traces",
        }


class TestVerify:
    def test_quick_passes(self):
        report = verify(quick=True)
        assert report.passed
        assert all(ok for _, ok, _ in report.rows)

    def test_fault_injection_fails(self, monkeypatch):
        real = experiments.validate_ppt

        def corrupted(Ttilde):
            return dataclasses.replace(real(Ttilde), unitarity=0.05, passed=False)

        monkeypatch.setattr(experiments, "validate_ppt", corrupted)
        report = verify(quick=True)
        assert not report.passed
        failed = [suite for suite, ok, _ in report.rows if not ok]
        assert failed == ["ppt-validation"]

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
        report = verify(quick=True)
        assert not report.passed
        failed = [suite for suite, ok, _ in report.rows if not ok]
        assert failed == ["duality-gap"]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pnofdm.cli", *args], capture_output=True, text=True
    )


class TestCli:
    def test_list_scenarios(self):
        proc = run_cli("list-scenarios")
        assert proc.returncode == 0
        assert "ber-vs-snr" in proc.stdout

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

    def test_verify_quick_exit_0(self):
        proc = run_cli("verify", "--quick")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "verification passed" in proc.stdout

    def test_verify_full_exit_0(self):
        # The full run draws a proven-gap instance; that is reported, not failed.
        proc = run_cli("verify")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "verification passed" in proc.stdout

    def test_verify_fault_injection_exit_3(self, monkeypatch, capsys):
        failing = VerifyReport((("ppt-validation", False, "injected fault"),), False)
        monkeypatch.setattr(cli, "verify", lambda quick: failing)
        assert cli.main(["verify", "--quick"]) == 3
        assert "FAIL" in capsys.readouterr().out
