"""Tests for config parsing, scenarios, the verify suite, and the CLI."""

import subprocess
import sys

import pytest

from pnofdm.experiments import (
    ConfigError,
    ExperimentConfig,
    SCENARIOS,
    parse_config,
    run_scenario,
    verify,
)


TINY = "scenario = trajectory-traces\nn_c = 64\nn = 4\nseed = 5\n"


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("scenario = ber-vs-snr\n")
        assert cfg.scenario == "ber-vs-snr"
        assert cfg.snr_list == (10.0, 15.0, 20.0, 25.0, 30.0)  # scenario defaults apply

    def test_overrides_and_comments(self):
        cfg = parse_config("# comment\nscenario = ber-vs-snr\ntrials = 7\nsnr_list = 10,30\n")
        assert cfg.trials == 7
        assert cfg.snr_list == (10.0, 30.0)

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
            "scenario = ber-vs-snr\ntrials = 4\nsnr_list = 30\nestimators = cpe,nls\nn_c = 64\nn = 4\n"
        )
        (path,) = run_scenario(cfg, tmp_path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "snr_db,estimator,frames,bit_errors,ber,ci95_low,ci95_high"
        assert len(lines) == 1 + 2  # one row per estimator

    def test_mse_scenario(self, tmp_path):
        cfg = parse_config(
            "scenario = mse-vs-bandwidth\ntrials = 3\nrho_list = 0.02,0.1\nestimators = cpe,nls\nn_c = 64\nn = 4\n"
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
            "scenario = ber-model-compare\ntrials = 3\nsnr_list = 30\nestimators = nls\nn_c = 64\nn = 4\n"
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

    def test_fault_injection_fails(self):
        report = verify(quick=True, corrupt_ppt=True)
        assert not report.passed
        failed = [suite for suite, ok, _ in report.rows if not ok]
        assert failed == ["ppt-validation"]


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

    def test_verify_fault_injection_exit_3(self):
        proc = run_cli("verify", "--quick", "--inject-fault")
        assert proc.returncode == 3
        assert "FAIL" in proc.stdout
