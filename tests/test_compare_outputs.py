"""The output-comparison tool ``tools/compare_outputs.py``: its report on
given artifact texts, the README blocks it runs, the benchmark lines it keeps
and the error of a failed command.  The tool is loaded by path, and nothing
here starts a process."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CSV = "# a comment line\nsnr_db,estimator,ber\n10,gls,0.5\n20,gls,0.25\n"


def test_identical_texts():
    report = compare_outputs.compare({"verify": "ok\n", "x.csv": CSV}, {"verify": "ok\n", "x.csv": CSV})
    assert report == {"verify": {"status": "identical"}, "x.csv": {"status": "identical"}}


def test_numeric_csv_move_is_each_columns_largest():
    new = CSV.replace("0.5", "0.4").replace("0.25", "0.3").replace("20,", "20.0,")
    entry = compare_outputs.compare({"x.csv": CSV}, {"x.csv": new})["x.csv"]
    assert entry["status"] == "changed" and entry["lines_changed"] == 2 and entry["line"] == 3
    assert (entry["parent"], entry["change"]) == ("10,gls,0.5", "10,gls,0.4")
    # Relative moves 0.2 and 1/6 in ber; "20" -> "20.0" moves nothing; the comment is skipped.
    assert entry["moves"] == {"ber": pytest.approx(0.2, rel=1e-15), "snr_db": 0.0}


def test_signed_zero_moves_nothing():
    assert compare_outputs.csv_moves("g\n0\n", "g\n-0.0\n") == {"g": 0.0}


def test_non_numeric_change():
    new = CSV.replace("20,gls,0.25", "20,nls,0.3")
    moves = compare_outputs.compare({"x.csv": CSV}, {"x.csv": new})["x.csv"]["moves"]
    assert moves == {"estimator": "non-numeric change", "ber": pytest.approx(1 / 6, rel=1e-15)}
    # A text artifact that is not a CSV gets its first differing line and no moves.
    entry = compare_outputs.compare({"demo/a.py": "x\ny\n"}, {"demo/a.py": "x\nz\nw\n"})["demo/a.py"]
    assert entry == {"status": "changed", "lines_changed": 2, "line": 2, "parent": "y", "change": "z"}


@pytest.mark.parametrize(
    "new",
    [
        CSV.replace("ber", "bit_error_rate"),  # header
        CSV + "30,gls,0.1\n",  # one more row
        CSV.replace("10,gls,0.5", "10,gls,0.5,extra"),  # one more field
    ],
    ids=["header", "rows", "fields"],
)
def test_header_or_shape_change_gives_none(new):
    assert compare_outputs.compare({"x.csv": CSV}, {"x.csv": new})["x.csv"]["moves"] is None


def test_artifact_missing_on_one_side():
    report = compare_outputs.compare({"old": "a", "both": "b"}, {"new": "c", "both": "b"})
    assert report == {
        "both": {"status": "identical"},
        "new": {"status": "missing in parent"},
        "old": {"status": "missing in change"},
    }


def test_readme_configs_keeps_only_scenario_blocks(tmp_path):
    (tmp_path / "README.md").write_text(
        "Intro.\n\n"
        "```\nscenario = ber-vs-snr\nframes = 10\n```\n\n"
        "```bash\npnofdm run --config my.cfg\n```\n\n"
        "```\n# not a scenario: scenario = inside a comment\nframes = 3\n```\n\n"
        "```ini\n  scenario = indented\n```\n\n"
        "```\nestimators = gls\nscenario=mse-vs-rho\n```\n",
        encoding="utf-8",
    )
    assert compare_outputs.readme_configs(tmp_path) == [
        "scenario = ber-vs-snr\nframes = 10\n",
        "estimators = gls\nscenario=mse-vs-rho\n",
    ]


def test_failed_command_error_quotes_stdout_tail(monkeypatch, tmp_path):
    # pytest reports a collection error on stdout and leaves stderr empty.
    stdout = "".join(f"line {i}\n" for i in range(100)) + "ERROR collecting tests/test_x.py\n"

    def failed(cmd, **kwargs):
        return compare_outputs.subprocess.CompletedProcess(cmd, 2, stdout=stdout, stderr="")

    monkeypatch.setattr(compare_outputs.subprocess, "run", failed)
    with pytest.raises(RuntimeError) as err:
        compare_outputs._run(tmp_path, ["-m", "pytest"])
    message = str(err.value)
    assert "exited 2" in message and message.endswith("ERROR collecting tests/test_x.py")
    first = 101 - compare_outputs.STDOUT_TAIL  # the first of the last STDOUT_TAIL lines
    assert f"\nline {first}\n" in message and f"\nline {first - 1}\n" not in message


BENCH_STDOUT = (
    'machine {"cpus": 2}\n'
    "cell gls@10dB       ops=   236 failed=   0 bit_errors=    1803 rel_gap_max=0.000e+00\n"
    "cell gls@30dB       ops=   236 failed=   1 bit_errors=       0 rel_gap_max=0.000e+00\n"
    "digest 3f2a\n"
    "frames_per_s 548.1000 at reference speed, 601.2 raw: 472 ops in 59 rounds\n"
    "setup_s 0.1600 at reference speed, 0.1400 raw\n"
    '{"correct": true, "attempted": 472, "failed": 1}\n'
)


def test_bench_lines_keep_cells_and_digest():
    # Timings, machine facts and the JSON line vary from run to run and are dropped.
    assert compare_outputs.bench_lines(BENCH_STDOUT, 0) == "".join(BENCH_STDOUT.splitlines(True)[1:4])


def test_bench_lines_record_a_failed_run():
    stdout = BENCH_STDOUT.replace('"correct": true', '"correct": false') + "CHECK FAILED: gap\n"
    assert compare_outputs.bench_lines(stdout, 1) == compare_outputs.bench_lines(BENCH_STDOUT, 0) + "exit 1\n"
    assert compare_outputs.bench_lines("", 2) == "exit 2\n"  # a benchmark error before any cell


def test_bench_runs_cover_every_workload_without_raising(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text('{"workloads": [{"name": "a"}, {"name": "b"}]}', encoding="utf-8")
    runs = []

    def fake(cmd, **kwargs):
        runs.append(cmd[1:])
        code = 2 if "b" in cmd else 0
        return compare_outputs.subprocess.CompletedProcess(cmd, code, stdout=BENCH_STDOUT, stderr="")

    monkeypatch.setattr(compare_outputs.subprocess, "run", fake)
    lines = compare_outputs.bench_lines(BENCH_STDOUT, 0)
    assert compare_outputs.bench_runs(tmp_path) == {"bench/a": lines, "bench/b": lines + "exit 2\n"}
    assert runs == [["perfbench/run.py", "--workload", w, *compare_outputs.BENCH_ARGS] for w in "ab"]
    assert compare_outputs.bench_runs(tmp_path / "missing") == {}
