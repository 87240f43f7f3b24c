"""The paired-benchmark tool ``tools/bench.py``: what it reads from a run's
output, the order of each pair, the paired statistics on given numbers and
the seeds it reports as mismatched.  The tool is loaded by path, and nothing
here starts a process."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("bench", Path(__file__).resolve().parents[1] / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def stdout(digest="3f2a", rate=548.1, raw=601.2, calls=11, setup=0.16, failed=1, rss=59.8):
    """A ``perfbench/run.py --trace 0`` stdout with the given figures."""
    record = {"correct": True, "attempted": 472, "failed": failed,
              "metrics": {"ops_per_s": {"value": rate, "unit": "1/s"}, "setup_s": {"value": setup, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return (
        'machine {"nproc": 2}\n'
        "cell gls@10dB       ops=   236 failed=   0 bit_errors=    1803 rel_gap_max=0.000e+00\n"
        f"digest {digest}\n"
        f"frames_per_s {rate:.4f} at reference speed, {raw:.4f} raw: 472 ops in 59 rounds, 0.80 s "
        f"at machine speed 1.090 ({calls} calibration calls)\n"
        f"setup_s {setup:.4f} at reference speed, 0.1400 raw\n"
        + json.dumps(record) + "\n"
    )


def test_parse_run_reads_every_figure():
    run = bench.parse_run(stdout(), 0)
    assert run == {"exit": 0, "digest": "3f2a", "raw_ops_per_s": 601.2, "calibration_calls": 11,
                   "raw_setup_s": 0.14, "machine": {"nproc": 2}, "correct": True, "attempted": 472,
                   "failed": 1, "ops_per_s": 548.1, "setup_s": 0.16, "peak_rss_mb": 59.8}


def test_parse_run_keeps_the_error_of_a_run_that_stopped():
    # The calibration floor raises before the run prints its figures.
    stderr = "Traceback (most recent call last):\n  ...\nRuntimeError: too few calibration samples\n"
    run = bench.parse_run('machine {"nproc": 2}\n', 1, stderr)
    assert run == {"exit": 1, "error": "RuntimeError: too few calibration samples", "machine": {"nproc": 2}}
    assert "error" not in bench.parse_run(stdout(), 0, "a warning\n")


def test_pairs_alternate_which_tree_runs_first():
    calls = []

    def runner(tree, workload, seed):
        calls.append((workload, seed, tree))
        return bench.parse_run(stdout(), 0)

    runs, found = bench.run_pairs(["a", "b"], [7, 8, 9], runner)
    assert calls[:6] == [("a", 7, "parent"), ("a", 7, "change"), ("a", 8, "change"), ("a", 8, "parent"),
                         ("a", 9, "parent"), ("a", 9, "change")]
    assert calls[6:] == [("b", s, t) for _, s, t in calls[:6]]
    assert [p["first"] for p in runs["b"]] == ["parent", "change", "parent"] and found == []


def test_paired_statistics_on_given_numbers():
    pairs = [{"parent": {"ops_per_s": a, "setup_s": 0.2}, "change": {"ops_per_s": b, "setup_s": s}}
             for a, b, s in [(100, 120, 0.1), (110, 121, 0.3), (90, 117, 0.1), (105, 100, 0.1), (95, 114, None)]]
    out = bench.summarize(pairs, {"ops_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"})
    ops = out["ops_per_s"]
    assert ops["parent"] == {"median": 100, "q1": 95, "q3": 105}
    assert ops["change"] == {"median": 117, "q1": 114, "q3": 120}
    assert (ops["pairs"], ops["wins"], ops["better"]) == (5, 4, "higher")
    ratios = sorted([1.2, 1.1, 1.3, 100 / 105, 1.2])
    assert ops["ratio"] == pytest.approx({"q1": ratios[1], "median": ratios[2], "q3": ratios[3]}, rel=1e-12)
    assert ops["resolved"]  # 17 apart against a parent spread of 10
    # A pair without the metric is left out of it; lower is better for setup_s.
    setup = out["setup_s"]
    assert (setup["pairs"], setup["wins"], setup["resolved"]) == (4, 3, True)
    assert "peak_rss_mb" not in out


def test_spread_wider_than_the_move_is_not_resolved():
    pairs = [{"parent": {"x": a}, "change": {"x": a + 1.0}} for a in (10.0, 20.0, 30.0)]
    out = bench.summarize(pairs, {"x": "higher"})["x"]
    assert out["wins"] == 3 and not out["resolved"]
    one = bench.summarize(pairs[:1], {"x": "higher"})["x"]  # one pair: each quartile is the value
    assert one["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0} and one["resolved"]


def test_mismatched_seed_is_reported():
    pair = {"parent": bench.parse_run(stdout(), 0),
            "change": bench.parse_run(stdout(digest="9e1c", failed=2), 0)}
    assert bench.mismatches("link-gls", 3, pair) == [
        {"workload": "link-gls", "seed": 3, "field": "digest", "parent": "3f2a", "change": "9e1c"},
        {"workload": "link-gls", "seed": 3, "field": "failed", "parent": 1, "change": 2},
    ]
    stopped = {"parent": bench.parse_run(stdout(), 0), "change": bench.parse_run("", 2, "benchmark error: x")}
    fields = [(m["field"], m.get("change")) for m in bench.mismatches("w", 1, stopped)]
    assert fields == [("digest", None), ("attempted", None), ("failed", None), ("exit", 2)]


def test_main_writes_the_report(monkeypatch, tmp_path):
    # Both trees give the same digests; the change is faster on every seed.
    seen = []

    def fake(tree, args):
        seen.append((Path(tree), args))
        seed = int(args[args.index("--seed") + 1])
        rate = 500.0 + seed + (100.0 if Path(tree) == bench.HERE else 0.0)
        return subprocess.CompletedProcess(args, 0, stdout=stdout(digest=f"d{seed}", rate=rate), stderr="")

    monkeypatch.setattr(bench, "_proc", fake)
    monkeypatch.chdir(tmp_path)
    code = bench.main([str(tmp_path), "--label", "t", "--pairs", "2", "--first-seed", "5", "--workload", "link-gls"])
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert code == 0 and report["mismatches"] == [] and report["seeds"] == [5, 6]
    assert [args for _, args in seen] == [
        ["perfbench/run.py", "--workload", "link-gls", "--seed", str(s), "--trace", "0"] for s in (5, 5, 6, 6)]
    ops = report["workloads"]["link-gls"]["summary"]["ops_per_s"]
    assert ops["wins"] == 2 and ops["change"]["median"] == 605.5
    assert set(report["workloads"]["link-gls"]["summary"]) == {
        "ops_per_s", "setup_s", "peak_rss_mb", "raw_ops_per_s", "raw_setup_s"}
    with pytest.raises(SystemExit):
        bench.main([str(tmp_path), "--label", "t", "--workload", "no-such-workload"])
