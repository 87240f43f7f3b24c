"""Time this tree against another checkout in alternating benchmark pairs.

Usage, from the directory that should receive the report::

    python tools/bench.py PARENT_DIR --label L [--pairs K] [--first-seed S] [--workload W ...]

``PARENT_DIR`` is a checkout of the version to compare against (a ``git
archive`` of the parent commit, say).  For each workload of this tree's
``BENCHMARK.json`` (or each ``--workload``) and each of the ``K`` seeds
``S, S + 1, ...``, the two trees' ``perfbench/run.py --workload W --seed N
--trace 0`` run one after the other in fresh interpreters (each with its own
``src`` first on the path and the tree as working directory), at the
benchmark's own ``run_seconds``.  The order alternates: the parent runs
first at the even pair indices and the change at the odd ones, since the
second run of a pair reads a host that the first has warmed.

Each run's stdout gives its ``digest``, the scaled and raw rates, the
calibration-call count, the scaled and raw ``setup_s`` and the final JSON
record (``correct``, ``attempted``, ``failed``, ``metrics``).  A seed whose
two runs differ in ``digest``, ``attempted`` or ``failed``, or a run that
exits non-zero, is listed under ``mismatches``.  Per workload and metric
(the end-to-end metrics of ``BENCHMARK.json`` plus ``raw_ops_per_s`` and
``raw_setup_s``) the report gives each tree's median and quartiles, the
pairs the change wins, the median and quartiles of the paired ratio
change / parent, and ``resolved``: whether the medians differ by more than
the parent's quartile spread.

The report, with every run, is written to ``BENCH_<label>.json`` in the
working directory; the exit code is 0 when no seed mismatches and 1
otherwise.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import HERE, _proc  # noqa: E402

RATE_LINE = re.compile(r"^(?:frames|instances)_per_s (\S+) at reference speed, (\S+) raw: .*\((\d+) calibration calls\)$",
                       re.M)
SETUP_LINE = re.compile(r"^setup_s (\S+) at reference speed, (\S+) raw$", re.M)
DIGEST_LINE = re.compile(r"^digest (\S+)$", re.M)
MACHINE_LINE = re.compile(r"^machine (\{.*\})$", re.M)
MATCHED = ("digest", "attempted", "failed")  # what both runs of a seed must agree on
RAW = {"raw_ops_per_s": "ops_per_s", "raw_setup_s": "setup_s"}  # raw metric: its scaled twin


def parse_run(stdout: str, returncode: int, stderr: str = "") -> dict:
    """One ``perfbench/run.py --trace 0`` run's facts from its output.

    A run that exits non-zero also keeps the last line of its stderr as
    ``error``; one that ended before its record (a benchmark error, an
    uncaught exception) keeps only that and whatever lines it did print.
    """
    run = {"exit": returncode}
    if returncode and stderr.strip():
        run["error"] = stderr.strip().splitlines()[-1]
    if m := DIGEST_LINE.search(stdout):
        run["digest"] = m.group(1)
    if m := RATE_LINE.search(stdout):
        run["raw_ops_per_s"], run["calibration_calls"] = float(m.group(2)), int(m.group(3))
    if m := SETUP_LINE.search(stdout):
        run["raw_setup_s"] = float(m.group(2))
    if m := MACHINE_LINE.search(stdout):
        run["machine"] = json.loads(m.group(1))
    lines = stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        record = json.loads(lines[-1])
        run.update(correct=record["correct"], attempted=record["attempted"], failed=record["failed"])
        run.update({name: entry["value"] for name, entry in record["metrics"].items()})
    return run


def order(i: int) -> tuple:
    """The trees of pair ``i`` in the order they run: the parent first at even ``i``."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def _quartiles(values) -> list:
    """``[q1, median, q3]`` of ``values`` (the inclusive method: a single value is all three)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs, better: dict) -> dict:
    """Per metric of ``better`` (``{name: "higher" | "lower"}``), the paired statistics of
    ``pairs``, a list of ``{"parent": run, "change": run}``; a pair in which
    either run lacks the metric is left out of it."""
    out = {}
    for name, direction in better.items():
        kept = [(p["parent"][name], p["change"][name]) for p in pairs
                if p["parent"].get(name) is not None and p["change"].get(name) is not None]
        if not kept:
            continue
        parent, change = [a for a, _ in kept], [b for _, b in kept]
        q_parent, q_change = _quartiles(parent), _quartiles(change)
        sign = 1.0 if direction == "higher" else -1.0
        out[name] = {
            "better": direction,
            "pairs": len(kept),
            "parent": {"median": q_parent[1], "q1": q_parent[0], "q3": q_parent[2]},
            "change": {"median": q_change[1], "q1": q_change[0], "q3": q_change[2]},
            "wins": sum(sign * (b - a) > 0 for a, b in kept),
            "ratio": dict(zip(("q1", "median", "q3"), _quartiles([b / a for a, b in kept]))),
            "resolved": abs(q_change[1] - q_parent[1]) > q_parent[2] - q_parent[0],
        }
    return out


def mismatches(workload: str, seed: int, pair: dict) -> list:
    """What the two runs of one seed disagree on, and each run that exited non-zero."""
    found = [{"workload": workload, "seed": seed, "field": f, "parent": pair["parent"].get(f),
              "change": pair["change"].get(f)}
             for f in MATCHED if pair["parent"].get(f) != pair["change"].get(f)]
    found += [{"workload": workload, "seed": seed, "field": "exit", tree: pair[tree]["exit"]}
              for tree in ("parent", "change") if pair[tree]["exit"] != 0]
    return found


def run_pairs(workloads, seeds, runner) -> tuple:
    """``({workload: [pair, ...]}, mismatches)``: for each workload and seed
    ``runner(tree_name, workload, seed)`` of both trees in :func:`order`."""
    runs, found = {}, []
    for workload in workloads:
        runs[workload] = []
        for i, seed in enumerate(seeds):
            pair = {"seed": seed, "first": order(i)[0]}
            for tree in order(i):
                pair[tree] = runner(tree, workload, seed)
            runs[workload].append(pair)
            found += mismatches(workload, seed, pair)
    return runs, found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir", type=Path, help="checkout of the version to compare against")
    parser.add_argument("--label", required=True, help="names the report file BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload (default 10)")
    parser.add_argument("--first-seed", type=int, default=101, help="seed of the first pair (default 101)")
    parser.add_argument("--workload", action="append", help="a workload to run (default: all of BENCHMARK.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent_dir.resolve(), "change": HERE}
    spec = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    if unknown := sorted(set(workloads) - set(names)):
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json has {names}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better.update({raw: better[scaled] for raw, scaled in RAW.items()})
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))

    def runner(tree, workload, seed):
        proc = _proc(trees[tree], ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"])
        run = parse_run(proc.stdout, proc.returncode, proc.stderr)
        print(f"{workload} seed {seed} {tree}: " + ", ".join(
            f"{k} {run[k]}" for k in ("exit", "error", "digest", "ops_per_s", "raw_ops_per_s", "calibration_calls")
            if k in run),
            flush=True)
        return run

    runs, found = run_pairs(workloads, seeds, runner)
    machine = next((p[t]["machine"] for ps in runs.values() for p in ps for t in ("parent", "change")
                    if "machine" in p[t]), None)
    report = {"label": args.label, "machine": machine, "seeds": seeds, "mismatches": found,
              "workloads": {w: {"summary": summarize(ps, better), "runs": ps} for w, ps in runs.items()}}
    for workload, entry in report["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:14s} {name:14s} parent {s['parent']['median']:.4g} "
                  f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]  change {s['change']['median']:.4g} "
                  f"[{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]  wins {s['wins']}/{s['pairs']}  "
                  f"ratio {s['ratio']['median']:.3f}{'  resolved' if s['resolved'] else ''}")
    for m in found:
        print(f"MISMATCH {m}")
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"report written to {path}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
