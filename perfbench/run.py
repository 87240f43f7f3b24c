"""Benchmark of the pnofdm coded link and duality checks.

Run from the repository root:

    python3 perfbench/run.py --workload link-fast --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``link-fast``: ``link.run_link`` for cpe, cis, uls, nls and genie at 10 and
  30 dB; Viterbi, frame generation and demapping dominate, ``sdp`` never runs.
* ``link-gls``: ``link.run_link`` for gls at 10 and 30 dB; ``sdp.solve_dual``
  dominates.
* ``duality-check``: ``sproc.duality_gap`` on ``random_gram_instance``
  draws with n=3, k=6 and n=5, k=10; the primal grid oracle dominates.

Work runs in rounds (one call per cell).  A run does a fixed number of
rounds, ``--seconds`` over the workload's nominal round time, so what it
computes, and how many operations fail, depends only on ``--seed`` and
``--seconds``.

The end-to-end times are scaled to a reference machine speed.  The host is
shared and its speed drifts by 20-40% between runs, so calibration kernels
are timed every 30 ms alongside the work (see ``calibrate.py``) and each
run's times are multiplied by the machine speed it saw.  The raw figures
are printed and kept in the run's record.

``--trace 0`` reports the end-to-end metrics: ``ops_per_s`` (operations per
second of the timed rounds: coded frames on the link workloads, duality
instances on duality-check), ``setup_s`` (median of ``SETUP_PROBES`` fresh
interpreters, each timing the import plus the workload's lazy set-up) and
``peak_rss_mb``.  ``--trace 1`` runs the same rounds untraced and then
traced, checks that both gave identical outputs, and reports the per-layer
metrics computed from the spans (raw times, not rescaled).

Every run checks the outputs (geometry residual of each nls/gls estimate,
certificate and weak duality of each dual solution), prints each cell's
result and a digest of all outputs, and ends with one JSON line.  A failed
check sets ``correct`` to false and exits with code 1.  Gap failures on
duality-check and cpe fallbacks on the link workloads are counted in
``failed``, not treated as benchmark errors.  A record of the run and, when
traced, its spans are written under ``perfbench/out/``.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads anywhere in this process tree

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

# numpy, pnofdm and the benchmark modules that import them load lazily, so the
# set-up probe's clock covers their import.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_ROUNDS = 2
SETUP_PROBES = 5
SETUP_CAL_PASSES = 20  # kernel passes that gauge machine speed after each set-up probe
PROBE_TIMEOUT_S = 120
MAX_REPORTED = 20  # check failures printed and recorded

# Per-layer counts that repeat exactly on a given seed and --seconds while the
# code that produces them is unchanged.
EXACT_COUNTS = ("sproc.primal_oracle.grid_points", "sdp.newton_steps.p50", "sdp.newton_steps.max")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed probe)."""


def import_workloads():
    """Import the program from this checkout's ``src`` and the workload module."""
    if not (SRC / "pnofdm" / "__init__.py").is_file():
        raise BenchError(f"no pnofdm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pnofdm
    import workloads

    if Path(pnofdm.__file__).resolve().parent != SRC / "pnofdm":
        raise BenchError(f"imported pnofdm from {pnofdm.__file__}, not from {SRC}")
    return workloads


def run_pass(wl, workload, seed, rounds, *, tracer=None):
    """Run ``rounds`` rounds with the calibration sampler on; returns a dict.

    ``seconds`` is the time the rounds took, calibration excluded; ``speed``
    is the machine speed over them relative to the reference.
    """
    from calibrate import Sampler
    from tracing import Patches

    checks = wl.Checks()
    runs, times = [], []
    with Patches() as patches, Sampler() as sampler:
        checks.hook_estimators(patches)
        if tracer is not None:
            tracer.clock = sampler.clock
            wl.install_trace(tracer, patches)
        start = sampler.clock()
        for rnd in range(rounds):
            t0 = sampler.clock()
            runs.append(workload.run_round(seed, rnd, checks, tracer))
            times.append(sampler.clock() - t0)
        seconds = sampler.clock() - start
    speed = sampler.speed()
    return {"runs": runs, "times": times, "seconds": seconds, "speed": speed, "ref_seconds": seconds * speed,
            "calibration_calls": sampler.calls(), "kernel_typical_s": sampler.typical(), "checks": checks}


def setup_seconds(name):
    """Median set-up time over fresh interpreters (import plus lazy set-up),
    raw and at reference speed."""
    raw, ref = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe", name],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        seconds, speed = (float(v) for v in proc.stdout.split()[-2:])
        raw.append(seconds)
        ref.append(seconds * speed)
    return statistics.median(raw), statistics.median(ref)


def machine_facts():
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def _canon(value):
    return f"{value:.6e}" if isinstance(value, float) else str(value)


def cell_summary(runs):
    """Per cell: operations, failures, bit errors, worst relative gap."""
    out = {}
    for rnd in runs:
        for c in rnd:
            s = out.setdefault(c.cell, {"ops": 0, "failed": 0, "bit_errors": 0, "rel_gap_max": 0.0})
            s["ops"] += c.ops
            s["failed"] += c.failed
            s["bit_errors"] += c.bit_errors
            s["rel_gap_max"] = max(s["rel_gap_max"], c.rel_gap)
    return out


def digest(runs):
    """SHA-256 of the outputs of all rounds."""
    text = json.dumps([[c.cell, [_canon(v) for v in c.outputs]] for rnd in runs for c in rnd])
    return hashlib.sha256(text.encode()).hexdigest()


def layer_metrics(names, wl, is_link, stats, traced, untraced, failed_frac):
    """Per-layer metrics named ``<span>.<stat>`` plus the named special ones."""
    import numpy as np
    from tracing import tail

    empty = {"dur": [], "self": [], "attrs": []}
    wall = traced["seconds"]
    cells = [c for rnd in traced["runs"] for c in rnd]

    def attrs(*span_names):
        return [a for n in span_names for a in stats.get(n, empty)["attrs"]]

    def p50(values):
        return float(np.median(values)) if len(values) else 0.0

    def mean(values):
        return float(np.mean(values)) if len(values) else 0.0

    steps = [a["steps"] for a in attrs("sdp.solve_dual")]
    oracle = attrs("sproc.primal_oracle.n3", "sproc.primal_oracle.n5")
    gls_gap = traced["checks"].gls_rel_gap
    special = {
        "sdp.newton_steps.p50": p50(steps),
        "sdp.newton_steps.max": max(steps, default=0),
        "sdp.non_optimal": sum(a["status"] != "optimal" for a in attrs("sdp.solve_dual")),
        "sdp.kkt_rank_deficient": sum(not a["full_rank"] for a in attrs("sdp.kkt_recover")),
        "sproc.primal_oracle.share": sum(
            sum(stats.get(n, empty)["self"]) for n in ("sproc.primal_oracle.n3", "sproc.primal_oracle.n5")
        ) / wall,
        "sproc.primal_oracle.grid_points": mean([a["grid_points"] for a in oracle]),
        "sproc.primal_oracle.sweeps_p50": p50([a["sweeps"] for a in oracle]),
        "sproc.primal_oracle.sweeps_max": max((a["sweeps"] for a in oracle), default=0),
        "sproc.duality_gap.rel_max": 0.0 if is_link else max(c.rel_gap for c in cells),
        "sproc.duality_gap.fail": 0 if is_link else sum(c.failed for c in cells),
        "estimators.flagged": sum(c.failed for c in cells) if is_link else 0,
        "estimators.gls.above_dual_bound_frac.10db": mean(np.array(gls_gap[10.0]) > wl.ABOVE_BOUND_REL),
        "estimators.gls.above_dual_bound_frac.30db": mean(np.array(gls_gap[30.0]) > wl.ABOVE_BOUND_REL),
        "trace_overhead_frac": traced["ref_seconds"] / untraced["ref_seconds"] - 1.0,
        "failed_frac": failed_frac,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        span_name, stat = name.rsplit(".", 1)
        entry = stats.get(span_name, empty)
        ms = np.asarray(entry["dur"]) * 1e3
        if stat == "calls":
            out[name] = int(ms.size)
        elif stat == "share":
            out[name] = float(sum(entry["self"]) / wall)
        elif stat == "ms_p50":
            out[name] = p50(ms)
        elif stat in ("ms_tail", "tail_pct"):
            pct, value = tail(ms) if ms.size else (0.0, 0.0)
            out[name] = value if stat == "ms_tail" else pct
        else:
            raise BenchError(f"no rule computes per-layer metric {name!r}")
    return out


def self_time_table(stats, wall):
    rows = []
    for name, s in stats.items():
        rows.append((sum(s["self"]), name, len(s["dur"])))
    lines = [f"{'span':44s} {'calls':>7s} {'self_s':>9s} {'share':>7s}"]
    for self_s, name, calls in sorted(rows, reverse=True):
        lines.append(f"{name:44s} {calls:7d} {self_s:9.3f} {self_s / wall:7.1%}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        t0 = perf_counter()
        wl = import_workloads()
        wl.WORKLOADS[args.setup_probe]().setup()
        seconds = perf_counter() - t0
        from calibrate import measure_speed

        print(seconds, measure_speed(SETUP_CAL_PASSES))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 1:
        parser.error("--seconds must be at least 1")
    wl = import_workloads()
    facts = machine_facts()
    print("machine " + json.dumps(facts))

    setup_raw, setup_s = setup_seconds(args.workload) if args.trace == 0 else (None, None)
    workload = wl.WORKLOADS[args.workload]()
    is_link = isinstance(workload, wl.LinkWorkload)
    workload.setup()
    rounds = max(MIN_ROUNDS, round(seconds / workload.round_s))

    untraced = run_pass(wl, workload, args.seed, rounds)
    problems = list(untraced["checks"].problems)
    traced = tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        traced = run_pass(wl, workload, args.seed, rounds, tracer=tracer)
        problems += traced["checks"].problems
        for r, (a, b) in enumerate(zip(untraced["runs"], traced["runs"])):
            for ca, cb in zip(a, b):
                if ca.outputs != cb.outputs:
                    problems.append(f"round {r} cell {ca.cell}: traced outputs differ from untraced")
        stats = tracer.by_name()
        missing = [s for s in wl.EXPECTED_SPANS[args.workload] if s not in stats]
        if missing:
            problems.append(f"expected spans recorded no calls: {missing}")

    runs = untraced["runs"]
    attempted = sum(c.ops for rnd in runs for c in rnd)
    failed = sum(c.failed for rnd in runs for c in rnd)
    summary = cell_summary(runs)
    for cell, s in summary.items():
        print(f"cell {cell:14s} ops={s['ops']:6d} failed={s['failed']:4d} "
              f"bit_errors={s['bit_errors']:8d} rel_gap_max={s['rel_gap_max']:.3e}")
    out_digest = digest(runs)
    print(f"digest {out_digest}")
    rate = attempted / untraced["ref_seconds"]
    raw_rate = attempted / untraced["seconds"]
    print(f"{'frames_per_s' if is_link else 'instances_per_s'} {rate:.4f} at reference speed, "
          f"{raw_rate:.4f} raw: {attempted} ops in {len(runs)} rounds, {untraced['seconds']:.2f} s "
          f"at machine speed {untraced['speed']:.3f} ({untraced['calibration_calls']} calibration calls)")
    if setup_s is not None:
        print(f"setup_s {setup_s:.4f} at reference speed, {setup_raw:.4f} raw")

    if args.trace:
        metrics = layer_metrics([m["name"] for m in spec["per_layer"]], wl, is_link, stats, traced,
                                untraced, failed / attempted)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for line in self_time_table(stats, traced["seconds"]):
            print(line)
    else:
        metrics = {
            "ops_per_s": rate,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    if len(problems) > MAX_REPORTED:
        problems = problems[:MAX_REPORTED] + [f"... and {len(problems) - MAX_REPORTED} more"]
    for p in problems:
        print(f"CHECK FAILED: {p}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "machine": facts, "rounds": len(runs), "round_times_s": untraced["times"], "cells": summary,
        "speed": untraced["speed"], "kernel_typical_s": untraced["kernel_typical_s"],
        "raw_ops_per_s": raw_rate, "raw_setup_s": setup_raw,
        "digest": out_digest, "problems": problems, "exact_counts": EXACT_COUNTS, "metrics": metrics,
    }
    if tracer is not None:
        record["self_s"] = {name: sum(s["self"]) for name, s in stats.items()}
        tracer.write(OUT / f"spans-{stem}.jsonl", args.workload)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
