"""Compare the outputs of this tree against those of another checkout.

Usage, from any directory::

    python tools/compare_outputs.py PARENT_DIR [--label L]

``PARENT_DIR`` is a checkout of the version to compare against (a ``git
archive`` or ``git worktree`` of the parent commit, say).  For each of the
two trees, in fresh interpreters with that tree's ``src`` first on the path
and the tree as working directory, the script collects:

* ``scenario/<id>/<file>``: the CSVs of every built-in scenario run from the
  minimal config ``scenario = <id>`` (the ids ``pnofdm list-scenarios``
  prints);
* ``readme/<i>/<file>``: the CSVs of the ``i``-th fenced block of the tree's
  README that holds a ``scenario =`` line, run as README prints it;
* ``verify``: the stdout of ``pnofdm verify``;
* ``acceptance``: the ``ACCEPTANCE n`` lines of ``pytest -rP
  tests/test_acceptance.py``;
* ``demo/<name>``: the stdout of each script in ``demos/``;
* ``bench/<workload>``: for each workload of the tree's ``BENCHMARK.json``,
  the ``cell`` and ``digest`` lines of ``perfbench/run.py --workload W``
  run with ``BENCH_ARGS`` (seed 1, 60 nominal seconds, untraced), then
  ``exit N`` when the run exits with a status ``N`` other than 0.  The
  cell lines hold each cell's operations and failures, so equal artifacts
  mean equal digests, ``attempted`` and ``failed`` counts.  Each run also
  leaves its record in the tree's ``perfbench/out/``.

It prints each artifact as ``identical``, ``changed`` or ``missing`` on one
side.  A changed artifact also gets the number of lines that differ, the
first of them and, for a CSV, the largest relative move of each numeric
column.  The report is written to ``OUTPUTS_<label>.json`` in the working
directory; the exit code is 0 when every artifact is identical and 1
otherwise.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
STDOUT_TAIL = 40  # lines of a failed command's stdout that its error quotes
BENCH_ARGS = ("--seed", "1", "--seconds", "60", "--trace", "0")
BENCH_LINE = re.compile(r"^(?:cell|digest) .*\n", re.M)


def _proc(tree: Path, args) -> subprocess.CompletedProcess:
    """``python ARGS`` run to its end in a fresh interpreter reading ``tree/src`` first."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True)


def _run(tree: Path, args, ok=(0,)) -> str:
    """stdout of ``python ARGS`` (:func:`_proc`); an exit code not in ``ok``
    raises with the command's stderr and the last ``STDOUT_TAIL`` lines of
    its stdout, where pytest reports a collection error."""
    proc = _proc(tree, args)
    if proc.returncode not in ok:
        tail = "\n".join(proc.stdout.splitlines()[-STDOUT_TAIL:])
        raise RuntimeError(f"{' '.join(args)} in {tree} exited {proc.returncode}:\n"
                           f"stderr:\n{proc.stderr}\nstdout, last lines:\n{tail}")
    return proc.stdout


def readme_configs(tree: Path) -> list:
    """The fenced blocks of the tree's README that configure a scenario, in order."""
    text = (tree / "README.md").read_text(encoding="utf-8")
    return [b for b in FENCE.findall(text) if re.search(r"^scenario\s*=", b, re.M)]


def bench_lines(stdout: str, returncode: int) -> str:
    """The ``cell`` and ``digest`` lines of a benchmark run's stdout, then
    ``exit N`` when its exit status ``N`` is not 0."""
    return "".join(BENCH_LINE.findall(stdout)) + (f"exit {returncode}\n" if returncode else "")


def bench_runs(tree: Path) -> dict:
    """``{"bench/<workload>": bench_lines(...)}`` for each workload of the
    tree's ``BENCHMARK.json`` (none without one); a failed run is recorded,
    not raised."""
    spec = tree / "BENCHMARK.json"
    if not spec.exists():
        return {}
    out = {}
    for workload in json.loads(spec.read_text(encoding="utf-8"))["workloads"]:
        proc = _proc(tree, ["perfbench/run.py", "--workload", workload["name"], *BENCH_ARGS])
        out[f"bench/{workload['name']}"] = bench_lines(proc.stdout, proc.returncode)
    return out


def _run_config(tree: Path, config: str, work: Path, prefix: str, out: dict):
    work.mkdir(parents=True)
    (work / "config.txt").write_text(config, encoding="utf-8")
    _run(tree, ["-m", "pnofdm.cli", "run", "--config", str(work / "config.txt"), "--out", str(work / "out")])
    for path in sorted((work / "out").iterdir()):
        out[f"{prefix}/{path.name}"] = path.read_text(encoding="utf-8")


def collect(tree: Path, work: Path) -> dict:
    """Every artifact of ``tree``, as ``{name: text}``."""
    out = {}
    listing = _run(tree, ["-m", "pnofdm.cli", "list-scenarios"])
    for scenario in [line.split()[0] for line in listing.split("\n\n")[0].splitlines()]:
        _run_config(tree, f"scenario = {scenario}\n", work / "scenario" / scenario, f"scenario/{scenario}", out)
    for i, config in enumerate(readme_configs(tree)):
        _run_config(tree, config, work / "readme" / str(i), f"readme/{i}", out)
    out["verify"] = _run(tree, ["-m", "pnofdm.cli", "verify"])
    pytest_out = _run(tree, ["-m", "pytest", "-rP", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"],
                      ok=(0, 1))  # pytest exits 1 on a failed test, its lines still count
    out["acceptance"] = "".join(sorted(set(re.findall(r"^ACCEPTANCE .*\n", pytest_out, re.M)),
                                       key=lambda line: int(line.split()[1].rstrip(":"))))
    for demo in sorted((tree / "demos").glob("*.py")):
        out[f"demo/{demo.name}"] = _run(tree, [str(demo)])
    out.update(bench_runs(tree))
    return out


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def csv_moves(old: str, new: str):
    """Largest relative move ``|a - b| / max(|a|, |b|)`` per numeric column, or
    ``None`` when the two tables differ in shape or in a header."""
    def table(text):
        return list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))

    a, b = table(old), table(new)
    if not a or len(a) != len(b) or a[0] != b[0] or any(len(x) != len(y) for x, y in zip(a, b)):
        return None
    moves = {}
    for row_a, row_b in zip(a[1:], b[1:]):
        for name, x, y in zip(a[0], row_a, row_b):
            if x == y:
                continue
            fx, fy = _float(x), _float(y)
            if fx is None or fy is None:
                moves[name] = "non-numeric change"
            elif moves.get(name) != "non-numeric change":
                move = abs(fx - fy) / max(abs(fx), abs(fy)) if fx != fy else 0.0  # "0" -> "-0.0" moves nothing
                moves[name] = max(moves.get(name, 0.0), move)
    return moves


def compare(parent: dict, child: dict) -> dict:
    report = {}
    for name in sorted(set(parent) | set(child)):
        if name not in child or name not in parent:
            report[name] = {"status": "missing in " + ("change" if name not in child else "parent")}
            continue
        old, new = parent[name], child[name]
        if old == new:
            report[name] = {"status": "identical"}
            continue
        lines_a, lines_b = old.splitlines(), new.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y), min(len(lines_a), len(lines_b)))
        differing = sum(x != y for x, y in zip(lines_a, lines_b)) + abs(len(lines_a) - len(lines_b))
        entry = {"status": "changed", "lines_changed": differing, "line": i + 1,
                 "parent": lines_a[i] if i < len(lines_a) else None,
                 "change": lines_b[i] if i < len(lines_b) else None}
        if name.endswith(".csv"):
            entry["moves"] = csv_moves(old, new)
        report[name] = entry
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir", type=Path, help="checkout of the version to compare against")
    parser.add_argument("--label", default="compare", help="names the report file OUTPUTS_<label>.json")
    args = parser.parse_args(argv)
    parent_dir = args.parent_dir.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        parent = collect(parent_dir, Path(tmp) / "parent")
        child = collect(HERE, Path(tmp) / "change")
    report = compare(parent, child)
    for name, entry in report.items():
        print(f"{entry['status']:10s} {name}")
        if entry["status"] == "changed":
            print(f"    {entry['lines_changed']} lines differ; the first is line {entry['line']}")
            print(f"      parent: {entry['parent']!r}")
            print(f"      change: {entry['change']!r}")
            moves = entry.get("moves")
            if moves is None and name.endswith(".csv"):
                print("    tables differ in shape or header")
            for column, move in (moves or {}).items():
                print(f"    {column}: {move if isinstance(move, str) else f'largest relative move {move:.2e}'}")
    summary = {status: sum(e["status"] == status for e in report.values())
               for status in sorted({e["status"] for e in report.values()})}
    print(", ".join(f"{count} {status}" for status, count in summary.items()))
    path = Path(f"OUTPUTS_{args.label}.json")
    path.write_text(json.dumps({"parent": str(parent_dir), "change": str(HERE), "artifacts": report}, indent=1) + "\n")
    print(f"report written to {path}")
    return 0 if all(e["status"] == "identical" for e in report.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
