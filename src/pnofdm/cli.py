"""Command-line entry point.

Subcommands:

* ``run --config FILE --out DIR``: run a scenario described by a flat
  key-value config file and write its CSV artifacts.
* ``verify [--out DIR]``: run the numerical verification suites.
* ``list-scenarios``: print the built-in scenario ids, each with its
  description and the list keys it sweeps.

Exit codes: 0 success, 1 config validation error or a config file that is
missing or not UTF-8 text, 2 runtime error or command-line usage error, 3
verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import SCENARIOS, ConfigError, parse_config, run_scenario, verify


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pnofdm", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario from a config file")
    run_p.add_argument("--config", required=True, help="flat key = value config file")
    run_p.add_argument("--out", required=True, help="output directory for CSV artifacts")

    verify_p = sub.add_parser("verify", help="run the numerical verification suites")
    verify_p.add_argument("--out", help="also write verify_summary.csv to this directory")

    sub.add_parser("list-scenarios", help="print built-in scenario ids")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            width = max(map(len, SCENARIOS))
            for name, sc in SCENARIOS.items():
                print(f"{name:{width}s} {sc.description} (sweeps {', '.join(sc.sweep)})")
            print("\nminimal config: a file containing 'scenario = <id>'")
            return 0
        if args.command == "verify":
            report = verify()
            for line in report.lines():
                print(line)
            if args.out:
                print(report.to_csv(Path(args.out) / "verify_summary.csv"))
            return 0 if report.passed else 3
        if args.command == "run":
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                print(f"cannot read config: {exc}", file=sys.stderr)
                return 1
            cfg = parse_config(text)
            paths = run_scenario(cfg, args.out)
            for path in paths:
                print(path)
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
