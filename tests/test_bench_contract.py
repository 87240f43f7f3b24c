"""The benchmark's hold on the program: one round of each workload, traced
and checked as ``perfbench/run.py --trace 1`` runs it, records every span the
harness expects and passes every output check.

The harness wraps the program's functions by module and name, so renaming,
inlining or re-routing one of them drops a span or a check without any error
until a traced run.  This test imports only the benchmark's own modules.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from tracing import Patches, Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_round_records_every_expected_span(name):
    workload = workloads.WORKLOADS[name]()
    checks, tracer = workloads.Checks(), Tracer()
    with Patches() as patches:
        checks.hook_estimators(patches)
        workloads.install_trace(tracer, patches)
        workload.run_round(0, 0, checks, tracer)
    recorded = tracer.by_name()
    assert [span for span in workloads.EXPECTED_SPANS[name] if span not in recorded] == []
    assert checks.problems == []
