"""Smoke tests: the fast demos run end to end against the public API."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    return capsys.readouterr().out


def test_duality_certificates_demo_runs(monkeypatch, capsys):
    out = run_demo("duality_certificates.py", monkeypatch, capsys)
    assert "status=optimal" in out
    assert "=== 4. Regularity construction ===" in out
    assert "frames certified locally" in out
    # The samples are feasible, and both the dual bound and the oracle's
    # certified lower bound are floors under every sampled cost.
    defect = re.search(r"worst feasibility defect max\|n\|x_i\|\^2 - 1\| of the samples: (\S+)", out)
    assert float(defect[1]) < 1e-12
    floor = re.search(r"min cost over 1e5 random feasible points: (\S+) >= tau = (\S+), oracle lower = (\S+)", out)
    sampled, tau, lower = map(float, floor.groups())
    for bound in (tau, lower):
        assert sampled >= bound - 1e-9 * abs(bound)


def test_geometry_demo_lifts(monkeypatch, capsys):
    # Every feasible lift stays on the geometry under ppt and leaves it under lft.
    out = run_demo("geometry_and_models.py", monkeypatch, capsys)
    lifts = re.findall(r"residual after lift: ppt (\S+)\s+lft (\S+)", out)
    assert len(lifts) == 3
    assert all(float(ppt) < 1e-12 and float(lft) > 1e-2 for ppt, lft in lifts)


DEMO_MARKERS = [
    ("ber_study.py", "frames per point"),
    ("estimator_walkthrough.py", "estimator"),
    ("phase_tracking.py", "rms tracking error"),
    ("geometry_and_models.py", "=== 4. Lifting reduced time samples"),
]


@pytest.mark.parametrize("name, marker", DEMO_MARKERS, ids=[name for name, _ in DEMO_MARKERS])
def test_link_demo_runs(name, marker, monkeypatch, capsys):
    assert marker in run_demo(name, monkeypatch, capsys)
