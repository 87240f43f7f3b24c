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
    # The dual bound is a floor under every sampled feasible cost.
    floor = re.search(r"min cost over 1e5 random feasible points: (\S+) >= tau = (\S+)", out)
    assert float(floor[1]) >= float(floor[2])


def test_geometry_demo_lifts(monkeypatch, capsys):
    # Every feasible lift stays on the geometry under ppt and leaves it under lft.
    out = run_demo("geometry_and_models.py", monkeypatch, capsys)
    lifts = re.findall(r"residual after lift: ppt (\S+)\s+lft (\S+)", out)
    assert len(lifts) == 3
    assert all(float(ppt) < 1e-12 and float(lft) > 1e-2 for ppt, lft in lifts)


@pytest.mark.parametrize(
    "name, marker",
    [
        ("ber_study.py", "frames per point"),
        ("estimator_walkthrough.py", "estimator"),
        ("phase_tracking.py", "rms tracking error"),
        ("geometry_and_models.py", "=== 4. Lifting a reduced spectrum"),
    ],
)
def test_link_demo_runs(name, marker, monkeypatch, capsys):
    assert marker in run_demo(name, monkeypatch, capsys)
