"""Smoke tests: the fast demos run end to end against the public API."""

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
