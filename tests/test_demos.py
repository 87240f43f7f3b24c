"""Smoke test: the demo that drives the dual-solver API runs end to end."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_duality_certificates_demo_runs(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    runpy.run_path(str(ROOT / "demos" / "duality_certificates.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "status=optimal" in out
    assert "=== 4. Regularity construction ===" in out
