"""The output-comparison tool ``tools/compare_outputs.py``: its report on
given artifact texts, and the README blocks it runs.  The tool is loaded by
path, and nothing here starts a process."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CSV = "# a comment line\nsnr_db,estimator,ber\n10,gls,0.5\n20,gls,0.25\n"


def test_identical_texts():
    report = compare_outputs.compare({"verify": "ok\n", "x.csv": CSV}, {"verify": "ok\n", "x.csv": CSV})
    assert report == {"verify": {"status": "identical"}, "x.csv": {"status": "identical"}}


def test_numeric_csv_move_is_each_columns_largest():
    new = CSV.replace("0.5", "0.4").replace("0.25", "0.3").replace("20,", "20.0,")
    entry = compare_outputs.compare({"x.csv": CSV}, {"x.csv": new})["x.csv"]
    assert entry["status"] == "changed" and entry["lines_changed"] == 2 and entry["line"] == 3
    assert (entry["parent"], entry["change"]) == ("10,gls,0.5", "10,gls,0.4")
    # Relative moves 0.2 and 1/6 in ber; "20" -> "20.0" moves nothing; the comment is skipped.
    assert entry["moves"] == {"ber": pytest.approx(0.2, rel=1e-15), "snr_db": 0.0}


def test_signed_zero_moves_nothing():
    assert compare_outputs.csv_moves("g\n0\n", "g\n-0.0\n") == {"g": 0.0}


def test_non_numeric_change():
    new = CSV.replace("20,gls,0.25", "20,nls,0.3")
    moves = compare_outputs.compare({"x.csv": CSV}, {"x.csv": new})["x.csv"]["moves"]
    assert moves == {"estimator": "non-numeric change", "ber": pytest.approx(1 / 6, rel=1e-15)}
    # A text artifact that is not a CSV gets its first differing line and no moves.
    entry = compare_outputs.compare({"demo/a.py": "x\ny\n"}, {"demo/a.py": "x\nz\nw\n"})["demo/a.py"]
    assert entry == {"status": "changed", "lines_changed": 2, "line": 2, "parent": "y", "change": "z"}


@pytest.mark.parametrize(
    "new",
    [
        CSV.replace("ber", "bit_error_rate"),  # header
        CSV + "30,gls,0.1\n",  # one more row
        CSV.replace("10,gls,0.5", "10,gls,0.5,extra"),  # one more field
    ],
    ids=["header", "rows", "fields"],
)
def test_header_or_shape_change_gives_none(new):
    assert compare_outputs.compare({"x.csv": CSV}, {"x.csv": new})["x.csv"]["moves"] is None


def test_artifact_missing_on_one_side():
    report = compare_outputs.compare({"old": "a", "both": "b"}, {"new": "c", "both": "b"})
    assert report == {
        "both": {"status": "identical"},
        "new": {"status": "missing in parent"},
        "old": {"status": "missing in change"},
    }


def test_readme_configs_keeps_only_scenario_blocks(tmp_path):
    (tmp_path / "README.md").write_text(
        "Intro.\n\n"
        "```\nscenario = ber-vs-snr\nframes = 10\n```\n\n"
        "```bash\npnofdm run --config my.cfg\n```\n\n"
        "```\n# not a scenario: scenario = inside a comment\nframes = 3\n```\n\n"
        "```ini\n  scenario = indented\n```\n\n"
        "```\nestimators = gls\nscenario=mse-vs-rho\n```\n",
        encoding="utf-8",
    )
    assert compare_outputs.readme_configs(tmp_path) == [
        "scenario = ber-vs-snr\nframes = 10\n",
        "estimators = gls\nscenario=mse-vs-rho\n",
    ]
