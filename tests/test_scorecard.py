"""The paper scorecard: its rows hold on the model, and every bound bites.

Tier-1 scores the fast drivers (~2 s together).  Fig. 14, the accuracy
comparison and the four studies run in CI's paper-experiment report
(``scripts/run_all_experiments.py``), which exits non-zero on any failed row.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import scorecard
from repro.analysis.scorecard import DRIVERS, PAPER_ROWS, PaperRow, score
from repro.cli import main as cli_main
from repro.errors import ConfigurationError

FAST = ("table1", "figure3", "figure4", "figure8", "figure13", "figure15",
        "figure16", "figure17", "figure18", "table2")


def _script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_fast_row_passes():
    scores = score(FAST)
    assert [s.row.quantity for s in scores if not s.passed] == []
    assert {s.row.figure for s in scores} == set(FAST)


def test_every_driver_has_rows_and_every_row_a_driver():
    assert {row.figure for row in PAPER_ROWS} == set(DRIVERS)


@pytest.mark.parametrize("row", PAPER_ROWS, ids=lambda row: f"{row.figure}:{row.quantity}")
def test_row_passes_at_its_paper_value_and_fails_just_outside_its_bound(row):
    if row.paper is None:
        assert row.judge(True).passed
        assert not row.judge(False).passed
        return
    assert row.judge(row.paper).passed
    if row.rel_tol is None and row.abs_tol is None:
        assert row.judge(10 * row.paper).passed  # reported, not bounded
        return
    width = row.abs_tol if row.abs_tol is not None else row.rel_tol * abs(row.paper)
    for sign in (1, -1):
        assert row.judge(row.paper + sign * width * (1 - 1e-6)).passed
        assert not row.judge(row.paper + sign * (width * (1 + 1e-6) + 1e-9)).passed


def test_a_row_has_at_most_one_bound():
    with pytest.raises(ConfigurationError, match="at most one bound"):
        PaperRow("table1", "q", 1.0, "", len, rel_tol=0.1, abs_tol=0.1)


def test_unknown_figure_is_rejected():
    with pytest.raises(ConfigurationError, match="figure99"):
        score(["figure99"])


def test_report_exits_1_on_a_failing_row_and_0_on_a_passing_section(monkeypatch, capsys):
    script = _script()
    assert script.main(["--section", "model configurations"]) == 0
    first = next(index for index, row in enumerate(PAPER_ROWS) if row.figure == "table1")
    planted = replace(PAPER_ROWS[first], paper=PAPER_ROWS[first].paper + 1)
    rows = PAPER_ROWS[:first] + (planted,) + PAPER_ROWS[first + 1:]
    monkeypatch.setattr(scorecard, "PAPER_ROWS", rows)
    assert script.main(["--section", "model configurations"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_report_exits_1_when_a_driver_raises(monkeypatch, capsys):
    def broken():
        raise RuntimeError("planted driver failure")

    script = _script()
    monkeypatch.setitem(DRIVERS, "table1", (DRIVERS["table1"][0], broken))
    assert script.main(["--section", "model configurations"]) == 1
    assert "planted driver failure" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["figure3", "figure4", "figure8", "figure13", "figure17"])
def test_cli_experiment_prints_the_figures_rows_not_a_repr(name, capsys):
    assert cli_main(["experiment", name]) == 0
    output = capsys.readouterr().out
    assert "Result(" not in output and "Report(" not in output
    for row in PAPER_ROWS:
        if row.figure == name:
            assert row.quantity in output
