"""scripts/ab_pairs.py's summary on made-up runs; no benchmark is started."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "success_rate", "unit": "ratio", "better": "higher", "bound": 0.01},
]}


def pairs_of(parent_walls, change_walls, parent_rates=None, change_rates=None):
    parent_rates = parent_rates or [1.0] * len(parent_walls)
    change_rates = change_rates or [1.0] * len(change_walls)
    return [{"parent": {"wall_s": pw, "success_rate": pr},
             "change": {"wall_s": cw, "success_rate": cr}}
            for pw, cw, pr, cr in zip(parent_walls, change_walls, parent_rates, change_rates)]


def test_parent_runs_first_in_even_pairs():
    assert [ab_pairs.run_order(p)[0] for p in range(4)] == ["parent", "change"] * 2
    assert sorted(ab_pairs.run_order(3)) == ["change", "parent"]


def test_faster_change_wins_and_stays_within_bound():
    parent = [1.0, 1.1, 0.9, 1.2, 1.0, 1.05, 0.95, 1.0, 1.3, 1.0]
    change = [p * 0.9 for p in parent]
    change[4] = 1.5                       # one lost pair
    wall = ab_pairs.summarize(pairs_of(parent, change), SPEC)["wall_s"]
    q1, median, q3 = statistics.quantiles(parent, n=4)
    assert (wall["parent_q1"], wall["parent_median"], wall["parent_q3"]) == (q1, median, q3)
    assert wall["change_median"] == statistics.median(change)
    assert wall["relative"] == pytest.approx(wall["change_median"] / median - 1.0)
    assert wall["won"] == 9 and wall["pairs"] == 10
    assert not wall["worse_beyond_bound"]


def test_slower_change_beyond_bound():
    wall = ab_pairs.summarize(pairs_of([1.0, 1.0, 1.0], [1.3, 1.2, 1.3]), SPEC)["wall_s"]
    assert wall["relative"] == pytest.approx(0.3)
    assert wall["won"] == 0 and wall["worse_beyond_bound"]
    within = ab_pairs.summarize(pairs_of([1.0, 1.0, 1.0], [1.2, 1.2, 1.3]), SPEC)["wall_s"]
    assert not within["worse_beyond_bound"]


def test_higher_is_better_reads_the_other_way():
    rate = ab_pairs.summarize(pairs_of([1.0] * 4, [1.0] * 4, [1.0] * 4,
                                       [0.98, 0.98, 1.0, 0.98]), SPEC)["success_rate"]
    assert rate["relative"] == pytest.approx(-0.02)
    assert rate["won"] == 0 and rate["worse_beyond_bound"]
    better = ab_pairs.summarize(pairs_of([1.0] * 4, [1.0] * 4, [0.9] * 4, [1.0] * 4),
                                SPEC)["success_rate"]
    assert better["won"] == 4 and not better["worse_beyond_bound"]


def test_parent_median_of_zero():
    rate = ab_pairs.summarize(pairs_of([1.0] * 3, [1.0] * 3, [0.0] * 3, [0.0, 0.5, 0.0]),
                              SPEC)["success_rate"]
    assert rate["relative"] is None and not rate["worse_beyond_bound"]
    wall = ab_pairs.summarize(pairs_of([0.0] * 3, [0.0, 0.1, 0.1]), SPEC)["wall_s"]
    assert wall["relative"] is None and wall["worse_beyond_bound"]


def test_summary_is_json_and_reported_per_metric():
    summary = ab_pairs.summarize(pairs_of([1.0, 2.0], [1.5, 1.5]), SPEC)
    assert json.loads(json.dumps(summary)) == summary
    lines = ab_pairs.report_lines(summary)
    assert [line.split()[0] for line in lines] == ["wall_s", "success_rate"]
    assert "won 1/2" in lines[0]


def test_reads_the_repository_spec():
    spec = json.loads(ab_pairs.SPEC.read_text())
    assert spec["run_seconds"] > 0
    assert {m["better"] for m in spec["end_to_end"]} <= {"lower", "higher"}


def test_wrong_arguments_start_nothing(capsys):
    assert ab_pairs.main(["only", "two"]) == 2
    assert "PARENT_DIR CHANGE_DIR WORKLOAD" in capsys.readouterr().err
