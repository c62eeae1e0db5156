"""scripts/compare_outputs.py on small hand-made output directories."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ramanlight.tables import write_metrics_csv, write_table

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def write_outputs(root: Path, metric: float = 1.5, cell: float = 2.0,
                  re: float = 0.0, im: float = 1.0) -> Path:
    root.mkdir(parents=True)
    write_metrics_csv(root / "metrics.csv", {"x": metric, "crossing": float("nan")})
    write_table(root / "table.csv", ["a", "re_chi", "im_chi"],
                [np.array([1.0, cell]), np.array([re, 0.5]), np.array([im, 0.5])])
    return root


def run(tmp_path, capsys, rel=0.0, **changed):
    code = compare_outputs.main([str(write_outputs(tmp_path / "a", **changed)),
                                 str(write_outputs(tmp_path / "b")), "--rel", str(rel)])
    return code, capsys.readouterr().out


def test_identical_directories_pass(tmp_path, capsys):
    code, out = run(tmp_path, capsys)
    assert code == 0
    assert "metrics.csv: 0.000e+00" in out and "table.csv: 0.000e+00" in out


def test_perturbed_value_is_measured(tmp_path, capsys):
    code, out = run(tmp_path, capsys, rel=1e-3, metric=1.5 * (1 + 1e-6))
    assert code == 0
    assert "metrics.csv: 1.000e-06" in out
    code, out = run(tmp_path / "strict", capsys, rel=1e-7, metric=1.5 * (1 + 1e-6))
    assert code == 1
    assert "EXCEEDS" in out


@pytest.mark.parametrize("changed", [{"metric": float("nan")}, {"cell": float("nan")}])
def test_nan_against_finite_fails(tmp_path, capsys, changed):
    code, out = run(tmp_path, capsys, rel=1e300, **changed)
    assert code == 1
    assert ": inf  EXCEEDS" in out


def test_missing_file_fails(tmp_path, capsys):
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b")
    (a / "table.csv").unlink()
    assert compare_outputs.main([str(a), str(b), "--rel", "1"]) == 1
    assert f"table.csv: only in {b}" in capsys.readouterr().out


def test_real_part_scaled_by_magnitude(tmp_path, capsys):
    # re_chi moves from 0 to 1e-9 where |chi| = 1: a deviation of 1e-9, not inf
    code, out = run(tmp_path, capsys, rel=1e-8, re=1e-9)
    assert code == 0
    assert "table.csv: 1.000e-09" in out
