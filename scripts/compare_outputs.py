#!/usr/bin/env python3
"""Largest relative deviation between two directories of CSV outputs.

Usage:
    python scripts/compare_outputs.py A B --rel 1e-10

A and B are output directories of ``scripts/run_figures.py`` (or of single
scenario runs); B is the reference. For every CSV in B the same-named file
in A is compared, and the largest relative deviation of each file is
printed:

- a data table (read with ``ramanlight.tables.read_table``) is compared
  column by column in the max norm, max |a - b| / max |b|;
- a metrics table (``metric,value`` rows) compares each metric on its own,
  |a - b| / |b|.

Real and imaginary parts, named ``re_X`` / ``im_X`` (columns) or
``..._re_X`` / ``..._im_X`` (metrics), take the magnitude of the complex
value as their scale, so a part that vanishes by symmetry (the centre
Re chi) is measured against |chi|, not against itself.

A NaN on one side only counts as an infinite deviation; NaN on both sides
at the same place (an undefined crossing, say) counts as equal.

Exits 1 when a deviation exceeds --rel or the two directories hold different
CSV files, else 0. Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

# the package of this checkout, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ramanlight.tables import read_table  # noqa: E402


def _scales(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each column's magnitude scale; re/im parts share |re + i im|."""
    scales = {}
    for name, values in columns.items():
        scales[name] = np.abs(values)
        for part, other in (("re_", "im_"), ("im_", "re_")):
            if part in name and name.replace(part, other, 1) in columns:
                partner = columns[name.replace(part, other, 1)]
                scales[name] = np.hypot(values, partner)
    return scales


def _read(path: Path) -> tuple[bool, dict[str, np.ndarray]]:
    """(is a metrics table, columns by name)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        if next(reader) == ["metric", "value"]:
            return True, {key: np.array([float(value)]) for key, value in reader}
    names, columns = read_table(path)
    return False, dict(zip(names, columns))


def deviation(path_a: Path, path_b: Path) -> float:
    """Largest relative deviation of ``path_a`` from the reference ``path_b``."""
    metrics, ref = _read(path_b)
    _, new = _read(path_a)
    if set(ref) != set(new):
        return float("inf")
    scales = _scales(ref)
    worst = 0.0
    for name, b in ref.items():
        a = new[name]
        if a.shape != b.shape:
            return float("inf")
        diff = np.abs(a - b)
        if metrics:
            ratio = diff / np.fmax(scales[name], np.finfo(float).tiny)
        else:
            ratio = diff / max(np.nanmax(scales[name], initial=0.0),
                               np.finfo(float).tiny)
        # NaN on one side only is a deviation; NaN on both sides is a match
        ratio[np.isnan(ratio)] = np.inf
        ratio[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
        worst = max(worst, float(ratio.max(initial=0.0)))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="directory to check")
    parser.add_argument("b", type=Path, help="reference directory")
    parser.add_argument("--rel", type=float, required=True,
                        help="largest relative deviation accepted")
    args = parser.parse_args(argv)

    names_a = {p.name for p in args.a.glob("*.csv")}
    names_b = {p.name for p in args.b.glob("*.csv")}
    ok = names_a == names_b
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {args.a if name in names_a else args.b}")
    for name in sorted(names_a & names_b):
        worst = deviation(args.a / name, args.b / name)
        flag = "" if worst <= args.rel else "  EXCEEDS"
        ok = ok and worst <= args.rel
        print(f"{name}: {worst:.3e}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
