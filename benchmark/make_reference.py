"""Regenerate reference.json, the values the benchmark's output checks pin.

Run from the repository root:  python3 benchmark/make_reference.py

Only a change that is meant to move the physics outputs regenerates the
file, and says so. The absolute floor of a value that is zero by symmetry
is REL_TOL times the largest |chi| of its spectrum.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import ramanlight  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    seed = workloads.DEFAULT_SEED
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp)
        report = workloads.execute("scan_pulse", workloads.resolve("scan_pulse", seed), out)
        floor = {}
        for tag in ("pump_off", "pump_on"):
            _, (_, re_chi, im_chi) = ramanlight.tables.read_table(
                out / f"fig4_spectrum_{tag}.csv")
            floor[f"center_re_chi_scaled_{tag}"] = \
                workloads.REL_TOL * float(np.max(np.abs(re_chi + 1j * im_chi)))
        reference["scan_pulse"] = {
            "values": workloads.headline("scan_pulse", report, out),
            "abs_floor": floor}
    sweep = workloads.execute("pump_sweep", workloads.resolve("pump_sweep", seed), HERE)
    reference["pump_sweep"] = {
        "values": workloads.headline("pump_sweep", sweep, HERE), "abs_floor": {}}
    workloads.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
