#!/usr/bin/env python3
"""Regenerate every named figure scenario, and the scan, pulse and sweep
commands with their defaults, into one output directory.

Usage:
    python scripts/run_figures.py [--out out/figures] [--only fig4 scan]

Every scenario writes its SVG charts beside its CSV tables. No two
scenarios share a file name, so the directory is flat, and one run per
commit with ``diff -r`` between the two directories shows whether a
change moved any output byte.

fig6 velocity-averages a full pump sweep and takes about 1.3 s on a
shared 2-core host, fig4 about 0.65 s and every other scenario 0.3-0.7 s,
each with its interpreter start.

Compare two output directories with scripts/compare_outputs.py.
"""

import argparse
import sys
from pathlib import Path

# the package of this checkout, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ramanlight.cli import run_scenario  # noqa: E402
from ramanlight.config import PRESETS, ScenarioConfig, preset  # noqa: E402

SCENARIOS = sorted(PRESETS) + ["pulse", "scan", "sweep"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/figures")
    parser.add_argument("--only", nargs="*", default=SCENARIOS)
    args = parser.parse_args(argv)

    for name in args.only:
        print(f"== {name}")
        config = preset(name) if name in PRESETS else ScenarioConfig(scenario=name)
        report = run_scenario(config, args.out, svg=True)
        print(f"   finished in {report.wall_time:.1f}s")
        for key, value in report.headline.items():
            print(f"   {key} = {value:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
