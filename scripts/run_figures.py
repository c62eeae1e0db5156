#!/usr/bin/env python3
"""Regenerate every named figure scenario into an output directory.

Usage:
    python scripts/run_figures.py [--out out/figures] [--only fig4 fig6]

Every scenario writes its SVG charts beside its CSV tables.

fig6 velocity-averages a full pump sweep and takes about 1.8 s on a
2-core host, fig4 about 0.5 s and every other preset 0.2-0.3 s, each
with its interpreter start.

Compare two output directories with scripts/compare_outputs.py.
"""

import argparse
import sys
from pathlib import Path

# the package of this checkout, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ramanlight.cli import run_scenario  # noqa: E402
from ramanlight.config import PRESETS, preset  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/figures")
    parser.add_argument("--only", nargs="*", default=sorted(PRESETS))
    args = parser.parse_args(argv)

    for name in args.only:
        print(f"== {name}")
        report = run_scenario(preset(name), args.out, svg=True)
        print(f"   finished in {report.wall_time:.1f}s")
        for key, value in report.headline.items():
            print(f"   {key} = {value:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
