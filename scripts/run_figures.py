#!/usr/bin/env python3
"""Regenerate every named figure scenario into an output directory.

Usage:
    python scripts/run_figures.py [--out out/figures] [--only fig4 fig6]

Every scenario writes its SVG charts beside its CSV tables.

fig6 velocity-averages a full pump sweep and takes about 20 s
(19-20 s on a 2-core host); every other preset finishes in 1-5 s.

Compare two output directories with scripts/compare_outputs.py.
"""

import argparse
import sys

from ramanlight.cli import run_scenario
from ramanlight.config import PRESET_BUILDERS, preset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/figures")
    parser.add_argument("--only", nargs="*", default=sorted(PRESET_BUILDERS))
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
