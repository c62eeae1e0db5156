"""Run the benchmark once per seed and report each metric's median and spread.

    python3 benchmark/spread.py --workload doppler_ng --seeds 1 2 3 4 5 --seconds 30

Spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median. A run
that is not correct stops the script. The summary goes to standard output
as JSON, for the trajectory in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(done.stderr, file=sys.stderr)
            return 1
        for key, entry in result["metrics"].items():
            values.setdefault(key, []).append(entry["value"])
            units[key] = entry["unit"]
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              file=sys.stderr)

    summary = {}
    for key, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        summary[key] = {"unit": units[key], "median": median, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / median if median else None,
                        "values": series}
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": args.seconds, "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
