#!/usr/bin/env python3
"""Ten alternating benchmark pairs of two checkouts on one workload.

Usage:
    python scripts/ab_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD

PARENT_DIR and CHANGE_DIR are two checkouts of the repository, each with
its own ``benchmark/run.py``. Each pair runs ``benchmark/run.py --trace 0
--seed 0`` once in each checkout, for the ``run_seconds`` of this
checkout's BENCHMARK.json; the parent runs first in even pairs, the
change first in odd ones, so a drift of the host falls on both sides.
A run whose result is not correct stops the script.

Each run's metrics are printed as it finishes. Then, per end-to-end
metric: the parent's median and quartiles (``statistics.quantiles``, as
benchmark/spread.py reads them), the change's median and its relative
change, the pairs the change won in the metric's ``better`` direction,
and whether the change is worse than the parent by more than the
metric's bound. The last line of standard output is the summary as JSON.
Uses the standard library only.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
PAIRS = 10
SEED = 0


def run_order(pair: int) -> tuple[str, str]:
    """Which checkout runs first in a pair: the parent in even pairs."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def summarize(pairs: list[dict[str, dict[str, float]]], spec: dict) -> dict:
    """Per end-to-end metric of ``spec`` (BENCHMARK.json), the verdict on
    ``pairs``: one {"parent": metrics, "change": metrics} per pair, each
    metrics a {name: value} of one run. Needs at least two pairs."""
    summary = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        q1, median, q3 = statistics.quantiles(parent, n=4)
        changed = statistics.median(change)
        if median:
            relative = (changed - median) / abs(median)
            worse_beyond = (relative if lower else -relative) > metric["bound"]
        else:          # a parent median of 0: any move the wrong way is worse
            relative = None
            worse_beyond = changed > 0 if lower else changed < 0
        won = sum(c < p if lower else c > p for p, c in zip(parent, change))
        summary[name] = {"unit": metric["unit"], "better": metric["better"],
                         "parent_median": median, "parent_q1": q1, "parent_q3": q3,
                         "change_median": changed, "relative": relative,
                         "won": won, "pairs": len(pairs), "bound": metric["bound"],
                         "worse_beyond_bound": worse_beyond}
    return summary


def report_lines(summary: dict) -> list[str]:
    """One readable line per metric of ``summarize``'s result."""
    lines = []
    for name, s in summary.items():
        relative = "n/a" if s["relative"] is None else f"{100 * s['relative']:+.1f} %"
        verdict = "WORSE beyond bound" if s["worse_beyond_bound"] else "within bound"
        lines.append(f"{name:14s} parent {s['parent_median']:.6g} "
                     f"({s['parent_q1']:.6g} to {s['parent_q3']:.6g})  "
                     f"change {s['change_median']:.6g}  {relative}  "
                     f"won {s['won']}/{s['pairs']}  {verdict} ({s['bound']:g}) "
                     f"[{s['unit']}, {s['better']} is better]")
    return lines


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    """One ``benchmark/run.py --trace 0`` run in ``checkout``: its last line."""
    done = subprocess.run(
        [sys.executable, str(checkout / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=10 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "returncode": done.returncode, "stderr": done.stderr[-2000:]}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    dirs = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    workload = argv[2]
    spec = json.loads(SPEC.read_text())
    pairs = []
    for pair in range(PAIRS):
        runs = {}
        for label in run_order(pair):
            result = run_once(dirs[label], workload, spec["run_seconds"])
            if not result.get("correct"):
                print(f"pair {pair} {label}: not correct", file=sys.stderr)
                print(json.dumps({"workload": workload, "correct": False,
                                  "pair": pair, "checkout": label, "result": result}))
                return 1
            runs[label] = {k: entry["value"] for k, entry in result["metrics"].items()}
            print(f"pair {pair} {label}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[label].items()), flush=True)
        pairs.append(runs)
    summary = summarize(pairs, spec)
    print("\n".join(report_lines(summary)))
    print(json.dumps({"workload": workload, "correct": True, "seconds": spec["run_seconds"],
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
