"""ramanlight benchmark: one workload, one seed, one process.

    python3 benchmark/run.py --workload scan_pulse --seed 0 --seconds 30 --trace 0

Run from any directory; the package is imported from ``src/`` next to this
directory, never from an installed copy. The program runs on the calling
thread; BLAS threading stays at the user's default, so it shows in cpu_s.

With ``--trace 0`` the answer is computed repeatedly for ``--seconds`` and
the end-to-end metrics are reported: wall_s and cpu_s (medians per
answer), setup_s (median over fresh interpreters of ``import ramanlight``
plus input resolution), peak_rss_mib and success_rate. With ``--trace 1``
traced and untraced answers alternate, at least two traced and one
untraced (see tracer.py); the per-layer metrics are medians over traced
answers, their counts must repeat exactly, and the traced results must
equal the untraced ones byte for byte. Every exception and every failed
output check counts as a failed attempt.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A run record with the environment
goes to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5


SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import ramanlight
import workloads
workloads.resolve({name!r}, {seed!r})
print(time.perf_counter() - t0)
"""


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _setup_seconds(name: str, seed: int) -> float:
    """One fresh interpreter's import of the package plus input resolution."""
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    done = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


class Answer(NamedTuple):
    wall: float            # s
    cpu: float             # s, user + sys of the process
    fingerprint: object    # outputs to compare, or None
    nonsmooth: int         # NonSmoothPointWarnings seen while traced
    tracer: object         # the Tracer of a traced answer, else None


class Runner:
    """Repeats one workload and keeps score of attempts and failures."""

    def __init__(self, name: str, seed: int, work_dir: Path, compare: bool):
        import ramanlight
        import workloads
        self.package, self.workloads = ramanlight, workloads
        self.name, self.seed, self.work_dir = name, seed, work_dir
        self.compare = compare   # keep each answer's outputs for comparison
        self.inputs = workloads.resolve(name, seed)
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def attempt(self, tracer=None) -> Answer:
        """Compute, time and check one answer."""
        self.attempted += 1
        out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        wall = cpu = float("nan")
        caught = None
        try:
            with warnings.catch_warnings(record=tracer is not None) as caught:
                if tracer is not None:
                    warnings.simplefilter("always")
                    tracer.install(self.package)
                wall0, cpu0 = time.perf_counter(), _cpu_seconds()
                try:
                    result = self.workloads.execute(self.name, self.inputs, out_dir)
                finally:
                    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
                    if tracer is not None:
                        tracer.restore()
            problems = self.workloads.check(self.name, self.seed, result, out_dir)
            if tracer is not None:
                problems += [f"{n} not restored" for n in tracer.not_restored()]
            fingerprint = self._fingerprint(result, out_dir) if self.compare else None
        except Exception:  # every failure is scored, the run goes on
            problems, fingerprint = [traceback.format_exc()], None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += problems
            print(f"attempt {self.attempted} failed:\n" + "\n".join(problems),
                  file=sys.stderr)
        nonsmooth = self.package.spectra.NonSmoothPointWarning
        seen = sum(issubclass(w.category, nonsmooth) for w in caught or ())
        return Answer(wall, cpu, fingerprint, seen, tracer)

    def _fingerprint(self, result, out_dir: Path):
        if self.name == "scan_pulse":
            return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return self.workloads.headline(self.name, result, out_dir)

    def repeat(self, seconds: float, minimum: int = 1,
               tracer_for=lambda i: None) -> list[Answer]:
        """Attempts while the next one is expected to end within ``seconds``.

        At least ``minimum`` attempts run, so a workload slower than
        ``seconds`` still gives answers. Attempt ``i`` is traced by
        ``tracer_for(i)`` unless that is None.
        """
        start = time.perf_counter()
        results = []
        while True:
            results.append(self.attempt(tracer_for(len(results))))
            elapsed = time.perf_counter() - start
            if (len(results) >= minimum
                    and elapsed * (len(results) + 1) / len(results) > seconds):
                return results


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    setup = [_setup_seconds(runner.name, runner.seed) for _ in range(SETUP_REPEATS)]
    results = runner.repeat(seconds)
    return {
        "wall_s": statistics.median(r.wall for r in results),
        "cpu_s": statistics.median(r.cpu for r in results),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (runner.attempted - runner.failed) / runner.attempted,
    }


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list]:
    from tracer import Tracer
    # Traced and untraced answers alternate, traced first, so that host
    # drift enters both alike; at least two traced answers, so that their
    # counts can be compared.
    answers = runner.repeat(seconds, minimum=3,
                            tracer_for=lambda i: Tracer() if i % 2 == 0 else None)
    plain = [r for r in answers if r.tracer is None]
    traced = [r for r in answers if r.tracer is not None]
    reference = plain[0].fingerprint
    if any(r.fingerprint != reference for r in plain + traced):
        runner.failed += 1
        runner.problems.append("traced and untraced outputs differ")
    layers = [r.tracer.layer_metrics(r.nonsmooth) for r in traced]
    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key.endswith(".s") or key.endswith("_s"):
            metrics[key] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[key] = values[0]
        else:
            runner.failed += 1
            runner.problems.append(f"{key} differs between traced answers: {values}")
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                   - statistics.median(r.wall for r in plain))
    spans = [{"answer": i, "spans": r.tracer.spans} for i, r in enumerate(traced)]
    return metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "ramanlight" / "__init__.py").is_file():
        print(f"error: no ramanlight package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import ramanlight
    import workloads
    if Path(ramanlight.__file__).resolve().parent != SRC / "ramanlight":
        print(f"error: imported ramanlight from {ramanlight.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.NAMES), file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    try:
        runner = Runner(args.workload, args.seed, work_dir, compare=bool(args.trace))
        spans = None
        if args.trace:
            metrics, spans = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match {SPEC.name}",
              file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": _environment(args.seed),
        "attempted": runner.attempted, "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "problems": runner.problems,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}_spans.json").write_text(json.dumps(spans) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {runner.attempted}  failed {runner.failed}  "
          f"error_rate {record['error_rate']:g}")
    print("environment " + json.dumps(record["environment"]))
    for key, entry in record["metrics"].items():
        print(f"  {key:34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
