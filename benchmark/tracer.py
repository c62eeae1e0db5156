"""Span tracing of ramanlight from outside the package.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper that records a span (name, start, end, parent) and updates the
counters the per-layer metrics need. A function is replaced under every
name the package's modules bind it to, because callers look names up in
their own module: ``spectra`` imports ``solve_floquet`` by name, while
``floquet.choose_truncation`` calls the ``floquet`` global. ``restore``
puts every original object back. Spans stay in memory until the caller
writes them out.

The tracer keeps one stack of open spans, so the traced code must run on
one thread (``threads=1``, the package default).
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
from collections import Counter

# home module -> public functions wrapped there and wherever they are bound
TARGETS = {
    "atom": ("build_liouvillian",),
    "floquet": ("solve_floquet", "choose_truncation", "harmonic_tail_ok"),
    "spectra": ("make_chi_evaluator", "scan_evaluator", "dispersion_slope",
                "group_index", "group_index_at", "doppler_average",
                "pump_sweep", "find_imag_peaks", "transmission_window_fwhm"),
    "pulses": ("synthesize_gaussian", "vacuum_reference", "propagate",
               "metrics"),
    "tables": ("write_spectrum_csv", "write_pulse_csv", "write_sweep_csv",
               "write_metrics_csv", "atomic_write_text"),
    "svgplot": ("render_line_chart",),
    "cli": ("run_scenario",),
}

COMPLEX_BYTES = 16


class Tracer:
    """Records spans and counters while installed on a package."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self.orders: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span per call.

        ``before(args, kwargs)`` may return replaced arguments;
        ``after(args, kwargs, result)`` may return a replaced result.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target under each name bound to it in the package."""
        modules = [package] + [getattr(package, m) for m in TARGETS]
        for home_name, functions in TARGETS.items():
            home = getattr(package, home_name)
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrapper_for(f"{home_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped name back to its original object."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)

    def not_restored(self) -> list[str]:
        """Names still bound to something other than their original."""
        return [f"{module.__name__}.{attr}"
                for module, attr, original in self._patched
                if getattr(module, attr) is not original]

    def _wrapper_for(self, name: str, fn):
        counters = self.counters
        before = after = None
        if name == "floquet.solve_floquet":
            signature = inspect.signature(fn)

            def after(args, kwargs, result):
                bound = signature.bind(*args, **kwargs).arguments
                order, dim2 = bound["order"], bound["liouv"].dim ** 2
                size = (2 * order + 1) * dim2
                half = 2 * dim2 - 1   # block bandwidth of the balance matrix
                counters["floquet.solve.unknowns"] += size
                # gbsv storage, 2*kl + ku + 1 rows of complex128, is freed
                # after each solve: keep the largest
                counters["floquet.solve.band_bytes"] = max(
                    counters["floquet.solve.band_bytes"],
                    (3 * half + 1) * size * COMPLEX_BYTES)
                self.orders.append(order)
                return result
        elif name == "floquet.harmonic_tail_ok":
            def after(args, kwargs, result):
                counters["floquet.tail_accepted"] += bool(result)
                return result
        elif name == "spectra.make_chi_evaluator":
            def after(args, kwargs, result):
                return self.wrap("spectra.chi_eval", result)
        elif name == "spectra.doppler_average":
            def before(args, kwargs):
                return (self.wrap("spectra.velocity_class", args[0]),
                        *args[1:]), kwargs
        elif name == "pulses.propagate":
            def after(args, kwargs, result):
                counters["pulses.samples"] += args[0].times.size
                return result
        elif name.startswith("tables."):
            def after(args, kwargs, result):
                counters["tables.bytes"] += os.path.getsize(result)
                return result
        elif name == "svgplot.render_line_chart":
            def after(args, kwargs, result):
                counters["svgplot.bytes"] += len(result.encode("utf-8"))
                return result
        return self.wrap(name, fn, before=before, after=after)

    # -- derived metrics -------------------------------------------------------

    def layer_metrics(self, warnings_seen: int) -> dict[str, float]:
        """Per-layer counts and times of everything recorded so far."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_time: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            self_time[name.split(".")[0]] += end - start - covered

        solves = calls["floquet.solve_floquet"]
        c = self.counters
        return {
            "atom.build_liouvillian.calls": calls["atom.build_liouvillian"],
            "atom.build_liouvillian.s": busy["atom.build_liouvillian"],
            "floquet.solve.calls": solves,
            "floquet.solve.s": busy["floquet.solve_floquet"],
            "floquet.solve.unknowns": c["floquet.solve.unknowns"],
            "floquet.solve.band_bytes": c["floquet.solve.band_bytes"],
            "floquet.order_max": max(self.orders, default=0),
            "floquet.order_mean": statistics.fmean(self.orders) if self.orders else 0.0,
            "floquet.accept_ratio": c["floquet.tail_accepted"] / solves if solves else 0.0,
            "floquet.choose_truncation.calls": calls["floquet.choose_truncation"],
            "floquet.choose_truncation.s": busy["floquet.choose_truncation"],
            "spectra.chi_evals": calls["spectra.chi_eval"],
            "spectra.self_s": self_time["spectra"],
            "spectra.velocity_classes": calls["spectra.velocity_class"],
            "spectra.doppler_average.s": busy["spectra.doppler_average"],
            "spectra.make_chi_evaluator.s": busy["spectra.make_chi_evaluator"],
            "spectra.dispersion_slope.s": busy["spectra.dispersion_slope"],
            "spectra.warnings": warnings_seen,
            "pulses.propagate.calls": calls["pulses.propagate"],
            "pulses.propagate.s": busy["pulses.propagate"],
            "pulses.samples": c["pulses.samples"],
            "tables.write.s": sum(v for k, v in busy.items() if k.startswith("tables.")),
            "tables.bytes": c["tables.bytes"],
            "svgplot.render.s": busy["svgplot.render_line_chart"],
            "svgplot.bytes": c["svgplot.bytes"],
            "cli.run_scenario.s": busy["cli.run_scenario"],
            "cli.self_s": self_time["cli"],
        }
