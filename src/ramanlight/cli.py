"""Command-line front end: figure scenarios, scans, pulses and sweeps.

Each run resolves a ScenarioConfig (a preset or the defaults, overlaid by
the keys a config file sets), produces CSV tables (and optional SVG
charts) in the output directory and prints a report whose headline numbers
are all also present in the emitted metrics CSV. Failures print a single
machine-readable JSON error line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import constants as const
from . import pulses, spectra, svgplot, tables
from .atom import PumpModel, validate_system
from .config import PresetError, ScenarioConfig, load_config, preset
from .spectra import (find_imag_peaks, group_index, make_chi_evaluator,
                      make_eit_evaluator, scan_evaluator,
                      transmission_window_fwhm)


@dataclass
class RunReport:
    """What a scenario run produced."""

    scenario: str
    files: list[str]
    headline: dict[str, float]
    wall_time: float


def _symmetric_grid(half: float, points: int) -> np.ndarray:
    """``points`` detunings over [-half, half] with grid = -grid[::-1]
    exactly, as numpy's hermgauss symmetrises its nodes: each point and its
    mirror share one solve, and an odd grid's midpoint is 0.0."""
    grid = np.linspace(-half, half, points)
    return (grid - grid[::-1]) / 2.0


def _scan_grid(config: ScenarioConfig) -> np.ndarray:
    half = config.grid.half_width
    if half is None:
        half = 5.0 * config.drive.delta
    return _symmetric_grid(half, config.grid.points)


def _pulse_half_width(config: ScenarioConfig) -> float:
    # cover the pulse spectral support (1e-6 of peak) with margin
    needed = math.sqrt(2.0 * math.log(1e6)) / config.pulse.sigma / config.scale.gamma3
    return max(1.15 * needed, config.grid.half_width or 0.0)


def _pulse_band_grid(config: ScenarioConfig) -> np.ndarray:
    return _symmetric_grid(_pulse_half_width(config), config.grid.points)


def _raman_evaluator(config: ScenarioConfig, pump: PumpModel):
    """The four-level medium's chi evaluator, Doppler-averaged when enabled."""
    return make_chi_evaluator(config.system, config.drive, pump,
                              doppler=config.doppler, scale=config.scale)


def _write_svg(path: Path, series, **chart) -> Path:
    return tables.atomic_write_text(path, svgplot.render_line_chart(series, **chart))


def _normalised_pulses(curves: list[tuple[str, pulses.Pulse]]) -> list:
    """Chart series of each pulse's intensity, peak 1, against time in us."""
    series = []
    for label, pulse in curves:
        intensity = pulse.intensity()
        series.append((label, pulse.times * 1e6, intensity / intensity.max()))
    return series


def _input_pulse(config: ScenarioConfig) -> tuple[pulses.Pulse, pulses.Pulse]:
    """The configured input pulse and its vacuum reference, which every
    case of a scenario shares."""
    pulse = pulses.synthesize_gaussian(config.pulse.sigma, config.pulse.window,
                                       config.pulse.samples)
    return pulse, pulses.vacuum_reference(pulse, config.scale)


def _pulse_case(config: ScenarioConfig, pulse: pulses.Pulse,
                reference: pulses.Pulse, evaluator):
    """Propagate ``pulse`` through the evaluator's medium.

    Returns the output pulse and the headline numbers, the delay measured
    against the vacuum ``reference``. The group index that predicts the
    delay takes its slope from the evaluator's tangent.
    """
    scale = config.scale
    output = pulses.propagate(pulse, evaluator, scale, _pulse_half_width(config))
    chi0, dchi0 = evaluator.tangent(0.0)
    n_g = group_index(chi0, dchi0.real, scale).n_g
    summary = pulses.metrics(pulse, output, reference)
    numbers = {
        "group_index": n_g,
        "peak_delay_s": summary.peak_delay,
        "predicted_group_delay_s": (n_g - 1.0) * scale.length / const.c,
        "stretch": summary.stretch,
        "transmission": summary.transmission,
    }
    return output, numbers


# ---------------------------------------------------------------------------
# scenario runners

def _run_spectrum_scenario(config: ScenarioConfig, out: Path,
                           svg: bool) -> tuple[list, dict]:
    name = config.scenario
    evaluator = _raman_evaluator(config, config.pump)
    spectrum = scan_evaluator(evaluator, _scan_grid(config))

    files = [tables.write_spectrum_csv(out / f"{name}_spectrum.csv", spectrum)]
    peaks = find_imag_peaks(spectrum)
    strongest = sorted(
        peaks, key=lambda p: -spectrum.chi.imag[np.searchsorted(spectrum.grid, p)])[:2]
    chi0, dchi0 = evaluator.tangent(0.0)
    headline = {
        "center_re_chi_scaled": chi0.real,
        "center_im_chi_scaled": chi0.imag,
        "center_slope_scaled": dchi0.real,
        "group_index_center": group_index(chi0, dchi0.real, config.scale).n_g,
        "imag_peak_count": float(len(peaks)),
    }
    for i, p in enumerate(sorted(strongest)):
        headline[f"imag_peak_{i}_gamma3"] = p
    if svg:
        files.append(_write_svg(
            out / f"{name}_spectrum.svg",
            [("Re chi", spectrum.grid, spectrum.chi.real),
             ("Im chi", spectrum.grid, spectrum.chi.imag)],
            title=f"{name}: scaled susceptibility",
            x_label="two-photon detuning (Gamma3)", y_label="chi (scaled)"))
    return files, headline


def _run_fig4(config: ScenarioConfig, out: Path, svg: bool) -> tuple[list, dict]:
    files = []
    headline = {}
    curves = []
    pulse, reference = _input_pulse(config)
    for tag, label, pump in (("pump_off", "slow", PumpModel.direct(0.0)),
                             ("pump_on", "fast", config.pump)):
        evaluator = _raman_evaluator(config, pump)
        files.append(tables.write_spectrum_csv(
            out / f"fig4_spectrum_{tag}.csv",
            scan_evaluator(evaluator, _pulse_band_grid(config))))
        output, numbers = _pulse_case(config, pulse, reference, evaluator)
        files.append(tables.write_pulse_csv(out / f"fig4_pulse_{label}.csv", output))
        curves.append((label, output))
        for key, value in numbers.items():
            headline[f"{key}_{tag}"] = value
        if tag == "pump_off":
            window_spec = scan_evaluator(evaluator, _symmetric_grid(0.4, 1201))
            headline["transmission_window_rad_per_s"] = \
                transmission_window_fwhm(window_spec, config.scale)
    files.append(tables.write_pulse_csv(out / "fig4_pulse_reference.csv", reference))
    curves.append(("reference", reference))

    if svg:
        files.append(_write_svg(
            out / "fig4_pulses.svg", _normalised_pulses(curves),
            title="fig4: pulse propagation", x_label="time (us)",
            y_label="normalised intensity"))
    return files, headline


def _run_fig5(config: ScenarioConfig, out: Path, svg: bool) -> tuple[list, dict]:
    files = []
    headline = {}
    curves = []
    cases = [
        ("eit_0p5", make_eit_evaluator(config.system, 0.5, config.drive.omega_p)),
        ("eit_1p0", make_eit_evaluator(config.system, 1.0, config.drive.omega_p)),
    ]
    raman = {f"two_coupling_r{pump.rate():g}".replace(".", "p"): pump
             for pump in (PumpModel.direct(0.0), config.pump)}  # one per rate
    cases += [(tag, _raman_evaluator(config, pump)) for tag, pump in raman.items()]
    pulse, reference = _input_pulse(config)
    for tag, evaluator in cases:
        output, numbers = _pulse_case(config, pulse, reference, evaluator)
        files.append(tables.write_pulse_csv(out / f"fig5_pulse_{tag}.csv", output))
        curves.append((tag, output))
        for key in ("group_index", "peak_delay_s", "stretch"):
            headline[f"{key}_{tag}"] = numbers[key]
    files.append(tables.write_pulse_csv(out / "fig5_pulse_reference.csv", reference))
    curves.append(("reference", reference))

    if svg:
        files.append(_write_svg(
            out / "fig5_pulses.svg", _normalised_pulses(curves),
            title="fig5: EIT vs two-coupling slow light",
            x_label="time (us)", y_label="normalised intensity"))
    return files, headline


def _run_pulse_command(config: ScenarioConfig, out: Path,
                       svg: bool) -> tuple[list, dict]:
    evaluator = _raman_evaluator(config, config.pump)
    spectrum = scan_evaluator(evaluator, _pulse_band_grid(config))
    pulse, reference = _input_pulse(config)
    output, numbers = _pulse_case(config, pulse, reference, evaluator)
    files = [
        tables.write_spectrum_csv(out / "pulse_spectrum.csv", spectrum),
        tables.write_pulse_csv(out / "pulse_input.csv", pulse),
        tables.write_pulse_csv(out / "pulse_output.csv", output),
        tables.write_pulse_csv(out / "pulse_reference.csv", reference),
    ]
    if svg:
        files.append(_write_svg(
            out / "pulse.svg",
            [("input", pulse.times * 1e6, pulse.intensity()),
             ("output", output.times * 1e6, output.intensity()),
             ("reference", reference.times * 1e6, reference.intensity())],
            title="pulse propagation", x_label="time (us)", y_label="intensity"))
    return files, numbers


def _zero_crossing(rates: np.ndarray, values: np.ndarray) -> float:
    signs = np.sign(values)
    flips = np.nonzero(np.diff(signs) != 0)[0]
    if flips.size == 0:
        return math.nan
    i = flips[0]
    x0, x1 = rates[i], rates[i + 1]
    y0, y1 = values[i], values[i + 1]
    return float(x0 - y0 * (x1 - x0) / (y1 - y0))


def _run_sweep(config: ScenarioConfig, out: Path, svg: bool,
               stem: str = "sweep", title: str = "group index vs pump rate",
               stationary: bool = False) -> tuple[list, dict]:
    """Group index against pump rate, Doppler-averaged when enabled.

    ``stationary`` sets the stationary curve beside the Doppler-averaged one.
    """
    rates = np.linspace(0.0, 0.5, 15)
    doppler = config.doppler
    if not stationary:
        curves = [("n_g", "", doppler)]
    else:
        curves = [("no Doppler", "_stationary", None)]
        if doppler is not None:
            curves.append((f"Doppler {doppler.temperature:g} K", "_doppler", doppler))
    n_g = [spectra.pump_sweep(config.system, config.drive, rates, config.scale,
                              doppler=curve_doppler,
                              lindblad_form=config.pump.lindblad_form)[:, 1]
           for _, _, curve_doppler in curves]

    files = [tables.write_sweep_csv(out / f"{stem}.csv", rates, *n_g)]
    crossings, at_r0 = {}, {}
    for (_, suffix, _), values in zip(curves, n_g):
        crossings[f"zero_crossing{suffix}_gamma3"] = _zero_crossing(rates, values)
        at_r0[f"group_index{suffix}_r0"] = values[0]
    bound = {"pump_rate_bound_gamma3": config.pump.gamma52}
    headline = ({**bound, **crossings, **at_r0} if stationary
                else {**crossings, **at_r0, **bound})
    if svg:
        files.append(_write_svg(
            out / f"{stem}.svg",
            [(label, rates, values) for (label, _, _), values in zip(curves, n_g)],
            title=title, x_label="pump rate (Gamma3)", y_label="group index",
            vmarkers=[(config.pump.gamma52, "pump-rate bound")]))
    return files, headline


_RUNNERS = {
    "fig2a": _run_spectrum_scenario,
    "fig2c": _run_spectrum_scenario,
    "fig3a": _run_spectrum_scenario,
    "fig3c": _run_spectrum_scenario,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": partial(_run_sweep, stem="fig6_sweep",
                    title="fig6: group index vs pump rate", stationary=True),
    "scan": _run_spectrum_scenario,
    "pulse": _run_pulse_command,
    "sweep": _run_sweep,
}


def run_scenario(config: ScenarioConfig, out_dir: str | Path,
                 svg: bool = False) -> RunReport:
    """Execute one scenario and emit its files plus the metrics CSV."""
    if config.scenario not in _RUNNERS:
        raise PresetError(
            f"unknown scenario {config.scenario!r}; available: "
            + ", ".join(sorted(_RUNNERS)))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    files, headline = _RUNNERS[config.scenario](config, out, svg)
    files.append(tables.write_metrics_csv(
        out / f"{config.scenario}_metrics.csv", headline))
    return RunReport(scenario=config.scenario, files=[str(f) for f in files],
                     headline=headline, wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# argparse front end

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramanlight",
        description="Pump-controlled slow/fast light in a far-detuned "
                    "Raman medium: spectra, pulses and sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="key = value configuration file")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default: ./out)")
        p.add_argument("--svg", action="store_true",
                       help="also render SVG charts")

    common(sub.add_parser("scan", help="susceptibility spectrum over detuning"))
    common(sub.add_parser("pulse", help="Gaussian pulse through the medium"))
    common(sub.add_parser("sweep", help="group index vs pump rate"))
    scenario = sub.add_parser("scenario", help="named figure reproduction")
    scenario.add_argument("name", help="preset name (fig2a ... fig6)")
    common(scenario)
    return parser


def _resolve_config(args) -> ScenarioConfig:
    if args.command == "scenario":
        base = preset(args.name)
    else:
        base = ScenarioConfig(scenario=args.command)
    return load_config(args.config, base) if args.config else base


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        for warning in validate_system(config.system, config.drive, config.pump):
            print(f"warning: {warning}", file=sys.stderr)
        report = run_scenario(config, args.out, svg=args.svg)
    except Exception as exc:  # CLI boundary: one machine-readable line
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    print(f"scenario {report.scenario} finished in {report.wall_time:.1f}s")
    for key, value in report.headline.items():
        print(f"  {key} = {value:.6g}")
    for name in report.files:
        print(f"  wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
