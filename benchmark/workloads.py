"""The benchmark's workloads: inputs from a seed, the timed call, the checks.

Each workload drives ramanlight only through its public API. This module
imports nothing beyond ramanlight and numpy, so a fresh interpreter that
imports it and calls ``resolve`` measures the package's own set-up cost.

- ``scan_pulse``: ``run_scenario`` on the fig4 preset with SVG output.
  Many cheap low-order stationary solves, two 2^14-sample propagations and
  the only real CSV/SVG writes. The preset hard-codes its pump rates, so
  the seed does not change this workload.
- ``doppler_ng``: ``group_index_at`` at the fig6 drive with fig6's Doppler
  average, the unit of work of the fig6 preset. Few, very high-order
  solves. The seed draws the pump rate from [0, 0.4].
- ``pump_sweep``: stationary ``pump_sweep`` at the fig6 drive over 15 pump
  rates. A new evaluator and its truncation ladder per rate, five points
  each. The seed draws the rates from [0, 0.5].
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import ramanlight

NAMES = ("scan_pulse", "doppler_ng", "pump_sweep")
DEFAULT_SEED = 0
REL_TOL = 1e-7          # per-point agreement the solver must keep
REFERENCE = Path(__file__).with_name("reference.json")


def _fig6_scale(config):
    s = config.scale
    return ramanlight.physical_scale(s.density, length=s.length,
                                     gamma3=s.gamma3, wavelength=s.wavelength)


def resolve(name: str, seed: int) -> dict:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if name == "scan_pulse":
        return {"config": ramanlight.preset("fig4")}
    config = ramanlight.preset("fig6")
    inputs = {"system": config.system, "drive": config.drive,
              "scale": _fig6_scale(config)}
    if name == "doppler_ng":
        rate = 0.0 if seed == DEFAULT_SEED else float(rng.uniform(0.0, 0.4))
        inputs.update(pump=ramanlight.PumpModel.direct(rate),
                      doppler=config.doppler)
        return inputs
    if name == "pump_sweep":
        inputs["rates"] = (np.linspace(0.0, 0.5, 15) if seed == DEFAULT_SEED
                           else np.sort(rng.uniform(0.0, 0.5, 15)))
        return inputs
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def execute(name: str, inputs: dict, out_dir: Path):
    """The timed call: one answer of the workload."""
    if name == "scan_pulse":
        return ramanlight.run_scenario(inputs["config"], out_dir, svg=True)
    if name == "doppler_ng":
        return ramanlight.group_index_at(
            inputs["system"], inputs["drive"], inputs["pump"], inputs["scale"],
            doppler=inputs["doppler"]).n_g
    return ramanlight.pump_sweep(inputs["system"], inputs["drive"],
                                 inputs["rates"], inputs["scale"])[:, 1]


def _center_chi(csv_path: Path) -> complex:
    _, (grid, re_chi, im_chi) = ramanlight.tables.read_table(csv_path)
    middle = grid.size // 2
    if grid[middle] != 0.0:
        raise ValueError(f"{csv_path.name}: grid midpoint is {grid[middle]!r}, not 0")
    return complex(re_chi[middle], im_chi[middle])


def headline(name: str, result, out_dir: Path) -> dict[str, float]:
    """The numbers the checks compare, by name."""
    if name == "scan_pulse":
        numbers = {key: float(value) for key, value in result.headline.items()}
        for tag in ("pump_off", "pump_on"):
            chi = _center_chi(out_dir / f"fig4_spectrum_{tag}.csv")
            numbers[f"center_re_chi_scaled_{tag}"] = chi.real
            numbers[f"center_im_chi_scaled_{tag}"] = chi.imag
        return numbers
    if name == "doppler_ng":
        return {"group_index": float(result)}
    return {f"group_index_{i}": float(v) for i, v in enumerate(result)}


def check(name: str, seed: int, result, out_dir: Path) -> list[str]:
    """Problems with one answer; an empty list means it is correct.

    scan_pulse and pump_sweep at the default seed are pinned to the stored
    reference to REL_TOL, with an absolute floor for values that are zero
    by symmetry. doppler_ng is only checked for finiteness: its value is a
    velocity-quadrature artefact that a correctness change must be free
    to move.
    """
    numbers = headline(name, result, out_dir)
    problems = [f"{key} = {value!r} is not finite"
                for key, value in numbers.items() if not math.isfinite(value)]
    if name == "scan_pulse":
        for path in result.files:
            if Path(path).stat().st_size == 0:
                problems.append(f"{path} is empty")
    pinned = name == "scan_pulse" or (name == "pump_sweep" and seed == DEFAULT_SEED)
    if pinned:
        reference = json.loads(REFERENCE.read_text())[name]
        floor = reference["abs_floor"]
        expected = reference["values"]
        if set(numbers) != set(expected):
            problems.append(f"reported {sorted(numbers)}, expected {sorted(expected)}")
        for key in sorted(set(numbers) & set(expected)):
            got, want = numbers[key], expected[key]
            if abs(got - want) > REL_TOL * abs(want) + floor.get(key, 0.0):
                problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems
