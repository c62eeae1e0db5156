"""Scenario configuration: flat key = value files and named figure presets.

Grammar: ``key = value`` lines grouped under ``[section]`` headers, ``#``
starts a comment anywhere. Every physical key carries its unit as a name
suffix (``omega_c_gamma3``, ``length_m``); keys without their suffix and
unknown keys are hard errors with the offending line number. A file is
overlaid on a base config key by key: what it leaves out keeps the base's
value. With the default base an empty file reproduces the slow-light pulse
operating point (the defaults of every section).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .atom import AtomicSystem, DriveConfig, PumpModel
from .spectra import (DopplerConfig, GAMMA3_RB87_D1, WAVELENGTH_RB87_D1)


class ConfigError(ValueError):
    """Malformed configuration text."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnitMismatchError(ConfigError):
    """Physical key missing or carrying the wrong unit suffix."""


class PresetError(LookupError):
    """Unknown scenario preset name."""


@dataclass(frozen=True)
class PulseSettings:
    sigma: float = 1e-6       # s, field-envelope standard deviation
    window: float = 32e-6     # s
    samples: int = 2 ** 14


@dataclass(frozen=True)
class GridSettings:
    points: int = 2001
    half_width: float | None = None   # gamma3 units; None = 5 * delta


@dataclass(frozen=True)
class ScaleSettings:
    density: float = 5e17         # atoms / m^3
    length: float = 1e-3          # m
    wavelength: float = WAVELENGTH_RB87_D1
    gamma3: float = GAMMA3_RB87_D1


@dataclass(frozen=True)
class ScenarioConfig:
    system: AtomicSystem = field(default_factory=AtomicSystem)
    drive: DriveConfig = field(default_factory=DriveConfig)
    pump: PumpModel = field(default_factory=PumpModel)
    scale: ScaleSettings = field(default_factory=ScaleSettings)
    doppler: DopplerConfig = field(default_factory=DopplerConfig)
    doppler_enabled: bool = False
    pulse: PulseSettings = field(default_factory=PulseSettings)
    grid: GridSettings = field(default_factory=GridSettings)
    scenario: str | None = None


_UNIT_SUFFIXES = ("_gamma3", "_rad_per_s", "_per_m3", "_kg", "_m", "_s", "_k")


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_signs(text: str) -> tuple[int, int, int, int]:
    tokens = [t for t in text.replace(",", " ").split() if t]
    mapping = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}
    try:
        signs = tuple(mapping[t] for t in tokens)
    except KeyError as exc:
        raise ValueError(f"bad dipole sign token {exc.args[0]!r}") from exc
    if len(signs) != 4:
        raise ValueError("dipole_signs needs exactly four entries")
    return signs


def _parse_pump_mode(text: str) -> str:
    normalized = text.strip().lower().replace("_", "-")
    if normalized not in ("direct-rate", "five-level-field"):
        raise ValueError(f"unknown pump mode {text!r}")
    return normalized


# section -> key -> (target field, parser); key names carry explicit units.
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "system": {
        "gamma31_gamma3": ("gamma31", float),
        "gamma32_gamma3": ("gamma32", float),
        "gamma41_gamma3": ("gamma41", float),
        "gamma42_gamma3": ("gamma42", float),
        "gamma2_deph_gamma3": ("gamma2_deph", float),
        "gamma3_deph_gamma3": ("gamma3_deph", float),
        "gamma4_deph_gamma3": ("gamma4_deph", float),
        "omega43_gamma3": ("omega43", float),
        "dipole_signs": ("dipole_signs", _parse_signs),
    },
    "drive": {
        "omega_c_gamma3": ("omega_c", float),
        "omega_p_gamma3": ("omega_p", float),
        "delta_gamma3": ("delta", float),
        "delta_c_gamma3": ("delta_c", float),
        "delta_p_gamma3": ("delta_p", float),
    },
    "pump": {
        "mode": ("mode", _parse_pump_mode),
        "pump_rate_gamma3": ("pump_rate", float),
        "omega_op_gamma3": ("omega_op", float),
        "delta_op_gamma3": ("delta_op", float),
        "gamma51_gamma3": ("gamma51", float),
        "gamma52_gamma3": ("gamma52", float),
        "gamma5_deph_gamma3": ("gamma5_deph", float),
        "lindblad_form": ("lindblad_form", _parse_bool),
    },
    "scale": {
        "density_per_m3": ("density", float),
        "length_m": ("length", float),
        "wavelength_m": ("wavelength", float),
        "gamma3_rad_per_s": ("gamma3", float),
    },
    "doppler": {
        "enabled": ("enabled", _parse_bool),   # ScenarioConfig.doppler_enabled
        "temperature_k": ("temperature", float),
        "mass_kg": ("mass", float),
        "nodes": ("nodes", int),
    },
    "pulse": {
        "sigma_s": ("sigma", float),
        "window_s": ("window", float),
        "samples": ("samples", int),
    },
    "grid": {
        "points": ("points", int),
        "half_width_gamma3": ("half_width", float),
    },
}


def _strip_unit(key: str) -> str:
    for suffix in _UNIT_SUFFIXES:
        if key.endswith(suffix):
            return key[: -len(suffix)]
    return key


def _diagnose_key(section: str, key: str, line: int) -> ConfigError:
    table = _SCHEMA[section]
    base = _strip_unit(key)
    for known in table:
        if base == _strip_unit(known) and key != known:
            return UnitMismatchError(
                line, f"key '{key}' in [{section}] must carry its unit "
                      f"in the name: expected '{known}'")
    return ConfigError(line, f"unknown key '{key}' in section [{section}]")


def parse_config(text: str,
                 base: ScenarioConfig = ScenarioConfig()) -> ScenarioConfig:
    """Overlay the keys the configuration text sets onto ``base``.

    The Doppler shift scale follows the resulting [scale] line data.
    """
    values: dict[str, dict[str, object]] = {name: {} for name in _SCHEMA}
    section: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                raise ConfigError(line_no, f"unknown section [{name}]")
            section = name
            continue
        if "=" not in line:
            raise ConfigError(line_no, f"expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(line_no, "key outside any [section]")
        key, _, value_text = line.partition("=")
        key = key.strip().lower()
        value_text = value_text.strip()
        if not value_text:
            raise ConfigError(line_no, f"missing value for key '{key}'")
        table = _SCHEMA[section]
        if key not in table:
            raise _diagnose_key(section, key, line_no)
        target, parser = table[key]
        try:
            parsed = parser(value_text)
        except ValueError as exc:
            raise ConfigError(line_no, f"bad value for '{key}': {exc}") from exc
        values[section][target] = parsed

    doppler_enabled = values["doppler"].pop("enabled", base.doppler_enabled)
    groups = {name: replace(getattr(base, name), **values[name])
              for name in ("system", "drive", "pump", "scale", "pulse", "grid")}
    scale = groups["scale"]
    doppler = replace(base.doppler, **values["doppler"], gamma3=scale.gamma3,
                      wavevector=2.0 * math.pi / scale.wavelength)
    return replace(base, **groups, doppler=doppler,
                   doppler_enabled=doppler_enabled)


def load_config(path, base: ScenarioConfig = ScenarioConfig()) -> ScenarioConfig:
    """Overlay the configuration file at ``path`` onto ``base``."""
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read(), base)


# ---------------------------------------------------------------------------
# named presets (parameters quoted from the reference operating points)

def _two_coupling(omega_c: float, delta: float, rate: float,
                  **kwargs) -> ScenarioConfig:
    system = AtomicSystem()
    drive = DriveConfig(omega_c=omega_c, delta=delta,
                        delta_c=system.omega43 / 2.0,
                        delta_p=system.omega43 / 2.0)
    return ScenarioConfig(system=system, drive=drive,
                          pump=PumpModel.direct(rate), **kwargs)


PRESET_BUILDERS = {
    "fig2a": lambda: _two_coupling(20.0, 0.1, 0.0, scenario="fig2a"),
    "fig2c": lambda: _two_coupling(30.0, 0.2, 0.0, scenario="fig2c"),
    "fig3a": lambda: _two_coupling(30.0, 0.2, 0.06, scenario="fig3a"),
    "fig3c": lambda: _two_coupling(30.0, 0.2, 0.4, scenario="fig3c"),
    "fig4": lambda: _two_coupling(30.0, 0.2, 0.4, scenario="fig4"),
    "fig5": lambda: _two_coupling(55.0, 0.2, 0.17, scenario="fig5"),
    "fig6": lambda: _two_coupling(30.0, 0.2, 0.0, scenario="fig6",
                                  doppler_enabled=True),
}


def preset(name: str) -> ScenarioConfig:
    try:
        builder = PRESET_BUILDERS[name]
    except KeyError:
        raise PresetError(
            f"unknown scenario {name!r}; available: "
            + ", ".join(sorted(PRESET_BUILDERS))) from None
    return builder()
