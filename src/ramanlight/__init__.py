"""Pump-controlled slow and fast light in a far-detuned Raman atomic medium.

A four-level Lambda core driven by a beating coupling pair produces two
Raman absorption peaks for a weak probe; an incoherent optical pump flips
them into gain, switching the probe from slow to superluminal propagation.
This package solves the driven master equation for the periodic steady
state, derives susceptibility spectra and group indices (with optional
Doppler averaging), and propagates probe pulses through the medium.
"""

from .atom import (AtomicSystem, DegenerateModelError, DriveConfig,
                   LiouvillianHarmonics, PumpModel, build_hamiltonian_parts,
                   build_liouvillian, pump_rate_from_field, validate_system)
from .floquet import (ConvergenceError, FloquetDensity, SolverError, TimeTrace,
                      choose_truncation, extract_dc_coherences,
                      integrate_to_period_average, solve_converged_batch,
                      solve_floquet)
from .spectra import (BranchCutError, DopplerConfig, GroupIndexResult,
                      PhysicalScale, SusceptibilitySpectrum,
                      dispersion_slope, doppler_average, find_imag_peaks,
                      group_index, group_index_at, make_chi_evaluator,
                      make_eit_evaluator, physical_scale, pump_sweep,
                      scan_evaluator, transmission_window_fwhm)
from .pulses import (BandwidthError, NoPeakError, PropagationMetrics, Pulse,
                     WindowError, metrics, propagate, synthesize_gaussian,
                     vacuum_reference)
from .config import (ScenarioConfig, ConfigError, UnitMismatchError,
                     PresetError, parse_config, preset)
from .cli import RunReport, main, run_scenario

__version__ = "0.1.0"
