"""Probe susceptibility spectra, dispersion, group index and sweeps.

The solver works in gamma3 units; everything here that touches SI carries
an explicit PhysicalScale. The scaled susceptibility chi_s is the
dimensionless combination rho31/omega_p3 + rho41/omega_p4 of the static
optical coherences; the physical susceptibility is (k / gamma3) * chi_s
with k = density * |mu31|^2 / (eps0 * hbar).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.constants as const
from scipy.interpolate import CubicSpline

from .atom import (AtomicSystem, DriveConfig, PumpModel, build_liouvillian,
                   detuning_generators, dissipator_superop,
                   hamiltonian_superop, ketbra)
from .floquet import (MAX_ORDER, solve_converged_batch,
                      steady_state_static_batch, steady_state_static_tangent)

GAMMA3_RB87_D1 = 2.0 * math.pi * 5.75e6      # rad/s, natural linewidth of the line
WAVELENGTH_RB87_D1 = 794.98e-9               # m
MASS_RB87 = 86.909180531 * const.atomic_mass  # kg
HERMITE_MAX_NODES = 370   # numpy's hermgauss weights underflow or overflow above
DOPPLER_ORDER_CAP = 600   # truncation cap of a Doppler-shifted velocity class


class BranchCutError(ValueError):
    """1 + Re(chi) <= 0: the refractive index leaves the real branch."""


class QuadratureError(RuntimeError):
    """Velocity quadrature did not converge under node refinement."""


class ScanError(RuntimeError):
    """One or more grid points of a spectrum scan failed."""

    def __init__(self, failures: list[tuple[float, Exception]]):
        self.failures = failures
        points = ", ".join(f"{p:g} ({type(e).__name__}: {e})" for p, e in failures[:3])
        more = "" if len(failures) <= 3 else f" and {len(failures) - 3} more"
        super().__init__(f"scan failed at grid point(s) {points}{more}")


class NonSmoothPointWarning(UserWarning):
    """Finite-difference slope failed its step-halving consistency check."""


@dataclass(frozen=True)
class PhysicalScale:
    """SI anchors converting the scaled susceptibility to physics.

    ``k`` is derived from the stored density and dipole and validated
    against its defining formula on construction.
    """

    density: float        # atoms / m^3
    dipole_sq: float      # |mu31|^2, C^2 m^2
    gamma3: float         # rad/s
    wavelength: float     # m
    length: float         # m
    k: float              # rad/s, density * dipole_sq / (eps0 hbar)

    def __post_init__(self):
        if self.density < 0 or self.dipole_sq <= 0 or self.gamma3 <= 0 \
                or self.wavelength <= 0 or self.length <= 0:
            raise ValueError("physical scale entries must be positive")
        expected = self.density * self.dipole_sq / (const.epsilon_0 * const.hbar)
        if abs(self.k - expected) > 1e-12 * max(abs(expected), 1.0):
            raise ValueError("k inconsistent with density * |mu31|^2 / (eps0 hbar)")

    @property
    def probe_omega(self) -> float:
        """Probe carrier angular frequency, rad/s."""
        return 2.0 * math.pi * const.c / self.wavelength

    def chi_from_scaled(self, chi_s: complex) -> complex:
        """Physical susceptibility from the gamma3-unit scaled value."""
        return (self.k / self.gamma3) * chi_s


def physical_scale(density: float, length: float = 1e-3,
                   gamma3: float = GAMMA3_RB87_D1,
                   wavelength: float = WAVELENGTH_RB87_D1,
                   branch_fraction: float = 0.25) -> PhysicalScale:
    """Build the SI scale from line data.

    The probe-transition dipole follows from the spontaneous-emission
    relation gamma = omega^3 |mu|^2 / (3 pi eps0 hbar c^3) applied to the
    branch rate ``branch_fraction * gamma3``. The default quarter shares
    the line strength equally among the four Lambda transitions of the
    symmetric dipole pattern, which reproduces the reference group-index
    values of this scheme; use 0.5 to assign each excited level's full
    decay branch to a single dipole instead.
    """
    omega = 2.0 * math.pi * const.c / wavelength
    dipole_sq = (3.0 * math.pi * const.epsilon_0 * const.hbar * const.c ** 3
                 * branch_fraction * gamma3 / omega ** 3)
    k = density * dipole_sq / (const.epsilon_0 * const.hbar)
    return PhysicalScale(density=density, dipole_sq=dipole_sq, gamma3=gamma3,
                         wavelength=wavelength, length=length, k=k)


@dataclass(frozen=True)
class DopplerConfig:
    """One-dimensional Maxwell velocity averaging for a warm vapour.

    Every beam propagates along the same axis with (approximately) equal
    wavelengths, so a moving atom sees all one-photon detunings shifted by
    the same -k v while two-photon detunings are untouched. ``gamma3``
    converts the shift to simulation units.
    """

    temperature: float = 320.0
    mass: float = MASS_RB87
    wavevector: float = 2.0 * math.pi / WAVELENGTH_RB87_D1
    nodes: int = 64
    gamma3: float = GAMMA3_RB87_D1

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 8 <= self.nodes <= HERMITE_MAX_NODES:
            raise ValueError(
                f"need between 8 and {HERMITE_MAX_NODES} quadrature nodes")

    @property
    def shift_sigma(self) -> float:
        """Standard deviation of the one-photon shift, gamma3 units."""
        v_sigma = math.sqrt(const.k * self.temperature / self.mass)
        return self.wavevector * v_sigma / self.gamma3


@dataclass
class SusceptibilitySpectrum:
    """Scaled susceptibility sampled on a two-photon-detuning grid."""

    grid: np.ndarray            # gamma3 units, strictly increasing
    chi: np.ndarray             # complex chi_s at each grid point

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.chi = np.asarray(self.chi, dtype=complex)
        if self.grid.ndim != 1 or self.grid.size == 0 or self.grid.size != self.chi.size:
            raise ValueError("grid and chi must be matching non-empty 1-d arrays")
        if self.grid.size > 1 and np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(self.chi)):
            raise ValueError("chi contains non-finite values")

    def interpolator(self) -> Callable[[np.ndarray], np.ndarray]:
        """Cubic interpolant of chi_s over the grid."""
        if self.grid.size < 4:
            raise ValueError("need at least 4 grid points to interpolate")
        return CubicSpline(self.grid, self.chi)


@dataclass(frozen=True)
class GroupIndexResult:
    """Refractive and group index of the probe at one operating point."""

    n: float                 # real refractive index
    dre_chi_domega: float    # d Re(chi) / d omega, 1/(rad/s)
    n_g: float               # group index c / v_g
    v_g: float               # m/s (signed)


@dataclass(frozen=True)
class ThreeLevelConfig:
    """Reference Lambda system: one resonant coupling, no excited doublet."""

    omega_c: float
    omega_p: float = 0.01
    delta_c: float = 0.0
    gamma31: float = 0.5
    gamma32: float = 0.5
    gamma2_deph: float = 0.01
    gamma3_deph: float = 0.0

    def __post_init__(self):
        if self.omega_c < 0 or self.omega_p <= 0:
            raise ValueError("omega_c must be >= 0 and omega_p positive")


# ---------------------------------------------------------------------------
# point evaluation

def _point_values(points: np.ndarray, values: np.ndarray,
                  errors: dict[int, Exception]):
    """An evaluator's answer at a scalar or an array of detunings.

    ``values`` and ``errors`` (by flat index) cover ``points.ravel()``. A
    failing scalar raises its own error; failing array points raise one
    ScanError naming each of them.
    """
    if errors:
        if points.ndim == 0:
            raise errors[min(errors)]
        flat = points.reshape(-1)
        raise ScanError([(float(flat[i]), errors[i]) for i in sorted(errors)])
    if points.ndim == 0:
        return complex(values[0])
    return values.reshape(points.shape)


def _resonant_order_guess(system: AtomicSystem, drive: DriveConfig,
                          base: int) -> int:
    """Seed truncation order for a velocity class.

    Classes whose shifted coupling detuning (from either excited level)
    comes within reach of the coupling Rabi frequency nutate at up to twice
    omega_c, so the harmonic content extends to roughly 2 omega_c / delta;
    far-detuned classes start at the stationary base order.
    """
    detuning = min(abs(drive.delta_c), abs(drive.delta_c - system.omega43))
    if detuning > 1.3 * drive.omega_c + 10.0:
        return base
    return max(base, math.ceil((2.4 * drive.omega_c + 12.0) / drive.delta) + 8)


def make_chi_evaluator(system: AtomicSystem, drive: DriveConfig,
                       pump: PumpModel, doppler: DopplerConfig | None = None
                       ) -> Callable:
    """Scaled susceptibility as a function of two-photon detuning.

    The evaluator takes a scalar detuning (and returns a complex) or an
    array (and returns a complex array of its shape), solved as one batch.
    A failing scalar raises its solver error; failing array points raise a
    ScanError naming each failing detuning. Its attribute ``tangent`` takes
    the same input and returns (chi, d chi / d(detuning)) from the same
    batch: the exact derivative of the truncated system at each point's
    accepted order, by one tangent pass of the continued fraction.

    The generator is affine in the two-photon detuning and the Doppler
    shift, so it is assembled once. Every solve runs the
    ``solve_converged`` ladder. Stationary points start at the highest
    order it settles at over the scan centre and the two Raman resonances,
    so evaluations are independent and deterministic. With a DopplerConfig
    the evaluator velocity-averages chi (and its derivative, on the same
    nodes); velocity classes start at ``_resonant_order_guess`` and may
    climb to DOPPLER_ORDER_CAP.
    """
    if drive.omega_p == 0:
        raise ValueError("probe must be on: chi is defined relative to omega_p")
    liouv = build_liouvillian(system, drive.at_two_photon_detuning(0.0), pump)
    per_d2, per_shift = detuning_generators()
    s31, s41 = system.dipole_signs[0], system.dipole_signs[1]

    def solve(d2: np.ndarray, shift: np.ndarray, orders, caps, with_tangent: bool):
        """chi at each (d2, shift) pair, with ``with_tangent`` stacked on its
        d2 derivative (NaN where failing), the accepted orders and the errors."""
        values = np.full((1 + with_tangent, d2.size), np.nan, dtype=complex)
        accepted = np.zeros(d2.size, dtype=int)

        def accept(members, order, *found):
            for row, harmonics in zip(values, found):
                rho0 = harmonics[:, order]
                row[members] = (rho0[:, 2, 0] / (s31 * drive.omega_p)
                                + rho0[:, 3, 0] / (s41 * drive.omega_p))
            accepted[members] = order

        errors = solve_converged_batch(
            lambda m: (liouv.l0 + d2[m, None, None] * per_d2
                       + shift[m, None, None] * per_shift),
            liouv.l_plus, liouv.l_minus, drive.delta, orders, caps, accept,
            per_d2 if with_tangent else None)
        return values, accepted, errors

    anchors = np.array([0.0, drive.delta, -drive.delta])
    _, orders, errors = solve(anchors, np.zeros(3), np.ones(3, dtype=int),
                              np.full(3, MAX_ORDER), False)
    if errors:
        raise errors[min(errors)]
    base = int(orders.max())

    def stationary(flat: np.ndarray, with_tangent: bool):
        values, _, errors = solve(flat, np.zeros(flat.size), np.full(flat.size, base),
                                  np.full(flat.size, MAX_ORDER), with_tangent)
        return values, errors

    def averaged(flat: np.ndarray, with_tangent: bool):
        point_errors: dict[int, Exception] = {}

        def at_shifts(shifts: np.ndarray) -> np.ndarray:
            seeds = [_resonant_order_guess(system, drive.doppler_shifted(s), base)
                     if s else base for s in shifts]
            caps = [DOPPLER_ORDER_CAP if s else MAX_ORDER for s in shifts]
            d2s, ss = np.broadcast_arrays(flat[:, None], shifts[None, :])
            values, _, errors = solve(d2s.ravel(), ss.ravel(), np.tile(seeds, flat.size),
                                      np.tile(caps, flat.size), with_tangent)
            for i in sorted(errors):
                point_errors.setdefault(i // shifts.size, errors[i])
            return values.reshape((-1,) + d2s.shape)

        return doppler_average(at_shifts, doppler), point_errors

    values_of = stationary if doppler is None else averaged

    def evaluator(d2):
        points = np.asarray(d2, dtype=float)
        values, errors = values_of(points.reshape(-1), False)
        return _point_values(points, values[0], errors)

    def tangent(d2):
        points = np.asarray(d2, dtype=float)
        values, errors = values_of(points.reshape(-1), True)
        return (_point_values(points, values[0], errors),
                _point_values(points, values[1], {}))

    evaluator.tangent = tangent
    return evaluator


def susceptibility(system: AtomicSystem, drive: DriveConfig, pump: PumpModel,
                   doppler: DopplerConfig | None = None) -> complex:
    """Scaled chi_s at the drive's own probe detuning."""
    evaluator = make_chi_evaluator(system, drive, pump, doppler=doppler)
    return evaluator(drive.two_photon_detuning)


def scan_evaluator(evaluator: Callable, grid: np.ndarray) -> SusceptibilitySpectrum:
    """Scan a chi(two-photon-detuning) evaluator over a grid in one call.

    The evaluator takes the whole grid; failing points raise a ScanError
    with the offending detunings attached.
    """
    grid = np.asarray(grid, dtype=float)
    return SusceptibilitySpectrum(grid=grid, chi=evaluator(grid))


# ---------------------------------------------------------------------------
# derived quantities

def dispersion_slope(chi_source, x0: float, step: float,
                     check_tol: float = 1e-4) -> float:
    """d Re(chi_s) / d(detuning) by central differences with step halving.

    The finite-difference cross-check of an evaluator's exact ``tangent``,
    and the slope of sources that have none. ``chi_source`` is either a
    callable of the two-photon detuning or a SusceptibilitySpectrum
    (interpolated cubically). The coarse and halved central differences
    must agree to ``check_tol`` relative, otherwise a NonSmoothPointWarning
    is emitted; the Richardson combination of the two is returned.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    fn = chi_source.interpolator() if isinstance(chi_source, SusceptibilitySpectrum) \
        else chi_source

    points = x0 + np.array([step, -step, step / 2, -step / 2])
    # one call for the four points; a constant source may answer with a scalar
    re = np.broadcast_to(np.real(fn(points)), points.shape)
    coarse = (re[0] - re[1]) / (2.0 * step)
    fine = (re[2] - re[3]) / step
    scale = max(abs(fine), abs(coarse))
    if scale > 0 and abs(fine - coarse) > check_tol * scale:
        warnings.warn(
            f"slope at {x0:g} changed by {abs(fine - coarse) / scale:.2e} "
            f"relative under step halving (step {step:g})",
            NonSmoothPointWarning, stacklevel=2)
    return (4.0 * fine - coarse) / 3.0


def group_index(chi_s: complex, slope_s: float, scale: PhysicalScale,
                omega: float | None = None) -> GroupIndexResult:
    """Group index from the scaled susceptibility and its detuning slope.

    Uses n = sqrt(1 + Re chi) and n_g = n + (omega / 2n) d Re(chi)/d omega,
    dropping the imaginary part (absorption or gain does not enter the
    group velocity here). ``slope_s`` is per gamma3 unit of detuning.
    """
    if omega is None:
        omega = scale.probe_omega
    chi = scale.chi_from_scaled(chi_s)
    radicand = 1.0 + chi.real
    if radicand <= 0:
        raise BranchCutError(f"1 + Re(chi) = {radicand:.3e} <= 0")
    dre_domega = (scale.k / scale.gamma3 ** 2) * slope_s
    n = math.sqrt(radicand)
    n_g = n + omega / (2.0 * n) * dre_domega
    v_g = const.c / n_g if n_g != 0 else math.inf
    return GroupIndexResult(n=n, dre_chi_domega=dre_domega, n_g=n_g, v_g=v_g)


def group_index_at(system: AtomicSystem, drive: DriveConfig, pump: PumpModel,
                   scale: PhysicalScale, doppler: DopplerConfig | None = None,
                   delta2: float = 0.0) -> GroupIndexResult:
    """Group index at one operating point, from the evaluator's exact tangent."""
    chi_s, dchi_s = make_chi_evaluator(system, drive, pump,
                                       doppler=doppler).tangent(delta2)
    return group_index(chi_s, dchi_s.real, scale)


def doppler_average(evaluate_at_shift: Callable[[float], complex],
                    config: DopplerConfig,
                    check_convergence: bool = False) -> complex:
    """Gauss-Hermite average over the one-photon Doppler shift.

    ``evaluate_at_shift`` receives the one-photon shifts of all nodes as
    one array, in gamma3 units (the two-photon detuning is velocity
    independent in the co-propagating geometry), and returns the values
    along its last axis; leading axes are averaged independently. With
    ``check_convergence`` the quadrature is repeated with half again as
    many nodes and must agree to 1e-3 relative; a refined rule beyond
    HERMITE_MAX_NODES fails with QuadratureError.
    """
    refined_nodes = round(1.5 * config.nodes)
    if check_convergence and refined_nodes > HERMITE_MAX_NODES:
        raise QuadratureError(f"refined rule needs {refined_nodes} nodes, "
                              f"more than {HERMITE_MAX_NODES}")

    def quadrature(nodes: int):
        x, w = np.polynomial.hermite.hermgauss(nodes)
        shifts = math.sqrt(2.0) * config.shift_sigma * x
        values = np.asarray(evaluate_at_shift(shifts))
        values = np.broadcast_to(values, values.shape[:-1] + shifts.shape)
        total = 0.0 + 0.0j
        for k, weight in enumerate(w):  # node by node: independent of the batch
            total = total + weight * values[..., k]
        return total / math.sqrt(math.pi)

    value = quadrature(config.nodes)
    if check_convergence:
        refined = quadrature(refined_nodes)
        if abs(refined - value) > 1e-3 * max(abs(refined), 1e-300):
            raise QuadratureError(
                f"velocity average changed by {abs(refined - value):.3e} "
                f"({config.nodes} -> {refined_nodes} nodes)")
        return refined
    return value


def pump_sweep(system: AtomicSystem, drive: DriveConfig, rates: np.ndarray,
               scale: PhysicalScale, doppler: DopplerConfig | None = None
               ) -> np.ndarray:
    """Group index at the two-peak centre for each pump rate.

    Returns a (len(rates), 2) table of (pump rate, n_g).
    """
    rates = np.asarray(rates, dtype=float)
    if rates.size == 0 or np.any(rates < 0):
        raise ValueError("pump rates must be non-negative")
    rows = np.empty((rates.size, 2))
    for i, rate in enumerate(rates):
        result = group_index_at(system, drive, PumpModel.direct(float(rate)),
                                scale, doppler=doppler)
        rows[i] = (rate, result.n_g)
    return rows


# ---------------------------------------------------------------------------
# three-level EIT reference

def _eit_liouvillian(config: ThreeLevelConfig) -> np.ndarray:
    """Generator of the Lambda system at probe detuning 0."""
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1] = -2.0 * config.delta_c
    h[0, 2] = h[2, 0] = config.omega_p
    h[1, 2] = h[2, 1] = config.omega_c
    h *= -0.5
    l0 = hamiltonian_superop(h)
    l0 += dissipator_superop(ketbra(0, 2, 3), config.gamma31)
    l0 += dissipator_superop(ketbra(1, 2, 3), config.gamma32)
    l0 += dissipator_superop(ketbra(1, 1, 3), config.gamma2_deph)
    l0 += dissipator_superop(ketbra(2, 2, 3), config.gamma3_deph)
    return l0


def eit_susceptibility(config: ThreeLevelConfig, delta_p: float) -> complex:
    """Scaled chi_s of the standard resonant-coupling Lambda system."""
    return make_eit_evaluator(config)(delta_p)


def make_eit_evaluator(config: ThreeLevelConfig) -> Callable:
    """chi_s as a function of probe detuning (= two-photon detuning here).

    Takes a scalar or an array, and has a ``tangent``, like
    ``make_chi_evaluator``'s evaluators. The generator is affine in the
    probe detuning (only the level shifts -delta_p of |2> and |3> move), so
    it is assembled once.
    """
    l0 = _eit_liouvillian(config)
    per_delta_p = hamiltonian_superop(np.diag([0.0, -1.0, -1.0]).astype(complex))

    def solve(delta_p):
        points = np.asarray(delta_p, dtype=float)
        l0s = l0 + points.reshape(-1)[:, None, None] * per_delta_p
        rho, errors = steady_state_static_batch(l0s)
        return points, l0s, rho, errors

    def evaluate(delta_p):
        points, _, rho, errors = solve(delta_p)
        return _point_values(points, rho[:, 2, 0] / config.omega_p, errors)

    def tangent(delta_p):
        points, l0s, rho, errors = solve(delta_p)
        drho = steady_state_static_tangent(l0s, rho, per_delta_p)
        return (_point_values(points, rho[:, 2, 0] / config.omega_p, errors),
                _point_values(points, drho[:, 2, 0] / config.omega_p, {}))

    evaluate.tangent = tangent
    return evaluate


# ---------------------------------------------------------------------------
# spectrum metrics

def _strict_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of the strict interior local maxima of ``y``."""
    return np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


def find_imag_peaks(spectrum: SusceptibilitySpectrum) -> np.ndarray:
    """Grid positions of the strict local maxima of Im(chi_s)."""
    return spectrum.grid[_strict_maxima(spectrum.chi.imag)]


def transmission_window_fwhm(spectrum: SusceptibilitySpectrum,
                             scale: PhysicalScale) -> float:
    """Width (rad/s) of the low-absorption window between the Raman peaks.

    Intensity transmission exp(-2 (omega/c) Im(n) L) through the medium,
    measured relative to the most transparent point between the two
    absorption peaks; the FWHM spans the half-transmission crossings.
    """
    y = spectrum.chi.imag
    grid = spectrum.grid
    peaks = _strict_maxima(y)
    left_peaks = [i for i in peaks if grid[i] < 0]
    right_peaks = [i for i in peaks if grid[i] > 0]
    if not left_peaks or not right_peaks:
        raise ValueError("no absorption peaks bracketing the window centre")
    lp = max(left_peaks, key=lambda i: y[i])
    rp = max(right_peaks, key=lambda i: y[i])

    chi = scale.chi_from_scaled(spectrum.chi)
    absorbance = 2.0 * (scale.probe_omega / const.c) * np.sqrt(1.0 + chi).imag \
        * scale.length
    trans = np.exp(-absorbance)
    dip = lp + int(np.argmax(trans[lp:rp + 1]))
    half = 0.5 * trans[dip]

    left = None
    for i in range(dip, lp, -1):
        if trans[i - 1] <= half < trans[i]:
            frac = (trans[i] - half) / (trans[i] - trans[i - 1])
            left = grid[i] - frac * (grid[i] - grid[i - 1])
            break
    right = None
    for i in range(dip, rp):
        if trans[i + 1] <= half < trans[i]:
            frac = (trans[i] - half) / (trans[i] - trans[i + 1])
            right = grid[i] + frac * (grid[i + 1] - grid[i])
            break
    if left is None or right is None:
        raise ValueError("no half-transmission crossings between the peaks")
    return (right - left) * scale.gamma3
