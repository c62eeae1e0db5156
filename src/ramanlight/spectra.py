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

from . import constants as const
from .atom import (AtomicSystem, DriveConfig, PumpModel, build_liouvillian,
                   detuning_generators, dissipator_superop,
                   hamiltonian_superop, ketbra, pump_generator, require_finite)
from .floquet import level_mirror, solve_converged_batch

GAMMA3_RB87_D1 = 2.0 * math.pi * 5.75e6      # rad/s, natural linewidth of the line
WAVELENGTH_RB87_D1 = 794.98e-9               # m
MASS_RB87 = 86.909180531 * const.atomic_mass  # kg
HERMITE_MAX_NODES = 370   # numpy's hermgauss weights underflow or overflow above


class BranchCutError(ValueError):
    """1 + Re(chi) <= 0: the refractive index leaves the real branch."""


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
    """SI anchors converting the scaled susceptibility to physics."""

    density: float        # atoms / m^3
    dipole_sq: float      # |mu31|^2, C^2 m^2
    gamma3: float         # rad/s
    wavelength: float     # m
    length: float         # m

    def __post_init__(self):
        require_finite(self)
        if self.density < 0 or self.dipole_sq <= 0 or self.gamma3 <= 0 \
                or self.wavelength <= 0 or self.length <= 0:
            raise ValueError("physical scale entries must be positive")
        if not math.isfinite(self.k):
            raise ValueError("PhysicalScale: k must be finite")

    @property
    def k(self) -> float:
        """density * |mu31|^2 / (eps0 hbar), rad/s."""
        return self.density * self.dipole_sq / (const.epsilon_0 * const.hbar)

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
    if wavelength <= 0:
        raise ValueError("physical scale entries must be positive")
    omega = 2.0 * math.pi * const.c / wavelength
    try:
        dipole_sq = (3.0 * math.pi * const.epsilon_0 * const.hbar * const.c ** 3
                     * branch_fraction * gamma3 / omega ** 3)
    except (OverflowError, ZeroDivisionError):  # omega ** 3 is not a double
        dipole_sq = math.nan
    if not 0.0 < dipole_sq < math.inf:
        raise ValueError(
            f"wavelength {wavelength!r} m, gamma3 {gamma3!r} rad/s and branch "
            f"fraction {branch_fraction!r} give no finite positive dipole "
            f"(|mu|^2 = {dipole_sq!r})")
    return PhysicalScale(density=density, dipole_sq=dipole_sq, gamma3=gamma3,
                         wavelength=wavelength, length=length)


@dataclass(frozen=True)
class DopplerConfig:
    """One-dimensional Maxwell velocity averaging for a warm vapour.

    Every beam propagates along the same axis with (approximately) equal
    wavelengths, so a moving atom sees all one-photon detunings shifted by
    the same -k v while two-photon detunings are untouched. The shift
    width, ``shift_sigma(scale)``, takes k and gamma3 from the scale.
    """

    temperature: float = 320.0
    mass: float = MASS_RB87
    nodes: int = 64

    def __post_init__(self):
        require_finite(self)
        if min(self.temperature, self.mass) <= 0:
            raise ValueError("temperature and mass must be positive")
        if not 8 <= self.nodes <= HERMITE_MAX_NODES:
            raise ValueError(
                f"need between 8 and {HERMITE_MAX_NODES} quadrature nodes")

    def shift_sigma(self, scale: PhysicalScale) -> float:
        """Standard deviation of the one-photon shift at ``scale``'s probe
        wavelength, in its gamma3 units."""
        v_sigma = math.sqrt(const.k * self.temperature / self.mass)
        return 2.0 * math.pi / scale.wavelength * v_sigma / scale.gamma3


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
        if not np.all(np.isfinite(self.grid)) or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be finite and strictly increasing")
        if not np.all(np.isfinite(self.chi)):
            raise ValueError("chi contains non-finite values")


@dataclass(frozen=True)
class GroupIndexResult:
    """Refractive and group index of the probe at one operating point."""

    n: float                 # real refractive index
    dre_chi_domega: float    # d Re(chi) / d omega, 1/(rad/s)
    n_g: float               # group index c / v_g
    v_g: float               # m/s (signed)


# ---------------------------------------------------------------------------
# point evaluation

def _evaluator(values_of: Callable) -> Callable:
    """A scalar-or-array chi evaluator with its ``tangent`` attribute.

    ``values_of(flat, with_tangent)`` returns the values at the flat
    detunings (chi, and with ``with_tangent`` its derivative stacked
    below) and the failing points by index. A failing scalar raises its
    own error; failing array points raise one ScanError naming each of
    them.
    """
    def point_values(points: np.ndarray, values: np.ndarray,
                     errors: dict[int, Exception]):
        if errors:
            if points.ndim == 0:
                raise errors[min(errors)]
            flat = points.reshape(-1)
            raise ScanError([(float(flat[i]), errors[i]) for i in sorted(errors)])
        if points.ndim == 0:
            return complex(values[0])
        return values.reshape(points.shape)

    def evaluator(d2):
        points = np.asarray(d2, dtype=float)
        values, errors = values_of(points.reshape(-1), False)
        return point_values(points, values[0], errors)

    def tangent(d2):
        points = np.asarray(d2, dtype=float)
        values, errors = values_of(points.reshape(-1), True)
        return (point_values(points, values[0], errors),
                point_values(points, values[1], {}))

    evaluator.tangent = tangent
    return evaluator


def _raman_solver(system: AtomicSystem, drive: DriveConfig, rates: np.ndarray,
                  lindblad_form: bool, doppler: DopplerConfig | None,
                  scale: PhysicalScale | None) -> Callable:
    """``values_of(k, d2, with_tangent)``: chi of the four-level medium at
    pump rate rates[k] and detuning d2 (its d2 derivative below it with
    ``with_tangent``), Doppler-averaged over ``scale``'s width if set, and
    the failing points.

    L0 is affine in the rate, d2 and the shift, so it is assembled once.
    Each member and velocity class climbs the ``solve_converged_batch``
    ladder (L(-1) derived, one cap MAX_ORDER) from its rate's base order:
    the top order the ladder settles at over the centre and the two Raman
    resonances, found for all rates at once. chi reads rho31 and rho41 of
    the zeroth harmonics the ladder returns.

    When the couplings sit halfway between |3> and |4> (omega43 = 2
    delta_c) and the doublet decays symmetrically, ``level_mirror`` finds
    the X (|3> <-> |4>, |2> -> -|2>) that maps member (k, d2, s) onto
    (k, -d2, -s) exactly: rho_0 -> X conj(rho_0) X^T and d rho_0/d d2 ->
    -X conj(d rho_0/d d2) X^T, so chi -> -conj(chi) and its derivative ->
    conj. Every member with d2 < 0, or d2 = 0 and s < 0, is then solved as
    its mirror, whether or not that is in the batch, so a point's value
    does not depend on its batch; a mirror pair shares one solve, its
    accepted order and its error. Without X every member is solved as it is.
    """
    if drive.omega_p == 0:
        raise ValueError("probe must be on: chi is defined relative to omega_p")
    if doppler is not None and scale is None:
        raise ValueError("a Doppler average needs the scale its shift width follows")
    liouv = build_liouvillian(system, drive, PumpModel.direct(0.0))
    pump = pump_generator(lindblad_form)
    l0s = liouv.l0 + rates[:, None, None] * pump
    per_d2, per_shift = detuning_generators()
    s31, s41 = system.dipole_signs[0], system.dipole_signs[1]
    mirror = level_mirror([liouv.l0, pump], [per_d2, per_shift], liouv.l_plus)

    def solve(k, d2, shift, orders, with_tangent: bool):
        flip = ((d2 < 0) | ((d2 == 0) & (shift < 0))) & (mirror is not None)
        sign = np.where(flip, -1.0, 1.0)
        d2, shift = sign * d2, sign * shift
        # + 0.0 makes -0.0 match 0.0; exact duplicates share a solve too
        _, first, inverse = np.unique(np.column_stack((k, d2 + 0.0, shift + 0.0)),
                                      axis=0, return_index=True, return_inverse=True)
        k, d2, shift = k[first], d2[first], shift[first]
        rho0, accepted, errors = solve_converged_batch(
            lambda m: (l0s[k[m]] + d2[m, None, None] * per_d2
                       + shift[m, None, None] * per_shift),
            liouv.l_plus, drive.delta, orders[first], per_d2 if with_tangent else None)
        rho0, accepted = rho0[:, inverse], accepted[inverse]
        if flip.any():
            levels, signs = mirror
            rho0[:, flip] = (rho0[:, flip][..., levels[:, None], levels].conj()
                             * np.outer(signs, signs))
            rho0[1:, flip] *= -1.0       # d/d(d2) of the mirror runs the other way
        failing = np.flatnonzero(np.isin(inverse, list(errors)))
        return rho0, accepted, {int(i): errors[inverse[i]] for i in failing}

    anchors = np.tile([0.0, drive.delta, -drive.delta], rates.size)
    _, orders, errors = solve(np.repeat(np.arange(rates.size), 3), anchors,
                              np.zeros(anchors.size), np.ones(anchors.size, dtype=int),
                              False)
    if errors:
        raise errors[min(errors)]
    base = orders.reshape(rates.size, 3).max(axis=1)

    def values_of(k: np.ndarray, flat: np.ndarray, with_tangent: bool):
        point_errors: dict[int, Exception] = {}

        def at_shifts(shifts: np.ndarray) -> np.ndarray:
            d2s, ss = np.broadcast_arrays(flat[:, None], shifts[None, :])
            rho0, _, errors = solve(np.repeat(k, shifts.size), d2s.ravel(), ss.ravel(),
                                    np.repeat(base[k], shifts.size), with_tangent)
            for i in sorted(errors):
                point_errors.setdefault(i // shifts.size, errors[i])
            values = (rho0[..., 2, 0] / (s31 * drive.omega_p)
                      + rho0[..., 3, 0] / (s41 * drive.omega_p))
            return values.reshape((-1,) + d2s.shape)

        if doppler is None:
            return at_shifts(np.zeros(1))[..., 0], point_errors
        return doppler_average(at_shifts, doppler, scale), point_errors

    return values_of


def make_chi_evaluator(system: AtomicSystem, drive: DriveConfig,
                       pump: PumpModel, doppler: DopplerConfig | None = None,
                       scale: PhysicalScale | None = None) -> Callable:
    """Scaled susceptibility as a function of two-photon detuning.

    The evaluator takes a scalar detuning (and returns a complex) or an
    array (and returns a complex array of its shape), solved as one batch.
    A failing scalar raises its solver error; failing array points raise a
    ScanError naming each failing detuning. Its attribute ``tangent`` takes
    the same input and returns (chi, d chi / d(detuning)) from the same
    batch: the exact derivative of the truncated system at each point's
    accepted order, by one tangent pass of the continued fraction.

    The one-rate case of ``_raman_solver``: every point, and every velocity
    class of a DopplerConfig average (chi and its derivative on the same
    nodes), climbs the ladder from the base order, batch-independently.
    The average's shift width follows ``scale``, which it requires. In a
    mirror-symmetric medium (``_raman_solver``) a point or class at -d2,
    -s is read off the solve at d2, s, so chi(-d2) = -conj(chi(d2)) on a
    symmetric rule, and a failing point fails with its mirror.
    """
    values_of = _raman_solver(system, drive, np.array([pump.rate()]),
                              pump.lindblad_form, doppler, scale)
    return _evaluator(lambda flat, with_tangent: values_of(
        np.zeros(flat.size, dtype=int), flat, with_tangent))


def scan_evaluator(evaluator: Callable, grid: np.ndarray) -> SusceptibilitySpectrum:
    """Scan a chi(two-photon-detuning) evaluator over a grid in one call.

    The evaluator takes the whole grid; failing points raise a ScanError
    with the offending detunings attached.
    """
    grid = np.asarray(grid, dtype=float)
    return SusceptibilitySpectrum(grid=grid, chi=evaluator(grid))


# ---------------------------------------------------------------------------
# derived quantities

def dispersion_slope(chi_source: Callable, x0: float, step: float) -> float:
    """d Re(chi_s) / d(detuning) by central differences with step halving.

    The finite-difference cross-check of an evaluator's exact ``tangent``,
    and the slope of sources that have none. ``chi_source`` is a callable
    of the two-photon detuning. The coarse and halved central differences
    must agree to 1e-4 relative, otherwise a NonSmoothPointWarning
    is emitted; the Richardson combination of the two is returned.
    """
    if step <= 0:
        raise ValueError("step must be positive")

    points = x0 + np.array([step, -step, step / 2, -step / 2])
    # one call for the four points; a constant source may answer with a scalar
    re = np.broadcast_to(np.real(chi_source(points)), points.shape)
    coarse = (re[0] - re[1]) / (2.0 * step)
    fine = (re[2] - re[3]) / step
    scale = max(abs(fine), abs(coarse))
    if scale > 0 and abs(fine - coarse) > 1e-4 * scale:
        warnings.warn(
            f"slope at {x0:g} changed by {abs(fine - coarse) / scale:.2e} "
            f"relative under step halving (step {step:g})",
            NonSmoothPointWarning, stacklevel=2)
    return (4.0 * fine - coarse) / 3.0


def group_index(chi_s: complex, slope_s: float,
                scale: PhysicalScale) -> GroupIndexResult:
    """Group index from the scaled susceptibility and its detuning slope.

    Uses n = sqrt(1 + Re chi) and n_g = n + (omega / 2n) d Re(chi)/d omega,
    dropping the imaginary part (absorption or gain does not enter the
    group velocity here). ``slope_s`` is per gamma3 unit of detuning.
    """
    chi = scale.chi_from_scaled(chi_s)
    radicand = 1.0 + chi.real
    if radicand <= 0:
        raise BranchCutError(f"1 + Re(chi) = {radicand:.3e} <= 0")
    dre_domega = (scale.k / scale.gamma3 ** 2) * slope_s
    n = math.sqrt(radicand)
    n_g = n + scale.probe_omega / (2.0 * n) * dre_domega
    v_g = const.c / n_g if n_g != 0 else math.inf
    return GroupIndexResult(n=n, dre_chi_domega=dre_domega, n_g=n_g, v_g=v_g)


def group_index_at(system: AtomicSystem, drive: DriveConfig, pump: PumpModel,
                   scale: PhysicalScale, doppler: DopplerConfig | None = None,
                   delta2: float = 0.0) -> GroupIndexResult:
    """Group index at one operating point, from the evaluator's exact tangent."""
    chi_s, dchi_s = make_chi_evaluator(system, drive, pump, doppler=doppler,
                                       scale=scale).tangent(delta2)
    return group_index(chi_s, dchi_s.real, scale)


def doppler_average(evaluate_at_shift: Callable[[np.ndarray], np.ndarray],
                    config: DopplerConfig, scale: PhysicalScale) -> complex:
    """Gauss-Hermite average over the one-photon Doppler shift of width
    ``config.shift_sigma(scale)``.

    ``evaluate_at_shift`` receives the one-photon shifts of all nodes as
    one array, in gamma3 units (the two-photon detuning is velocity
    independent in the co-propagating geometry), and returns the values
    along its last axis; leading axes are averaged independently.
    """
    x, w = np.polynomial.hermite.hermgauss(config.nodes)
    shifts = math.sqrt(2.0) * config.shift_sigma(scale) * x
    values = np.asarray(evaluate_at_shift(shifts))
    values = np.broadcast_to(values, values.shape[:-1] + shifts.shape)
    total = 0.0 + 0.0j
    for k, weight in enumerate(w):  # node by node: independent of the batch
        total = total + weight * values[..., k]
    return total / math.sqrt(math.pi)


def pump_sweep(system: AtomicSystem, drive: DriveConfig, rates: np.ndarray,
               scale: PhysicalScale, doppler: DopplerConfig | None = None,
               lindblad_form: bool = False) -> np.ndarray:
    """Group index at the two-peak centre for each pump rate.

    Returns a (len(rates), 2) table of (pump rate, n_g), row i equal to
    ``group_index_at`` at ``PumpModel.direct(rates[i], lindblad_form)``.
    All rates (and velocity classes) are one batch: one anchor ladder and
    one tangent ladder.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or rates.size == 0 or not np.all(np.isfinite(rates)) \
            or np.any(rates < 0):
        raise ValueError("pump rates must be a non-empty 1-d array of finite rates >= 0")
    values_of = _raman_solver(system, drive, rates, lindblad_form, doppler, scale)
    (chi, dchi), errors = values_of(np.arange(rates.size), np.zeros(rates.size), True)
    if errors:
        raise errors[min(errors)]
    return np.column_stack((rates, [group_index(complex(c), float(d.real), scale).n_g
                                    for c, d in zip(chi, dchi)]))


# ---------------------------------------------------------------------------
# three-level EIT reference

def _eit_liouvillian(system: AtomicSystem, omega_c: float,
                     omega_p: float) -> np.ndarray:
    """Generator of the Lambda system |1>, |2>, |3> of ``system`` with a
    resonant coupling, at probe detuning 0."""
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = h[2, 0] = omega_p
    h[1, 2] = h[2, 1] = omega_c
    h *= -0.5
    l0 = hamiltonian_superop(h)
    l0 += dissipator_superop(ketbra(0, 2, 3), system.gamma31)
    l0 += dissipator_superop(ketbra(1, 2, 3), system.gamma32)
    l0 += dissipator_superop(ketbra(1, 1, 3), system.gamma2_deph)
    l0 += dissipator_superop(ketbra(2, 2, 3), system.gamma3_deph)
    return l0


def make_eit_evaluator(system: AtomicSystem, omega_c: float,
                       omega_p: float) -> Callable:
    """chi_s as a function of probe detuning (= two-photon detuning here).

    The reference Lambda system keeps the rates of ``system``'s |1>, |2>,
    |3> and drops |4>; one resonant coupling ``omega_c`` replaces the
    beating pair. Takes a scalar or an array, and has a ``tangent``, like
    ``make_chi_evaluator``'s evaluators, from the same ladder. The
    generator is affine in the probe detuning (only the level shifts
    -delta_p of |2> and |3> move), so it is assembled once. With L(+1) = 0
    (so the derived L(-1) is 0 too) every harmonic but the zeroth
    vanishes, so the ladder's order-1 tail passes, far below the one cap
    MAX_ORDER, and its solve (any positive frequency) is L0 rho = 0 with
    trace(rho) = 1; chi reads rho31 of the zeroth harmonics it returns.
    """
    if not (math.isfinite(omega_c) and math.isfinite(omega_p)):
        raise ValueError("EIT omega_c and omega_p must be finite")
    if omega_c < 0 or omega_p <= 0:
        raise ValueError("omega_c must be >= 0 and omega_p positive")
    l0 = _eit_liouvillian(system, omega_c, omega_p)
    per_delta_p = hamiltonian_superop(np.diag([0.0, -1.0, -1.0]).astype(complex))
    no_drive = np.zeros_like(l0)

    def values_of(flat: np.ndarray, with_tangent: bool):
        rho0, _, errors = solve_converged_batch(
            lambda m: l0 + flat[m, None, None] * per_delta_p, no_drive, 1.0,
            np.ones(flat.size, dtype=int), per_delta_p if with_tangent else None)
        return rho0[..., 2, 0] / omega_p, errors

    return _evaluator(values_of)


# ---------------------------------------------------------------------------
# spectrum metrics

def _strict_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of the strict interior local maxima of ``y``."""
    return np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


def _half_max_crossings(x: np.ndarray, y: np.ndarray, top: int, lo: int,
                        hi: int) -> tuple[float | None, float | None]:
    """Linearly interpolated points where ``y`` first falls to half of
    y[top], walking out from ``top`` down to index ``lo`` and up to index
    ``hi``; None on a side without a crossing."""
    half = 0.5 * y[top]
    left = None
    for i in range(top, lo, -1):
        if y[i - 1] <= half < y[i]:
            frac = (y[i] - half) / (y[i] - y[i - 1])
            left = x[i] - frac * (x[i] - x[i - 1])
            break
    right = None
    for i in range(top, hi):
        if y[i + 1] <= half < y[i]:
            frac = (y[i] - half) / (y[i] - y[i + 1])
            right = x[i] + frac * (x[i + 1] - x[i])
            break
    return left, right


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
    left, right = _half_max_crossings(grid, trans, dip, lp, rp)
    if left is None or right is None:
        raise ValueError("no half-transmission crossings between the peaks")
    return (right - left) * scale.gamma3
