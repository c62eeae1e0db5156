"""Model assembly for a pump-controlled four-level far-detuned Raman medium.

Levels |1>, |2> form the ground pair and |3>, |4> the excited doublet
(splitting ``omega43``). Two equal-strength coupling fields straddle the
|2> -> |3>, |4> transitions and beat at twice ``delta``; a weak probe
addresses |1> -> |3>, |4>; an incoherent pump moves ground population from
|1> to |2>. All frequencies and rates are expressed in units of the total
spontaneous emission rate out of level |3|, which sets the simulation
timescale (gamma3 == 1 for the symmetric defaults).

In the beat rotating frame the generator splits into three superoperators
acting on the row-major vectorised density matrix:

    d rho/dt = L0 rho + L(+1) rho e^{+i delta t} + L(-1) rho e^{-i delta t}
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

LEVELS = 4

# (s31, s41, s32, s42): the |1>-|4> dipole is out of phase with the rest.
DEFAULT_DIPOLE_SIGNS = (1, -1, 1, 1)


class DegenerateModelError(ValueError):
    """Parameter set makes the steady-state problem ill-posed."""


def require_finite(config) -> None:
    """ValueError naming every NaN or infinite number field of a dataclass.

    Checks like ``rate < 0`` are False for NaN, so they run after this one.
    """
    bad = [f.name for f in fields(config)
           if isinstance(getattr(config, f.name), (int, float))
           and not math.isfinite(getattr(config, f.name))]
    if bad:
        raise ValueError(f"{type(config).__name__}: {', '.join(bad)} "
                         "must be finite")


@dataclass(frozen=True)
class AtomicSystem:
    """Decay structure and dipole sign pattern of the four-level core.

    Branch rates ``gamma_ij`` are spontaneous rates |i> -> |j>, dephasing
    rates act on single levels, all in gamma3 units. ``dipole_signs`` holds
    the relative phases (s31, s41, s32, s42) of the four optical dipoles;
    the Raman response requires exactly one sign opposite to the other
    three.
    """

    gamma31: float = 0.5
    gamma32: float = 0.5
    gamma41: float = 0.5
    gamma42: float = 0.5
    gamma2_deph: float = 0.01
    gamma3_deph: float = 0.0
    gamma4_deph: float = 0.0
    omega43: float = 140.0
    dipole_signs: tuple[int, int, int, int] = DEFAULT_DIPOLE_SIGNS

    def __post_init__(self):
        require_finite(self)
        rates = (self.gamma31, self.gamma32, self.gamma41, self.gamma42,
                 self.gamma2_deph, self.gamma3_deph, self.gamma4_deph)
        if any(r < 0 for r in rates):
            raise ValueError("decay and dephasing rates must be >= 0")
        if len(self.dipole_signs) != 4 or any(s not in (-1, 1) for s in self.dipole_signs):
            raise ValueError("dipole_signs must be four entries of +1 or -1")


@dataclass(frozen=True)
class DriveConfig:
    """Rabi frequencies and detunings of the optical fields (gamma3 units).

    ``delta`` is half the frequency difference of the two couplings and
    ``delta_c`` the detuning of their centre frequency from |2> -> |3>;
    the probe sits at two-photon resonance (its two-photon detuning and a
    Doppler shift move L0 along ``detuning_generators``). Defaults
    reproduce the slow-light pulse operating point: couplings centred
    halfway between the excited doublet.
    """

    omega_c: float = 30.0
    omega_p: float = 0.01
    delta: float = 0.2
    delta_c: float = 70.0

    def __post_init__(self):
        require_finite(self)
        if self.omega_c < 0 or self.omega_p < 0:
            raise ValueError("Rabi frequencies must be >= 0")
        if self.delta <= 0:
            raise DegenerateModelError("delta must be positive")


@dataclass(frozen=True)
class PumpModel:
    """Incoherent optical pump |1> -> |2>.

    Either a direct rate, or the field parameters of the auxiliary
    five-level pumping transition from which the rate follows. The
    five-level parameters double as the bound reference (the pump rate of a
    single-frequency pump through one excited level saturates below
    ``gamma52``). ``lindblad_form=True`` swaps the population-transfer pump
    term for a jump-operator pump that also damps the |1> coherences at
    half the rate.
    """

    mode: str = "direct-rate"
    pump_rate: float = 0.0
    omega_op: float = 0.0
    delta_op: float = 0.0
    gamma51: float = 0.5
    gamma52: float = 0.5
    gamma5_deph: float = 0.0
    lindblad_form: bool = False

    def __post_init__(self):
        require_finite(self)
        if self.mode not in ("direct-rate", "five-level-field"):
            raise ValueError(f"unknown pump mode {self.mode!r}")
        if self.mode == "direct-rate" and self.pump_rate < 0:
            raise ValueError("pump rate must be >= 0")
        if self.gamma51 < 0 or self.gamma52 < 0 or self.gamma5_deph < 0:
            raise ValueError("five-level rates must be >= 0")

    @classmethod
    def direct(cls, rate: float, lindblad_form: bool = False) -> "PumpModel":
        return cls(mode="direct-rate", pump_rate=rate, lindblad_form=lindblad_form)

    @classmethod
    def from_field(cls, omega_op: float, delta_op: float = 0.0,
                   gamma51: float = 0.5, gamma52: float = 0.5,
                   gamma5_deph: float = 0.0, lindblad_form: bool = False) -> "PumpModel":
        return cls(mode="five-level-field", omega_op=omega_op, delta_op=delta_op,
                   gamma51=gamma51, gamma52=gamma52, gamma5_deph=gamma5_deph,
                   lindblad_form=lindblad_form)

    def rate(self) -> float:
        if self.mode == "direct-rate":
            return self.pump_rate
        return pump_rate_from_field(self)


@dataclass
class LiouvillianHarmonics:
    """Harmonic decomposition of the master-equation generator.

    ``l0`` carries the static Hamiltonian (probe at two-photon resonance),
    all dissipators and the pump; ``l_plus`` is the coupling term rotating
    as e^{+i delta t}, and the solvers form L(-1) = J(L(+1)). Each is a
    (dim^2 x dim^2) matrix acting on the row-major vectorised density matrix.
    """

    l0: np.ndarray
    l_plus: np.ndarray

    @property
    def dim(self) -> int:
        return math.isqrt(self.l0.shape[0])


def ketbra(i: int, j: int, dim: int = LEVELS) -> np.ndarray:
    """|i><j| on a dim-level system (0-based indices)."""
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """-i[h, .] as a matrix on vec(rho) (row-major vectorisation)."""
    dim = h.shape[0]
    eye = np.eye(dim)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))

def dissipator_superop(op: np.ndarray, rate: float) -> np.ndarray:
    """(rate/2)[2 A rho A+ - A+A rho - rho A+A] as a superoperator."""
    dim = op.shape[0]
    eye = np.eye(dim)
    ada = op.conj().T @ op
    return rate * (np.kron(op, op.conj())
                   - 0.5 * np.kron(ada, eye)
                   - 0.5 * np.kron(eye, ada.T))


def build_hamiltonian_parts(system: AtomicSystem,
                            drive: DriveConfig) -> tuple[np.ndarray, np.ndarray]:
    """Static and beat-note Hamiltonian blocks, H(t) = Hs + Hd (e^{i d t} + e^{-i d t}).

    The static part holds the rotating-frame level shifts and the probe
    couplings; the drive part holds the coupling-field entries. Both are
    Hermitian 4x4 matrices in hbar = 1, gamma3 units.
    """
    s31, s41, s32, s42 = system.dipole_signs

    h_static = np.zeros((LEVELS, LEVELS), dtype=complex)
    h_static[2, 2] = 2.0 * drive.delta_c
    h_static[3, 3] = 2.0 * (drive.delta_c - system.omega43)
    h_static[0, 2] = h_static[2, 0] = s31 * drive.omega_p
    h_static[0, 3] = h_static[3, 0] = s41 * drive.omega_p
    h_static *= -0.5

    h_drive = np.zeros((LEVELS, LEVELS), dtype=complex)
    h_drive[1, 2] = h_drive[2, 1] = s32 * drive.omega_c
    h_drive[1, 3] = h_drive[3, 1] = s42 * drive.omega_c
    h_drive *= -0.5

    return h_static, h_drive


def detuning_generators(levels: int = LEVELS) -> tuple[np.ndarray, np.ndarray]:
    """dL0/d(two-photon detuning) and dL0/d(one-photon Doppler shift) on
    the first ``levels`` levels (the Lambda system |1>, |2>, |3> takes 3).

    Only the rotating-frame level shifts of ``build_hamiltonian_parts``
    depend on the detunings, linearly, so L0(d2, s) = L0(0, 0) + d2 * G2
    + s * Gs for a probe at two-photon detuning d2 seen by a velocity
    class with shift s.
    """
    return (hamiltonian_superop(np.diag([0.0, -1.0, -1.0, -1.0][:levels]).astype(complex)),
            hamiltonian_superop(np.diag([0.0, 0.0, -1.0, -1.0][:levels]).astype(complex)))


def pump_generator(lindblad_form: bool) -> np.ndarray:
    """dL0/d(pump rate): the pump enters L0 linearly in both of its forms.

    The population-transfer form -rho11 (|1><1| - |2><2|) leaves coherences
    alone; the jump form, the dissipator of |2><1|, also damps the |1> ones.
    """
    if lindblad_form:
        return dissipator_superop(ketbra(1, 0), 1.0)
    return np.outer((ketbra(1, 1) - ketbra(0, 0)).ravel(), ketbra(0, 0).ravel())


def build_liouvillian(system: AtomicSystem, drive: DriveConfig,
                      pump: PumpModel) -> LiouvillianHarmonics:
    """Assemble the generator harmonics for the driven master equation,
    with the probe at two-photon resonance: L0 at (d2, s) is
    l0 + d2 * G2 + s * Gs (``detuning_generators``)."""
    h_static, h_drive = build_hamiltonian_parts(system, drive)

    l0 = hamiltonian_superop(h_static)
    l0 += dissipator_superop(ketbra(0, 2), system.gamma31)
    l0 += dissipator_superop(ketbra(1, 2), system.gamma32)
    l0 += dissipator_superop(ketbra(0, 3), system.gamma41)
    l0 += dissipator_superop(ketbra(1, 3), system.gamma42)
    l0 += dissipator_superop(ketbra(1, 1), system.gamma2_deph)
    l0 += dissipator_superop(ketbra(2, 2), system.gamma3_deph)
    l0 += dissipator_superop(ketbra(3, 3), system.gamma4_deph)

    l0 += pump.rate() * pump_generator(pump.lindblad_form)

    return LiouvillianHarmonics(l0=l0, l_plus=hamiltonian_superop(h_drive))


def pump_rate_from_field(pump: PumpModel) -> float:
    """Pump rate of a single-frequency pump field through one excited level.

    Saturates strictly below gamma52 for any finite field strength; a zero
    field gives zero rate.
    """
    gamma5 = pump.gamma51 + pump.gamma52
    coherence = pump.gamma51 + pump.gamma5_deph
    if gamma5 <= 0:
        raise DegenerateModelError("gamma51 + gamma52 must be positive")
    if coherence <= 0:
        raise DegenerateModelError(
            "gamma51 + gamma5_deph must be positive (pump coherence undamped)")
    w2 = pump.omega_op ** 2
    return (pump.gamma52 * coherence * w2
            / (gamma5 * (coherence ** 2 + 4.0 * pump.delta_op ** 2) + coherence * w2))


def validate_system(system: AtomicSystem, drive: DriveConfig,
                    pump: PumpModel) -> list[str]:
    """Human-readable warnings for physically questionable configurations."""
    warnings = []
    if abs(sum(system.dipole_signs)) != 2:
        warnings.append(
            "dipole phase constraint violated: expected exactly one of the "
            "four dipole signs opposite to the other three")
    if pump.mode == "direct-rate" and pump.pump_rate > pump.gamma52:
        warnings.append(
            f"pump rate {pump.pump_rate:g} exceeds the single-level pumping "
            f"bound gamma52 = {pump.gamma52:g} and is not reachable with a "
            "single-frequency pump field")
    if drive.omega_p == 0 and pump.rate() == 0:
        warnings.append(
            "probe and pump both off: the ground-state populations are "
            "degenerate and the steady state may not be unique")
    return warnings
