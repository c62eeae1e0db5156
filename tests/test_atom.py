"""Hamiltonian/Liouvillian assembly and pump-rate model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanlight.atom import (AtomicSystem, DegenerateModelError, DriveConfig,
                             PumpModel, build_hamiltonian_parts,
                             build_liouvillian, detuning_generators, ketbra,
                             pump_generator, pump_rate_from_field,
                             validate_system)
from ramanlight.config import PRESETS, preset
from ramanlight.spectra import DopplerConfig, make_eit_evaluator, physical_scale
from helpers import at_detuning


def unvec(v):
    return v.reshape(4, 4)


def apply(superop, rho):
    return unvec(superop @ rho.reshape(-1))


def direct_master_rhs(system, drive, pump, rho, t, d2=0.0, shift=0.0):
    """Independent dense evaluation of the master equation right-hand side
    at two-photon detuning ``d2`` and Doppler shift ``shift``: the rotating
    frame moves |2> by -d2 and |3>, |4> by -d2 - shift."""
    h_static, h_drive = build_hamiltonian_parts(system, drive)
    h_static = h_static + np.diag([0.0, -d2, -d2 - shift, -d2 - shift])
    phase = np.exp(1j * drive.delta * t)
    h = h_static + h_drive * (phase + np.conj(phase))
    out = -1j * (h @ rho - rho @ h)
    jumps = [(ketbra(0, 2), system.gamma31), (ketbra(1, 2), system.gamma32),
             (ketbra(0, 3), system.gamma41), (ketbra(1, 3), system.gamma42),
             (ketbra(1, 1), system.gamma2_deph), (ketbra(2, 2), system.gamma3_deph),
             (ketbra(3, 3), system.gamma4_deph)]
    for op, rate in jumps:
        ad = op.conj().T
        out += 0.5 * rate * (2.0 * op @ rho @ ad - ad @ op @ rho - rho @ ad @ op)
    out += -pump.rate() * rho[0, 0] * (ketbra(0, 0) - ketbra(1, 1))
    return out


def mirror(superop):
    """J(M) = P conj(M) P with P the permutation vec(rho) -> vec(rho^T).

    A superoperator maps Hermitian rho to Hermitian rho exactly when it is
    fixed by J: vec(rho^dagger) = P conj(vec(rho)).
    """
    p = np.zeros((16, 16))
    for i in range(4):
        for j in range(4):
            p[4 * j + i, 4 * i + j] = 1.0
    return p @ superop.conj() @ p


def generator_at(liouv, delta, t):
    """L0 + L(+1) e^{i delta t} + L(-1) e^{-i delta t}, L(-1) = J(L(+1))."""
    phase = np.exp(1j * delta * t)
    return liouv.l0 + phase * liouv.l_plus + np.conj(phase) * mirror(liouv.l_plus)


def random_hermitian(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return m + m.conj().T


class TestHamiltonianParts:
    def test_fields_off_diagonal_energies(self):
        system = AtomicSystem()
        drive = DriveConfig(omega_c=0.0, omega_p=0.0, delta=0.2, delta_c=0.0)
        h_static, h_drive = build_hamiltonian_parts(system, drive)
        # only the excited-doublet splitting survives: H44 = omega43 - delta_c
        assert np.allclose(h_static, np.diag([0.0, 0.0, 0.0, 140.0]))
        assert np.allclose(h_drive, 0.0)

    def test_probe_sign_pattern(self):
        # mu41 out of phase: the |1>-|4> entry flips sign, -(1/2)(-0.01) = +0.005
        h_static, _ = build_hamiltonian_parts(AtomicSystem(), DriveConfig())
        assert h_static[0, 3] == pytest.approx(0.005)
        assert h_static[0, 2] == pytest.approx(-0.005)

    def test_drive_block_entries(self):
        _, h_drive = build_hamiltonian_parts(
            AtomicSystem(), DriveConfig(omega_c=30.0))
        assert h_drive[1, 2] == pytest.approx(-15.0)
        assert h_drive[1, 3] == pytest.approx(-15.0)
        assert np.allclose(np.diag(h_drive), 0.0)

    @given(omega_c=st.floats(0.0, 100.0), omega_p=st.floats(0.0, 1.0),
           delta_c=st.floats(-200.0, 200.0))
    @settings(max_examples=50, deadline=None)
    def test_always_hermitian(self, omega_c, omega_p, delta_c):
        drive = DriveConfig(omega_c=omega_c, omega_p=omega_p, delta=0.3,
                            delta_c=delta_c)
        h_static, h_drive = build_hamiltonian_parts(AtomicSystem(), drive)
        assert np.allclose(h_static, h_static.conj().T)
        assert np.allclose(h_drive, h_drive.conj().T)


class TestLiouvillian:
    def test_pump_moves_population(self):
        drive = DriveConfig(omega_c=0.0, omega_p=0.0)
        liouv = build_liouvillian(AtomicSystem(), drive, PumpModel.direct(0.3))
        out = apply(liouv.l0, ketbra(0, 0))
        assert out[1, 1] == pytest.approx(0.3)
        assert out[0, 0] == pytest.approx(-0.3)

    def test_spontaneous_emission_bookkeeping(self):
        system = AtomicSystem()
        liouv = build_liouvillian(system, DriveConfig(), PumpModel.direct(0.0))
        out = apply(liouv.l0, ketbra(2, 2))
        assert out[0, 0].real == pytest.approx(system.gamma31)
        assert out[1, 1].real == pytest.approx(system.gamma32)
        assert out[2, 2].real == pytest.approx(-(system.gamma31 + system.gamma32))

    def test_matches_direct_rhs_at_random_states(self):
        rng = np.random.default_rng(7)
        system = AtomicSystem()
        drive = DriveConfig(omega_c=24.0, delta=0.17)
        pump = PumpModel.direct(0.21)
        liouv = at_detuning(build_liouvillian(system, drive, pump), 0.4, -37.0)
        for t in (0.0, 0.3, 1.7):
            for _ in range(4):
                rho = random_hermitian(rng)
                expected = direct_master_rhs(system, drive, pump, rho, t, 0.4, -37.0)
                assert np.allclose(apply(generator_at(liouv, drive.delta, t), rho),
                                   expected, atol=1e-12)

    def test_trace_annihilation_on_random_basis(self):
        rng = np.random.default_rng(11)
        liouv = build_liouvillian(AtomicSystem(), DriveConfig(),
                                  PumpModel.direct(0.4))
        for _ in range(16):
            rho = random_hermitian(rng)
            for op in (liouv.l0, liouv.l_plus, mirror(liouv.l_plus)):
                assert abs(np.trace(apply(op, rho))) < 1e-14 * max(
                    1.0, np.abs(rho).max())

    def test_preserves_hermiticity(self):
        rng = np.random.default_rng(3)
        liouv = build_liouvillian(AtomicSystem(), DriveConfig(),
                                  PumpModel.direct(0.2))
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for op in (liouv.l0, liouv.l_plus + mirror(liouv.l_plus)):
            image_dag = apply(op, rho.conj().T)
            assert np.allclose(image_dag, apply(op, rho).conj().T, atol=1e-13)
        # term by term, bit for bit: J(L0) = L0 and both detuning generators
        # fixed, the identities the continued fraction mirrors its n < 0 side
        # by; J(L(+1)) = L(+1), so the oracle's L(-1) = J(L(+1)) is L(+1)
        per_d2, per_shift = detuning_generators()
        assert np.array_equal(mirror(per_d2), per_d2)
        assert np.array_equal(mirror(per_shift), per_shift)
        for name in PRESETS:
            config = preset(name)
            for pump in (config.pump, PumpModel.direct(0.3),
                         PumpModel.direct(0.3, lindblad_form=True),
                         PumpModel.from_field(2.0),
                         PumpModel.from_field(2.0, lindblad_form=True)):
                liouv = build_liouvillian(config.system, config.drive, pump)
                assert np.array_equal(mirror(liouv.l0), liouv.l0), (name, pump)
                assert np.array_equal(mirror(liouv.l_plus), liouv.l_plus), (name, pump)

    def test_drive_harmonics_equal_for_hermitian_drive(self):
        liouv = build_liouvillian(AtomicSystem(), DriveConfig(),
                                  PumpModel.direct(0.0))
        assert np.array_equal(liouv.l_plus, mirror(liouv.l_plus))

    def test_lindblad_pump_damps_ground_coherence(self):
        drive = DriveConfig(omega_c=0.0, omega_p=0.0)
        rate = 0.3
        paper = build_liouvillian(AtomicSystem(), drive, PumpModel.direct(rate))
        lind = build_liouvillian(AtomicSystem(), drive,
                                 PumpModel.direct(rate, lindblad_form=True))
        rho12 = ketbra(0, 1)
        gamma2 = AtomicSystem().gamma2_deph
        out_paper = apply(paper.l0, rho12)
        out_lind = apply(lind.l0, rho12)
        assert out_paper[0, 1] == pytest.approx(-gamma2 / 2 * 1.0)
        assert out_lind[0, 1] == pytest.approx(-(gamma2 + rate) / 2)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_pump_enters_through_its_generator(self, name):
        # L0(R) = L0(0) + R dL0/dR bit for bit, for the preset's pump and
        # the direct, Lindblad-form and field pumps; the batched pump rate
        # of spectra relies on it, and solve_batch on J(dL0/dR) = dL0/dR
        config = preset(name)
        rate0 = build_liouvillian(config.system, config.drive,
                                  PumpModel.direct(0.0)).l0
        for pump in (config.pump, PumpModel.direct(0.37),
                     PumpModel.direct(0.37, lindblad_form=True),
                     PumpModel.from_field(0.8, delta_op=0.3),
                     PumpModel.from_field(1.1, lindblad_form=True)):
            generator = pump_generator(pump.lindblad_form)
            assert np.array_equal(mirror(generator), generator)
            l0 = build_liouvillian(config.system, config.drive, pump).l0
            assert np.array_equal(l0, rate0 + pump.rate() * generator)

    def test_generator_affine_in_detuning_and_shift(self):
        # L0(d2, s) = L0(0, 0) + d2 G2 + s Gs, against the dense right-hand
        # side with the level shifts written out
        system = AtomicSystem(omega43=133.0, gamma3_deph=0.02)
        drive = DriveConfig(omega_c=25.0, delta=0.3, delta_c=61.7)
        pump = PumpModel.direct(0.27)
        base = build_liouvillian(system, drive, pump)
        rng = np.random.default_rng(11)
        for d2, shift in zip(rng.uniform(-3.0, 3.0, 8), rng.uniform(-200.0, 200.0, 8)):
            total = generator_at(at_detuning(base, d2, shift), drive.delta, 0.3)
            rho = random_hermitian(rng)
            expected = direct_master_rhs(system, drive, pump, rho, 0.3, d2, shift)
            assert (np.abs(apply(total, rho) - expected).max()
                    <= 1e-13 * np.abs(total).max() * np.abs(rho).max())


class TestPumpRate:
    def test_zero_field_zero_rate(self):
        assert pump_rate_from_field(PumpModel.from_field(0.0)) == 0.0

    def test_saturates_below_gamma52(self):
        rate = pump_rate_from_field(PumpModel.from_field(1e6))
        assert rate < 0.5
        assert rate == pytest.approx(0.5, rel=1e-9)

    def test_midpoint_value(self):
        pump = PumpModel.from_field(omega_op=np.sqrt(0.5), delta_op=0.0,
                                    gamma51=0.5, gamma52=0.5, gamma5_deph=0.0)
        assert pump_rate_from_field(pump) == pytest.approx(0.25)

    def test_degenerate_coherence_rejected(self):
        with pytest.raises(DegenerateModelError):
            pump_rate_from_field(PumpModel.from_field(
                1.0, gamma51=0.0, gamma52=0.5, gamma5_deph=0.0))

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_field(self, low, high):
        lo, hi = sorted((low, high))
        pump_lo = PumpModel.from_field(lo, delta_op=0.7)
        pump_hi = PumpModel.from_field(hi, delta_op=0.7)
        assert pump_rate_from_field(pump_lo) <= pump_rate_from_field(pump_hi)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_detuning(self, d1, d2):
        near, far = sorted((abs(d1), abs(d2)))
        rate_near = pump_rate_from_field(PumpModel.from_field(3.0, delta_op=near))
        rate_far = pump_rate_from_field(PumpModel.from_field(3.0, delta_op=far))
        assert rate_far <= rate_near + 1e-15


class TestValidation:
    def test_defaults_clean(self):
        assert validate_system(AtomicSystem(), DriveConfig(),
                               PumpModel.direct(0.0)) == []

    def test_dipole_pattern_warning(self):
        system = AtomicSystem(dipole_signs=(1, 1, 1, 1))
        notes = validate_system(system, DriveConfig(), PumpModel.direct(0.0))
        assert any("dipole phase" in n for n in notes)

    def test_pump_bound_warning(self):
        notes = validate_system(AtomicSystem(), DriveConfig(),
                                PumpModel.direct(0.6))
        assert any("bound" in n for n in notes)

    def test_degenerate_configuration_warning(self):
        drive = DriveConfig(omega_c=0.0, omega_p=0.0)
        notes = validate_system(AtomicSystem(), drive, PumpModel.direct(0.0))
        assert any("degenerate" in n for n in notes)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            AtomicSystem(gamma31=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [
        lambda v: AtomicSystem(omega43=v),
        lambda v: AtomicSystem(gamma31=v),
        lambda v: DriveConfig(delta=v),
        lambda v: DriveConfig(omega_c=v),
        lambda v: PumpModel.direct(v),
        lambda v: PumpModel.from_field(v),
        lambda v: DopplerConfig(temperature=v),
        lambda v: physical_scale(v),
        lambda v: make_eit_evaluator(AtomicSystem(), v, 0.01),
    ], ids=["system-omega43", "system-gamma31", "drive-delta", "drive-omega_c",
            "pump-direct", "pump-field", "doppler-temperature",
            "physical_scale", "eit-omega_c"])
    def test_non_finite_input_rejected(self, build, value):
        with pytest.raises(ValueError, match="finite"):
            build(value)

    def test_zero_delta_with_active_coupling_rejected(self):
        with pytest.raises(DegenerateModelError):
            DriveConfig(omega_c=10.0, delta=0.0)
