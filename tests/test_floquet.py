"""Harmonic-balance solver against closed forms and the time-domain oracle."""

import math

import numpy as np
import pytest
import scipy.linalg

from ramanlight.atom import (AtomicSystem, DegenerateModelError, DriveConfig,
                             PumpModel, build_liouvillian,
                             detuning_generators, ketbra)
from ramanlight import floquet
from ramanlight.floquet import (ConvergenceError, _assemble_dense,
                                choose_truncation, extract_dc_coherences,
                                harmonic_tail_ok, integrate_to_period_average,
                                solve_batch, solve_converged,
                                solve_converged_batch, solve_floquet,
                                steady_state_static, steady_state_static_batch)

SYSTEM = AtomicSystem()
PAPER_DRIVE = DriveConfig(omega_c=30.0, delta=0.2)


def liouvillian(drive=PAPER_DRIVE, rate=0.0, system=SYSTEM):
    return build_liouvillian(system, drive, PumpModel.direct(rate))


def dense_harmonics(liouv, delta, order):
    a, b = _assemble_dense(liouv.l0, liouv.l_plus, liouv.l_minus, delta, order)
    return np.linalg.solve(a, b).reshape(2 * order + 1, 4, 4)


def dense_tangent(liouv, delta, order, dl0):
    """dx/dp of the dense truncated system A x = e when dL0/dp = dl0:
    A y = -(I (x) dl0) x with the trace row of the right-hand side zero."""
    a, b = _assemble_dense(liouv.l0, liouv.l_plus, liouv.l_minus, delta, order)
    lu = scipy.linalg.lu_factor(a)
    x = scipy.linalg.lu_solve(lu, b).reshape(2 * order + 1, -1)
    rhs = -(x @ dl0.T).reshape(-1)
    rhs[order * dl0.shape[0]] = 0.0
    return scipy.linalg.lu_solve(lu, rhs).reshape(2 * order + 1, 4, 4)


def assert_harmonics_close(got, dense, rel):
    """Every harmonic within ``rel`` of the zeroth; the non-negligible ones
    (above the 1e-6 tail threshold) also within ``rel`` of their own size."""
    order = (dense.shape[0] - 1) // 2
    size = np.abs(dense).max(axis=(1, 2))
    dev = np.abs(got - dense).max(axis=(1, 2))
    assert dev.max() <= rel * size[order]
    significant = size >= 1e-6 * size[order]
    assert np.all(dev[significant] <= rel * size[significant])


def assert_matches_dense(fd, liouv):
    assert_harmonics_close(fd.harmonics, dense_harmonics(liouv, fd.delta, fd.order),
                           1e-12)


class TestContinuedFraction:
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    @pytest.mark.parametrize("order", [1, 3, 10, 14])
    def test_matches_dense_solution(self, order, rate):
        liouv = liouvillian(rate=rate)
        assert_matches_dense(solve_floquet(liouv, 0.2, order), liouv)

    def test_doppler_shifted_class_at_high_order_matches_dense(self):
        # a velocity class 10 Gamma3 from |3>: every harmonic up to 120 counts
        liouv = liouvillian(PAPER_DRIVE.doppler_shifted(-60.0), rate=0.2)
        fd = solve_floquet(liouv, 0.2, 120)
        assert np.abs(fd.harmonic(120)).max() > 1e-6 * np.abs(fd.harmonic(0)).max()
        assert_matches_dense(fd, liouv)

    def test_batch_members_are_independent(self):
        shifted = liouvillian(PAPER_DRIVE.doppler_shifted(-60.0))
        paper = liouvillian()
        stack = np.stack([paper.l0, shifted.l0, paper.l0])
        stack[2] = np.nan        # one unusable member
        harmonics, errors, _ = solve_batch(stack, paper.l_plus, paper.l_minus, 0.2, 10)
        assert list(errors) == [2]
        assert isinstance(errors[2], DegenerateModelError)
        for b, liouv in ((0, paper), (1, shifted)):
            alone = solve_floquet(liouv, 0.2, 10).harmonics
            assert np.array_equal(harmonics[b], alone)

    def test_ladder_reports_only_the_capped_member(self):
        # the paper point settles at order 10; the shifted class needs ~300
        paper = liouvillian()
        stack = np.stack([paper.l0, liouvillian(PAPER_DRIVE.doppler_shifted(-60.0)).l0])
        accepted = {}

        def accept(members, order, harmonics):
            for m, h in zip(members, harmonics):
                accepted[int(m)] = (order, h)

        errors = solve_converged_batch(lambda m: stack[m], paper.l_plus,
                                       paper.l_minus, 0.2, [1, 1], [25, 25], accept)
        assert list(errors) == [1]
        assert isinstance(errors[1], ConvergenceError)
        assert list(accepted) == [0]
        order, harmonics = accepted[0]
        assert order == 10
        assert np.array_equal(harmonics, solve_converged(paper, 0.2).harmonics)


class TestTangent:
    """The tangent pass against the derivative of the dense truncated system."""

    @staticmethod
    def assert_matches_dense_tangent(liouv, order):
        per_d2 = detuning_generators()[0]
        _, errors, tangent = solve_batch(liouv.l0[None], liouv.l_plus,
                                         liouv.l_minus, 0.2, order)
        assert not errors
        assert_harmonics_close(tangent([0], per_d2)[0],
                               dense_tangent(liouv, 0.2, order, per_d2), 1e-10)

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    @pytest.mark.parametrize("order", [1, 10, 14])
    def test_matches_dense_derivative(self, order, rate):
        self.assert_matches_dense_tangent(liouvillian(rate=rate), order)

    def test_doppler_shifted_class_at_high_order(self):
        liouv = liouvillian(PAPER_DRIVE.doppler_shifted(-60.0), rate=0.2)
        self.assert_matches_dense_tangent(liouv, 120)

    def test_members_of_a_batch(self):
        # the tangent of a subset equals the tangent of each member alone
        per_d2 = detuning_generators()[0]
        paper = liouvillian()
        stack = np.stack([paper.l0, liouvillian(rate=0.4).l0, paper.l0 + 0.1 * per_d2])
        _, _, tangent = solve_batch(stack, paper.l_plus, paper.l_minus, 0.2, 10)
        subset = tangent(np.array([0, 2]), per_d2)
        for row, b in enumerate((0, 2)):
            _, _, alone = solve_batch(stack[b:b + 1], paper.l_plus, paper.l_minus,
                                      0.2, 10)
            assert np.array_equal(subset[row], alone([0], per_d2)[0])


class TestSolveFloquet:
    def test_no_drive_reduces_to_static_steady_state(self):
        drive = DriveConfig(omega_c=0.0, delta=0.2)
        liouv = liouvillian(drive, rate=0.25)
        fd = solve_floquet(liouv, 0.2, 3)
        static = steady_state_static(liouv.l0)
        assert np.allclose(fd.harmonic(0), static, atol=1e-12)
        for n in range(1, 4):
            assert np.abs(fd.harmonic(n)).max() < 1e-14
            assert np.abs(fd.harmonic(-n)).max() < 1e-14

    def test_pump_only_fixed_point(self):
        drive = DriveConfig(omega_c=0.0, omega_p=0.0)
        fd = solve_floquet(liouvillian(drive, rate=0.3), 1.0, 1)
        assert np.allclose(fd.harmonic(0), ketbra(1, 1), atol=1e-12)

    def test_agrees_with_time_domain_oracle(self):
        liouv = liouvillian()
        order = choose_truncation(liouv, PAPER_DRIVE.delta)
        fd = solve_floquet(liouv, PAPER_DRIVE.delta, order)
        average, trace = integrate_to_period_average(
            liouv, PAPER_DRIVE.delta, tol=1e-12)
        assert np.abs(fd.harmonic(0) - average).max() < 1e-6
        assert trace.convergence < 1e-12

    def test_invariants_at_paper_point(self):
        fd = solve_floquet(liouvillian(rate=0.4), PAPER_DRIVE.delta, 11)
        assert fd.invariant_violations(atol=1e-10) == []

    def test_positivity_at_sixteen_phases(self):
        fd = solve_floquet(liouvillian(), PAPER_DRIVE.delta, 11)
        period = 2.0 * math.pi / PAPER_DRIVE.delta
        for phase in np.arange(16) / 16.0:
            rho = fd.reconstruct(phase * period)
            rho = 0.5 * (rho + rho.conj().T)
            assert np.linalg.eigvalsh(rho).min() >= -1e-8

    def test_degenerate_everything_off(self):
        drive = DriveConfig(omega_c=0.0, omega_p=0.0)
        with pytest.raises(DegenerateModelError):
            solve_floquet(liouvillian(drive, rate=0.0), 1.0, 1)

    def test_probe_off_pump_on_is_fine(self):
        drive = DriveConfig(omega_c=30.0, omega_p=0.0, delta=0.2)
        fd = solve_floquet(liouvillian(drive, rate=0.3), 0.2, 9)
        rho31, rho41 = extract_dc_coherences(fd)
        assert abs(rho31) < 1e-12
        assert abs(rho41) < 1e-12

    def test_extracted_coherences_match_conjugates(self):
        fd = solve_floquet(liouvillian(), PAPER_DRIVE.delta, 9)
        rho0 = fd.harmonic(0)
        rho31, rho41 = extract_dc_coherences(fd)
        assert rho31 == pytest.approx(np.conj(rho0[0, 2]), abs=1e-12)
        assert rho41 == pytest.approx(np.conj(rho0[0, 3]), abs=1e-12)

    def test_bad_order_and_delta(self):
        liouv = liouvillian()
        with pytest.raises(ValueError):
            solve_floquet(liouv, 0.2, 0)
        with pytest.raises(ValueError):
            solve_floquet(liouv, 0.0, 3)


class TestChooseTruncation:
    def test_no_drive_converges_immediately(self):
        drive = DriveConfig(omega_c=0.0, delta=0.2)
        assert choose_truncation(liouvillian(drive, rate=0.1), 0.2) == 1

    def test_paper_point_within_ladder(self):
        order = choose_truncation(liouvillian(), PAPER_DRIVE.delta)
        assert 1 <= order <= 25
        fd = solve_floquet(liouvillian(), PAPER_DRIVE.delta, order + 2)
        assert harmonic_tail_ok(fd)

    def test_zero_tolerance_rejected(self):
        with pytest.raises(ValueError):
            choose_truncation(liouvillian(), 0.2, tol=0.0)

    def test_non_convergence_reported(self):
        with pytest.raises(ConvergenceError):
            choose_truncation(liouvillian(), PAPER_DRIVE.delta, tol=1e-8,
                              order_max=3)


@pytest.fixture
def solved_orders(monkeypatch):
    """Truncation orders of every solve_batch call, in call order."""
    orders = []
    solve = floquet.solve_batch

    def recording(l0, lp, lm, delta, order):
        orders.append(order)
        return solve(l0, lp, lm, delta, order)

    monkeypatch.setattr(floquet, "solve_batch", recording)
    return orders


class TestSolveConverged:
    def test_seed_order_kept_when_tail_passes(self, solved_orders):
        liouv = liouvillian()
        fd = solve_converged(liouv, PAPER_DRIVE.delta, order=17)
        assert solved_orders == [17]
        assert np.array_equal(fd.harmonics,
                              solve_floquet(liouv, PAPER_DRIVE.delta, 17).harmonics)

    def test_order_climbs_by_forty_percent_or_two(self, solved_orders,
                                                  monkeypatch):
        # harmonics of order n hold 2 n + 1 entries: pass from order 20 on
        monkeypatch.setattr(floquet, "_tails_ok",
                            lambda h: np.full(len(h), h.shape[1] >= 41))
        fd = solve_converged(liouvillian(), PAPER_DRIVE.delta)
        assert solved_orders == [1, 3, 5, 7, 10, 14, 20]
        assert fd.order == 20

    def test_first_passing_rung_at_paper_point(self):
        liouv = liouvillian()
        assert solve_converged(liouv, PAPER_DRIVE.delta).order == 10
        assert not harmonic_tail_ok(solve_floquet(liouv, PAPER_DRIVE.delta, 7))

    def test_cap_reached_raises(self, solved_orders):
        with pytest.raises(ConvergenceError):
            solve_converged(liouvillian(), PAPER_DRIVE.delta, order_cap=6)
        assert solved_orders == [1, 3, 5, 6]


class TestTimeDomainOracle:
    def test_zero_generator_returns_initial_state(self):
        liouv = liouvillian(DriveConfig(omega_c=0.0, omega_p=0.0),
                            rate=0.0,
                            system=AtomicSystem(gamma31=0, gamma32=0, gamma41=0,
                                                gamma42=0, gamma2_deph=0))
        liouv.l0[:] = 0.0
        rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        average, trace = integrate_to_period_average(liouv, 1.0, rho0, horizon=5)
        assert np.allclose(average, rho0, atol=1e-12)
        assert trace.periods >= 2

    def test_pump_only_exponential_decay(self):
        rate = 0.3
        drive = DriveConfig(omega_c=0.0, omega_p=0.0)
        liouv = liouvillian(drive, rate=rate)
        rho0 = ketbra(0, 0)
        samples = 512
        average, trace = integrate_to_period_average(
            liouv, 1.0, rho0, tol=1e-11, samples_per_period=samples)
        assert np.allclose(average, ketbra(1, 1), atol=1e-9)
        # period-averaged rho11 follows rho11(t) = e^{-rate t}; compare with
        # the same trapezoid sampling the integrator averages over
        period = 2.0 * math.pi
        grid = period * np.arange(samples + 1) / samples
        weights = np.full(samples + 1, 1.0 / samples)
        weights[0] = weights[-1] = 0.5 / samples
        for p in (0, 1, 2, 3):
            expected = float(weights @ np.exp(-rate * (p * period + grid)))
            measured = trace.average_history[p][0, 0].real
            assert measured == pytest.approx(expected, rel=1e-9)

    def test_final_period_samples_are_states(self):
        liouv = liouvillian()
        _, trace = integrate_to_period_average(liouv, PAPER_DRIVE.delta)
        for state in trace.states[:: 64]:
            assert abs(np.trace(state) - 1.0) < 1e-8
            assert np.abs(state - state.conj().T).max() < 1e-8

    def test_horizon_exhaustion(self):
        with pytest.raises(ConvergenceError):
            integrate_to_period_average(liouvillian(), PAPER_DRIVE.delta,
                                        horizon=2, tol=1e-14)

    def test_bad_initial_state_rejected(self):
        liouv = liouvillian()
        bad_trace = np.eye(4, dtype=complex)
        with pytest.raises(ValueError):
            integrate_to_period_average(liouv, 0.2, bad_trace)
        non_hermitian = np.diag([1.0, 0, 0, 0]).astype(complex)
        non_hermitian[0, 1] = 0.5
        with pytest.raises(ValueError):
            integrate_to_period_average(liouv, 0.2, non_hermitian)


class TestStaticSteadyState:
    def test_three_level_pump_only(self):
        # directly build a 2-level toy: decay 2->1 at rate 1
        import ramanlight.atom as atom
        op = np.zeros((2, 2), dtype=complex)
        op[0, 1] = 1.0
        l0 = atom.dissipator_superop(op, 1.0)
        rho = steady_state_static(l0)
        assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_degenerate_static_detected(self):
        l0 = np.zeros((4, 4), dtype=complex)  # 2-level, no dynamics at all
        with pytest.raises(DegenerateModelError):
            steady_state_static(l0)

    def test_batch_reports_only_the_degenerate_member(self):
        import ramanlight.atom as atom
        op = np.zeros((2, 2), dtype=complex)
        op[0, 1] = 1.0
        decay = atom.dissipator_superop(op, 1.0)
        rho, errors = steady_state_static_batch(
            np.stack([decay, np.zeros((4, 4), dtype=complex), 2.0 * decay]))
        assert list(errors) == [1]
        assert np.allclose(rho[[0, 2]], np.diag([1.0, 0.0]), atol=1e-12)
