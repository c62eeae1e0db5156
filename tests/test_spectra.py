"""Susceptibility, dispersion, group index, Doppler averaging, EIT."""

import collections
import math
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from ramanlight import floquet, pulses, spectra
from ramanlight.cli import (_input_pulse, _pulse_band_grid, _pulse_half_width,
                            _raman_evaluator)
from ramanlight.config import ScenarioConfig, preset
from ramanlight.atom import (AtomicSystem, DegenerateModelError, DriveConfig,
                             PumpModel, build_liouvillian, detuning_generators,
                             hamiltonian_superop, pump_generator)
from ramanlight.floquet import extract_dc_coherences, solve_floquet
from ramanlight.spectra import (BranchCutError, DopplerConfig, ScanError,
                                SusceptibilitySpectrum,
                                _eit_liouvillian, dispersion_slope,
                                doppler_average, find_imag_peaks, group_index,
                                group_index_at, make_chi_evaluator,
                                make_eit_evaluator, physical_scale, pump_sweep,
                                scan_evaluator, transmission_window_fwhm)
from helpers import at_detuning

SYSTEM = AtomicSystem()
FIG2C = DriveConfig(omega_c=30.0, delta=0.2)

# frozen independent hand calculations (Rb-87 D1 data, rho = 5e17 m^-3)
K_QUARTER_BRANCH = 86210.0420668411       # rad/s
K_HALF_BRANCH = 172420.0841336822         # rad/s
DOPPLER_SIGMA_320K = 1382874981.1051342   # rad/s


class TestPhysicalScale:
    def test_frozen_hand_value(self):
        scale = physical_scale(5e17)
        assert scale.k == pytest.approx(K_QUARTER_BRANCH, rel=1e-12)

    def test_half_branch_variant(self):
        scale = physical_scale(5e17, branch_fraction=0.5)
        assert scale.k == pytest.approx(K_HALF_BRANCH, rel=1e-12)

    def test_density_linearity(self):
        assert physical_scale(1e18).k == pytest.approx(2 * physical_scale(5e17).k)

    def test_vacuum_limit(self):
        scale = physical_scale(0.0)
        assert scale.k == 0.0
        result = group_index(0.3 + 0.1j, 12.0, scale)
        assert result.n_g == pytest.approx(1.0)


class TestSusceptibility:
    def test_absorption_at_raman_peaks_pump_off(self):
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        for sign in (+1.0, -1.0):
            assert evaluator(sign * FIG2C.delta).imag > 0.1

    def test_gain_at_raman_peaks_pump_on(self):
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.4))
        for sign in (+1.0, -1.0):
            assert evaluator(sign * FIG2C.delta).imag < -0.1

    def test_far_off_peak_is_small(self):
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        assert abs(evaluator(5.0)) * 10.0 < abs(evaluator(0.2))

    def test_probe_weakness_linearity(self):
        chi_ref = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))(0.0)
        half_probe = DriveConfig(omega_c=30.0, delta=0.2, omega_p=0.005)
        chi_half = make_chi_evaluator(SYSTEM, half_probe, PumpModel.direct(0.0))(0.0)
        assert abs(chi_half - chi_ref) <= 1e-3 * abs(chi_ref)

    def test_probe_off_rejected(self):
        drive = DriveConfig(omega_c=30.0, delta=0.2, omega_p=0.0)
        with pytest.raises(ValueError):
            make_chi_evaluator(SYSTEM, drive, PumpModel.direct(0.1))

    def test_peak_symmetry(self):
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        for x in (0.05, 0.13, 0.2, 0.31):
            assert evaluator(x).imag == pytest.approx(evaluator(-x).imag,
                                                      abs=1e-6)


class TestTruncation:
    def test_fig5_drive_matches_order_41(self):
        # the drive of fig5 needs the deepest stationary truncation of the
        # presets (order 14). Measured errors against order 41: 4e-11 on
        # chi(0) and 2.6e-9 on the slope; the bounds sit below the 1.0e-9
        # and 1.4e-8 that order 13, one below the ladder's, gives
        drive = DriveConfig(omega_c=55.0, delta=0.2)   # fig5: delta_c = 70
        pump = PumpModel.direct(0.0)

        def order_41(d2):
            liouv = at_detuning(build_liouvillian(SYSTEM, drive, pump), d2)
            rho31, rho41 = extract_dc_coherences(solve_floquet(liouv, 0.2, 41))
            return (rho31 - rho41) / drive.omega_p

        evaluator = make_chi_evaluator(SYSTEM, drive, pump)
        assert evaluator(0.0) == pytest.approx(order_41(0.0), rel=2e-10)
        step = drive.delta / 200.0
        assert dispersion_slope(evaluator, 0.0, step) == pytest.approx(
            dispersion_slope(np.vectorize(order_41, otypes=[complex]), 0.0, step),
            rel=6e-9)


@pytest.fixture
def accepted_orders(monkeypatch):
    """Accepted truncation order of each member, per ladder call."""
    calls = []
    ladder = spectra.solve_converged_batch

    def recording(*args):
        rho0, orders, errors = ladder(*args)
        calls.append(orders[orders > 0].tolist())
        return rho0, orders, errors

    monkeypatch.setattr(spectra, "solve_converged_batch", recording)
    return calls


def test_strong_coupling_converges_below_the_cap(accepted_orders):
    # Omega_c = 150 gamma3 needs truncation order 28 at the centre and the
    # Raman resonances; the ladder's one cap leaves room for it
    fig2c = preset("fig2c")
    drive = replace(fig2c.drive, omega_c=150.0)
    evaluator = make_chi_evaluator(fig2c.system, drive, fig2c.pump)
    chi, dchi = evaluator.tangent(np.array([-0.2, 0.0, 0.2]))
    assert np.isfinite(chi).all() and np.isfinite(dchi).all()
    assert max(max(orders) for orders in accepted_orders) <= 28


class TestAcceptedOrders:
    """The truncation each class or point settles at.

    The fig6 classes were recorded once every class climbed the ladder
    from the stationary base order; before, 14 of them were seeded at
    order 428 and accepted there. The fig4 scan was recorded before the
    n < 0 side of the continued fraction was mirrored from n > 0, and the
    pump sweep's base orders before its rates were solved as one batch.
    Since mirror pairs (d2, s) and (-d2, -s) share one solve, the ladder
    sees only the member with d2 > 0, or d2 = 0 and s >= 0, of each pair.
    """

    FIG6_CLASSES = [
        10, 10, 14, 14, 20, 20, 40, 28, 28, 40, 40, 40, 40, 40, 40, 56,
        56, 56, 56, 79, 79, 79, 111, 111, 111, 156, 156, 219, 111, 79, 56, 20,
        20, 56, 79, 111, 219, 156, 156, 111, 111, 111, 79, 79, 79, 56, 56, 56,
        56, 40, 40, 40, 40, 40, 40, 28, 28, 40, 20, 20, 14, 14, 10, 10,
    ]
    PUMP_SWEEP_BASES = [10, 10, 10] + [14] * 12

    def test_fig6_doppler_classes_at_zero_pump_and_detuning(self, accepted_orders):
        fig6 = preset("fig6")
        evaluator = make_chi_evaluator(fig6.system, fig6.drive, PumpModel.direct(0.0),
                                       doppler=fig6.doppler, scale=fig6.scale)
        accepted_orders.clear()      # drop the anchors' ladder
        evaluator(0.0)
        # the classes with s > 0; those with s < 0 are their mirrors
        assert accepted_orders == [self.FIG6_CLASSES[32:]]

    def test_fig6_classes_below_zero_shift_solved_directly(self):
        # the mirror images accept at the mirrored orders
        fig6 = preset("fig6")
        liouv = build_liouvillian(fig6.system, fig6.drive, PumpModel.direct(0.0))
        nodes, _ = np.polynomial.hermite.hermgauss(fig6.doppler.nodes)
        shifts = math.sqrt(2.0) * fig6.doppler.shift_sigma(fig6.scale) * nodes[:32]
        per_shift = detuning_generators()[1]
        _, orders, errors = floquet.solve_converged_batch(
            lambda m: liouv.l0 + shifts[m, None, None] * per_shift,
            liouv.l_plus, fig6.drive.delta, np.full(32, 10))
        assert not errors
        assert orders.tolist() == self.FIG6_CLASSES[:32]

    def test_fig4_pump_on_scan(self, accepted_orders):
        fig4 = preset("fig4")
        evaluator = _raman_evaluator(fig4, fig4.pump)
        accepted_orders.clear()
        evaluator(_pulse_band_grid(fig4))
        # the 2001-point grid is antisymmetric: its centre and 1000 mirror pairs
        assert [collections.Counter(orders) for orders in accepted_orders] == [
            {14: 1001}]

    def test_pump_sweep_base_order_per_rate(self, accepted_orders):
        # one anchor ladder over all 15 rates (the centre and one Raman
        # resonance each: -delta is the mirror of +delta), then one tangent
        # ladder whose centres accept at their rate's base order
        fig6 = preset("fig6")
        pump_sweep(fig6.system, fig6.drive, np.linspace(0.0, 0.5, 15),
                   physical_scale(5e17))
        anchors, centres = accepted_orders
        assert np.reshape(anchors, (15, 2)).max(axis=1).tolist() == self.PUMP_SWEEP_BASES
        assert centres == self.PUMP_SWEEP_BASES


def per_member(system, drive, rate, d2s, shifts):
    """chi and d chi/d d2 of each member (d2s[i], shifts[i]) by its own
    ladder from the base order of the anchors 0, +-delta, as a solver
    without the mirror makes them, bit for bit."""
    liouv = build_liouvillian(system, drive, PumpModel.direct(0.0))
    l0 = liouv.l0 + rate * pump_generator(False)
    per_d2, per_shift = detuning_generators()

    def ladder(d2, shift, order, tangent):
        return floquet.solve_converged_batch(
            lambda m: (l0 + np.atleast_1d(d2)[m, None, None] * per_d2
                       + np.atleast_1d(shift)[m, None, None] * per_shift),
            liouv.l_plus, drive.delta, np.atleast_1d(order),
            per_d2 if tangent else None)

    anchors = np.array([0.0, drive.delta, -drive.delta])
    base = ladder(anchors, np.zeros(3), np.ones(3, dtype=int), False)[1].max()
    s31, s41 = system.dipole_signs[:2]
    values = []
    for d2, shift in zip(d2s, shifts):
        rho0, _, errors = ladder(d2, shift, base, True)
        assert not errors
        values.append(rho0[:, 0, 2, 0] / (s31 * drive.omega_p)
                      + rho0[:, 0, 3, 0] / (s41 * drive.omega_p))
    return np.array(values).T


class TestMirrorPairs:
    """A member with d2 < 0, or d2 = 0 and s < 0, is read off the solve of
    its mirror (-d2, -s): chi -> -conj(chi), d chi/d d2 -> conj."""

    @pytest.mark.parametrize("change", [{"omega43": 150.0}, {"gamma41": 0.6}])
    def test_without_the_mirror_every_member_is_solved_as_it_is(self, change):
        system = replace(SYSTEM, **change)
        grid = np.array([-0.3, -0.2, -0.05, 0.0, 0.05, 0.2, 0.3])
        chi, dchi = make_chi_evaluator(system, FIG2C, PumpModel.direct(0.1)).tangent(grid)
        expected = per_member(system, FIG2C, 0.1, grid, np.zeros(grid.size))
        assert np.array_equal(chi, expected[0])
        assert np.array_equal(dchi, expected[1])

    def test_mapped_fig4_point_matches_its_own_solve(self):
        fig4 = preset("fig4")
        point = _pulse_band_grid(fig4)[700]
        assert point < 0
        mapped = make_chi_evaluator(fig4.system, fig4.drive, fig4.pump).tangent(point)
        direct = per_member(fig4.system, fig4.drive, fig4.pump.rate(), [point], [0.0])
        for value, own in zip(mapped, direct[:, 0]):
            assert abs(value - own) <= 1e-11 * abs(own)

    def test_mapped_fig6_classes_match_their_own_solves(self, monkeypatch):
        # at d2 < 0 every class is read off its mirror; take the class
        # values of one Doppler point before the average sums them
        fig6 = preset("fig6")
        classes = []
        average = spectra.doppler_average

        def keeping(at_shifts, config, scale):
            def kept(shifts):
                classes.append((shifts, at_shifts(shifts)))
                return classes[-1][1]
            return average(kept, config, scale)

        monkeypatch.setattr(spectra, "doppler_average", keeping)
        make_chi_evaluator(fig6.system, fig6.drive, PumpModel.direct(0.0),
                           doppler=fig6.doppler, scale=fig6.scale).tangent(-0.05)
        (shifts, values), = classes
        picked = [20, 27, 40]        # s < 0 up to order 219, and s > 0
        direct = per_member(fig6.system, fig6.drive, 0.0, [-0.05] * len(picked),
                            shifts[picked])
        mapped = values[:, 0, picked]
        assert np.all(np.abs(mapped - direct) <= 1e-11 * np.abs(direct))


class TestLadderClimbsPastLowRungs:
    """Near s = -70 gamma3 the coupling pair is one-photon resonant with |3>:
    rung 20 breaks the population bound while its tail fails too, so the
    rung is too low, not the class broken."""

    SHIFT = -70.08

    def test_resonant_class_accepts_at_order_219_with_clean_invariants(self, monkeypatch):
        # pinned, so that the climb from 10 to 219 stays below the cap
        monkeypatch.setattr(floquet, "MAX_ORDER", 600)
        fig6 = preset("fig6")
        liouv = build_liouvillian(fig6.system, fig6.drive, PumpModel.direct(0.0))
        l0 = (liouv.l0 + self.SHIFT * detuning_generators()[1])[None]
        solve = partial(floquet.solve_batch, l0, liouv.l_plus, fig6.drive.delta)
        low, low_errors, _ = solve(20)
        assert isinstance(low_errors[0], floquet.SolverError)
        assert not floquet._tails_ok(low.harmonic(20), low.harmonic(0))[0]
        _, orders, errors = floquet.solve_converged_batch(
            lambda m: l0[m], liouv.l_plus, fig6.drive.delta, [10])
        assert not errors
        assert orders.tolist() == [219]
        assert solve(219)[1] == {}

    def test_doppler_rule_with_a_node_near_resonance_gives_finite_n_g(self):
        # 18 nodes put one near s = -70; its value is the quadrature's, not pinned
        fig6 = preset("fig6")
        n_g = group_index_at(fig6.system, fig6.drive, PumpModel.direct(0.0),
                             physical_scale(5e17),
                             doppler=replace(fig6.doppler, nodes=18)).n_g
        assert math.isfinite(n_g)


class TestScan:
    def test_single_point_matches_susceptibility(self):
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        spectrum = scan_evaluator(evaluator, np.array([0.2]))
        direct = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))(0.2)
        assert spectrum.chi[0] == pytest.approx(direct, rel=1e-9)

    def test_failures_reported_with_grid_point(self):
        def evaluator(d2):
            bad = d2 > 0
            if bad.any():
                raise ScanError([(float(x), RuntimeError("boom")) for x in d2[bad]])
            return np.zeros(d2.shape, dtype=complex)
        with pytest.raises(ScanError) as err:
            scan_evaluator(evaluator, np.array([-1.0, 0.0, 1.0]))
        assert err.value.failures[0][0] == 1.0

    def test_only_the_degenerate_point_is_reported(self, monkeypatch):
        # Im L0 at the rho21 diagonal entry is the two-photon detuning:
        # spoil the one member solved at d2 = grid[11], wherever it is
        # batched; it also serves grid[5] = -grid[11], its mirror
        grid = np.linspace(-0.4, 0.4, 17)
        assert grid[5] == -grid[11]
        solve = floquet.solve_batch

        def spoiled(l0, lp, delta, order, *args):
            l0 = l0.copy()
            l0[l0[:, 4, 4].imag == grid[11]] = np.nan
            return solve(l0, lp, delta, order, *args)

        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        monkeypatch.setattr(floquet, "solve_batch", spoiled)
        with pytest.raises(ScanError) as err:
            scan_evaluator(evaluator, grid)
        assert [point for point, _ in err.value.failures] == [grid[5], grid[11]]
        for _, error in err.value.failures:
            assert isinstance(error, DegenerateModelError)
        for point in (grid[5], grid[11]):
            with pytest.raises(DegenerateModelError):
                evaluator(point)
        assert np.isfinite(evaluator(grid[10]))

    def test_point_independent_of_batch_and_chunk(self, monkeypatch):
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        grid = np.linspace(-1.0, 1.0, 2001)
        scan = scan_evaluator(evaluator, grid).chi
        member = floquet._member_bytes(16, 10, False)
        chunk = floquet.CHUNK_BYTES // member
        for i in (0, chunk - 1, chunk, 1000, 1337, 2000):
            assert evaluator(grid[i]) == scan[i]
        # chunks of three members put a boundary next to every third point
        monkeypatch.setattr(floquet, "CHUNK_BYTES", 3 * member)
        assert np.array_equal(evaluator(grid[45:60]), scan[45:60])

    def test_tangent_independent_of_batch_and_chunk(self, monkeypatch):
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        grid = np.linspace(-1.0, 1.0, 2001)
        chi, dchi = evaluator.tangent(grid)
        assert np.array_equal(chi, evaluator(grid))
        member = floquet._member_bytes(16, 10, True)
        chunk = floquet.CHUNK_BYTES // member
        for i in (0, chunk - 1, chunk, 1000, 1337, 2000):
            assert evaluator.tangent(grid[i]) == (chi[i], dchi[i])
        monkeypatch.setattr(floquet, "CHUNK_BYTES", 3 * member)
        chunked = evaluator.tangent(grid[45:60])
        assert np.array_equal(chunked[0], chi[45:60])
        assert np.array_equal(chunked[1], dchi[45:60])

    @pytest.mark.parametrize("name, order, shift, span, points, tangent", [
        ("fig2c", 10, 0.0, 1.0, 2001, False),
        # fig6 velocity classes near s = 112.9 gamma3 settle at order 111 for
        # |d2| <= 0.5 (those near d2 = -0.87 need 156); two full chunks of them
        ("fig6", 111, 112.9, 0.5, None, True)], ids=["order-10", "order-111-tangent"])
    def test_chunk_keeps_its_budget_live(self, monkeypatch, name, order, shift,
                                         span, points, tangent):
        # over what the ladder returns, tracemalloc measures 1.25 CHUNK_BYTES
        # at order 10 and 1.05 at order 111 with the tangent
        points = points or 2 * (floquet.CHUNK_BYTES
                                // floquet._member_bytes(16, order, tangent))
        config = preset(name)
        liouv = build_liouvillian(config.system, config.drive, PumpModel.direct(0.0))
        per_d2, per_shift = detuning_generators()[:2]
        grid = np.linspace(-span, span, points)
        l0 = liouv.l0 + shift * per_shift

        def ladder(members):
            return floquet.solve_converged_batch(
                lambda m: l0 + grid[members][m, None, None] * per_d2, liouv.l_plus,
                config.drive.delta, np.full(members.size, order),
                per_d2 if tangent else None)

        # capped at the order under test, so that every member stays in it
        monkeypatch.setattr(floquet, "MAX_ORDER", order)
        ladder(np.arange(2))         # numpy's one-time allocations
        sizes = []
        solve = floquet.solve_batch

        def recording(l0, *args):
            sizes.append(l0.shape[0])
            return solve(l0, *args)

        monkeypatch.setattr(floquet, "solve_batch", recording)
        tracemalloc.start()
        try:
            _, orders, errors = ladder(np.arange(points))
            returned, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not errors and set(orders.tolist()) == {order}
        assert peak - returned <= 1.35 * floquet.CHUNK_BYTES
        assert len(sizes) > 1 and min(sizes) > 1
        assert max(sizes) - min(sizes) <= 1

    def test_tangent_of_the_passing_members_keeps_the_budget(self, monkeypatch):
        # one full chunk of fig6 classes at order 111 (eight at 2304 KiB) in
        # which the class at d2 = -0.846 fails its tail: the tangent of the
        # others reads their A_n and S_n in place (1.58 CHUNK_BYTES when it
        # copied them, in a chunk of seven; 0.97 measured now)
        fig6 = preset("fig6")
        liouv = build_liouvillian(fig6.system, fig6.drive, PumpModel.direct(0.0))
        per_d2, per_shift = detuning_generators()
        chunk = floquet.CHUNK_BYTES // floquet._member_bytes(16, 111, True)
        grid = np.linspace(-1.0, 1.0, 14)[:chunk]
        assert grid.size == chunk
        l0 = liouv.l0 + 112.9 * per_shift

        def ladder(members):
            return floquet.solve_converged_batch(
                lambda m: l0 + grid[members][m, None, None] * per_d2, liouv.l_plus,
                fig6.drive.delta, np.full(members.size, 111), per_d2)

        monkeypatch.setattr(floquet, "MAX_ORDER", 111)   # no climb past the chunk
        ladder(np.arange(2))         # numpy's one-time allocations
        tracemalloc.start()
        try:
            _, orders, errors = ladder(np.arange(chunk))
            returned, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(errors) == [1] and orders.tolist() == [111, 0] + [111] * (chunk - 2)
        assert peak - returned <= 1.1 * floquet.CHUNK_BYTES

    def test_sectors_found_once_per_solve(self, monkeypatch):
        # the ladder sizes its chunks from dim alone, not from the sectors
        fig4 = preset("fig4")
        counts = collections.Counter()

        def counting(name):
            original = getattr(floquet, name)

            def counted(*args):
                counts[name] += 1
                return original(*args)
            monkeypatch.setattr(floquet, name, counted)

        counting("solve_batch")
        counting("_sectors")
        evaluator = make_chi_evaluator(fig4.system, fig4.drive, fig4.pump)
        evaluator.tangent(np.linspace(-1.0, 1.0, 101))
        assert counts["solve_batch"] > 1
        assert counts["_sectors"] == counts["solve_batch"]

    def test_fig6_doppler_point_solves_whole_rungs(self, monkeypatch):
        # 64 classes climb to order 219 from the base rung: one chunk per
        # rung, not one or two classes per solve (86 calls with those, 37
        # with full-size harmonics), and the 32 classes with s < 0 are the
        # mirrors of those with s > 0 (28 calls and 2907 stacked solves
        # when each was solved; 19 and 1861 with rungs of 28 to 79 split
        # in two chunks). Measured: 15 calls, 1517 stacked solves. Only the
        # members whose tail passes are checked: 34, of 186 solved. Each
        # A_n is formed once, by the forward pass, and the tangent solves
        # against it: 759 blocks (1492 when the tangent formed its own)
        fig6 = preset("fig6")
        calls = []
        solves = [0]
        checked = [0]
        formed = [0]
        solve, solve_stack = floquet.solve_batch, floquet._solve_stack
        residual, einsum = floquet._residual_errors, np.einsum

        def counted(l0, *args):
            calls.append(l0.shape[0])
            return solve(l0, *args)

        def counted_solve(a, b):
            solves[0] += 1
            return solve_stack(a, b)

        def counted_residual(x, *args):
            checked[0] += x.parts[0].shape[0]
            return residual(x, *args)

        def counted_einsum(subscripts, *operands, **kwargs):
            if subscripts == "...ii->...i":     # the diagonal that A_n shifts
                formed[0] += 1
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(floquet, "solve_batch", counted)
        monkeypatch.setattr(floquet, "_solve_stack", counted_solve)
        monkeypatch.setattr(floquet, "_residual_errors", counted_residual)
        monkeypatch.setattr(np, "einsum", counted_einsum)
        group_index_at(fig6.system, fig6.drive, PumpModel.direct(0.0), fig6.scale,
                       doppler=fig6.doppler)
        assert len(calls) <= 15 + 2
        assert solves[0] <= 1517 * 1.05
        assert sum(calls) == 186
        assert checked[0] == 34
        assert formed[0] == 759

    def test_fig6_doppler_group_index_at_zero_pump(self):
        # the doppler_ng benchmark answer, on the 64-node rule; a change to
        # the tail rule or the quadrature moves it on purpose
        fig6 = preset("fig6")
        n_g = group_index_at(fig6.system, fig6.drive, PumpModel.direct(0.0), fig6.scale,
                             doppler=fig6.doppler).n_g
        assert n_g == pytest.approx(851.063226063716, rel=1e-12)

    def test_doppler_value_independent_of_batch(self):
        config = DopplerConfig(nodes=16)
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0),
                                       doppler=config, scale=physical_scale(5e17))
        points = np.array([-0.002, -0.001, 0.0, 0.001, 0.002])
        batch = evaluator(points)
        for point, value in zip(points, batch):
            assert evaluator(point) == value

    def test_grid_must_increase(self):
        # np.diff(grid) <= 0 is False next to a NaN: non-finite grids once passed
        for grid in ([0.0, 0.0], [0.0, np.nan, 1.0], [0.0, np.inf]):
            with pytest.raises(ValueError):
                SusceptibilitySpectrum(grid=np.array(grid), chi=np.zeros(len(grid)))


class TestDispersionSlope:
    def test_constant_spectrum(self):
        assert dispersion_slope(lambda x: 0.25 + 0.1j, 0.0, 1e-3) == 0.0

    def test_synthetic_lorentzian(self):
        amplitude = 3.7
        def lorentzian(x):
            return amplitude * x / (1.0 + x * x) + 0.2j
        slope = dispersion_slope(lorentzian, 0.0, 1e-3)
        assert slope == pytest.approx(amplitude, rel=1e-6)

    def test_sign_flip_with_pump(self):
        ev_off = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        ev_on = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.4))
        assert dispersion_slope(ev_off, 0.0, 1e-3) > 0
        assert dispersion_slope(ev_on, 0.0, 1e-3) < 0

    def test_non_smooth_point_warns(self):
        from ramanlight.spectra import NonSmoothPointWarning
        with pytest.warns(NonSmoothPointWarning):
            dispersion_slope(lambda x: abs(x) + 0j, 0.01, 0.05)


def _preset_centre_cases():
    """(label, evaluator, Richardson step) at every preset's scan centre."""
    cases = []
    for name in ("fig2a", "fig2c", "fig3a", "fig3c", "fig4", "fig5"):
        config = preset(name)
        step = config.drive.delta / 200.0
        for pump in (PumpModel.direct(0.0), config.pump):
            cases.append((f"{name} r{pump.rate():g}", make_chi_evaluator(
                config.system, config.drive, pump), step))
    fig5 = preset("fig5")
    for omega_c in (0.5, 1.0):
        cases.append((f"fig5 eit {omega_c:g}",
                      make_eit_evaluator(fig5.system, omega_c, fig5.drive.omega_p),
                      1e-3))
    sweep = ScenarioConfig(scenario="sweep")
    for rate in np.linspace(0.0, 0.5, 15):
        cases.append((f"sweep r{rate:.4f}", make_chi_evaluator(
            sweep.system, sweep.drive, PumpModel.direct(rate)),
            sweep.drive.delta / 200.0))
    return cases


class TestTangentSlope:
    def test_matches_richardson_at_every_preset_point(self):
        for label, evaluator, step in _preset_centre_cases():
            chi, dchi = evaluator.tangent(0.0)
            assert chi == evaluator(0.0), label
            assert dchi.real == pytest.approx(dispersion_slope(evaluator, 0.0, step),
                                              rel=1e-7), label

    def test_matches_richardson_on_fig6_doppler_point(self):
        fig6 = preset("fig6")
        evaluator = make_chi_evaluator(fig6.system, fig6.drive, PumpModel.direct(0.0),
                                       doppler=fig6.doppler, scale=fig6.scale)
        _, dchi = evaluator.tangent(0.0)
        assert dchi.real == pytest.approx(
            dispersion_slope(evaluator, 0.0, fig6.drive.delta / 200.0), rel=1e-7)

    def test_eit_tangent_matches_central_difference(self):
        evaluator = make_eit_evaluator(AtomicSystem(), 0.5, 0.01)
        h = 1e-5
        for dp in (0.0, 0.03, -0.2):
            chi, dchi = evaluator.tangent(dp)
            assert chi == evaluator(dp)
            central = (evaluator(dp + h) - evaluator(dp - h)) / (2.0 * h)
            assert abs(dchi - central) <= 1e-6 * abs(dchi)

    def test_sweep_and_fig6_group_index_raise_no_warning(self):
        # dispersion_slope's step-halving check warns on both: at rate 0.107,
        # where the slope is near zero, and at the Doppler point
        sweep = ScenarioConfig(scenario="sweep")
        fig6 = preset("fig6")
        scale = physical_scale(5e17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pump_sweep(sweep.system, sweep.drive, np.linspace(0.0, 0.5, 15), scale)
            group_index_at(fig6.system, fig6.drive, PumpModel.direct(0.0), scale,
                           doppler=fig6.doppler)


class TestGroupIndex:
    def test_vacuum(self):
        result = group_index(0j, 0.0, physical_scale(5e17))
        assert result.n == 1.0
        assert result.n_g == 1.0

    def test_small_chi_expansion(self):
        scale = physical_scale(5e17)
        omega = scale.probe_omega
        chi_s = 1e-9 + 0j
        slope_s = 4.2
        full = group_index(chi_s, slope_s, scale).n_g
        linear = 1.0 + (omega / 2.0) * (scale.k / scale.gamma3 ** 2) * slope_s
        assert full == pytest.approx(linear, rel=1e-6)

    def test_branch_cut_error(self):
        scale = physical_scale(5e17)
        bad = -(1.0 + 1e-6) * scale.gamma3 / scale.k
        with pytest.raises(BranchCutError):
            group_index(bad + 0j, 0.0, scale)

    def test_sign_flip_bracketing(self):
        scale = physical_scale(5e17)
        low = group_index_at(SYSTEM, FIG2C, PumpModel.direct(0.0), scale)
        high = group_index_at(SYSTEM, FIG2C, PumpModel.direct(0.5), scale)
        assert low.n_g > 1.0
        assert high.n_g < 0.0


class TestDoppler:
    def test_shift_sigma_frozen_value(self):
        config, scale = DopplerConfig(), physical_scale(5e17)
        sigma_rad = config.shift_sigma(scale) * scale.gamma3
        assert sigma_rad == pytest.approx(DOPPLER_SIGMA_320K, rel=1e-9)
        assert config.shift_sigma(scale) == pytest.approx(38.28, abs=0.005)

    def test_classes_take_the_width_of_a_hand_built_scale(self, monkeypatch):
        # a 780 nm scale with the default rule: the width is 39.01 gamma3,
        # not the 38.28 of the 795 nm default line
        fig6 = preset("fig6")
        seen = []

        def spy(evaluate_at_shift, config, scale):
            def at_shifts(shifts):
                seen.append(shifts)
                return evaluate_at_shift(shifts)
            return doppler_average(at_shifts, config, scale)

        monkeypatch.setattr(spectra, "doppler_average", spy)
        make_chi_evaluator(fig6.system, fig6.drive, PumpModel.direct(0.0),
                           doppler=DopplerConfig(),
                           scale=physical_scale(5e17, wavelength=780e-9))(0.0)
        x, _ = np.polynomial.hermite.hermgauss(64)
        (shifts,) = seen
        sigma = shifts / (math.sqrt(2.0) * x)
        assert sigma == pytest.approx(np.full(64, 39.01), abs=0.005)

    def test_doppler_evaluator_needs_a_scale(self):
        with pytest.raises(ValueError, match="scale"):
            make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0),
                               doppler=DopplerConfig())

    def test_quadrature_against_closed_form(self):
        # <e^{i a s}> over the Gaussian shift distribution = e^{-a^2 sigma^2/2}
        config, scale = DopplerConfig(temperature=320.0), physical_scale(5e17)
        a = 0.021
        value = doppler_average(lambda s: np.exp(1j * a * s), config, scale)
        expected = math.exp(-a ** 2 * config.shift_sigma(scale) ** 2 / 2.0)
        assert value.real == pytest.approx(expected, rel=1e-9)
        assert value.imag == pytest.approx(0.0, abs=1e-12)

    def test_cold_limit_is_identity_on_smooth_structure(self):
        # at 1 K the shift spread is ~2 gamma3: identity holds for responses
        # varying on the one-photon scale
        config = DopplerConfig(temperature=1.0)
        smooth = lambda s: 1.0 / (1.0 + ((s - 3.0) / 70.0) ** 2) + 0.2j
        averaged = doppler_average(smooth, config, physical_scale(5e17))
        assert abs(averaged - smooth(0.0)) <= 1e-3 * abs(smooth(0.0))

    def test_cold_limit_is_identity_on_physical_evaluator(self):
        # the coupling light shift slides the Raman pair with velocity, so
        # the physical evaluator needs a far colder ensemble to look frozen
        config = DopplerConfig(temperature=1e-5)
        stationary = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        averaged = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0),
                                      doppler=config, scale=physical_scale(5e17))
        assert abs(averaged(0.1) - stationary(0.1)) <= 1e-3 * abs(stationary(0.1))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DopplerConfig(temperature=-1.0)
        with pytest.raises(ValueError):
            DopplerConfig(nodes=4)

    def test_node_counts_beyond_hermgauss_rejected(self):
        # numpy's Gauss-Hermite weights stop summing to 1 above 370 nodes
        assert doppler_average(lambda s: 1 + 0j, DopplerConfig(nodes=370),
                               physical_scale(5e17)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            DopplerConfig(nodes=371)



class TestEit:
    def test_dark_state_transparency(self):
        chi = make_eit_evaluator(AtomicSystem(gamma2_deph=0.0), 0.5, 0.01)(0.0)
        assert abs(chi.imag) < 1e-10

    def test_residual_absorption_with_dephasing(self):
        chi = make_eit_evaluator(AtomicSystem(), 0.5, 0.01)(0.0)
        assert chi.imag > 0.0

    def test_positive_dispersion_at_resonance(self):
        evaluator = make_eit_evaluator(AtomicSystem(), 0.5, 0.01)
        assert dispersion_slope(evaluator, 0.0, 1e-3) > 0

    def test_weak_probe_closed_form(self):
        # rho31/omega_p = (i/2)/(g31 - i dp + (oc/2)^2/(g21 - i dp))
        system, omega_c = AtomicSystem(), 0.8
        g31 = 0.5 * (system.gamma31 + system.gamma32)
        g21 = 0.5 * system.gamma2_deph
        for dp in (0.0, 0.02, -0.07, 0.3):
            expected = (0.5j / (g31 - 1j * dp
                                + (omega_c / 2) ** 2 / (g21 - 1j * dp)))
            measured = make_eit_evaluator(system, omega_c, 0.01)(dp)
            assert measured == pytest.approx(expected, rel=2e-3)

    def test_matches_dense_static_solve(self):
        # the order-0 balance system is L0 rho = 0 with trace(rho) = 1; the
        # derivative solves it with right-hand side -dL0 rho, trace row zero
        omega_p = 0.01
        per_delta_p = hamiltonian_superop(np.diag([0.0, -1.0, -1.0]).astype(complex))
        evaluator = make_eit_evaluator(AtomicSystem(), 0.5, omega_p)
        points = np.array([0.0, 0.03, -0.2, 1.5])
        chi, dchi = evaluator.tangent(points)
        for i, dp in enumerate(points):
            a = _eit_liouvillian(AtomicSystem(), 0.5, omega_p) + dp * per_delta_p
            a[0] = 0.0
            a[0, [0, 4, 8]] = 1.0      # trace(rho) = 1 replaces the rho11 row
            rho = np.linalg.solve(a, np.eye(9)[0])
            rhs = -(per_delta_p @ rho)
            rhs[0] = 0.0
            expected = (rho[6] / omega_p, np.linalg.solve(a, rhs)[6] / omega_p)
            assert abs(chi[i] - expected[0]) <= 1e-12 * abs(expected[0])
            assert abs(dchi[i] - expected[1]) <= 1e-12 * abs(expected[1])
            scalar = evaluator.tangent(dp)
            assert scalar == (chi[i], dchi[i])
            assert evaluator(dp) == chi[i]

    @pytest.mark.parametrize("rate", ["gamma31", "gamma32", "gamma2_deph",
                                      "gamma3_deph"])
    def test_negative_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            make_eit_evaluator(AtomicSystem(**{rate: -0.5}), 0.5, 0.01)

    def test_mirror_pairs_share_one_solve(self):
        # X = diag(1, 1, -1) maps the Lambda system at -d onto it at d
        positive = np.array([0.003, 0.02, 0.07, 0.2, 0.5, 1.5])
        grid = np.concatenate((-positive[::-1], [0.0], positive))
        evaluator = make_eit_evaluator(AtomicSystem(), 0.5, 0.01)
        chi, dchi = evaluator.tangent(grid)
        below, above = slice(positive.size - 1, None, -1), slice(positive.size + 1, None)
        assert np.array_equal(chi[below], -chi[above].conj())
        assert np.array_equal(dchi[below], dchi[above].conj())
        for i, d in enumerate(grid):
            assert evaluator(d) == chi[i]
            assert evaluator.tangent(d) == (chi[i], dchi[i])

    @pytest.mark.parametrize("omega_c", [0.5, 1.0])
    def test_fig5_pulse_band_solves_half_its_bins(self, omega_c, monkeypatch):
        # the 61 FFT bins of the band pair up around the carrier bin
        fig5 = preset("fig5")
        evaluator = make_eit_evaluator(fig5.system, omega_c, fig5.drive.omega_p)
        solved = []
        solve = spectra.solve_converged_batch

        def counting(l0_of, lp, delta, orders, *args):
            solved.append(len(orders))
            return solve(l0_of, lp, delta, orders, *args)

        monkeypatch.setattr(spectra, "solve_converged_batch", counting)
        pulse, _ = _input_pulse(fig5)
        pulses.propagate(pulse, evaluator, fig5.scale, _pulse_half_width(fig5))
        assert solved == [31]


def _media():
    """Factories of both media's evaluators, the four-level one also on
    an 8-node Doppler rule."""
    fig6 = preset("fig6")
    return {
        "eit": lambda: make_eit_evaluator(SYSTEM, 0.5, 0.01),
        "four-level": lambda: make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.1)),
        "doppler": lambda: make_chi_evaluator(
            fig6.system, fig6.drive, PumpModel.direct(0.0),
            doppler=DopplerConfig(nodes=8), scale=fig6.scale),
    }


class TestEvaluatorInput:
    @pytest.mark.parametrize("medium", sorted(_media()))
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_input_gives_empty_arrays(self, medium, shape):
        evaluator = _media()[medium]()
        points = np.zeros(shape)
        for values in (evaluator(points), *evaluator.tangent(points)):
            assert values.shape == shape
            assert values.dtype == complex

    @pytest.mark.parametrize("medium", sorted(_media()))
    @pytest.mark.parametrize("d2, named", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
        (np.array([0.1, math.nan, -math.inf]), "nan")])
    def test_non_finite_detuning_rejected_before_solving(self, medium, d2, named,
                                                         monkeypatch):
        evaluator = _media()[medium]()

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the detunings were checked")

        monkeypatch.setattr(spectra, "solve_converged_batch", no_solve)
        for call in (evaluator, evaluator.tangent):
            with pytest.raises(ValueError, match=f"^detuning {named} is not finite$"):
                call(d2)


class TestSpectrumMetrics:
    def test_find_imag_peaks_synthetic(self):
        grid = np.linspace(-1.0, 1.0, 401)
        y = (1.0 / (1.0 + ((grid - 0.4) / 0.05) ** 2)
             + 1.0 / (1.0 + ((grid + 0.4) / 0.05) ** 2))
        spectrum = SusceptibilitySpectrum(grid=grid, chi=0.0 + 1j * y)
        peaks = find_imag_peaks(spectrum)
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(-0.4, abs=0.01)
        assert peaks[1] == pytest.approx(0.4, abs=0.01)

    def test_transmission_window_on_solver_output(self):
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        spectrum = scan_evaluator(evaluator, np.linspace(-0.4, 0.4, 801))
        width = transmission_window_fwhm(spectrum, physical_scale(5e17))
        assert 0.0 < width < 2.0 * 0.4 * physical_scale(5e17).gamma3


class TestPumpSweep:
    def test_monotone_and_single_sign_change(self):
        scale = physical_scale(5e17)
        rates = np.linspace(0.0, 0.5, 6)
        table = pump_sweep(SYSTEM, FIG2C, rates, scale)
        n_g = table[:, 1]
        assert np.all(np.diff(n_g) < 0)
        assert np.count_nonzero(np.diff(np.sign(n_g)) != 0) == 1

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            pump_sweep(SYSTEM, FIG2C, np.array([-0.1, 0.2]),
                       physical_scale(5e17))

    @pytest.mark.parametrize("rates", [[0.1, np.nan], [np.inf], [[0.0, 0.1]], 0.2, []])
    def test_rejects_non_finite_and_non_1d_rates_before_solving(self, rates,
                                                                monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the rates were checked")

        monkeypatch.setattr(spectra, "solve_converged_batch", no_solve)
        with pytest.raises(ValueError, match="pump rates"):
            pump_sweep(SYSTEM, FIG2C, np.array(rates), physical_scale(5e17))

    @pytest.mark.parametrize("lindblad_form", [False, True])
    def test_rows_equal_group_index_at(self, lindblad_form):
        fig6 = preset("fig6")
        scale = physical_scale(5e17)
        table = pump_sweep(fig6.system, fig6.drive, np.linspace(0.0, 0.5, 15), scale,
                           lindblad_form=lindblad_form)
        for rate, n_g in table:
            assert n_g == group_index_at(fig6.system, fig6.drive,
                                         PumpModel.direct(rate, lindblad_form),
                                         scale).n_g

    def test_doppler_rows_equal_group_index_at(self):
        fig6 = preset("fig6")
        scale = physical_scale(5e17)
        doppler = DopplerConfig(nodes=8)
        table = pump_sweep(fig6.system, fig6.drive, np.array([0.0, 0.1, 0.3]), scale,
                           doppler=doppler)
        for rate, n_g in table:
            assert n_g == group_index_at(fig6.system, fig6.drive, PumpModel.direct(rate),
                                         scale, doppler=doppler).n_g
