"""Harmonic-balance solver against closed forms and the time-domain oracle."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from ramanlight.atom import (AtomicSystem, DegenerateModelError, DriveConfig,
                             PumpModel, build_liouvillian,
                             detuning_generators, dissipator_superop,
                             hamiltonian_superop, ketbra, pump_generator)
from ramanlight import floquet
from ramanlight.config import PRESETS, preset
from ramanlight.spectra import _eit_liouvillian
from ramanlight.floquet import (ConvergenceError, choose_truncation,
                                extract_dc_coherences, harmonic_tail_ok,
                                integrate_to_period_average, solve_batch,
                                solve_converged_batch, solve_floquet)
from helpers import at_detuning

SYSTEM = AtomicSystem()
PAPER_DRIVE = DriveConfig(omega_c=30.0, delta=0.2)


def assemble_dense(l0: np.ndarray, lp: np.ndarray, lm: np.ndarray,
                   delta: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense harmonic-balance matrix and right-hand side, the system the
    continued fraction solves, for the cross-checks below."""
    dim2 = l0.shape[0]
    dim = math.isqrt(dim2)
    nblocks = 2 * order + 1
    size = nblocks * dim2
    a = np.zeros((size, size), dtype=complex)
    eye = np.eye(dim2)
    for b in range(nblocks):
        n = b - order
        sl = slice(b * dim2, (b + 1) * dim2)
        a[sl, sl] = l0 - (1j * n * delta) * eye
        if b >= 1:
            a[sl, (b - 1) * dim2:b * dim2] = lp
        if b + 1 < nblocks:
            a[sl, (b + 1) * dim2:(b + 2) * dim2] = lm
    r = order * dim2
    a[r, :] = 0.0
    a[r, order * dim2 + np.arange(dim) * (dim + 1)] = 1.0
    rhs = np.zeros(size, dtype=complex)
    rhs[r] = 1.0
    return a, rhs


def liouvillian(drive=PAPER_DRIVE, rate=0.0, system=SYSTEM):
    return build_liouvillian(system, drive, PumpModel.direct(rate))


def static_23(coupling=1.0):
    """-i[H, .] of a static |2>-|3> coupling: it breaks the level parity."""
    return hamiltonian_superop(coupling * (ketbra(1, 2) + ketbra(2, 1)))


def without_parity(liouv):
    """``liouv`` plus a static |2>-|3> coupling: no level parity is left."""
    return replace(liouv, l0=liouv.l0 + static_23(0.5))


# ad_U of U = diag(1, -1, 1, 1) keeps these vec(rho) entries: rho_22 and
# every rho_ij with i, j != 2
PAPER_EVEN = np.flatnonzero(np.outer([1, -1, 1, 1], [1, -1, 1, 1]).ravel() > 0)


def l_minus(lp):
    """L(-1) = J(L(+1)) = P conj(L(+1)) P, P: vec(rho) -> vec(rho^T)."""
    return lp.conj().reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)


def dense_harmonics(liouv, delta, order):
    a, b = assemble_dense(liouv.l0, liouv.l_plus, l_minus(liouv.l_plus), delta, order)
    return np.linalg.solve(a, b).reshape(2 * order + 1, 4, 4)


def dense_tangent(liouv, delta, order, dl0):
    """dx/dp of the dense truncated system A x = e when dL0/dp = dl0:
    A y = -(I (x) dl0) x with the trace row of the right-hand side zero."""
    a, b = assemble_dense(liouv.l0, liouv.l_plus, l_minus(liouv.l_plus), delta, order)
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
        liouv = at_detuning(liouvillian(rate=0.2), shift=-60.0)
        fd = solve_floquet(liouv, 0.2, 120)
        assert np.abs(fd.harmonic(120)).max() > 1e-6 * np.abs(fd.harmonic(0)).max()
        assert_matches_dense(fd, liouv)

    @pytest.mark.parametrize("phi", [0.7, -2.3])
    def test_coupling_phase_shifts_the_time_origin(self, phi):
        # L(+1) -> e^{i phi} L(+1) is t -> t + phi / delta, so rho_n picks up
        # e^{i n phi}; L(+1) != L(-1) = J(L(+1)) here
        liouv = liouvillian(rate=0.4)
        lp = np.exp(1j * phi) * liouv.l_plus
        lm = l_minus(lp)
        assert not np.allclose(lp, lm)
        x, errors, _ = solve_batch(liouv.l0[None], lp, 0.2, 10)
        assert not errors
        phased = x.full()[0]
        n = np.arange(-10, 11)[:, None, None]
        unphased = solve_floquet(liouv, 0.2, 10).harmonics
        assert_harmonics_close(phased, np.exp(1j * n * phi) * unphased, 1e-12)
        a, b = assemble_dense(liouv.l0, lp, lm, 0.2, 10)
        assert_harmonics_close(phased, np.linalg.solve(a, b).reshape(21, 4, 4), 1e-12)

    def test_batch_members_are_independent(self):
        shifted = at_detuning(liouvillian(), shift=-60.0)
        paper = liouvillian()
        stack = np.stack([paper.l0, shifted.l0, paper.l0])
        stack[2] = np.nan        # one unusable member
        x, errors, _ = solve_batch(stack, paper.l_plus, 0.2, 10)
        assert list(errors) == [2]
        assert isinstance(errors[2], DegenerateModelError)
        harmonics = x.full()
        for b, liouv in ((0, paper), (1, shifted)):
            alone = solve_floquet(liouv, 0.2, 10).harmonics
            assert np.array_equal(harmonics[b], alone)

    def test_ladder_reports_only_the_capped_member(self, monkeypatch):
        # the paper point settles at order 10; the shifted class needs ~300
        monkeypatch.setattr(floquet, "MAX_ORDER", 25)
        paper = liouvillian()
        stack = np.stack([paper.l0, at_detuning(liouvillian(), shift=-60.0).l0])
        rho0, orders, errors = solve_converged_batch(lambda m: stack[m], paper.l_plus,
                                                     0.2, [1, 1])
        assert list(errors) == [1]
        assert isinstance(errors[1], ConvergenceError)
        assert orders.tolist() == [10, 0]
        assert np.all(np.isnan(rho0[0, 1]))
        assert np.array_equal(rho0[0, 0], solve_floquet(paper, 0.2, 10).harmonic(0))

    def test_ladder_tangent_is_the_tangent_at_the_accepted_order(self):
        per_d2 = detuning_generators()[0]
        paper = liouvillian()
        stack = np.stack([paper.l0, liouvillian(rate=0.4).l0])
        rho0, orders, errors = solve_converged_batch(
            lambda m: stack[m], paper.l_plus, 0.2, [1, 1], per_d2)
        assert not errors
        assert rho0.shape == (2, 2, 4, 4)
        for b, order in enumerate(orders.tolist()):
            x, _, tangent = solve_batch(stack[b:b + 1], paper.l_plus, 0.2, order, per_d2)
            assert np.array_equal(rho0[0, b], x.full()[0, order])
            assert np.array_equal(rho0[1, b], tangent([0]).full()[0, order])


class TestParitySectors:
    """U = diag(1, -1, 1, 1) with t -> t + pi/delta is a symmetry of the
    paper's generator: even harmonics live on 10 entries, odd ones on 6."""

    @pytest.mark.parametrize("lindblad_form", [False, True])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_drive_splits_ten_six(self, name, lindblad_form):
        config = preset(name)
        rates = [build_liouvillian(config.system, config.drive,
                                   PumpModel.direct(rate, lindblad_form))
                 for rate in (0.0, 0.3)]
        l0 = np.stack([at_detuning(liouv, d2, shift).l0
                       for d2, shift in ((0.0, 0.0), (0.07, -3.0)) for liouv in rates])
        liouv = build_liouvillian(config.system, config.drive, config.pump)
        even, odd = floquet._sectors(l0, liouv.l_plus, None)
        assert even.tolist() == PAPER_EVEN.tolist()
        assert odd.tolist() == sorted(set(range(16)) - set(PAPER_EVEN))

    def test_generators_without_parity_keep_every_entry(self):
        eit = _eit_liouvillian(AtomicSystem(), 0.5, 0.01)
        paper = without_parity(liouvillian(rate=0.4))
        no_drive = np.zeros_like(eit)
        for l0, lp in ((eit, no_drive), (paper.l0, paper.l_plus)):
            even, odd = floquet._sectors(l0[None], lp, None)
            assert even.tolist() == odd.tolist() == list(range(l0.shape[0]))

    # TestContinuedFraction and TestTangent check the sector path against
    # the dense system; these check the path on every entry
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    @pytest.mark.parametrize("order", [1, 10, 14])
    def test_without_parity_matches_dense(self, order, rate):
        liouv = without_parity(liouvillian(rate=rate))
        assert_matches_dense(solve_floquet(liouv, 0.2, order), liouv)
        TestTangent.assert_matches_dense_tangent(liouv, order)

    def test_without_parity_doppler_shifted_class_at_high_order(self):
        liouv = without_parity(at_detuning(liouvillian(rate=0.2), shift=-60.0))
        fd = solve_floquet(liouv, 0.2, 120)
        assert np.abs(fd.harmonic(120)).max() > 1e-6 * np.abs(fd.harmonic(0)).max()
        assert_matches_dense(fd, liouv)
        TestTangent.assert_matches_dense_tangent(liouv, 120)

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_harmonics_vanish_outside_their_sector(self, rate):
        harmonics = solve_floquet(liouvillian(rate=rate), 0.2, 14).harmonics
        harmonics = harmonics.reshape(29, 16)
        parity = np.arange(-14, 15) % 2
        odd = np.setdiff1d(np.arange(16), PAPER_EVEN)
        assert np.all(harmonics[parity == 0][:, odd] == 0.0)
        assert np.all(harmonics[parity == 1][:, PAPER_EVEN] == 0.0)
        # the odd harmonics of the probe coherences rho31 and rho41 vanish;
        # the even ones carry the +-2 delta sidebands
        assert np.all(harmonics[parity == 1][:, [8, 12]] == 0.0)
        assert np.all(harmonics[[12, 16]][:, [8, 12]] != 0.0)

    @pytest.mark.parametrize("split", [True, False], ids=["ten-six", "every-entry"])
    def test_sector_harmonics_expand_to_the_full_form(self, split):
        # on arbitrary entries, so that no trace or mirror vanishes by chance
        liouv = liouvillian(rate=0.4)
        liouv = liouv if split else without_parity(liouv)
        sectors = solve_batch(liouv.l0[None], liouv.l_plus, 0.2, 9)[0].sectors
        rng = np.random.default_rng(7)
        x = floquet.SectorHarmonics(sectors, tuple(
            rng.normal(size=(2, count, sector.size, 2)) @ [1.0, 1j]
            for count, sector in zip((5, 5), sectors)))
        assert x.order == 9 and x.dim == 4
        full = x.full()
        assert full.shape == (2, 19, 4, 4)
        for n in range(10):
            on_sector = full[:, 9 + n].reshape(2, 16)
            assert np.array_equal(on_sector[:, sectors[n % 2]], x.harmonic(n))
            off_sector = np.setdiff1d(np.arange(16), sectors[n % 2])
            assert np.all(on_sector[:, off_sector] == 0.0)
            if n:
                assert np.array_equal(full[:, 9 - n], full[:, 9 + n].conj().swapaxes(1, 2))
        assert np.array_equal(x.full(0), full[:, 9:10])
        assert np.array_equal(x.full(3), full[:, 6:13])
        assert np.allclose(x.traces(), np.trace(full[:, 9:], axis1=2, axis2=3),
                           rtol=0.0, atol=1e-14)

    def test_same_model_stack_members_are_bitwise_independent(self):
        # one affine family, as every ladder batch is: one split for all
        per_d2, per_shift = detuning_generators()[:2]
        paper = liouvillian(rate=0.4)
        stack = np.stack([paper.l0, paper.l0 + 0.1 * per_d2, paper.l0,
                          paper.l0 - 60.0 * per_shift])
        stack[2] = np.nan        # one unusable member
        x, errors, tangent = solve_batch(stack, paper.l_plus, 0.2, 10, per_d2)
        assert list(errors) == [2]
        harmonics = x.full()
        subset = tangent(np.array([3, 1, 0])).full()
        for row, b in enumerate((3, 1, 0)):
            alone, _, alone_tangent = solve_batch(stack[b:b + 1], paper.l_plus,
                                                  0.2, 10, per_d2)
            assert np.array_equal(harmonics[b], alone.full()[0])
            assert np.array_equal(subset[row], alone_tangent([0]).full()[0])
        alone, _, _ = solve_batch(stack[2:3], paper.l_plus, 0.2, 10)
        assert np.array_equal(harmonics[2], alone.full()[0], equal_nan=True)

    def test_mixed_model_stack_solves_every_entry_of_each_member(self):
        # a member without the parity sets the split of the whole stack
        per_d2 = detuning_generators()[0]
        paper = liouvillian(rate=0.4)
        models = [paper, without_parity(paper), liouvillian(),
                  without_parity(replace(paper, l0=paper.l0 + 0.1 * per_d2))]
        x, errors, tangent = solve_batch(
            np.stack([m.l0 for m in models]), paper.l_plus, 0.2, 10, per_d2)
        assert not errors
        assert [part.shape[2] for part in x.parts] == [16, 16]
        harmonics, y = x.full(), tangent(np.arange(len(models))).full()
        for b, liouv in enumerate(models):
            assert_harmonics_close(harmonics[b], dense_harmonics(liouv, 0.2, 10), 1e-12)
            assert_harmonics_close(y[b], dense_tangent(liouv, 0.2, 10, per_d2), 1e-10)


class TestLevelMirror:
    """Complex conjugation with X: |3> <-> |4>, |2> -> -|2> maps member
    (d2, s) onto (-d2, -s) when the couplings sit halfway between |3> and
    |4> and the doublet decays symmetrically."""

    @staticmethod
    def mirror(system, drive, lindblad_form=False):
        liouv = build_liouvillian(system, drive, PumpModel.direct(0.0))
        return floquet.level_mirror([liouv.l0, pump_generator(lindblad_form)],
                                    list(detuning_generators()), liouv.l_plus)

    @pytest.mark.parametrize("lindblad_form", [False, True])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_has_the_doublet_mirror(self, name, lindblad_form):
        config = preset(name)
        levels, signs = self.mirror(config.system, config.drive, lindblad_form)
        assert levels.tolist() == [0, 1, 3, 2]
        assert signs.tolist() == [1, -1, 1, 1]

    @pytest.mark.parametrize("change", [{"omega43": 150.0}, {"gamma41": 0.6}])
    def test_asymmetric_doublet_has_none(self, change):
        assert self.mirror(replace(SYSTEM, **change), PAPER_DRIVE) is None

    def test_mirror_maps_every_harmonic_of_the_truncated_system(self):
        # rho_n of (-d2, -s) is X rho_n^T X^T of (d2, s) at the same order,
        # and the d2 tangent of rho_0 changes sign
        levels, signs = self.mirror(SYSTEM, PAPER_DRIVE)
        x = np.eye(4)[levels] * signs[:, None]
        liouv = build_liouvillian(SYSTEM, PAPER_DRIVE, PumpModel.direct(0.2))
        per_d2, per_shift = detuning_generators()
        l0 = np.stack([liouv.l0 + sign * (0.13 * per_d2 - 31.0 * per_shift)
                       for sign in (1.0, -1.0)])
        rho, errors, tangent = solve_batch(l0, liouv.l_plus, PAPER_DRIVE.delta, 20, per_d2)
        assert not errors
        full, dfull = rho.full(), tangent(np.arange(2)).full()
        mapped = x @ np.swapaxes(full[0], 1, 2) @ x.T
        assert np.allclose(full[1], mapped, rtol=0, atol=1e-12 * np.abs(full).max())
        assert np.allclose(dfull[1, 20], -x @ dfull[0, 20].conj() @ x.T,
                           rtol=0, atol=1e-12 * np.abs(dfull).max())


class TestMirrorPrecondition:
    """The n < 0 side is mirrored from n > 0: inputs must keep rho Hermitian."""

    def test_broken_member_of_l0_stack_rejected(self):
        paper = liouvillian()
        stack = np.stack([paper.l0, paper.l0, liouvillian(rate=0.4).l0])
        stack[1] += 1e-3j * np.eye(16)
        with pytest.raises(ValueError, match=r"J\(L0\) = L0 is broken"):
            solve_batch(stack, paper.l_plus, 0.2, 10)

    def test_tangent_of_non_hermitian_derivative_rejected(self):
        paper = liouvillian()
        _, errors, _ = solve_batch(paper.l0[None], paper.l_plus, 0.2, 10)
        assert not errors
        with pytest.raises(ValueError, match=r"J\(dL0\) = dL0 is broken"):
            solve_batch(paper.l0[None], paper.l_plus, 0.2, 10,
                        detuning_generators()[0] + 1e-3j * np.eye(16))

    def test_negative_harmonics_are_exact_adjoints(self):
        fd = solve_floquet(liouvillian(rate=0.4), 0.2, 10)
        for n in range(1, 11):
            assert np.array_equal(fd.harmonic(-n), fd.harmonic(n).conj().T)

    def test_expanded_harmonics_are_exact_adjoints_on_every_path(self):
        # the solve stores n >= 0 only; the expansion writes the n < 0 side
        per_d2 = detuning_generators()[0]
        shifted = at_detuning(liouvillian(rate=0.2), shift=-60.0)
        for liouv in (shifted, without_parity(shifted)):
            x, errors, tangent = solve_batch(liouv.l0[None], liouv.l_plus, 0.2, 31,
                                             per_d2)
            assert not errors
            for harmonics in (x.full()[0], tangent([0]).full()[0]):
                for n in range(1, 32):
                    assert np.array_equal(harmonics[31 - n],
                                          harmonics[31 + n].conj().T)


class TestResidualCheck:
    """The residual check reads each n >= 0 harmonic on its sector blocks.
    The rows it skips are exact zeros or mirror images, so it still flags a
    spoiled member, and only that member."""

    ODD = np.setdiff1d(np.arange(16), PAPER_EVEN)

    @staticmethod
    def paper_stack():
        per_d2, per_shift = detuning_generators()[:2]
        paper = liouvillian(rate=0.4)
        return paper, np.stack([paper.l0, paper.l0 + 0.1 * per_d2,
                                paper.l0 - 60.0 * per_shift, paper.l0 - 0.1 * per_d2])

    @staticmethod
    def unseen_by_neighbours(liouv, sector, other):
        """A unit vector on ``sector`` that L(+-1) map to 0 in ``other``: a
        harmonic spoiled along it spoils only its own rows."""
        drive = np.vstack([liouv.l_plus[other[:, None], sector],
                           l_minus(liouv.l_plus)[other[:, None], sector]])
        return scipy.linalg.null_space(drive)[:, 0]

    def test_spoiled_solution_flags_only_its_member(self):
        paper, l0 = self.paper_stack()
        x, errors, _ = solve_batch(l0, paper.l_plus, 0.2, 10)
        assert not errors
        assert [part.shape for part in x.parts] == [(4, 6, 10), (4, 5, 6)]
        even, odd = (part.copy() for part in x.parts)
        even[1, 4 // 2] += 1e-3 * self.unseen_by_neighbours(paper, PAPER_EVEN, self.ODD)
        odd[2, 3 // 2] += 1e-3 * self.unseen_by_neighbours(paper, self.ODD, PAPER_EVEN)
        # every balance row holds, the trace row does not
        even[3] *= 1.0 + 1e-3
        odd[3] *= 1.0 + 1e-3
        spoiled = floquet.SectorHarmonics(x.sectors, (even, odd))
        errors = floquet._residual_errors(spoiled, l0, paper.l_plus,
                                          l_minus(paper.l_plus), 0.2)
        assert sorted(errors) == [1, 2, 3]
        assert all(isinstance(e, DegenerateModelError) for e in errors.values())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_off_the_blocks_fails_its_member(self, value):
        # the blocks solve the member to finite harmonics; the check fails it
        paper, l0 = self.paper_stack()
        l0[2, PAPER_EVEN[3], self.ODD[1]] = value
        even, _ = floquet._sectors(l0, paper.l_plus, None)
        assert even.tolist() == PAPER_EVEN.tolist()
        x, errors, _ = solve_batch(l0, paper.l_plus, 0.2, 10)
        assert list(errors) == [2]
        assert isinstance(errors[2], DegenerateModelError)
        assert np.isfinite(x.full()).all()


class TestTangent:
    """The tangent pass against the derivative of the dense truncated system."""

    @staticmethod
    def assert_matches_dense_tangent(liouv, order):
        per_d2 = detuning_generators()[0]
        _, errors, tangent = solve_batch(liouv.l0[None], liouv.l_plus, 0.2, order,
                                         per_d2)
        assert not errors
        assert_harmonics_close(tangent([0]).full()[0],
                               dense_tangent(liouv, 0.2, order, per_d2), 1e-10)

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    @pytest.mark.parametrize("order", [1, 10, 14])
    def test_matches_dense_derivative(self, order, rate):
        self.assert_matches_dense_tangent(liouvillian(rate=rate), order)

    def test_doppler_shifted_class_at_high_order(self):
        liouv = at_detuning(liouvillian(rate=0.2), shift=-60.0)
        self.assert_matches_dense_tangent(liouv, 120)

    def test_derivative_that_breaks_the_parity(self):
        # y would leave the sectors: the split keeps every entry
        liouv = liouvillian(rate=0.4)
        _, errors, tangent = solve_batch(liouv.l0[None], liouv.l_plus, 0.2, 10,
                                         static_23())
        assert not errors
        y = tangent([0]).full()[0]
        assert_harmonics_close(y, dense_tangent(liouv, 0.2, 10, static_23()), 1e-10)
        assert np.abs(y[10]).max() > 0.0

    def test_members_of_a_batch(self):
        # the tangent of a subset equals the tangent of each member alone
        per_d2 = detuning_generators()[0]
        paper = liouvillian()
        stack = np.stack([paper.l0, liouvillian(rate=0.4).l0, paper.l0 + 0.1 * per_d2])
        _, _, tangent = solve_batch(stack, paper.l_plus, 0.2, 10, per_d2)
        subset = tangent(np.array([0, 2])).full()
        for row, b in enumerate((0, 2)):
            _, _, alone = solve_batch(stack[b:b + 1], paper.l_plus, 0.2, 10, per_d2)
            assert np.array_equal(subset[row], alone([0]).full()[0])


    @pytest.mark.parametrize("order", [10, 120])
    def test_zeroth_harmonic_alone_is_bitwise_that_of_every_harmonic(self, order):
        # the ladder reads y_0 alone, so its sweep up stops there
        per_d2, per_shift = detuning_generators()[:2]
        paper = liouvillian(rate=0.2)
        stack = np.stack([paper.l0, paper.l0 + 0.1 * per_d2, paper.l0 - 60.0 * per_shift])
        _, _, tangent = solve_batch(stack, paper.l_plus, 0.2, order, per_d2)
        for members in (np.arange(3), np.array([2, 0])):
            y0 = tangent(members, 0)
            assert y0.order == 0
            assert np.array_equal(y0.full(), tangent(members).full()[:, order:order + 1])


class TestSolveFloquet:
    def test_no_drive_reduces_to_static_steady_state(self):
        drive = DriveConfig(omega_c=0.0, delta=0.2)
        liouv = liouvillian(drive, rate=0.25)
        fd = solve_floquet(liouv, 0.2, 3)
        # the order-0 balance system is L0 rho = 0 with trace(rho) = 1
        a, b = assemble_dense(liouv.l0, 0, 0, 0.2, 0)
        static = np.linalg.solve(a, b).reshape(4, 4)
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

    def test_spoiled_invariants_are_named(self):
        # the packed solve and FloquetDensity report the same problems
        liouv = liouvillian(rate=0.4)
        x, errors, _ = solve_batch(liouv.l0[None], liouv.l_plus, 0.2, 4)
        assert not errors
        even, odd = (part.copy() for part in x.parts)
        rho22 = np.flatnonzero(x.sectors[0] == 5)[0]
        even[0, 0, rho22] += 0.5j          # trace(rho_0) and a population
        even[0, 1, rho22] += 1e-3          # trace(rho_2)
        spoiled = floquet.SectorHarmonics(x.sectors, (even, odd))
        packed = floquet._invariant_violations(
            spoiled.traces(), np.diagonal(spoiled.full(0)[:, 0], axis1=1, axis2=2), 1e-10)
        fd = floquet.FloquetDensity(order=4, delta=0.2, harmonics=spoiled.full()[0])
        assert packed == [fd.invariant_violations()]
        assert [p.split(" ")[0] for p in packed[0]] == [
            "trace(rho_0)", "trace(rho_2)", "populations"]
        assert packed[0][2] == "populations not real"

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


# (omega_c, delta, rate) of the preset points of acceptance criterion 2
PRESET_POINTS = [(20.0, 0.1, 0.0), (30.0, 0.2, 0.0), (30.0, 0.2, 0.06),
                 (30.0, 0.2, 0.4), (55.0, 0.2, 0.0), (55.0, 0.2, 0.17)]


class TestChooseTruncation:
    def test_no_drive_converges_immediately(self):
        drive = DriveConfig(omega_c=0.0, delta=0.2)
        assert choose_truncation(liouvillian(drive, rate=0.1), 0.2) == 1

    def test_paper_point_within_ladder(self):
        order = choose_truncation(liouvillian(), PAPER_DRIVE.delta)
        assert 1 <= order <= floquet.MAX_ORDER
        assert harmonic_tail_ok(solve_floquet(liouvillian(), PAPER_DRIVE.delta, order))

    def test_ladder_order_at_preset_points(self):
        # the first rung from seed 1 whose tail passes, and the order one
        # ladder batch of all the points of a drive accepts
        rungs = [1, 3, 5, 7, 10, 14, 20, 28, 40]
        for omega_c, delta in sorted({point[:2] for point in PRESET_POINTS}):
            drive = DriveConfig(omega_c=omega_c, delta=delta)
            members = [at_detuning(liouvillian(drive, rate), d2)
                       for oc, d, rate in PRESET_POINTS if (oc, d) == (omega_c, delta)
                       for d2 in (0.0, delta)]
            chosen = [choose_truncation(liouv, delta) for liouv in members]
            for liouv, order in zip(members, chosen):
                assert order == next(n for n in rungs
                                     if harmonic_tail_ok(solve_floquet(liouv, delta, n)))
            stack = np.stack([liouv.l0 for liouv in members])
            _, orders, errors = solve_converged_batch(
                lambda m: stack[m], members[0].l_plus, delta, np.ones(len(members)))
            assert not errors
            assert orders.tolist() == chosen


@pytest.fixture
def solved_orders(monkeypatch):
    """Truncation orders of every solve_batch call, in call order."""
    orders = []
    solve = floquet.solve_batch

    def recording(l0, lp, delta, order, *args):
        orders.append(order)
        return solve(l0, lp, delta, order, *args)

    monkeypatch.setattr(floquet, "solve_batch", recording)
    return orders


def converged(liouv, order=1):
    """rho_0 and accepted order of one generator by the ladder, or its error."""
    rho0, orders, errors = solve_converged_batch(
        lambda members: liouv.l0[None], liouv.l_plus, PAPER_DRIVE.delta, [order])
    if errors:
        raise errors[0]
    return rho0[0, 0], int(orders[0])


class TestSolveConverged:
    def test_seed_order_kept_when_tail_passes(self, solved_orders):
        liouv = liouvillian()
        rho0, _ = converged(liouv, order=17)
        assert solved_orders == [17]
        assert np.array_equal(rho0,
                              solve_floquet(liouv, PAPER_DRIVE.delta, 17).harmonic(0))

    def test_order_climbs_by_forty_percent_or_two(self, solved_orders,
                                                  monkeypatch):
        # the tail test reads the rung just solved: pass from order 20 on
        monkeypatch.setattr(floquet, "_tails_ok", lambda edge, zeroth: np.full(
            len(edge), solved_orders[-1] >= 20))
        liouv = liouvillian()
        rho0, order = converged(liouv)
        assert solved_orders == [1, 3, 5, 7, 10, 14, 20]
        assert order == 20
        assert np.array_equal(rho0,
                              solve_floquet(liouv, PAPER_DRIVE.delta, 20).harmonic(0))

    def test_first_passing_rung_at_paper_point(self):
        liouv = liouvillian()
        rho0, order = converged(liouv)
        assert order == 10
        assert np.array_equal(rho0,
                              solve_floquet(liouv, PAPER_DRIVE.delta, 10).harmonic(0))
        assert not harmonic_tail_ok(solve_floquet(liouv, PAPER_DRIVE.delta, 7))

    def test_cap_reached_raises(self, solved_orders, monkeypatch):
        monkeypatch.setattr(floquet, "MAX_ORDER", 6)
        with pytest.raises(ConvergenceError):
            converged(liouvillian())
        assert solved_orders == [1, 3, 5, 6]


class TestLadderChecks:
    """The ladder checks a member only where it keeps the verdict: the tail
    passes, a harmonic is not finite, or the rung is at MAX_ORDER. Any
    other member climbs, whatever its checks would say."""

    @staticmethod
    def off_the_blocks(l0, value=np.inf):
        """``l0`` with an entry the sector blocks never read set to
        ``value``: the harmonics stay finite, the residual check fails."""
        l0 = l0.copy()
        l0[..., PAPER_EVEN[3], TestResidualCheck.ODD[1]] = value
        return l0

    @pytest.fixture
    def solved(self, monkeypatch):
        """(order, members) of every solve_batch call, in call order."""
        calls = []
        solve = floquet.solve_batch

        def recording(l0, lp, delta, order, *args):
            calls.append((order, l0.shape[0]))
            return solve(l0, lp, delta, order, *args)

        monkeypatch.setattr(floquet, "solve_batch", recording)
        return calls

    def test_nan_member_reported_at_its_first_rung(self, solved):
        paper = liouvillian()
        stack = np.stack([paper.l0, paper.l0])
        stack[1] = np.nan
        rho0, orders, errors = solve_converged_batch(
            lambda m: stack[m], paper.l_plus, PAPER_DRIVE.delta, [1, 1])
        assert list(errors) == [1]
        assert isinstance(errors[1], DegenerateModelError)
        assert orders.tolist() == [10, 0]
        assert solved == [(1, 2), (3, 1), (5, 1), (7, 1), (10, 1)]
        assert np.all(np.isnan(rho0[0, 1]))

    def test_passing_tail_with_failing_residual_reported(self, solved):
        # the tail fails below order 10, so the member climbs to it unchecked
        paper = liouvillian()
        l0 = self.off_the_blocks(paper.l0)[None]
        rho0, orders, errors = solve_converged_batch(
            lambda m: l0[m], paper.l_plus, PAPER_DRIVE.delta, [1])
        assert list(errors) == [0]
        assert isinstance(errors[0], DegenerateModelError)
        assert orders.tolist() == [0]
        assert solved == [(1, 1), (3, 1), (5, 1), (7, 1), (10, 1)]
        assert np.all(np.isnan(rho0))

    def test_failing_tail_and_residual_below_the_cap_climbs(self, solved, monkeypatch):
        # the stand-in spoils every rung below order 10, where the tail
        # fails too: the member climbs and accepts at 10 with the value of
        # the unspoiled solve
        paper = liouvillian()
        spoiled = self.off_the_blocks(paper.l0)[None]
        x, errors, _ = solve_batch(spoiled, paper.l_plus, PAPER_DRIVE.delta, 7)
        assert isinstance(errors[0], DegenerateModelError)
        assert not floquet._tails_ok(x.harmonic(7), x.harmonic(0))[0]
        solve = floquet.solve_batch

        def spoiled_below_ten(l0, lp, delta, order, *args):
            return solve(spoiled if order < 10 else l0, lp, delta, order, *args)

        monkeypatch.setattr(floquet, "solve_batch", spoiled_below_ten)
        rho0, order = converged(paper)
        assert solved == [(1, 1), (3, 1), (5, 1), (7, 1), (10, 1)]
        assert order == 10
        assert np.array_equal(rho0, solve_floquet(paper, PAPER_DRIVE.delta, 10).harmonic(0))


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

    def test_phased_coupling_gets_its_own_mirror_term(self):
        # L(+1) -> e^{0.7 i} L(+1) makes L(-1) = J(L(+1)) differ from L(+1):
        # the oracle forms it as the harmonic solve does
        liouv = liouvillian(DriveConfig(omega_c=20.0, delta=0.3), rate=0.2)
        phased = replace(liouv, l_plus=np.exp(0.7j) * liouv.l_plus)
        average, _ = integrate_to_period_average(phased, 0.3, tol=1e-11)
        expected = solve_floquet(phased, 0.3, 20).harmonic(0)
        assert np.abs(average - expected).max() <= 1e-10

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


def zero_drive_batch(l0):
    """solve_batch at order 1 with no drive terms: the static steady states."""
    no_drive = np.zeros(l0.shape[-2:], dtype=complex)
    x, errors, _ = solve_batch(l0, no_drive, 1.0, 1)
    harmonics = x.full()
    solved = [b for b in range(l0.shape[0]) if b not in errors]
    assert np.all(harmonics[solved][:, [0, 2]] == 0.0)
    return harmonics[:, 1], errors


class TestStaticSteadyState:
    """Zero-drive inputs to solve_batch: L0 rho = 0 with trace(rho) = 1."""

    @staticmethod
    def decay():
        # a 2-level toy: decay 2->1 at rate 1
        op = np.zeros((2, 2), dtype=complex)
        op[0, 1] = 1.0
        return dissipator_superop(op, 1.0)

    def test_three_level_pump_only(self):
        rho, errors = zero_drive_batch(self.decay()[None])
        assert not errors
        assert np.allclose(rho[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_degenerate_static_detected(self):
        l0 = np.zeros((1, 4, 4), dtype=complex)  # 2-level, no dynamics at all
        _, errors = zero_drive_batch(l0)
        assert isinstance(errors[0], DegenerateModelError)

    def test_batch_reports_only_the_degenerate_member(self):
        # the exactly singular member comes back as NaN, without a warning
        decay = self.decay()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, errors = zero_drive_batch(
                np.stack([decay, np.zeros((4, 4), dtype=complex), 2.0 * decay]))
        assert list(errors) == [1]
        assert isinstance(errors[1], DegenerateModelError)
        assert np.allclose(rho[[0, 2]], np.diag([1.0, 0.0]), atol=1e-12)
        assert np.all(np.isnan(np.diagonal(rho[1])))
