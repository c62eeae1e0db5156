"""Susceptibility, dispersion, group index, Doppler averaging, EIT."""

import math
import warnings

import numpy as np
import pytest

from ramanlight import floquet
from ramanlight.cli import _eit_config
from ramanlight.config import ScenarioConfig, preset
from ramanlight.atom import (AtomicSystem, DegenerateModelError, DriveConfig,
                             PumpModel, build_liouvillian)
from ramanlight.floquet import extract_dc_coherences, solve_floquet
from ramanlight.spectra import (BranchCutError, DopplerConfig, QuadratureError,
                                ScanError, SusceptibilitySpectrum,
                                ThreeLevelConfig, dispersion_slope,
                                doppler_average, eit_susceptibility,
                                find_imag_peaks, group_index, group_index_at,
                                make_chi_evaluator, make_eit_evaluator,
                                physical_scale, pump_sweep, scan_evaluator,
                                susceptibility, transmission_window_fwhm)

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

    def test_inconsistent_k_rejected(self):
        from ramanlight.spectra import PhysicalScale
        good = physical_scale(5e17)
        with pytest.raises(ValueError):
            PhysicalScale(density=good.density, dipole_sq=good.dipole_sq,
                          gamma3=good.gamma3, wavelength=good.wavelength,
                          length=good.length, k=good.k * 1.5)


class TestSusceptibility:
    def test_absorption_at_raman_peaks_pump_off(self):
        for sign in (+1.0, -1.0):
            drive = FIG2C.at_two_photon_detuning(sign * FIG2C.delta)
            chi = susceptibility(SYSTEM, drive, PumpModel.direct(0.0))
            assert chi.imag > 0.1

    def test_gain_at_raman_peaks_pump_on(self):
        for sign in (+1.0, -1.0):
            drive = FIG2C.at_two_photon_detuning(sign * FIG2C.delta)
            chi = susceptibility(SYSTEM, drive, PumpModel.direct(0.4))
            assert chi.imag < -0.1

    def test_far_off_peak_is_small(self):
        on_peak = susceptibility(SYSTEM, FIG2C.at_two_photon_detuning(0.2),
                                 PumpModel.direct(0.0))
        far = susceptibility(SYSTEM, FIG2C.at_two_photon_detuning(5.0),
                             PumpModel.direct(0.0))
        assert abs(far) * 10.0 < abs(on_peak)

    def test_probe_weakness_linearity(self):
        chi_ref = susceptibility(SYSTEM, FIG2C, PumpModel.direct(0.0))
        half_probe = DriveConfig(omega_c=30.0, delta=0.2, omega_p=0.005)
        chi_half = susceptibility(SYSTEM, half_probe, PumpModel.direct(0.0))
        assert abs(chi_half - chi_ref) <= 1e-3 * abs(chi_ref)

    def test_probe_off_rejected(self):
        drive = DriveConfig(omega_c=30.0, delta=0.2, omega_p=0.0)
        with pytest.raises(ValueError):
            susceptibility(SYSTEM, drive, PumpModel.direct(0.1))

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
        # and 1.4e-8 that order 13 gives, the choice of choose_truncation
        drive = DriveConfig(omega_c=55.0, delta=0.2)   # fig5: delta_c = delta_p = 70
        pump = PumpModel.direct(0.0)

        def order_41(d2):
            liouv = build_liouvillian(SYSTEM, drive.at_two_photon_detuning(d2), pump)
            rho31, rho41 = extract_dc_coherences(solve_floquet(liouv, 0.2, 41))
            return (rho31 - rho41) / drive.omega_p

        evaluator = make_chi_evaluator(SYSTEM, drive, pump)
        assert evaluator(0.0) == pytest.approx(order_41(0.0), rel=2e-10)
        step = drive.delta / 200.0
        assert dispersion_slope(evaluator, 0.0, step) == pytest.approx(
            dispersion_slope(np.vectorize(order_41, otypes=[complex]), 0.0, step),
            rel=6e-9)


class TestScan:
    def test_single_point_matches_susceptibility(self):
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        spectrum = scan_evaluator(evaluator, np.array([0.2]))
        direct = susceptibility(SYSTEM, FIG2C.at_two_photon_detuning(0.2),
                                PumpModel.direct(0.0))
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
        # spoil the one member solved at d2 = grid[11], wherever it is batched
        grid = np.linspace(-0.4, 0.4, 17)
        solve = floquet.solve_batch

        def spoiled(l0, lp, lm, delta, order):
            l0 = l0.copy()
            l0[l0[:, 4, 4].imag == grid[11]] = np.nan
            return solve(l0, lp, lm, delta, order)

        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        monkeypatch.setattr(floquet, "solve_batch", spoiled)
        with pytest.raises(ScanError) as err:
            scan_evaluator(evaluator, grid)
        assert [point for point, _ in err.value.failures] == [grid[11]]
        assert isinstance(err.value.failures[0][1], DegenerateModelError)
        with pytest.raises(DegenerateModelError):
            evaluator(grid[11])
        assert np.isfinite(evaluator(grid[10]))

    def test_point_independent_of_batch_and_chunk(self, monkeypatch):
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        grid = np.linspace(-1.0, 1.0, 2001)
        scan = scan_evaluator(evaluator, grid).chi
        chunk = floquet.CHUNK_BYTES // (2 * 10 * 256 * 16)   # members at order 10
        for i in (0, chunk - 1, chunk, 1000, 1337, 2000):
            assert evaluator(grid[i]) == scan[i]
        # chunks of three members put a boundary next to every third point
        monkeypatch.setattr(floquet, "CHUNK_BYTES", 3 * 2 * 10 * 256 * 16)
        assert np.array_equal(evaluator(grid[45:60]), scan[45:60])

    def test_tangent_independent_of_batch_and_chunk(self, monkeypatch):
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        grid = np.linspace(-1.0, 1.0, 2001)
        chi, dchi = evaluator.tangent(grid)
        assert np.array_equal(chi, evaluator(grid))
        # members at order 10 with the tangent's two vectors per harmonic
        member = 2 * 10 * (256 + 2 * 16) * 16
        chunk = floquet.CHUNK_BYTES // member
        for i in (0, chunk - 1, chunk, 1000, 1337, 2000):
            assert evaluator.tangent(grid[i]) == (chi[i], dchi[i])
        monkeypatch.setattr(floquet, "CHUNK_BYTES", 3 * member)
        chunked = evaluator.tangent(grid[45:60])
        assert np.array_equal(chunked[0], chi[45:60])
        assert np.array_equal(chunked[1], dchi[45:60])

    def test_doppler_value_independent_of_batch(self):
        config = DopplerConfig(nodes=16)
        evaluator = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0),
                                       doppler=config)
        points = np.array([-0.002, -0.001, 0.0, 0.001, 0.002])
        batch = evaluator(points)
        for point, value in zip(points, batch):
            assert evaluator(point) == value

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SusceptibilitySpectrum(grid=np.array([0.0, 0.0]),
                                   chi=np.array([0j, 0j]))


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

    def test_spectrum_input_uses_interpolation(self):
        grid = np.linspace(-1.0, 1.0, 201)
        spectrum = SusceptibilitySpectrum(grid=grid, chi=2.0 * grid + 0j)
        assert dispersion_slope(spectrum, 0.0, 0.01) == pytest.approx(2.0)


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
                      make_eit_evaluator(_eit_config(fig5, omega_c)), 1e-3))
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
                                       doppler=fig6.doppler)
        _, dchi = evaluator.tangent(0.0)
        assert dchi.real == pytest.approx(
            dispersion_slope(evaluator, 0.0, fig6.drive.delta / 200.0), rel=1e-7)

    def test_eit_tangent_matches_central_difference(self):
        evaluator = make_eit_evaluator(ThreeLevelConfig(omega_c=0.5))
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
        config = DopplerConfig()
        sigma_rad = config.shift_sigma * config.gamma3
        assert sigma_rad == pytest.approx(DOPPLER_SIGMA_320K, rel=1e-9)

    def test_quadrature_against_closed_form(self):
        # <e^{i a s}> over the Gaussian shift distribution = e^{-a^2 sigma^2/2}
        config = DopplerConfig(temperature=320.0)
        a = 0.021
        value = doppler_average(lambda s: np.exp(1j * a * s), config)
        expected = math.exp(-a ** 2 * config.shift_sigma ** 2 / 2.0)
        assert value.real == pytest.approx(expected, rel=1e-9)
        assert value.imag == pytest.approx(0.0, abs=1e-12)

    def test_cold_limit_is_identity_on_smooth_structure(self):
        # at 1 K the shift spread is ~2 gamma3: identity holds for responses
        # varying on the one-photon scale
        config = DopplerConfig(temperature=1.0)
        smooth = lambda s: 1.0 / (1.0 + ((s - 3.0) / 70.0) ** 2) + 0.2j
        averaged = doppler_average(smooth, config)
        assert abs(averaged - smooth(0.0)) <= 1e-3 * abs(smooth(0.0))

    def test_cold_limit_is_identity_on_physical_evaluator(self):
        # the coupling light shift slides the Raman pair with velocity, so
        # the physical evaluator needs a far colder ensemble to look frozen
        config = DopplerConfig(temperature=1e-5)
        stationary = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0))
        averaged = make_chi_evaluator(SYSTEM, FIG2C, PumpModel.direct(0.0),
                                      doppler=config)
        assert abs(averaged(0.1) - stationary(0.1)) <= 1e-3 * abs(stationary(0.1))

    def test_convergence_check_passes_smooth_function(self):
        config = DopplerConfig()
        value = doppler_average(lambda s: 1.0 / (1.0 + (s / 50.0) ** 2),
                                config, check_convergence=True)
        assert 0.0 < value.real < 1.0

    def test_convergence_check_raises_on_narrow_feature(self):
        config = DopplerConfig(nodes=8)
        with pytest.raises(QuadratureError):
            doppler_average(lambda s: 1.0 / (1.0 + (s / 0.05) ** 2), config,
                            check_convergence=True)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DopplerConfig(temperature=-1.0)
        with pytest.raises(ValueError):
            DopplerConfig(nodes=4)

    def test_node_counts_beyond_hermgauss_rejected(self):
        # numpy's Gauss-Hermite weights stop summing to 1 above 370 nodes
        assert doppler_average(lambda s: 1 + 0j,
                               DopplerConfig(nodes=370)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            DopplerConfig(nodes=371)
        with pytest.raises(QuadratureError):
            doppler_average(lambda s: 1 + 0j, DopplerConfig(nodes=248),
                            check_convergence=True)



class TestEit:
    def test_dark_state_transparency(self):
        config = ThreeLevelConfig(omega_c=0.5, gamma2_deph=0.0)
        chi = eit_susceptibility(config, 0.0)
        assert abs(chi.imag) < 1e-10

    def test_residual_absorption_with_dephasing(self):
        config = ThreeLevelConfig(omega_c=0.5)
        chi = eit_susceptibility(config, 0.0)
        assert chi.imag > 0.0

    def test_positive_dispersion_at_resonance(self):
        evaluator = make_eit_evaluator(ThreeLevelConfig(omega_c=0.5))
        assert dispersion_slope(evaluator, 0.0, 1e-3) > 0

    def test_weak_probe_closed_form(self):
        # rho31/omega_p = (i/2)/(g31 - i dp + (oc/2)^2/(g21 - i dp))
        config = ThreeLevelConfig(omega_c=0.8)
        g31 = 0.5 * (config.gamma31 + config.gamma32)
        g21 = 0.5 * config.gamma2_deph
        for dp in (0.0, 0.02, -0.07, 0.3):
            expected = (0.5j / (g31 - 1j * dp
                                + (config.omega_c / 2) ** 2 / (g21 - 1j * dp)))
            measured = eit_susceptibility(config, dp)
            assert measured == pytest.approx(expected, rel=2e-3)


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
