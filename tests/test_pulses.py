"""Pulse synthesis, propagation transfer function and distortion metrics."""

import math

import numpy as np
import pytest
import scipy.constants as const

from ramanlight.pulses import (BandwidthError, NoPeakError, Pulse, WindowError,
                               metrics, propagate, synthesize_gaussian,
                               vacuum_reference)
from ramanlight.cli import _pulse_half_width
from ramanlight.config import preset
from ramanlight.spectra import BranchCutError, physical_scale

SCALE = physical_scale(5e17)
BAND = 40.0   # gamma3: half-width of the band the constant media are evaluated on


def flat_spectrum(value):
    """A medium of constant scaled susceptibility."""
    return lambda d2: np.full(np.shape(d2), value, dtype=complex)


class TestSynthesis:
    def test_intensity_fwhm(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        from ramanlight.pulses import _fwhm
        width = _fwhm(pulse.times, pulse.intensity())
        assert width == pytest.approx(2.0 * math.sqrt(math.log(2)) * 1e-6,
                                      rel=1e-4)

    def test_fwhm_scales_with_sigma(self):
        from ramanlight.pulses import _fwhm
        one = synthesize_gaussian(0.5e-6, 32e-6, 2 ** 14)
        two = synthesize_gaussian(1.0e-6, 32e-6, 2 ** 14)
        ratio = _fwhm(two.times, two.intensity()) / _fwhm(one.times, one.intensity())
        assert ratio == pytest.approx(2.0, rel=1e-4)

    def test_unit_peak_at_center(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        assert np.abs(pulse.envelope).max() == pytest.approx(1.0, abs=1e-12)

    def test_edge_content_below_threshold(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        assert abs(pulse.envelope[0]) < 1e-12
        assert abs(pulse.envelope[-1]) < 1e-12

    def test_window_too_small(self):
        with pytest.raises(WindowError):
            synthesize_gaussian(1e-6, 10e-6, 2 ** 14)

    def test_samples_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            synthesize_gaussian(1e-6, 32e-6, 2 ** 14 + 1)
        with pytest.raises(ValueError):
            synthesize_gaussian(1e-6, 32e-6, 2 ** 10)


class TestPropagation:
    def test_zero_chi_equals_vacuum(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        out = propagate(pulse, flat_spectrum(0.0), SCALE, BAND)
        reference = vacuum_reference(pulse, SCALE)
        assert np.allclose(out.envelope, reference.envelope, atol=1e-13)
        # L/c is far below one sample; the peak must not move by even one
        summary = metrics(pulse, out, reference)
        assert abs(summary.peak_delay) < pulse.dt

    def test_vacuum_delay_value(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        reference = vacuum_reference(pulse, SCALE)
        summary = metrics(pulse, reference, pulse)
        assert summary.peak_delay == pytest.approx(SCALE.length / const.c,
                                                   abs=1e-3 * pulse.dt)

    def test_constant_chi_closed_form_delay(self):
        chi0 = 2e-4
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        value = chi0 * SCALE.gamma3 / SCALE.k  # scaled so k chi_s = chi0
        out = propagate(pulse, flat_spectrum(value), SCALE, BAND)
        reference = vacuum_reference(pulse, SCALE)
        summary = metrics(pulse, out, reference)
        expected = (math.sqrt(1.0 + chi0) - 1.0) * SCALE.length / const.c
        assert summary.peak_delay == pytest.approx(expected, rel=0.01)
        assert summary.stretch == pytest.approx(1.0, abs=1e-6)

    def test_lossless_energy_conservation(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        out = propagate(pulse, flat_spectrum(1e-4 * SCALE.gamma3 / SCALE.k), SCALE,
                        BAND)
        summary = metrics(pulse, out, vacuum_reference(pulse, SCALE))
        assert summary.transmission == pytest.approx(1.0, abs=1e-9)

    def test_linearity(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        doubled = Pulse(times=pulse.times, envelope=2.0 * pulse.envelope)
        spectrum = flat_spectrum(3e-5 + 1e-5j)
        out_one = propagate(pulse, spectrum, SCALE, BAND)
        out_two = propagate(doubled, spectrum, SCALE, BAND)
        assert np.allclose(out_two.envelope, 2.0 * out_one.envelope, atol=1e-12)

    def test_zero_length_roundtrip(self):
        scale = physical_scale(5e17, length=1e-30)
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        out = propagate(pulse, flat_spectrum(0.02), scale, BAND)
        assert np.allclose(out.envelope, pulse.envelope, atol=1e-12)

    def test_bandwidth_guard(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        with pytest.raises(BandwidthError):
            propagate(pulse, flat_spectrum(0.0), SCALE, half_width=0.01)

    def test_branch_cut_guard(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        value = -1.5 * SCALE.gamma3 / SCALE.k
        with pytest.raises(BranchCutError):
            propagate(pulse, flat_spectrum(value), SCALE, BAND)

    def test_evaluator_called_once_on_the_band(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        half_width = _pulse_half_width(preset("fig4"))
        calls = []

        def recording(d2):
            calls.append(d2.copy())
            return np.zeros(d2.shape, dtype=complex)

        propagate(pulse, recording, SCALE, half_width)
        bins = 2.0 * math.pi * np.fft.fftfreq(pulse.times.size, pulse.dt) / SCALE.gamma3
        assert len(calls) == 1
        assert np.array_equal(np.sort(calls[0]),
                              np.sort(bins[np.abs(bins) <= half_width]))
        assert calls[0].size == 61


class TestMetrics:
    def test_identity(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        summary = metrics(pulse, pulse, pulse)
        assert summary.peak_delay == 0.0
        assert summary.stretch == 1.0
        assert summary.transmission == 1.0

    def test_single_sample_shift(self):
        pulse = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        shifted = Pulse(times=pulse.times, envelope=np.roll(pulse.envelope, 1))
        summary = metrics(pulse, shifted, pulse)
        assert summary.peak_delay == pytest.approx(pulse.dt, rel=0.01)

    def test_no_peak_error(self):
        times = np.linspace(0.0, 1.0, 64)
        flat = Pulse(times=times, envelope=np.zeros(64, dtype=complex))
        with pytest.raises(NoPeakError):
            metrics(flat, flat, flat)

    def test_grid_mismatch_rejected(self):
        a = synthesize_gaussian(1e-6, 32e-6, 2 ** 14)
        b = synthesize_gaussian(1e-6, 64e-6, 2 ** 15)
        with pytest.raises(ValueError):
            metrics(a, b, a)


class TestPulseValidation:
    def test_non_uniform_grid_rejected(self):
        times = np.array([0.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            Pulse(times=times, envelope=np.ones(3, dtype=complex))

    def test_non_finite_envelope_rejected(self):
        times = np.linspace(0.0, 1.0, 8)
        envelope = np.ones(8, dtype=complex)
        envelope[3] = np.nan
        with pytest.raises(ValueError):
            Pulse(times=times, envelope=envelope)

