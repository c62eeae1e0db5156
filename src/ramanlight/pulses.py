"""Probe pulse propagation through the dispersive medium.

Pulses are complex field envelopes on a uniform time grid (SI seconds).
Propagation multiplies the envelope spectrum by the medium transfer
function exp(i (omega/c) n(omega) L) with n = sqrt(1 + chi), the carrier
sitting at the centre of the two Raman peaks; the analysis transform uses
the e^{+i nu t} convention so a positive group index delays the envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as const
from .spectra import BranchCutError, PhysicalScale, _half_max_crossings


class WindowError(ValueError):
    """Time window too small for the requested envelope."""


class BandwidthError(ValueError):
    """Pulse spectral support extends beyond the evaluated band."""


class NoPeakError(RuntimeError):
    """Envelope has no usable intensity peak."""


@dataclass
class Pulse:
    """Complex field envelope on a uniform time grid."""

    times: np.ndarray
    envelope: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.envelope = np.asarray(self.envelope, dtype=complex)
        if self.times.ndim != 1 or self.times.size < 2 \
                or self.times.size != self.envelope.size:
            raise ValueError("times and envelope must be matching 1-d arrays")
        steps = np.diff(self.times)
        if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise ValueError("time grid must be uniform and increasing")
        if not np.all(np.isfinite(self.envelope)):
            raise ValueError("envelope contains non-finite values")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def intensity(self) -> np.ndarray:
        return np.abs(self.envelope) ** 2


@dataclass(frozen=True)
class PropagationMetrics:
    """Measured pulse distortion relative to the vacuum traversal."""

    peak_delay: float              # s, intensity peak vs the vacuum reference
    stretch: float                 # intensity-FWHM ratio out/in
    transmission: float            # integrated intensity out/in


def require_pulse_grid(sigma: float, window: float, samples: int) -> None:
    """Reject a Gaussian pulse grid ``synthesize_gaussian`` cannot fill.

    The window must cover at least 16 sigma so the envelope is below 1e-12
    of its peak at the edges, and samples must be a power of two of at
    least 2^14.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if samples < 2 ** 14 or samples & (samples - 1):
        raise ValueError("samples must be a power of two >= 2**14")
    if window < 16.0 * sigma:
        raise WindowError(f"window {window:g}s too small: need >= 16 sigma "
                          f"= {16 * sigma:g}s")


def synthesize_gaussian(sigma: float, window: float, samples: int) -> Pulse:
    """Gaussian field envelope exp(-t^2 / 2 sigma^2) centred in the window.

    ``sigma`` is the field-envelope standard deviation (so the field FWHM
    is 2.355 sigma and the intensity FWHM 1.665 sigma); the grid obeys
    ``require_pulse_grid``.
    """
    require_pulse_grid(sigma, window, samples)
    times = window * np.arange(samples) / samples
    envelope = np.exp(-((times - 0.5 * window) ** 2) / (2.0 * sigma ** 2))
    return Pulse(times=times, envelope=envelope.astype(complex))


def _transfer(pulse: Pulse, chi_of_offset, scale: PhysicalScale) -> Pulse:
    """Apply exp(i (omega/c) n L) in the envelope spectral domain."""
    nu = 2.0 * math.pi * np.fft.fftfreq(pulse.times.size, pulse.dt)  # rad/s
    spectrum = np.fft.ifft(pulse.envelope)  # analysis: e^{+i nu t} convention
    chi = chi_of_offset(nu, np.abs(spectrum))
    radicand = 1.0 + chi
    support = np.abs(spectrum) >= 1e-6 * np.abs(spectrum).max()
    if np.any(radicand.real[support] <= 0):
        raise BranchCutError("1 + Re(chi) <= 0 inside the pulse band")
    index = np.sqrt(radicand)
    omega = scale.probe_omega + nu
    transfer = np.exp(1j * (omega / const.c) * index * scale.length)
    out = np.fft.fft(spectrum * transfer)
    return Pulse(times=pulse.times.copy(), envelope=out)


def propagate(pulse: Pulse, evaluator, scale: PhysicalScale,
              half_width: float) -> Pulse:
    """Send the pulse through length L of the medium the evaluator describes.

    The pulse carrier sits at two-photon detuning zero; each envelope
    frequency offset nu maps to detuning nu / gamma3. The evaluator (a
    callable of an array of detunings) is called once, on every bin with
    |nu / gamma3| <= ``half_width``; bins beyond carry negligible amplitude
    and propagate as vacuum. The pulse spectral support (1e-6 of peak
    amplitude) must lie inside that band.
    """
    def chi_of_offset(nu, amp):
        d2 = nu / scale.gamma3
        inside = np.abs(d2) <= half_width
        support = amp >= 1e-6 * amp.max()
        if np.any(support & ~inside):
            worst = np.max(np.abs(d2[support]))
            raise BandwidthError(
                f"pulse band extends to |detuning| = {worst:.3g} gamma3, "
                f"outside the evaluated band [{-half_width:g}, {half_width:g}]")
        chi = np.zeros(nu.size, dtype=complex)
        chi[inside] = scale.chi_from_scaled(evaluator(d2[inside]))
        return chi

    return _transfer(pulse, chi_of_offset, scale)


def vacuum_reference(pulse: Pulse, scale: PhysicalScale) -> Pulse:
    """The same traversal with chi = 0 (envelope delayed by exactly L/c)."""
    return _transfer(pulse, lambda nu, amp: np.zeros(nu.size, dtype=complex), scale)


def _peak_time(times: np.ndarray, intensity: np.ndarray) -> float:
    """Intensity peak position by three-point parabolic interpolation."""
    i = int(np.argmax(intensity))
    if intensity[i] <= 0:
        raise NoPeakError("envelope carries no intensity")
    if i == 0 or i == intensity.size - 1:
        raise NoPeakError("intensity peak sits on the grid edge")
    y0, y1, y2 = intensity[i - 1], intensity[i], intensity[i + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    dt = times[1] - times[0]
    return float(times[i] + shift * dt)


def _fwhm(times: np.ndarray, intensity: np.ndarray) -> float:
    """Full width at half maximum by linear interpolation of the crossings."""
    left, right = _half_max_crossings(times, intensity, int(np.argmax(intensity)),
                                      0, intensity.size - 1)
    if left is None or right is None:
        raise NoPeakError("half-maximum crossings not inside the window")
    return float(right - left)


def metrics(pulse_in: Pulse, pulse_out: Pulse,
            reference: Pulse) -> PropagationMetrics:
    """Delay, stretch and transmission of the output pulse.

    The delay compares the output intensity peak against the vacuum
    reference; stretch and transmission compare against the input.
    """
    if pulse_in.times.size != pulse_out.times.size \
            or pulse_in.times.size != reference.times.size:
        raise ValueError("pulses must share one time grid")
    delay = _peak_time(pulse_out.times, pulse_out.intensity()) \
        - _peak_time(reference.times, reference.intensity())
    stretch = _fwhm(pulse_out.times, pulse_out.intensity()) \
        / _fwhm(pulse_in.times, pulse_in.intensity())
    energy_in = float(np.sum(pulse_in.intensity()))
    energy_out = float(np.sum(pulse_out.intensity()))
    if energy_in == 0:
        raise NoPeakError("input pulse carries no energy")
    return PropagationMetrics(peak_delay=float(delay), stretch=float(stretch),
                              transmission=energy_out / energy_in)
