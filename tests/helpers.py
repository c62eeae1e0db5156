"""Shared test helper: the generator away from two-photon resonance."""

from dataclasses import replace

from ramanlight.atom import detuning_generators


def at_detuning(liouv, d2=0.0, shift=0.0):
    """``liouv`` with L0 at two-photon detuning ``d2`` and Doppler shift
    ``shift``: l0 + d2 G2 + shift Gs, with (G2, Gs) = detuning_generators()."""
    per_d2, per_shift = detuning_generators()
    return replace(liouv, l0=liouv.l0 + d2 * per_d2 + shift * per_shift)
