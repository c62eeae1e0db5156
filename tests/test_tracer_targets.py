"""The benchmark tracer still finds every function it wraps.

``benchmark/tracer.py`` looks up each name in its ``TARGETS`` table with
``getattr``; a renamed or deleted function would break ``--trace 1`` runs.
Its hooks bind arguments by name, so a renamed parameter would break them.
"""

import importlib.util
from pathlib import Path

import ramanlight
from ramanlight.atom import AtomicSystem, DriveConfig, PumpModel

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_installs_and_restores():
    tracer = load_tracer().Tracer()
    try:
        tracer.install(ramanlight)
    finally:
        tracer.restore()
    assert tracer.not_restored() == []


def test_floquet_hooks_count_calls_through_the_package():
    liouv = ramanlight.build_liouvillian(AtomicSystem(), DriveConfig(omega_c=30.0, delta=0.2),
                                         PumpModel.direct(0.0))
    tracer = load_tracer().Tracer()
    try:
        tracer.install(ramanlight)
        order = ramanlight.choose_truncation(liouv, 0.2)
        fd = ramanlight.solve_floquet(liouv, 0.2, order=order)
        tail_ok = ramanlight.floquet.harmonic_tail_ok(fd)
    finally:
        tracer.restore()
    layers = tracer.layer_metrics(0)
    assert tail_ok
    assert layers["floquet.choose_truncation.calls"] == 1
    assert layers["floquet.solve.calls"] == 1
    assert layers["floquet.solve.unknowns"] == (2 * order + 1) * liouv.dim ** 2
    assert layers["floquet.order_max"] == order
    assert layers["floquet.accept_ratio"] == 1.0
