"""The benchmark tracer still finds every function it wraps.

``benchmark/tracer.py`` looks up each name in its ``TARGETS`` table with
``getattr``; a renamed or deleted function would break ``--trace 1`` runs.
"""

import importlib.util
from pathlib import Path

import ramanlight

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
