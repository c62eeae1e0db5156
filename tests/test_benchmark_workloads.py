"""The benchmark's workloads still run against the library and pass their checks.

``benchmark/workloads.py`` drives ramanlight through its public API; an API
change that breaks a workload, or moves a pinned answer, fails here.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["scan_pulse", "doppler_ng", "pump_sweep"])
def test_workload_answers_its_checks(name, tmp_path):
    workloads = load_workloads()
    seed = workloads.DEFAULT_SEED
    result = workloads.execute(name, workloads.resolve(name, seed), tmp_path)
    assert workloads.check(name, seed, result, tmp_path) == []
