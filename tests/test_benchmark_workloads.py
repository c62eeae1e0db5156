"""The benchmark's workloads still run against the library and pass their checks.

``benchmark/workloads.py`` drives ramanlight through its public API; an API
change that breaks a workload, or moves a pinned answer, fails here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["scan_pulse", "doppler_ng", "pump_sweep"])
def test_workload_answers_its_checks(name, tmp_path):
    # twice in one process: a state that a run leaves behind (a cache, a
    # buffer reused in place) must not move the next answer by a bit
    workloads = load_workloads()
    seed = workloads.DEFAULT_SEED
    inputs = workloads.resolve(name, seed)
    answers = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        result = workloads.execute(name, inputs, out_dir)
        assert workloads.check(name, seed, result, out_dir) == []
        answers.append(workloads.headline(name, result, out_dir))
    first, second = ({key: np.float64(value).tobytes() for key, value in answer.items()}
                     for answer in answers)
    assert first == second
