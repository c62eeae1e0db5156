"""Importing the package stays light."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy_interpolate():
    # propagation reads chi straight from the evaluator; an interpolant would
    # bring scipy.interpolate back, about half the cost of the import
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import ramanlight; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"
