"""Importing the package stays light."""

import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants

from ramanlight import constants

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_modules(predicate: str) -> str:
    """The sorted modules of a fresh `import ramanlight` that satisfy ``predicate``."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import ramanlight; "
            f"print(sorted(m for m in sys.modules if {predicate}))")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout.strip()


def test_import_loads_no_scipy_interpolate():
    # propagation reads chi straight from the evaluator; an interpolant would
    # bring scipy.interpolate back, about half the cost of the import
    assert loaded_modules("m.startswith('scipy.interpolate')") == "[]"


def test_import_loads_no_scipy():
    # scipy.constants alone loaded numpy.testing and numpy.f2py, more than
    # half of the import; the package needs numpy only
    assert loaded_modules("m.split('.')[0] == 'scipy'") == "[]"


@pytest.mark.parametrize("name", ["c", "h", "hbar", "epsilon_0", "k", "atomic_mass"])
def test_constants_equal_scipy(name):
    assert getattr(constants, name) == getattr(scipy.constants, name)
