"""The README's library example runs against the current API, and the
solver constants it states are the package's."""

import re
from pathlib import Path

from ramanlight import floquet

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    namespace = {}
    exec(compile(_quick_start(), "README.md quick start", "exec"), namespace)
    assert 1.9e5 < namespace["ng"] < 2.3e5   # the example's "~2.1e5: slow light"
    assert "PropagationMetrics" in capsys.readouterr().out


def test_solver_constants_match_the_package():
    text = README.read_text(encoding="utf-8")
    chunk = re.search(r"at most (\d+) KiB", text)
    cap = re.search(r"`floquet\.MAX_ORDER` =\s*(\d+)", text)
    assert int(chunk.group(1)) == floquet.CHUNK_BYTES // 1024
    assert int(cap.group(1)) == floquet.MAX_ORDER
