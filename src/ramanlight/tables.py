"""CSV emission and parsing for spectra, sweeps, pulses and run metrics.

All floats are written with 17 significant digits so a read-back
round-trips to the exact double. Files are written atomically (temp file
in the target directory, then rename).
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path

import numpy as np


def format_float(value: float) -> str:
    return f"{value:.17g}"


def write_table(path: str | Path, header: list[str],
                columns: list[np.ndarray]) -> Path:
    """Write columns under a header row, atomically, full precision."""
    path = Path(path)
    if len(header) != len(columns):
        raise ValueError("header and column count mismatch")
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError("columns must have equal length")
    if any(np.iscomplexobj(c) for c in columns):
        raise TypeError("complex column: write its real and imaginary parts")

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(header)
    # One %-format for the whole body: a number never needs csv quoting, so
    # this gives the bytes of csv.writer over format_float(float(v)).
    values = np.column_stack(columns)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    buffer.write(row * len(values) % tuple(values.ravel().tolist()))
    _atomic_write_text(path, buffer.getvalue())
    return path


def read_table(path: str | Path) -> tuple[list[str], list[np.ndarray]]:
    """Read a table written by write_table back into float columns."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    if rows:
        columns = [np.array(col) for col in zip(*rows)]
    else:
        columns = [np.array([]) for _ in header]
    return header, columns


def write_spectrum_csv(path: str | Path, spectrum) -> Path:
    return write_table(
        path,
        ["two_photon_detuning_Gamma3", "re_chi_scaled", "im_chi_scaled"],
        [spectrum.grid, spectrum.chi.real, spectrum.chi.imag])


def write_pulse_csv(path: str | Path, pulse) -> Path:
    return write_table(
        path,
        ["time_s", "re_envelope", "im_envelope", "intensity"],
        [pulse.times, pulse.envelope.real, pulse.envelope.imag,
         pulse.intensity()])


def write_sweep_csv(path: str | Path, rates: np.ndarray,
                    n_g: np.ndarray,
                    n_g_doppler: np.ndarray | None = None) -> Path:
    header = ["pump_rate_Gamma3", "group_index"]
    columns = [rates, n_g]
    if n_g_doppler is not None:
        header.append("group_index_doppler")
        columns.append(n_g_doppler)
    return write_table(path, header, columns)


def write_metrics_csv(path: str | Path, values: dict[str, float]) -> Path:
    """One (metric, value) row per headline number."""
    path = Path(path)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "value"])
    for key, value in values.items():
        writer.writerow([key, format_float(float(value))])
    _atomic_write_text(path, buffer.getvalue())
    return path


def read_metrics_csv(path: str | Path) -> dict[str, float]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        return {row[0]: float(row[1]) for row in reader}


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Public atomic text write (used for SVG output)."""
    path = Path(path)
    _atomic_write_text(path, text)
    return path
