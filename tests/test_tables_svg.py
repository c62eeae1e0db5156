"""CSV round-tripping and deterministic SVG rendering."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramanlight import svgplot, tables

SPECIAL_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308]


def reference_table_text(header, columns):
    """The per-value writer that write_table replaced, kept as its reference."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([tables.format_float(float(v)) for v in row])
    return buffer.getvalue()


@st.composite
def table_columns(draw):
    """1-4 equal-length columns of floats, float32, int64 or bools, 0-12 rows."""
    rows = draw(st.integers(0, 12))
    kinds = {
        "float": (st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), float),
        "float32": (st.floats(width=32), np.float32),
        "int": (st.integers(-2 ** 63, 2 ** 63 - 1), np.int64),
        "bool": (st.booleans(), bool),
    }
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=4)):
        values, dtype = kinds[kind]
        columns.append(np.array(draw(st.lists(values, min_size=rows, max_size=rows)),
                                dtype))
    return columns


def reference_polylines(series, vmarkers=()):
    """Each series' points attribute as the per-point generator wrote it."""
    series = [(np.asarray(x, float), np.asarray(y, float)) for _, x, y in series]
    x_lo = min(float(x.min()) for x, _ in series if x.size)
    x_hi = max(float(x.max()) for x, _ in series if x.size)
    y_lo = min(float(y.min()) for _, y in series if y.size)
    y_hi = max(float(y.max()) for _, y in series if y.size)
    for xv, _ in vmarkers:
        x_lo, x_hi = min(x_lo, xv), max(x_hi, xv)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.06 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad
    plot_w = svgplot.WIDTH - svgplot.MARGIN_LEFT - svgplot.MARGIN_RIGHT
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_TOP - svgplot.MARGIN_BOTTOM

    def px(x):
        return svgplot.MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return svgplot.MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    return [" ".join(f"{px(xi):.2f},{py(yi):.2f}" for xi, yi in zip(x, y))
            for x, y in series]


@st.composite
def chart_series(draw):
    """1-3 series of 0-40 finite points, at least one point in all."""
    coords = st.floats(-1e12, 1e12)
    series = []
    for idx in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 40))
        x = draw(st.lists(coords, min_size=n, max_size=n))
        y = draw(st.lists(coords, min_size=n, max_size=n))
        series.append((f"s{idx}", np.array(x), np.array(y)))
    if all(x.size == 0 for _, x, _ in series):
        series.append(("p", np.array([draw(coords)]), np.array([draw(coords)])))
    return series


class TestTables:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        x = rng.normal(size=50) * 10.0 ** rng.integers(-12, 12, size=50)
        y = rng.normal(size=50)
        path = tables.write_table(tmp_path / "t.csv", ["a", "b"], [x, y])
        header, columns = tables.read_table(path)
        assert header == ["a", "b"]
        assert np.array_equal(columns[0], x)
        assert np.array_equal(columns[1], y)

    def test_header_column_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            tables.write_table(tmp_path / "t.csv", ["a"],
                               [np.arange(3.0), np.arange(3.0)])

    def test_unequal_columns(self, tmp_path):
        with pytest.raises(ValueError):
            tables.write_table(tmp_path / "t.csv", ["a", "b"],
                               [np.arange(3.0), np.arange(4.0)])

    def test_metrics_roundtrip(self, tmp_path):
        values = {"n_g": 1.9e5, "delay": 6.33e-7}
        path = tables.write_metrics_csv(tmp_path / "m.csv", values)
        assert tables.read_metrics_csv(path) == values

    @given(columns=table_columns())
    @example(columns=[np.array(SPECIAL_FLOATS), np.arange(9), np.arange(9) % 2 == 0])
    @example(columns=[np.array([]), np.array([], np.int64), np.array([], bool)])
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_per_value_writer(self, tmp_path_factory, columns):
        header = [f"c{i}" for i in range(len(columns))]
        path = tables.write_table(tmp_path_factory.mktemp("t") / "t.csv", header, columns)
        assert path.read_bytes() == reference_table_text(header, columns).encode()

    def test_complex_column_rejected(self, tmp_path):
        # float() kept the real part of a complex value with only a warning
        with pytest.raises(TypeError, match="complex"):
            tables.write_table(tmp_path / "t.csv", ["a", "b"],
                               [np.arange(2.0), np.array([1.0 + 2.0j, 3.0])])
        with pytest.raises(TypeError, match="complex"):
            tables.write_sweep_csv(tmp_path / "s.csv", np.array([0.1]),
                                   np.array([2.0]), np.array([2.0 + 3.0j]))
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "x.csv"
        tables.write_metrics_csv(path, {"a": 1.0})
        tables.write_metrics_csv(path, {"a": 2.0})
        assert tables.read_metrics_csv(path) == {"a": 2.0}
        assert list(tmp_path.glob("*.tmp")) == []


class TestSvg:
    def test_two_point_series_single_polyline(self):
        doc = svgplot.render_line_chart(
            [("s", np.array([0.0, 1.0]), np.array([1.0, 2.0]))],
            title="t", x_label="x", y_label="y")
        assert doc.count("<polyline") == 1
        points = doc.split('points="')[1].split('"')[0]
        assert len(points.split()) == 2

    def test_byte_identical_output(self):
        series = [("a", np.linspace(0, 1, 100), np.sin(np.linspace(0, 6, 100))),
                  ("b", np.linspace(0, 1, 100), np.cos(np.linspace(0, 6, 100)))]
        first = svgplot.render_line_chart(series, "t", "x", "y")
        second = svgplot.render_line_chart(series, "t", "x", "y")
        assert first == second

    @given(series=chart_series(),
           vmarkers=st.lists(st.tuples(st.floats(-1e12, 1e12), st.just("m")),
                             max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_polylines_equal_per_point_generator(self, series, vmarkers):
        doc = svgplot.render_line_chart(series, "t", "x", "y", vmarkers=vmarkers)
        points = [part.split('"')[0] for part in doc.split(' points="')[1:]]
        assert points == reference_polylines(series, vmarkers)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            svgplot.render_line_chart([], "t", "x", "y")
        with pytest.raises(ValueError):
            svgplot.render_line_chart([("s", np.array([]), np.array([]))],
                                      "t", "x", "y")

    def test_marker_line_present(self):
        doc = svgplot.render_line_chart(
            [("s", np.array([0.0, 1.0]), np.array([0.0, 1.0]))],
            "t", "x", "y", vmarkers=[(0.5, "bound")])
        assert "stroke-dasharray" in doc
        assert "bound" in doc

    def test_label_escaping(self):
        doc = svgplot.render_line_chart(
            [("a<b>&c", np.array([0.0, 1.0]), np.array([0.0, 1.0]))],
            "t", "x", "y")
        assert "a&lt;b&gt;&amp;c" in doc
