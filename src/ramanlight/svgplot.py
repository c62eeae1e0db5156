"""Dependency-free deterministic SVG line charts.

Fixed canvas, computed ticks and fixed float formatting: identical input
produces byte-identical output, so rendered charts can be diffed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

WIDTH = 860
HEIGHT = 520
MARGIN_LEFT = 80
MARGIN_RIGHT = 170
MARGIN_TOP = 50
MARGIN_BOTTOM = 60

COLORS = ["#d62728", "#2ca02c", "#1f77b4", "#ff7f0e", "#9467bd", "#8c8c8c"]


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _nice_step(span: float, target: int = 6) -> float:
    raw = span / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude

def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    values = []
    v = first
    while v <= hi + 1e-9 * step:
        values.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return values


def _fmt_tick(value: float) -> str:
    return f"{value:.6g}"


def render_line_chart(series: Sequence[tuple[str, np.ndarray, np.ndarray]],
                      title: str, x_label: str, y_label: str,
                      vmarkers: Sequence[tuple[float, str]] = ()) -> str:
    """Render labelled (x, y) series as one SVG document.

    ``vmarkers`` draws labelled vertical reference lines (used for bound
    markers). Raises ValueError when no series or only empty series are
    given.
    """
    series = [(label, np.asarray(x, float), np.asarray(y, float))
              for label, x, y in series]
    if not series or all(x.size == 0 for _, x, _ in series):
        raise ValueError("nothing to plot: empty series")
    for _, x, y in series:
        if x.size != y.size:
            raise ValueError("series x and y must have equal length")

    x_lo = min(float(x.min()) for _, x, _ in series if x.size)
    x_hi = max(float(x.max()) for _, x, _ in series if x.size)
    y_lo = min(float(y.min()) for _, _, y in series if y.size)
    y_hi = max(float(y.max()) for _, _, y in series if y.size)
    for xv, _ in vmarkers:
        x_lo, x_hi = min(x_lo, xv), max(x_hi, xv)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.06 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float | np.ndarray) -> float | np.ndarray:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float | np.ndarray) -> float | np.ndarray:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-size="17" font-family="sans-serif">{_escape(title)}</text>',
    ]

    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{MARGIN_TOP}" x2="{x:.2f}" '
                     f'y2="{MARGIN_TOP + plot_h}" stroke="#e0e0e0" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 20}" '
                     f'text-anchor="middle" font-size="12" '
                     f'font-family="sans-serif">{_fmt_tick(tick)}</text>')
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" '
                     f'x2="{MARGIN_LEFT + plot_w}" y2="{y:.2f}" '
                     f'stroke="#e0e0e0" stroke-width="1"/>')
        parts.append(f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-size="12" '
                     f'font-family="sans-serif">{_fmt_tick(tick)}</text>')

    parts.append(f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#000000" stroke-width="1.5"/>')
    parts.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 14}" '
                 f'text-anchor="middle" font-size="14" '
                 f'font-family="sans-serif">{_escape(x_label)}</text>')
    parts.append(f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.1f}" '
                 f'text-anchor="middle" font-size="14" font-family="sans-serif" '
                 f'transform="rotate(-90 20 {MARGIN_TOP + plot_h / 2:.1f})">'
                 f'{_escape(y_label)}</text>')

    for xv, label in vmarkers:
        x = px(xv)
        parts.append(f'<line x1="{x:.2f}" y1="{MARGIN_TOP}" x2="{x:.2f}" '
                     f'y2="{MARGIN_TOP + plot_h}" stroke="#555555" '
                     f'stroke-width="1.5" stroke-dasharray="6,4"/>')
        parts.append(f'<text x="{x + 5:.2f}" y="{MARGIN_TOP + 16}" '
                     f'text-anchor="start" font-size="12" '
                     f'font-family="sans-serif">{_escape(label)}</text>')

    legend_y = MARGIN_TOP + 10
    for idx, (label, x, y) in enumerate(series):
        color = COLORS[idx % len(COLORS)]
        # px and py take the arrays whole; one %-format writes every point
        pairs = np.column_stack((px(x), py(y))).ravel().tolist()
        points = " ".join(["%.2f,%.2f"] * x.size) % tuple(pairs)
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.8" points="{points}"/>')
        ly = legend_y + idx * 22
        lx = MARGIN_LEFT + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2.5"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly + 4}" text-anchor="start" '
                     f'font-size="12" font-family="sans-serif">{_escape(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
