"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: the output must be byte-identical for identical
inputs, so no plotting library (font metrics, version strings, random ids)
is involved. One panel is an 800 x 300 canvas with a polyline per series;
multiple panels stack vertically in one SVG document.
"""

from dataclasses import dataclass

import numpy as np

from .formats import write_text

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")

PANEL_W = 800
PANEL_H = 300
MARGIN_L = 60
MARGIN_R = 16
MARGIN_T = 36
MARGIN_B = 34

# titles and labels come from CSV headers and file names, so the markup
# characters in them are escaped as XML text
XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


@dataclass
class ChartPanel:
    title: str
    series: list  # of (label, 1-D real array) pairs

    def __post_init__(self):
        if not self.series:
            raise ValueError("a chart panel needs at least one series")
        cleaned = []
        length = None
        for label, values in self.series:
            arr = np.asarray(values, dtype=np.float64).ravel()
            if arr.size == 0:
                raise ValueError(f"series {label!r} is empty")
            if not np.isfinite(arr).all():
                raise ValueError(f"series {label!r} contains non-finite values")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise ValueError("all series in a panel must have equal length")
            cleaned.append((str(label), arr))
        self.title = str(self.title)
        self.series = cleaned


def _num(x):
    return format(float(x), ".2f")


def _tick(x):
    return format(float(x), ".4g")


def _panel_svg(panel, y_offset):
    xs0, xs1 = MARGIN_L, PANEL_W - MARGIN_R
    ys0, ys1 = y_offset + MARGIN_T, y_offset + PANEL_H - MARGIN_B
    n = panel.series[0][1].size
    lo = min(arr.min() for _, arr in panel.series)
    hi = max(arr.max() for _, arr in panel.series)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(i):
        if n == 1:
            return 0.5 * (xs0 + xs1)
        return xs0 + (xs1 - xs0) * i / (n - 1)

    def sy(v):
        return ys1 - (ys1 - ys0) * (v - lo) / (hi - lo)

    parts = []
    parts.append(
        f'<rect x="{xs0}" y="{ys0}" width="{xs1 - xs0}" height="{ys1 - ys0}" '
        'fill="none" stroke="#cccccc" stroke-width="1"/>'
    )
    for k in range(5):
        v = lo + (hi - lo) * k / 4
        y = sy(v)
        parts.append(
            f'<line x1="{xs0}" y1="{_num(y)}" x2="{xs1}" y2="{_num(y)}" '
            'stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xs0 - 6}" y="{_num(y + 4)}" text-anchor="end" '
            f'font-size="11" fill="#555555">{_tick(v)}</text>'
        )
    parts.append(
        f'<text x="{xs0}" y="{_num(ys1 + 16)}" text-anchor="middle" '
        f'font-size="11" fill="#555555">1</text>'
    )
    parts.append(
        f'<text x="{xs1}" y="{_num(ys1 + 16)}" text-anchor="middle" '
        f'font-size="11" fill="#555555">{n}</text>'
    )
    parts.append(
        f'<text x="{(xs0 + xs1) // 2}" y="{y_offset + 20}" text-anchor="middle" '
        f'font-size="14" fill="#222222">{panel.title.translate(XML_TEXT)}</text>'
    )
    legend_x = xs0
    for idx, (label, arr) in enumerate(panel.series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{_num(sx(i))},{_num(sy(v))}" for i, v in enumerate(arr))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{legend_x}" y="{_num(ys0 - 6)}" font-size="11" '
            f'fill="{color}">{label.translate(XML_TEXT)}</text>'
        )
        legend_x += 10 + 7 * len(label)
    return parts


def line_chart(panels):
    """SVG document with one 800 x 300 panel per entry, stacked vertically."""
    if not panels:
        raise ValueError("no panels to draw")
    panels = [p if isinstance(p, ChartPanel) else ChartPanel(**p) for p in panels]
    total_h = PANEL_H * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_W}" '
        f'height="{total_h}" viewBox="0 0 {PANEL_W} {total_h}">',
        f'<rect x="0" y="0" width="{PANEL_W}" height="{total_h}" fill="#ffffff"/>',
    ]
    for k, panel in enumerate(panels):
        parts.extend(_panel_svg(panel, k * PANEL_H))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_chart(panels, path):
    write_text(path, line_chart(panels))
