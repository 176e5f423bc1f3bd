"""Minimal deterministic SVG line plots.

Hand-rolled so that identical data always produces identical bytes: fixed
float formatting, no timestamps, no generated ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

PANEL_W = 640
PANEL_H = 360
MARGIN_L = 72
MARGIN_R = 24
MARGIN_T = 40
MARGIN_B = 48

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


@dataclass
class Series:
    label: str
    x: list
    y: list


@dataclass
class Band:
    """Shaded region between two curves sharing the x grid."""

    x: list
    y_low: list
    y_high: list


@dataclass
class Panel:
    title: str
    xlabel: str
    ylabel: str
    series: list = field(default_factory=list)
    band: Band | None = None


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _data_range(panel: Panel) -> tuple[float, float, float, float]:
    xs, ys = [], []
    for s in panel.series:
        xs.extend(s.x)
        ys.extend(s.y)
    if panel.band is not None:
        xs.extend(panel.band.x)
        ys.extend(panel.band.y_low)
        ys.extend(panel.band.y_high)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * ((y1 - y0) if y1 > y0 else 1.0)
    return (*_spread(x0, x1 if x1 > x0 else x0 + 1.0), *_spread(y0 - pad, y1 + pad))


def _spread(lo: float, hi: float) -> tuple[float, float]:
    # a span that rounding left empty (lo + 1 is lo once |lo| >= 2^53) becomes one float, toward 0
    if hi > lo:
        return lo, hi
    near = math.nextafter(lo, 0.0)
    return min(lo, near), max(lo, near)


def _panel_svg(panel: Panel, y_offset: int) -> list[str]:
    x0, x1, y0, y1 = _data_range(panel)
    px0, px1 = MARGIN_L, PANEL_W - MARGIN_R
    py0, py1 = y_offset + PANEL_H - MARGIN_B, y_offset + MARGIN_T

    def sx(x):
        return px0 + (x - x0) / (x1 - x0) * (px1 - px0)

    def sy(y):
        return py0 + (y - y0) / (y1 - y0) * (py1 - py0)

    out = [
        f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{PANEL_W // 2}" y="{y_offset + 22}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{panel.title}</text>',
        f'<text x="{PANEL_W // 2}" y="{py0 + 36}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{panel.xlabel}</text>',
        f'<text x="16" y="{(py0 + py1) // 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(py0 + py1) // 2})">'
        f"{panel.ylabel}</text>",
    ]
    for t in _ticks(x0, x1):
        out.append(
            f'<line x1="{_fmt(sx(t))}" y1="{py0}" x2="{_fmt(sx(t))}" y2="{py0 + 4}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(sx(t))}" y="{py0 + 18}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{t:.6g}</text>'
        )
    for t in _ticks(y0, y1):
        out.append(
            f'<line x1="{px0 - 4}" y1="{_fmt(sy(t))}" x2="{px0}" y2="{_fmt(sy(t))}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px0 - 8}" y="{_fmt(sy(t) + 3)}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{t:.6g}</text>'
        )
    if panel.band is not None:
        b = panel.band
        pts = [f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(b.x, b.y_low)]
        pts += [f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(reversed(b.x), reversed(b.y_high))]
        out.append(f'<polygon points="{" ".join(pts)}" fill="#1f77b4" fill-opacity="0.15"/>')
    legend_y = py1 + 14
    for i, s in enumerate(panel.series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.x, s.y))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{px1 - 8}" y="{legend_y + 14 * i}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif" fill="{color}">{s.label}</text>'
        )
    return out


def render_svg(panels: list[Panel]) -> str:
    """Self-contained SVG document with the panels stacked vertically."""
    height = PANEL_H * len(panels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_W}" height="{height}" '
        f'viewBox="0 0 {PANEL_W} {height}">',
        f'<rect x="0" y="0" width="{PANEL_W}" height="{height}" fill="#ffffff"/>',
    ]
    for i, panel in enumerate(panels):
        parts.extend(_panel_svg(panel, i * PANEL_H))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
