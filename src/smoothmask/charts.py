"""Dependency-free SVG line/scatter charts for study outputs.

Text output is fully deterministic (fixed palette, fixed float formatting) so
chart files can be compared byte-for-byte and used as golden files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    """Named points, drawn as markers joined by a line."""

    name: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if len(self.x) != len(self.y):
            raise ValueError("series x and y lengths differ")
        if not self.x:
            raise ValueError(f"series {self.name!r} is empty")


@dataclass(frozen=True)
class RefLine:
    """Horizontal reference line at y = value."""

    value: float
    label: str


@dataclass(frozen=True)
class Dot:
    x: float
    y: float
    label: str = ""


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + (abs(lo) if lo != 0 else 1.0)
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_chart(series: Sequence[Series], *, title: str, xlabel: str, ylabel: str,
                 ref_lines: Sequence[RefLine] = (), dots: Sequence[Dot] = ()) -> str:
    """Self-contained SVG with axes, one polyline/marker set per series, and a legend."""
    if not series:
        raise ValueError("chart needs at least one data series")
    xs = [v for s in series for v in s.x] + [d.x for d in dots]
    ys = [v for s in series for v in s.y] + [d.y for d in dots] + [r.value for r in ref_lines]
    xs = [v for v in xs if math.isfinite(v)]
    ys = [v for v in ys if math.isfinite(v)]
    if not xs or not ys:
        raise ValueError("chart data contains no finite points")
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax == ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    ypad = 0.06 * (ymax - ymin)
    ymin, ymax = ymin - ypad, ymax + ypad
    xpad = 0.04 * (xmax - xmin)
    xmin, xmax = xmin - xpad, xmax + xpad

    width, height = 760, 460
    left, right, top, bottom = 72, 160, 44, 56
    pw, ph = width - left - right, height - top - bottom

    def sx(v: float) -> float:
        return left + (v - xmin) / (xmax - xmin) * pw

    def sy(v: float) -> float:
        return top + ph - (v - ymin) / (ymax - ymin) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + pw / 2:.2f}" y="22" text-anchor="middle" font-size="15">{_esc(title)}</text>',
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for t in _nice_ticks(xmin, xmax):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{top + ph}" x2="{px:.2f}" y2="{top + ph + 5}" stroke="#333"/>')
        out.append(f'<text x="{px:.2f}" y="{top + ph + 18}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _nice_ticks(ymin, ymax):
        py = sy(t)
        out.append(f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" stroke="#333"/>')
        out.append(f'<text x="{left - 8}" y="{py + 4:.2f}" text-anchor="end">{_fmt(t)}</text>')
    out.append(f'<text x="{left + pw / 2:.2f}" y="{height - 14}" text-anchor="middle">{_esc(xlabel)}</text>')
    out.append(
        f'<text x="18" y="{top + ph / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {top + ph / 2:.2f})">{_esc(ylabel)}</text>'
    )
    for ref in ref_lines:
        if not math.isfinite(ref.value):
            continue
        py = sy(ref.value)
        out.append(f'<line x1="{left}" y1="{py:.2f}" x2="{left + pw}" y2="{py:.2f}" '
                   f'stroke="#888" stroke-dasharray="5,4"/>')
        out.append(f'<text x="{left + pw + 6}" y="{py + 4:.2f}" fill="#555">{_esc(ref.label)}</text>')
    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        if len(s.x) > 1:
            pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(s.x, s.y)
                           if math.isfinite(a) and math.isfinite(b))
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        for a, b in zip(s.x, s.y):
            if math.isfinite(a) and math.isfinite(b):
                out.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3" fill="{color}"/>')
        ly = top + 16 + 18 * k
        out.append(f'<line x1="{left + pw + 8}" y1="{ly - 4}" x2="{left + pw + 30}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{left + pw + 34}" y="{ly}">{_esc(s.name)}</text>')
    for d in dots:
        if math.isfinite(d.x) and math.isfinite(d.y):
            out.append(f'<circle cx="{sx(d.x):.2f}" cy="{sy(d.y):.2f}" r="4.5" fill="#000"/>')
            if d.label:
                out.append(f'<text x="{sx(d.x) + 6:.2f}" y="{sy(d.y) - 6:.2f}">{_esc(d.label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
