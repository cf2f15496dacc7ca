"""Hand-emitted SVG charts for sweep reports.

No plotting dependency: the CLI needs exactly one chart shape (numeric
series over a shared x axis, linear scales), which fits in a page of path
arithmetic.  Output is a fixed 960x600 canvas with 5% range padding,
gridlines at rounded ticks, and one path element per series: lines draw
as polylines, scatter as zero-length segments with round caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from html import escape
from typing import Sequence, Tuple

import numpy as np

from .errors import DomainError

WIDTH = 960
HEIGHT = 600
_ML, _MR, _MT, _MB = 76, 24, 46, 58
_PALETTE = ("#2a6fdb", "#d0343a", "#2e9e4f", "#8441a4", "#e08b2d",
            "#3aa6a6", "#6b6b6b")


class PlotKind(Enum):
    LINE = "line"
    SCATTER = "scatter"


@dataclass(frozen=True)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class PlotSpec:
    """Validated chart description; rejects ragged or non-finite data."""

    kind: PlotKind
    series: Tuple[Series, ...]
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""

    def __post_init__(self):
        if not isinstance(self.kind, PlotKind):
            raise DomainError("kind must be a PlotKind")
        if not self.series:
            raise DomainError("plot needs at least one series")
        for s in self.series:
            if len(s.x) != len(s.y):
                raise DomainError(
                    f"series '{s.label}': x has {len(s.x)} points, "
                    f"y has {len(s.y)}")
            if len(s.x) == 0:
                raise DomainError(f"series '{s.label}' is empty")
            if not (np.all(np.isfinite(s.x)) and np.all(np.isfinite(s.y))):
                raise DomainError(
                    f"series '{s.label}' contains non-finite values")


def _padded_range(vals: Sequence[np.ndarray]) -> Tuple[float, float]:
    lo = min(float(v.min()) for v in vals)
    hi = max(float(v.max()) for v in vals)
    span = hi - lo
    pad = 0.05 * span if span > 0 else max(0.5, 0.05 * abs(hi))
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, target: int = 6):
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        # snap near-zero ticks so labels read 0, not 1.2e-16
        out.append(0.0 if abs(v) < 1e-9 * step else v)
        v += step
    return out


def render(spec: PlotSpec) -> str:
    """The full SVG document for one chart, as a string."""
    x_lo, x_hi = _padded_range([s.x for s in spec.series])
    y_lo, y_hi = _padded_range([s.y for s in spec.series])

    def px(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * (WIDTH - _ML - _MR)

    def py(v: float) -> float:
        return HEIGHT - _MB - (v - y_lo) / (y_hi - y_lo) \
            * (HEIGHT - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # grid and tick labels
    for tx in _ticks(x_lo, x_hi):
        gx = px(tx)
        parts.append(f'<line x1="{gx:.2f}" y1="{_MT}" x2="{gx:.2f}" '
                     f'y2="{HEIGHT - _MB}" stroke="#dddddd"/>')
        parts.append(f'<text x="{gx:.2f}" y="{HEIGHT - _MB + 18}" '
                     f'font-size="12" text-anchor="middle" '
                     f'fill="#333333">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        gy = py(ty)
        parts.append(f'<line x1="{_ML}" y1="{gy:.2f}" '
                     f'x2="{WIDTH - _MR}" y2="{gy:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_ML - 8}" y="{gy + 4:.2f}" font-size="12" '
                     f'text-anchor="end" fill="#333333">{ty:g}</text>')
    # axes frame
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{WIDTH - _ML - _MR}" '
                 f'height="{HEIGHT - _MT - _MB}" fill="none" '
                 f'stroke="#333333"/>')
    # one path per series, plus legend entries
    for i, s in enumerate(spec.series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [f"{px(float(a)):.2f},{py(float(b)):.2f}"
               for a, b in zip(s.x, s.y)]
        if spec.kind is PlotKind.LINE:
            d = "M" + " L".join(pts)
            style = f'stroke="{color}" stroke-width="1.8" fill="none"'
        else:
            d = " ".join(f"M{p} h0" for p in pts)
            style = (f'stroke="{color}" stroke-width="5" fill="none" '
                     'stroke-linecap="round"')
        parts.append(f'<path d="{d}" {style}/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{WIDTH - _MR - 130}" y1="{ly - 4}" '
                     f'x2="{WIDTH - _MR - 106}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{WIDTH - _MR - 100}" y="{ly}" '
                     f'font-size="12" fill="#333333">'
                     f'{escape(s.label, quote=False)}</text>')
    if spec.title:
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="24" font-size="16" '
                     f'text-anchor="middle" fill="#111111">'
                     f'{escape(spec.title, quote=False)}</text>')
    if spec.xlabel:
        parts.append(f'<text x="{(_ML + WIDTH - _MR) / 2:.0f}" '
                     f'y="{HEIGHT - 16}" font-size="13" '
                     f'text-anchor="middle" fill="#111111">'
                     f'{escape(spec.xlabel, quote=False)}</text>')
    if spec.ylabel:
        parts.append(f'<text x="20" y="{(_MT + HEIGHT - _MB) / 2:.0f}" '
                     f'font-size="13" text-anchor="middle" fill="#111111" '
                     f'transform="rotate(-90 20 '
                     f'{(_MT + HEIGHT - _MB) / 2:.0f})">'
                     f'{escape(spec.ylabel, quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
