"""Minimal deterministic SVG line charts for trajectory panels.

No plotting library: output must be byte-stable across runs and machines
so the figures can be diffed in CI.  Fixed canvas, fixed styles, fixed
2-decimal pixel coordinates, one format call per polyline; upper-slit
trajectories are full blue lines, lower-slit ones dashed red lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Curve", "render_chart"]

_W, _H = 480, 360
_ML, _MR, _MT, _MB = 56, 14, 30, 44
_STYLES = {
    "upper": ('stroke="#1f4e9c"', ""),
    "lower": ('stroke="#c0392b"', ' stroke-dasharray="6 4"'),
    "gray": ('stroke="#8a8a8a"', ""),
}


@dataclass(frozen=True, eq=False)
class Curve:
    x: np.ndarray
    y: np.ndarray
    style: str = "upper"


def _nice_step(span: float) -> float:
    raw = span / 4.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            return m * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _fmt_tick(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.4g}"


def render_chart(curves: list[Curve], title: str, xlabel: str, ylabel: str) -> str:
    """One SVG panel with axes, ticks and the given polylines."""
    if not curves:
        raise ValueError("nothing to plot: empty curve list")
    xlo = min(float(np.min(c.x)) for c in curves)
    xhi = max(float(np.max(c.x)) for c in curves)
    ylo = min(float(np.min(c.y)) for c in curves)
    yhi = max(float(np.max(c.y)) for c in curves)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    xpad = 0.04 * (xhi - xlo)
    ypad = 0.06 * (yhi - ylo)
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(v):
        return _ML + (v - xlo) / (xhi - xlo) * pw

    def py(v):
        return _MT + (yhi - v) / (yhi - ylo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'width="{_W}" height="{_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_W / 2:.2f}" y="18" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle">{title}</text>',
    ]
    # frame
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
               f'stroke="#000000" stroke-width="1"/>')
    for v in _ticks(xlo, xhi):
        x = px(v)
        out.append(f'<line x1="{x:.2f}" y1="{_MT + ph}" x2="{x:.2f}" y2="{_MT + ph + 4}" '
                   f'stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{_MT + ph + 16}" font-family="sans-serif" '
                   f'font-size="10" text-anchor="middle">{_fmt_tick(v)}</text>')
    for v in _ticks(ylo, yhi):
        y = py(v)
        out.append(f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
                   f'stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_ML - 7}" y="{y + 3.5:.2f}" font-family="sans-serif" '
                   f'font-size="10" text-anchor="end">{_fmt_tick(v)}</text>')
    out.append(f'<text x="{_ML + pw / 2:.2f}" y="{_H - 8}" font-family="sans-serif" '
               f'font-size="11" text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="14" y="{_MT + ph / 2:.2f}" font-family="sans-serif" font-size="11" '
               f'text-anchor="middle" transform="rotate(-90 14 {_MT + ph / 2:.2f})">{ylabel}</text>')

    for c in curves:
        stroke, dash = _STYLES.get(c.style, _STYLES["gray"])
        xy = np.column_stack((px(c.x), py(c.y)))
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        out.append(f'<polyline fill="none" {stroke} stroke-width="1.2"{dash} points="{pts}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
