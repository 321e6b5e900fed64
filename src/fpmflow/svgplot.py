"""Minimal self-contained SVG line charts (no renderer dependency)."""

from __future__ import annotations

import math
from pathlib import Path

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 36, 48
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 6  # about six ticks per axis
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def line_chart(series, path, title="", xlabel="", ylabel="", logy=False) -> None:
    """Write an SVG polyline chart.  `series` is a list of (xs, ys, label)."""
    pts = [(x, y) for xs, ys, _ in series for x, y in zip(xs, ys)
           if math.isfinite(x) and math.isfinite(y) and (not logy or y > 0)]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    tx = (lambda v: v)
    ty = (lambda v: math.log10(v)) if logy else (lambda v: v)
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(ty(p[1]) for p in pts)
    y_hi = max(ty(p[1]) for p in pts)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(v):
        return _ML + (tx(v) - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return _MT + (1.0 - (ty(v) - y_lo) / (y_hi - y_lo)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for v in _ticks(x_lo, x_hi):
        xp = px(v)
        parts.append(f'<line x1="{xp:.1f}" y1="{_MT}" x2="{xp:.1f}" '
                     f'y2="{_H - _MB}" stroke="#ddd"/>')
        parts.append(f'<text x="{xp:.1f}" y="{_H - _MB + 16}" '
                     f'text-anchor="middle">{v:.4g}</text>')
    y_tick_vals = _ticks(y_lo, y_hi)
    for v in y_tick_vals:
        yp = _MT + (1.0 - (v - y_lo) / (y_hi - y_lo)) * ph
        label = f"1e{v:.0f}" if logy else f"{v:.4g}"
        parts.append(f'<line x1="{_ML}" y1="{yp:.1f}" x2="{_W - _MR}" '
                     f'y2="{yp:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{_ML - 6}" y="{yp + 4:.1f}" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#333"/>')
    for i, (xs, ys, label) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        chunk = []
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y) and (not logy or y > 0):
                chunk.append(f"{px(x):.2f},{py(y):.2f}")
        if chunk:
            parts.append(f'<polyline points="{" ".join(chunk)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        if label:
            yl = _MT + 16 + 16 * i
            parts.append(f'<line x1="{_W - _MR - 120}" y1="{yl - 4}" '
                         f'x2="{_W - _MR - 96}" y2="{yl - 4}" stroke="{color}" '
                         f'stroke-width="2"/>')
            parts.append(f'<text x="{_W - _MR - 90}" y="{yl}">{label}</text>')
    if xlabel:
        parts.append(f'<text x="{_ML + pw / 2}" y="{_H - 10}" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_MT + ph / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_MT + ph / 2})">{ylabel}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
