"""Minimal self-contained SVG line charts (no renderer dependency).

Each series is read as numpy arrays, and its points are formatted and
written to the file one block at a time, so a chart holds no Python object
per point beyond the current block.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 36, 48
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")
# points per format call, as output._BLOCK_ROWS is rows per call
_BLOCK_POINTS = 256


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


def _log10(values):
    # math.log10 point by point: np.log10 differs from it in the last bit on
    # some values, which would move some points by 0.01 px
    return np.array([math.log10(v) for v in values.tolist()])


def line_chart(series, path, title="", xlabel="", ylabel="", logy=False) -> None:
    """Write an SVG polyline chart.  `series` is a list of (xs, ys, label).

    A point is drawn when x and y are finite and, on a log axis, y > 0.  The
    axes span the drawn points of every series, or [0, 1] when there are none.
    """
    kept = []  # (xs, ys, mask of the drawn points, label)
    x_lo = y_lo = math.inf
    x_hi = y_hi = -math.inf
    for xs, ys, label in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        if logy:
            ok &= ys > 0
        if ok.any():
            x_lo = min(x_lo, float(np.min(xs, where=ok, initial=math.inf)))
            x_hi = max(x_hi, float(np.max(xs, where=ok, initial=-math.inf)))
            y_lo = min(y_lo, float(np.min(ys, where=ok, initial=math.inf)))
            y_hi = max(y_hi, float(np.max(ys, where=ok, initial=-math.inf)))
        kept.append((xs, ys, ok, label))
    if x_lo > x_hi:  # nothing to draw
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    elif logy:  # log10 is monotone, so this is the range of the logs
        y_lo, y_hi = math.log10(y_lo), math.log10(y_hi)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    with Path(path).open("w") as fh:
        def put(line):
            fh.write(line + "\n")

        put(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">')
        put(f'<rect width="{_W}" height="{_H}" fill="white"/>')
        put(f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>')
        for v in _ticks(x_lo, x_hi):
            xp = _ML + (v - x_lo) / (x_hi - x_lo) * pw
            put(f'<line x1="{xp:.1f}" y1="{_MT}" x2="{xp:.1f}" '
                f'y2="{_H - _MB}" stroke="#ddd"/>')
            put(f'<text x="{xp:.1f}" y="{_H - _MB + 16}" '
                f'text-anchor="middle">{v:.4g}</text>')
        for v in _ticks(y_lo, y_hi):
            yp = _MT + (1.0 - (v - y_lo) / (y_hi - y_lo)) * ph
            label = f"{10.0 ** v:.3g}" if logy else f"{v:.4g}"  # v is log10 y on a log axis
            put(f'<line x1="{_ML}" y1="{yp:.1f}" x2="{_W - _MR}" '
                f'y2="{yp:.1f}" stroke="#ddd"/>')
            put(f'<text x="{_ML - 6}" y="{yp + 4:.1f}" '
                f'text-anchor="end">{label}</text>')
        put(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
            f'fill="none" stroke="#333"/>')
        for i, (xs, ys, ok, label) in enumerate(kept):
            color = _COLORS[i % len(_COLORS)]
            if ok.any():
                fh.write('<polyline points="')
                lead = 1  # no space before the first point
                for start in range(0, len(ok), _BLOCK_POINTS):
                    block = slice(start, start + _BLOCK_POINTS)
                    x, y = xs[block][ok[block]], ys[block][ok[block]]
                    if not len(x):
                        continue
                    px = _ML + (x - x_lo) / (x_hi - x_lo) * pw
                    py = _MT + (1.0 - ((_log10(y) if logy else y) - y_lo) / (y_hi - y_lo)) * ph
                    pts = tuple(np.column_stack((px, py)).ravel().tolist())
                    fh.write(((" %.2f,%.2f" * len(x)) % pts)[lead:])
                    lead = 0
                put(f'" fill="none" stroke="{color}" stroke-width="1.5"/>')
            if label:
                yl = _MT + 16 + 16 * i
                put(f'<line x1="{_W - _MR - 120}" y1="{yl - 4}" '
                    f'x2="{_W - _MR - 96}" y2="{yl - 4}" stroke="{color}" '
                    f'stroke-width="2"/>')
                put(f'<text x="{_W - _MR - 90}" y="{yl}">{label}</text>')
        if xlabel:
            put(f'<text x="{_ML + pw / 2}" y="{_H - 10}" '
                f'text-anchor="middle">{xlabel}</text>')
        if ylabel:
            put(f'<text x="16" y="{_MT + ph / 2}" text-anchor="middle" '
                f'transform="rotate(-90 16 {_MT + ph / 2})">{ylabel}</text>')
        put("</svg>")
