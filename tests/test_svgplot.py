"""SVG line charts: exact output, which points are drawn, axis ranges, memory."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from fpmflow.svgplot import line_chart

inf, nan = math.inf, math.nan

# Two small charts and their text as written by the point-by-point
# implementation that the block writer replaced; the bytes must not change,
# except that a log axis labels each gridline with its value 10^v.
LINEAR = [([0.0, 0.5, 1.0, 1.5, 2.0, 2.5], [1.0, nan, -0.5, inf, 2.0, 0.25], "a"),
          ([nan, 0.25, 0.75, -inf, 3.0], [0.0, -1.25, 0.5, 1.0, 1.5], "b"),
          ([0.0, 1.0], [nan, -inf], "")]
LOG = [([0.0, 1.0, 2.0, 3.0, 4.0], [1e-3, 0.0, 10.0, -2.0, 0.5], "c1"),
       ([0.5, 1.5, nan, 2.5, inf], [100.0, inf, 1.0, nan, 5.0], "d"),
       ([0.0, 1.0], [0.0, -1.0], "e")]

LINEAR_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="720" height="440" viewBox="0 0 720 440" font-family="sans-serif" font-size="12">
<rect width="720" height="440" fill="white"/>
<text x="360.0" y="20" text-anchor="middle" font-size="14">linear</text>
<line x1="70.0" y1="36" x2="70.0" y2="392" stroke="#ddd"/>
<text x="70.0" y="408" text-anchor="middle">0</text>
<line x1="175.0" y1="36" x2="175.0" y2="392" stroke="#ddd"/>
<text x="175.0" y="408" text-anchor="middle">0.5</text>
<line x1="280.0" y1="36" x2="280.0" y2="392" stroke="#ddd"/>
<text x="280.0" y="408" text-anchor="middle">1</text>
<line x1="385.0" y1="36" x2="385.0" y2="392" stroke="#ddd"/>
<text x="385.0" y="408" text-anchor="middle">1.5</text>
<line x1="490.0" y1="36" x2="490.0" y2="392" stroke="#ddd"/>
<text x="490.0" y="408" text-anchor="middle">2</text>
<line x1="595.0" y1="36" x2="595.0" y2="392" stroke="#ddd"/>
<text x="595.0" y="408" text-anchor="middle">2.5</text>
<line x1="700.0" y1="36" x2="700.0" y2="392" stroke="#ddd"/>
<text x="700.0" y="408" text-anchor="middle">3</text>
<line x1="70" y1="364.6" x2="700" y2="364.6" stroke="#ddd"/>
<text x="64" y="368.6" text-anchor="end">-1</text>
<line x1="70" y1="255.1" x2="700" y2="255.1" stroke="#ddd"/>
<text x="64" y="259.1" text-anchor="end">0</text>
<line x1="70" y1="145.5" x2="700" y2="145.5" stroke="#ddd"/>
<text x="64" y="149.5" text-anchor="end">1</text>
<line x1="70" y1="36.0" x2="700" y2="36.0" stroke="#ddd"/>
<text x="64" y="40.0" text-anchor="end">2</text>
<rect x="70" y="36" width="630" height="356" fill="none" stroke="#333"/>
<polyline points="70.00,145.54 280.00,309.85 490.00,36.00 595.00,227.69" fill="none" stroke="#1f77b4" stroke-width="1.5"/>
<line x1="580" y1="48" x2="604" y2="48" stroke="#1f77b4" stroke-width="2"/>
<text x="610" y="52">a</text>
<polyline points="122.50,392.00 227.50,200.31 700.00,90.77" fill="none" stroke="#d62728" stroke-width="1.5"/>
<line x1="580" y1="64" x2="604" y2="64" stroke="#d62728" stroke-width="2"/>
<text x="610" y="68">b</text>
<text x="385.0" y="430" text-anchor="middle">x</text>
<text x="16" y="214.0" text-anchor="middle" transform="rotate(-90 16 214.0)">y</text>
</svg>
"""

LOG_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="720" height="440" viewBox="0 0 720 440" font-family="sans-serif" font-size="12">
<rect width="720" height="440" fill="white"/>
<text x="360.0" y="20" text-anchor="middle" font-size="14">log</text>
<line x1="70.0" y1="36" x2="70.0" y2="392" stroke="#ddd"/>
<text x="70.0" y="408" text-anchor="middle">0</text>
<line x1="227.5" y1="36" x2="227.5" y2="392" stroke="#ddd"/>
<text x="227.5" y="408" text-anchor="middle">1</text>
<line x1="385.0" y1="36" x2="385.0" y2="392" stroke="#ddd"/>
<text x="385.0" y="408" text-anchor="middle">2</text>
<line x1="542.5" y1="36" x2="542.5" y2="392" stroke="#ddd"/>
<text x="542.5" y="408" text-anchor="middle">3</text>
<line x1="700.0" y1="36" x2="700.0" y2="392" stroke="#ddd"/>
<text x="700.0" y="408" text-anchor="middle">4</text>
<line x1="70" y1="392.0" x2="700" y2="392.0" stroke="#ddd"/>
<text x="64" y="396.0" text-anchor="end">0.001</text>
<line x1="70" y1="320.8" x2="700" y2="320.8" stroke="#ddd"/>
<text x="64" y="324.8" text-anchor="end">0.01</text>
<line x1="70" y1="249.6" x2="700" y2="249.6" stroke="#ddd"/>
<text x="64" y="253.6" text-anchor="end">0.1</text>
<line x1="70" y1="178.4" x2="700" y2="178.4" stroke="#ddd"/>
<text x="64" y="182.4" text-anchor="end">1</text>
<line x1="70" y1="107.2" x2="700" y2="107.2" stroke="#ddd"/>
<text x="64" y="111.2" text-anchor="end">10</text>
<line x1="70" y1="36.0" x2="700" y2="36.0" stroke="#ddd"/>
<text x="64" y="40.0" text-anchor="end">100</text>
<rect x="70" y="36" width="630" height="356" fill="none" stroke="#333"/>
<polyline points="70.00,392.00 385.00,107.20 700.00,199.83" fill="none" stroke="#1f77b4" stroke-width="1.5"/>
<line x1="580" y1="48" x2="604" y2="48" stroke="#1f77b4" stroke-width="2"/>
<text x="610" y="52">c1</text>
<polyline points="148.75,36.00" fill="none" stroke="#d62728" stroke-width="1.5"/>
<line x1="580" y1="64" x2="604" y2="64" stroke="#d62728" stroke-width="2"/>
<text x="610" y="68">d</text>
<line x1="580" y1="80" x2="604" y2="80" stroke="#2ca02c" stroke-width="2"/>
<text x="610" y="84">e</text>
<text x="385.0" y="430" text-anchor="middle">t</text>
<text x="16" y="214.0" text-anchor="middle" transform="rotate(-90 16 214.0)">c1</text>
</svg>
"""


def chart(tmp_path, series, **kwargs) -> str:
    path = tmp_path / "chart.svg"
    line_chart(series, path, **kwargs)
    return path.read_text()


def polylines(text) -> list:
    """The (x, y) strings of each polyline, in order."""
    return [[tuple(p.split(",")) for p in pts.split(" ")]
            for pts in re.findall(r'<polyline points="([^"]*)"', text)]


def reference_points(series, logy) -> list:
    """Each drawn series' points, point by point: a point is drawn when x and
    y are finite and, on a log axis, y > 0; the axes span every series."""
    drawn = [[(x, math.log10(y) if logy else y) for x, y in zip(xs, ys)
              if math.isfinite(x) and math.isfinite(y) and (not logy or y > 0)]
             for xs, ys, _ in series]
    pts = [p for s in drawn for p in s]
    x_lo, x_hi = min(p[0] for p in pts), max(p[0] for p in pts)
    y_lo, y_hi = min(p[1] for p in pts), max(p[1] for p in pts)
    return [[(f"{70 + (x - x_lo) / (x_hi - x_lo) * 630:.2f}",
              f"{36 + (1.0 - (y - y_lo) / (y_hi - y_lo)) * 356:.2f}") for x, y in s]
            for s in drawn if s]


@pytest.mark.parametrize("series, kwargs, expected", [
    (LINEAR, dict(title="linear", xlabel="x", ylabel="y"), LINEAR_SVG),
    (LOG, dict(title="log", xlabel="t", ylabel="c1", logy=True), LOG_SVG),
], ids=("linear", "log"))
def test_pinned_output(series, kwargs, expected, tmp_path):
    assert chart(tmp_path, series, **kwargs) == expected
    arrays = [(np.array(xs), np.array(ys), label) for xs, ys, label in series]
    assert chart(tmp_path, arrays, **kwargs) == expected


@pytest.mark.parametrize("logy", (False, True))
def test_points_drawn_as_point_by_point(logy, tmp_path):
    # 600-point series cross block boundaries and are offset in x, so the
    # axes must span both drawn ones; the second has no drawn point in its
    # first block, the third none at all
    rng = np.random.default_rng(3)
    series = []
    for j in range(3):
        xs = np.sort(rng.normal(size=600)) + 4 * j
        ys = np.exp(rng.normal(size=600)) * rng.choice([-1.0, 1.0, 1.0, 1.0], size=600)
        xs[rng.integers(0, 600, 8)] = rng.choice([nan, inf, -inf], size=8)
        ys[rng.integers(0, 600, 8)] = rng.choice([nan, inf, -inf, 0.0], size=8)
        series.append((xs, ys, f"s{j}"))
    series[1][1][:300] = nan
    series[2][1][:] = -inf
    assert polylines(chart(tmp_path, series, logy=logy)) == reference_points(series, logy)


@pytest.mark.parametrize("series, logy", [
    ([([0.0, 1.0], [0.0, 0.0], "c1")], True),
    ([([0.0, 1.0], [nan, inf], "c1")], False),
    ([], False),
], ids=("log-nonpositive", "linear-nonfinite", "no-series"))
def test_empty_chart_draws_default_frame(series, logy, tmp_path):
    text = chart(tmp_path, series, logy=logy)
    assert "<polyline" not in text
    assert re.findall(r'text-anchor="middle">([^<]*)</text>', text) == [
        "0", "0.2", "0.4", "0.6", "0.8", "1"]
    assert re.findall(r'<line x1="70" y1="([^"]*)"', text) == [
        "392.0", "320.8", "249.6", "178.4", "107.2", "36.0"]
    assert ('<text x="610" y="52">c1</text>' in text) == bool(series)


@pytest.mark.parametrize("ys", ([2.0, 8.0], [12.0, 45.0, 20.0], [1.5e-7, 9.0e-7]),
                         ids=("2-8", "12-45", "1.5e-7-9e-7"))
def test_log_labels_inside_one_decade_are_distinct(ys, tmp_path):
    # ticks a fraction of a decade apart once shared a label, "1e0" or "1e1"
    text = chart(tmp_path, [(list(range(len(ys))), ys, "c1")], logy=True)
    labels = re.findall(r'text-anchor="end">([^<]*)</text>', text)
    assert len(labels) >= 3
    assert len(set(labels)) == len(labels)
    assert min(ys) <= float(labels[0]) and float(labels[-1]) <= max(ys)


def test_peak_memory_is_bounded(tmp_path):
    # the point-by-point writer peaked at 18.0 MiB on this chart
    xs = np.linspace(0.0, 1.0, 16384)
    series = [(xs, np.cos(2 * np.pi * (j + 1) * xs) + 2.0, f"t={j}") for j in range(7)]
    tracemalloc.start()
    try:
        line_chart(series, tmp_path / "chart.svg", title="density snapshots")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(polylines((tmp_path / "chart.svg").read_text())[6]) == 16384
    assert peak < 1.5 * 2**20
