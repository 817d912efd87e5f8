"""Static SVG line plots of sweep diagnostics.

One polyline per (field, mode) pair. The first field owns the left axis;
any further fields share a right axis and are drawn dashed, which keeps a
linewidth-style quantity and an entropy readable on one panel despite
their different scales. Output is a single self-contained file: no
scripts, no external references.
"""

from __future__ import annotations

import math

from .io import write_text
from .sweep import field_series

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b")

_WIDTH, _HEIGHT = 760.0, 440.0
_ML, _MR, _MT, _MB = 64.0, 64.0, 28.0, 46.0


def _finite(values):
    return [v for v in values if math.isfinite(v)]


def _axis_range(values):
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = 1.0 if lo == 0.0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.06
    return lo - pad, hi + pad


def _ticks(lo, hi, n=5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def emit_svg(records, fields, path, marker=None):
    """Write the plot for `fields` over the sweep parameter to `path`.

    marker, if given, draws a dashed gray vertical line at that parameter
    value (the natural place for a known degeneracy). Non-finite samples
    break the polyline rather than being clipped to the frame.
    """
    if not fields:
        raise ValueError("no fields to plot")
    if not records:
        raise ValueError("no records to plot")
    n_modes = max((len(r.modes) for r in records), default=0)
    if n_modes == 0:
        raise ValueError("no mode rows to plot")
    params = [r.parameter for r in records]

    series = {}
    for field in fields:
        for mi in range(n_modes):
            series[(field, mi)] = field_series(records, field, mi)[1]

    left_vals = _finite([v for (f, _), ys in series.items() if f == fields[0]
                         for v in ys])
    if not left_vals:
        raise ValueError(f"field '{fields[0]}' has no finite values")
    y_left = _axis_range(left_vals)
    y_right = None
    if len(fields) > 1:
        right_vals = _finite([v for (f, _), ys in series.items()
                              if f != fields[0] for v in ys])
        if not right_vals:
            raise ValueError(f"field '{fields[1]}' has no finite values")
        y_right = _axis_range(right_vals)

    x_lo, x_hi = _axis_range(params)
    px_w = _WIDTH - _ML - _MR
    px_h = _HEIGHT - _MT - _MB

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y, rng):
        lo, hi = rng
        return _MT + (hi - y) / (hi - lo) * px_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
           f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
           f'<rect x="{_ML:g}" y="{_MT:g}" width="{px_w:g}" '
           f'height="{px_h:g}" fill="none" stroke="#444"/>']

    for x in _ticks(x_lo, x_hi):
        px = sx(x)
        out.append(f'<line x1="{px:.2f}" y1="{_MT + px_h:.2f}" '
                   f'x2="{px:.2f}" y2="{_MT + px_h + 5:.2f}" '
                   f'stroke="#444"/>')
        out.append(f'<text x="{px:.2f}" y="{_MT + px_h + 18:.2f}" '
                   f'font-size="11" text-anchor="middle">{x:.4g}</text>')
    for y in _ticks(*y_left):
        py = sy(y, y_left)
        out.append(f'<line x1="{_ML - 5:.2f}" y1="{py:.2f}" '
                   f'x2="{_ML:.2f}" y2="{py:.2f}" stroke="#444"/>')
        out.append(f'<text x="{_ML - 8:.2f}" y="{py + 4:.2f}" '
                   f'font-size="11" text-anchor="end">{y:.4g}</text>')
    if y_right is not None:
        for y in _ticks(*y_right):
            py = sy(y, y_right)
            out.append(f'<line x1="{_ML + px_w:.2f}" y1="{py:.2f}" '
                       f'x2="{_ML + px_w + 5:.2f}" y2="{py:.2f}" '
                       f'stroke="#444"/>')
            out.append(f'<text x="{_ML + px_w + 8:.2f}" y="{py + 4:.2f}" '
                       f'font-size="11" text-anchor="start">{y:.4g}</text>')

    if marker is not None and x_lo <= marker <= x_hi:
        px = sx(marker)
        out.append(f'<line x1="{px:.2f}" y1="{_MT:.2f}" x2="{px:.2f}" '
                   f'y2="{_MT + px_h:.2f}" stroke="#888" '
                   f'stroke-dasharray="2,4"/>')

    color_idx = 0
    legend = []
    for field in fields:
        rng = y_left if field == fields[0] else y_right
        dash = '' if field == fields[0] else ' stroke-dasharray="6,3"'
        for mi in range(n_modes):
            color = _PALETTE[color_idx % len(_PALETTE)]
            color_idx += 1
            segment = []
            segments = []
            for x, y in zip(params, series[(field, mi)]):
                if math.isfinite(y):
                    segment.append(f"{sx(x):.2f},{sy(y, rng):.2f}")
                elif segment:
                    segments.append(segment)
                    segment = []
            if segment:
                segments.append(segment)
            for seg in segments:
                if len(seg) < 2:
                    continue
                out.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                           f'stroke="{color}" stroke-width="1.5"{dash}/>')
            legend.append((f"{field} (mode {mi})", color, bool(dash)))

    ly = _MT + 14.0
    for label, color, dashed in legend:
        dash = ' stroke-dasharray="6,3"' if dashed else ''
        out.append(f'<line x1="{_ML + 10:.2f}" y1="{ly - 4:.2f}" '
                   f'x2="{_ML + 34:.2f}" y2="{ly - 4:.2f}" '
                   f'stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{_ML + 40:.2f}" y="{ly:.2f}" '
                   f'font-size="11">{label}</text>')
        ly += 15.0
    out.append("</svg>")

    write_text(path, "\n".join(out) + "\n")
