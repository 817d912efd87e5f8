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
from .models import InvalidSetting
from .sweep import field_series

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b")

_WIDTH, _HEIGHT = 760.0, 440.0
_ML, _MR, _MT, _MB = 64.0, 64.0, 28.0, 46.0


def _axis_range(values, name):
    """Padded (lo, hi) of values; InvalidSetting naming `name` on overflow."""
    lo, hi = float(min(values)), float(max(values))  # inf, not a warning
    # a flat series pads 1.0 also where a tenth of a subnormal rounds to 0
    pad = (hi - lo) * 0.06 if hi != lo else abs(lo) * 0.1 or 1.0
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise InvalidSetting(name, f"field '{name}' overflows its axis")
    return lo - pad, hi + pad


def _ticks(lo, hi):
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def emit_svg(records, fields, path, marker=None):
    """Write the plot for `fields` over the sweep parameter to `path`.

    marker, if given, draws a dashed gray vertical line at that parameter
    value (the natural place for a known degeneracy). Non-finite samples
    break the polyline rather than being clipped to the frame.
    """
    if not fields:
        raise InvalidSetting("fields", "no fields to plot")
    n_modes = max((len(r.modes) for r in records), default=0)
    if n_modes == 0:
        raise InvalidSetting("records", "no mode rows to plot")
    params = [r.parameter for r in records]
    # (legend label, y axis: 0 left or 1 right, values) per (field, mode)
    series = [(f"{f} (mode {mi})", int(i > 0),
               field_series(records, f, mi)[1])
              for i, f in enumerate(fields) for mi in range(n_modes)]

    y_ranges = []
    for axis, name in enumerate(fields[:2]):
        vals = [v for _, a, ys in series if a == axis
                for v in ys if math.isfinite(v)]
        if not vals:
            raise InvalidSetting(name, f"field '{name}' has no finite values")
        y_ranges.append(_axis_range(vals, name))

    x_lo, x_hi = _axis_range(params, "parameter")
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
    # each y axis: its frame edge, the side its ticks point to, the anchor
    for rng, edge, side, anchor in zip(y_ranges, (_ML, _ML + px_w), (-1, 1),
                                       ("end", "start")):
        x1, x2 = sorted((edge, edge + 5 * side))
        for y in _ticks(*rng):
            py = sy(y, rng)
            out.append(f'<line x1="{x1:.2f}" y1="{py:.2f}" '
                       f'x2="{x2:.2f}" y2="{py:.2f}" stroke="#444"/>')
            out.append(f'<text x="{edge + 8 * side:.2f}" y="{py + 4:.2f}" '
                       f'font-size="11" text-anchor="{anchor}">{y:.4g}</text>')

    if marker is not None and x_lo <= marker <= x_hi:
        px = sx(marker)
        out.append(f'<line x1="{px:.2f}" y1="{_MT:.2f}" x2="{px:.2f}" '
                   f'y2="{_MT + px_h:.2f}" stroke="#888" '
                   f'stroke-dasharray="2,4"/>')

    legend = []
    for i, (label, axis, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="6,3"' if axis else ''
        run = []  # closed by a non-finite sample or the nan after the last
        for x, y in zip(params + [math.nan], [*ys, math.nan]):
            if math.isfinite(y):
                run.append(f"{sx(x):.2f},{sy(y, y_ranges[axis]):.2f}")
                continue
            if len(run) > 1:  # a lone point draws no line
                out.append(f'<polyline points="{" ".join(run)}" fill="none" '
                           f'stroke="{color}" stroke-width="1.5"{dash}/>')
            run = []
        legend.append((label, color, dash))

    ly = _MT + 14.0
    for label, color, dash in legend:
        out.append(f'<line x1="{_ML + 10:.2f}" y1="{ly - 4:.2f}" '
                   f'x2="{_ML + 34:.2f}" y2="{ly - 4:.2f}" '
                   f'stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{_ML + 40:.2f}" y="{ly:.2f}" '
                   f'font-size="11">{label}</text>')
        ly += 15.0
    out.append("</svg>")

    write_text(path, ["\n".join(out) + "\n"])
