"""Self-contained SVG renderers (no plotting dependencies).

Heatmaps draw one rectangle per sweep cell on an index-uniform lattice:
gamma columns are labeled with their values (log-spaced grids therefore
read as a log axis), loads rows with theirs. The color ramp runs dark to
bright through fixed perceptually-ordered anchor colors. A cell with no
drawn value (fully degenerate spectra, or a nonpositive value under a
log10 transform) is drawn in a reserved gray; a non-finite value in any
other cell raises NumericError.
"""

from __future__ import annotations

import math

from .errors import ArgumentError, NumericError
from .sweep import METRICS

# dark -> bright anchors (inferno-like)
_RAMP = [(0, 0, 4), (87, 16, 110), (188, 55, 84), (249, 142, 9), (252, 255, 164)]
FLAG_COLOR = "#9e9e9e"


def _ramp_color(u: float) -> str:
    u = min(max(u, 0.0), 1.0)
    pos = u * (len(_RAMP) - 1)
    i = min(int(pos), len(_RAMP) - 2)
    f = pos - i
    r, g, b = (
        round(_RAMP[i][c] + f * (_RAMP[i + 1][c] - _RAMP[i][c])) for c in range(3)
    )
    return f"#{r:02x}{g:02x}{b:02x}"


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _svg(W: int, H: int, body: list) -> str:
    """The W x H SVG document of the `body` elements on white."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="monospace" font-size="11">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        *body,
        "</svg>",
    ]) + "\n"


def _grid_layout(cells):
    for c in cells:  # only cells phase can write; a nan gamma would pass the rectangle check
        if not (0.0 < c.gamma < math.inf and 0.0 < c.load <= 1.0 and min(c.trials, c.N) >= 1):
            raise ArgumentError(f"cell out of range: gamma={c.gamma}, load={c.load}, "
                                f"trials={c.trials}, N={c.N}")
    gammas = sorted({c.gamma for c in cells})
    loads = sorted({c.load for c in cells})
    lookup = {(c.gamma, c.load): c for c in cells}
    if len(lookup) != len(cells) or len(cells) != len(gammas) * len(loads):
        raise ArgumentError(
            f"cells do not form a rectangle: {len(cells)} cells, "
            f"{len(gammas)} gammas x {len(loads)} loads"
        )
    return gammas, loads, lookup


def render_heatmap(cells, metric: str) -> str:
    """The SVG heatmap of one metric over the grid, on the metric's scale."""
    if metric not in METRICS:
        raise ArgumentError(f"unknown metric {metric!r}")
    attr, log10 = METRICS[metric]
    gammas, loads, lookup = _grid_layout(cells)

    values = {}  # the drawn value of each unflagged cell; the others are gray
    for key, c in lookup.items():
        v = getattr(c, attr)
        if c.degenerate_count >= c.trials * c.N:
            continue
        if not math.isfinite(v):
            raise NumericError(
                f"non-finite unflagged value for {metric} at gamma={c.gamma}, load={c.load}"
            )
        if log10:
            if v <= 0.0:
                continue
            v = math.log10(v)
        values[key] = v

    vmin, vmax = (min(values.values()), max(values.values())) if values else (0.0, 0.0)
    span = vmax - vmin

    cell_w, cell_h = 36, 36
    ml, mt, mr, mb = 80, 50, 110, 70
    W = ml + cell_w * len(gammas) + mr
    H = mt + cell_h * len(loads) + mb
    title = f"log10({metric})" if log10 else metric

    parts = [f'<text x="{ml}" y="{mt - 28}" font-size="14">{title}</text>']
    # cells: loads increase upward (row 0 at the bottom)
    for li, load in enumerate(loads):
        y = mt + cell_h * (len(loads) - 1 - li)
        for gi, g in enumerate(gammas):
            x = ml + cell_w * gi
            v = values.get((g, load))
            if v is None:
                color = FLAG_COLOR
            else:
                color = _ramp_color(0.5 if span == 0.0 else (v - vmin) / span)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                f'fill="{color}" stroke="white" stroke-width="0.5"/>'
            )
    # axis labels
    for gi, g in enumerate(gammas):
        x = ml + cell_w * gi + cell_w / 2
        y = mt + cell_h * len(loads) + 14
        parts.append(
            f'<text x="{x}" y="{y}" text-anchor="end" '
            f'transform="rotate(-45 {x} {y})">{_fmt(g)}</text>'
        )
    for li, load in enumerate(loads):
        y = mt + cell_h * (len(loads) - 1 - li) + cell_h / 2 + 4
        parts.append(f'<text x="{ml - 8}" y="{y}" text-anchor="end">{_fmt(load)}</text>')
    parts.append(
        f'<text x="{ml + cell_w * len(gammas) / 2}" y="{H - 14}" '
        f'text-anchor="middle">gamma (log scale)</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + cell_h * len(loads) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + cell_h * len(loads) / 2})">load P/N</text>'
    )
    # color bar
    bar_x = ml + cell_w * len(gammas) + 24
    bar_h = cell_h * len(loads)
    steps = 48
    for s in range(steps):
        u = 1.0 - s / (steps - 1)
        y = mt + bar_h * s / steps
        parts.append(
            f'<rect x="{bar_x}" y="{y:.2f}" width="16" height="{bar_h / steps + 0.5:.2f}" '
            f'fill="{_ramp_color(u)}"/>'
        )
    parts.append(f'<text x="{bar_x + 22}" y="{mt + 10}">max {_fmt(vmax)}</text>')
    parts.append(f'<text x="{bar_x + 22}" y="{mt + bar_h}">min {_fmt(vmin)}</text>')
    return _svg(W, H, parts)


def render_spectrum_lines(specs) -> str:
    """The SVG of per-neuron log10(lambda_k / lambda_1) vs k, one polyline per neuron."""
    floor = -16.0  # display floor for zero modes
    series = [
        [math.log10(r) if r > 0 else floor for r in spec.ratios.tolist()]
        for spec in specs
        if not spec.degenerate
    ]
    P = max((len(s) for s in series), default=1)
    ymin = min((min(s) for s in series), default=floor)
    ymin = max(ymin, floor)
    ymax = 0.0
    W, H, ml, mt, mb, mr = 480, 320, 60, 30, 50, 20
    pw, ph = W - ml - mr, H - mt - mb

    def px(k):
        return ml + pw * (k - 1) / max(P - 1, 1)

    def py(v):
        v = max(v, ymin)
        return mt + ph * (ymax - v) / max(ymax - ymin, 1e-12)

    parts = [
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
        f'<text x="{ml}" y="{mt - 10}">log10(lambda_k / lambda_1) per neuron</text>',
        f'<text x="{ml + pw / 2}" y="{H - 14}" text-anchor="middle">mode index k</text>',
        f'<text x="{ml - 8}" y="{mt + 8}" text-anchor="end">0</text>',
        f'<text x="{ml - 8}" y="{mt + ph}" text-anchor="end">{_fmt(ymin)}</text>',
        f'<text x="{ml}" y="{mt + ph + 16}" text-anchor="middle">1</text>',
        f'<text x="{ml + pw}" y="{mt + ph + 16}" text-anchor="middle">{P}</text>',
    ]
    for ys in series:
        pts = " ".join(f"{px(k + 1):.2f},{py(v):.2f}" for k, v in enumerate(ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#c03020" '
            f'stroke-width="1" stroke-opacity="0.35"/>'
        )
    return _svg(W, H, parts)
