"""Deterministic standalone SVG figures.

:func:`render_svg` draws one figure of a model comparison in a fixed
960x720 viewBox, with three panels that echo the usual presentation of
joint-distribution models: a heatmap of the joint table (optionally
with sampled pairs scattered on top), the Menzerath curve with model
overlays, and a classical-models comparison with an RSS legend.

Rendering is pure string assembly: identical inputs give byte-identical
output, element order is fixed, and no external resource is referenced.
"""

import numpy as np

from . import _EXPORTS
from ._text import _format_rows
from .table import Domain

__all__ = list(_EXPORTS["svgfig"])


_CLASSICAL = ("hyperbolic", "altmann", "altmann-direct")
_COLORS = {
    "empirical": "#1a1a1a",
    "hyperbolic": "#1b9e77",
    "altmann": "#d95f02",
    "altmann-direct": "#7570b3",
    "gaussian": "#e7298a",
    "lognormal": "#66a61e",
    "copula": "#e6ab02",
    "copula-boundaries": "#a6761d",
}
_MARGIN = 46


def _f(v: float) -> str:
    # Fixed two-decimal coordinates keep files compact and deterministic.
    # "%.2f" in a _text._format_rows template gives the same text: a slot
    # of the numpy text kernel, with Python's own "%.2f" for the values
    # the kernel cannot prove.
    return f"{v:.2f}"


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` replaced by their entities.

    Equal to ``xml.sax.saxutils.escape(text)``, whose import would load
    ``urllib.request`` and ``email`` for three replacements; ``&`` goes
    first, so the entities added after it stay as they are.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _scale(lo: float, hi: float, a: float, b: float):
    # The same operations, in the same order, on a float or an array.
    span = hi - lo if hi > lo else 1.0
    return lambda v: a + (v - lo) * (b - a) / span


def _axis_frame(out, x0, y0, w, h, xlab, ylab):
    out.append(
        f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(w)}" height="{_f(h)}" '
        'fill="none" stroke="#888888" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_f(x0 + w / 2)}" y="{_f(y0 + h + 30)}" font-size="12" '
        f'text-anchor="middle" fill="#333333">{_escape(xlab)}</text>'
    )
    out.append(
        f'<text x="{_f(x0 - 32)}" y="{_f(y0 + h / 2)}" font-size="12" '
        f'text-anchor="middle" fill="#333333" '
        f'transform="rotate(-90 {_f(x0 - 32)} {_f(y0 + h / 2)})">{_escape(ylab)}</text>'
    )


def _tick_labels(out, x0, y0, w, h, lo_x, hi_x, lo_y, hi_y):
    for x, y, anchor, label in (
        (x0, y0 + h + 14, "middle", lo_x),
        (x0 + w, y0 + h + 14, "middle", hi_x),
        (x0 - 6, y0 + h, "end", lo_y),
        (x0 - 6, y0 + 10, "end", hi_y),
    ):
        out.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-size="10" '
            f'text-anchor="{anchor}" fill="#555555">{_f(label)}</text>'
        )


def _joint_panel(table, samples, ox, oy, width, height):
    out = [f'<g id="joint" transform="translate({_f(ox)} {_f(oy)})">']
    x0, y0 = _MARGIN + 8, 18
    w, h = width - x0 - 16, height - y0 - 46
    xs, zs, ns = table.xs, table.zs, table.ns
    lo_x, hi_x = int(table.support_x[0]), int(table.support_x[-1])
    lo_z, hi_z = int(table.support_z[0]), int(table.support_z[-1])
    if samples is not None and len(samples):
        samples = np.asarray(samples)
        lo_x = min(lo_x, int(samples[:, 0].min()))
        hi_x = max(hi_x, int(samples[:, 0].max()))
        lo_z = min(lo_z, int(samples[:, 1].min()))
        hi_z = max(hi_z, int(samples[:, 1].max()))
    sx = _scale(lo_x - 0.5, hi_x + 0.5, x0, x0 + w)
    sz = _scale(lo_z - 0.5, hi_z + 0.5, y0 + h, y0)
    cell_w = w / (hi_x - lo_x + 1)
    cell_h = h / (hi_z - lo_z + 1)
    side = min(cell_w, cell_h)
    # Definitionally impossible region (z < x) in the segment domain.
    if table.domain is Domain.SEGMENTS:
        # One rect per x past lo_z, so every column has top >= lo_z.
        x = np.arange(max(lo_x, lo_z + 1), hi_x + 1)
        top = np.minimum(x - 1, hi_z)
        out.extend(_format_rows(
            f'<rect x="%.2f" y="%.2f" width="{_f(cell_w)}" height="%.2f" fill="#dddddd"/>',
            "\n", sx(x - 0.5), sz(top + 0.5), sz(lo_z - 0.5) - sz(top + 0.5),
        ))
    counts, inverse = np.unique(ns, return_inverse=True)
    n_max = int(counts[-1])
    # Python's int division and pow, once per distinct count, so no
    # radius rounds differently from the scalar formula.
    root = np.array([(n / n_max) ** 0.5 for n in counts.tolist()])
    r = side * 0.92 * root[inverse] / 2
    d = 2 * r
    out.extend(_format_rows(
        '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#2166ac"/>',
        "\n", sx(xs) - r, sz(zs) - r, d, d,
    ))
    if samples is not None and len(samples):
        pts = _format_rows(
            '<circle cx="%.2f" cy="%.2f" r="2.5" fill="#d6604d" fill-opacity="0.35"/>',
            "", sx(samples[:, 0]), sz(samples[:, 1]),
        )
        out.append(f'<g id="samples">{"".join(pts)}</g>')
    _axis_frame(out, x0, y0, w, h, "x (constituents)", "z (subconstituents)")
    _tick_labels(out, x0, y0, w, h, lo_x, hi_x, lo_z, hi_z)
    out.append("</g>")
    return out


def _curve_paths(curves, empirical, scale_x, scale_y):
    def points(curve):
        xys = _format_rows("%.2f,%.2f", " ", scale_x(curve.xs), scale_y(curve.ys))
        return " ".join(xys)

    paths = []
    for name, curve in curves:
        color = _COLORS.get(name, "#444444")
        paths.append(
            f'<polyline points="{points(curve)}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
    paths.append(
        f'<polyline points="{points(empirical)}" fill="none" '
        f'stroke="{_COLORS["empirical"]}" stroke-width="1.2" stroke-dasharray="4 2"/>'
    )
    paths.extend(_format_rows(
        f'<circle cx="%.2f" cy="%.2f" r="3" fill="{_COLORS["empirical"]}"/>',
        "\n", scale_x(empirical.xs), scale_y(empirical.ys),
    ))
    return paths


def _curve_panel(panel_id, title, comparison, blocks, legend, ox, oy, width, height):
    out = [f'<g id="{panel_id}" transform="translate({_f(ox)} {_f(oy)})">']
    x0, y0 = _MARGIN + 8, 22
    w, h = width - x0 - 14, height - y0 - 46
    empirical = comparison.curve
    curves = [(b["model"], comparison.curves[b["model"]]) for b in blocks]
    all_ys = list(empirical.ys) + [y for _, curve in curves for y in curve.ys]
    lo_y, hi_y = min(all_ys), max(all_ys)
    pad = 0.05 * (hi_y - lo_y if hi_y > lo_y else 1.0)
    lo_y, hi_y = lo_y - pad, hi_y + pad
    lo_x, hi_x = float(empirical.xs.min()), float(empirical.xs.max())
    sx = _scale(lo_x, hi_x, x0, x0 + w)
    sy = _scale(lo_y, hi_y, y0 + h, y0)
    out.append(
        f'<text x="{_f(x0)}" y="{_f(y0 - 8)}" font-size="12" '
        f'fill="#333333">{_escape(title)}</text>'
    )
    out.extend(_curve_paths(curves, empirical, sx, sy))
    if legend and blocks:
        items = []
        for i, block in enumerate(blocks):
            label = f"{block['model']} RSS={block['rss']:.4g}"
            color = _COLORS.get(block["model"], "#444444")
            ly = y0 + 14 + 14 * i
            items.append(
                f'<rect x="{_f(x0 + w - 150)}" y="{_f(ly - 8)}" width="10" '
                f'height="10" fill="{color}"/>'
                f'<text x="{_f(x0 + w - 136)}" y="{_f(ly + 1)}" font-size="10" '
                f'fill="#333333">{_escape(label)}</text>'
            )
        out.append(f'<g id="{panel_id}-legend">{"".join(items)}</g>')
    _axis_frame(out, x0, y0, w, h, "x (constituents)", "y (mean length)")
    _tick_labels(out, x0, y0, w, h, lo_x, hi_x, lo_y, hi_y)
    out.append("</g>")
    return out


def render_svg(comparison, samples=None) -> str:
    """Render the figure of a :class:`~menzerath.report.Comparison`.

    The joint panel draws the comparison's table, with ``samples``, an
    optional (n, 2) array, scattered on top; the curve panel draws every
    model's predicted curve over the empirical one, and the comparison
    panel the classical models only, with their RSS in a legend.
    """
    blocks = comparison.blocks
    classical = [b for b in blocks if b["model"] in _CLASSICAL]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 960 720" '
        'width="960" height="720" font-family="sans-serif">'
    ]
    lines += _joint_panel(comparison.table, samples, 0, 0, 960, 400)
    lines += _curve_panel(
        "mal", "Menzerath curve", comparison, blocks, False, 0, 400, 480, 320
    )
    lines += _curve_panel(
        "compare", "classical models", comparison, classical, True, 480, 400, 480, 320
    )
    lines.append("</svg>\n")
    # One join: the pieces and the figure are the only copies held at once.
    return "\n".join(lines)
