"""Shared oracles and random generators for the test suite.

The oracles here stay deliberately independent of the library's own
computation paths: tables are expanded into raw per-construct lists and
statistics recomputed with plain numpy, regressions solved through the
normal equations, and integrals evaluated by adaptive quadrature.
"""

import io
import math
from itertools import chain

import numpy as np
import regex
from scipy.special import ndtr, owens_t

from menzerath import (
    Domain,
    EmptyConstituent,
    EmptyInput,
    InvalidPair,
    JointFrequencyTable,
    JointProbabilityTable,
    ParseError,
    build_table,
)
from menzerath import _text
from menzerath.svgfig import _MARGIN, _COLORS, _axis_frame, _f, _scale, _tick_labels


def expand(table: JointFrequencyTable) -> tuple[np.ndarray, np.ndarray]:
    """Count-expanded raw (x, z) columns, one entry per construct."""
    xs, zs, ns = table.arrays()
    return np.repeat(xs, ns).astype(float), np.repeat(zs, ns).astype(float)


def scaled(table: JointFrequencyTable, factor: int) -> JointFrequencyTable:
    """Table with every count multiplied by a positive integer.

    Built from Python-int rows, so a count or total past 2**63 - 1
    raises the library's ``OverflowError``.
    """
    ns = [n * factor for n in table.ns.tolist()]
    return build_table(zip(table.xs.tolist(), table.zs.tolist(), ns), table.domain)


def ols_normal_equations(x: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """(intercept, slope) of z on x by solving the normal equations."""
    a = np.array([[len(x), x.sum()], [x.sum(), (x * x).sum()]])
    rhs = np.array([z.sum(), (x * z).sum()])
    alpha, beta = np.linalg.solve(a, rhs)
    return float(alpha), float(beta)


def random_table(
    rng: np.random.Generator,
    max_x: int = 8,
    max_extra: int = 12,
    max_count: int = 9,
) -> JointFrequencyTable:
    """Random segment-domain table with spread on both axes.

    Exactly collinear tables are rejected so correlation-based fits are
    always well defined.
    """
    while True:
        n_cells = int(rng.integers(4, 14))
        cells: dict[tuple[int, int], int] = {}
        for _ in range(n_cells):
            x = int(rng.integers(1, max_x + 1))
            z = x + int(rng.integers(0, max_extra + 1))
            cells[(x, z)] = cells.get((x, z), 0) + int(rng.integers(1, max_count + 1))
        if len({x for x, _ in cells}) < 2 or len({z for _, z in cells}) < 2:
            continue
        table = build_table(
            [(x, z, n) for (x, z), n in cells.items()], Domain.SEGMENTS
        )
        ex, ez = expand(table)
        if abs(np.corrcoef(ex, ez)[0, 1]) < 1.0 - 1e-9:
            return table


def random_marginal_counts(
    rng: np.random.Generator, lo: int, hi: int
) -> tuple[list[int], list[int]]:
    """Random discrete marginal as (support, counts), 2..6 values."""
    size = int(rng.integers(2, min(7, hi - lo + 1)))
    support = sorted(rng.choice(np.arange(lo, hi + 1), size=size, replace=False))
    counts = [int(rng.integers(1, 30)) for _ in support]
    return [int(v) for v in support], counts


# Plain-dict references for the columnar table core.  They walk Python
# dicts with Python ints and floats, in ascending (x, z) order, the way
# the package computed these quantities before its tables became
# columns, so integer results must match exactly and float sums bit for
# bit.


def ref_cells(rows) -> dict:
    """``(x, z) -> count`` with equal keys summed as Python ints."""
    cells: dict[tuple[int, int], int] = {}
    for x, z, n in rows:
        cells[(int(x), int(z))] = cells.get((int(x), int(z)), 0) + int(n)
    return cells


def ref_marginal(cells: dict, pick: int) -> tuple[list[int], list[int]]:
    """Support and counts of one axis (0 for x, 1 for z)."""
    agg: dict[int, int] = {}
    for key, n in cells.items():
        agg[key[pick]] = agg.get(key[pick], 0) + n
    support = sorted(agg)
    return support, [agg[v] for v in support]


def ref_mal_curve(cells: dict) -> list[tuple[int, float, float]]:
    """``(x, y, n)`` points with exact integer sums and one rounding."""
    z_sum: dict[int, int] = {}
    n_sum: dict[int, int] = {}
    for (x, z), n in sorted(cells.items()):
        z_sum[x] = z_sum.get(x, 0) + z * n
        n_sum[x] = n_sum.get(x, 0) + n
    return [(x, z_sum[x] / (x * n_sum[x]), float(n_sum[x])) for x in sorted(n_sum)]


def ref_moments(cells: dict, value) -> tuple[float, float]:
    """Population mean and sd of ``value(x, z)`` under the counts."""
    total = sum(cells.values())
    mean = math.fsum(value(x, z) * n for (x, z), n in cells.items()) / total
    var = math.fsum((value(x, z) - mean) ** 2 * n for (x, z), n in cells.items()) / total
    return mean, math.sqrt(var)


def ref_correlation(cells: dict, a, b) -> float:
    """Weighted Pearson correlation of ``a(x, z)`` and ``b(x, z)``."""
    total = sum(cells.values())
    ma, sa = ref_moments(cells, a)
    mb, sb = ref_moments(cells, b)
    cov = math.fsum(
        (a(x, z) - ma) * (b(x, z) - mb) * n for (x, z), n in cells.items()
    ) / total
    return cov / (sa * sb)


def ref_to_boundaries(cells: dict) -> dict:
    return {(x - 1, z - x): n for (x, z), n in cells.items()}


def ref_from_boundaries(cells: dict) -> dict:
    return {(x + 1, z + x + 1): n for (x, z), n in cells.items()}


def probability_table(domain: Domain, probabilities: dict) -> JointProbabilityTable:
    """Model cells from an ``(x, z) -> probability`` mapping."""
    keys = sorted(probabilities)
    ps = [probabilities[k] for k in keys]
    return JointProbabilityTable(domain, [x for x, _ in keys], [z for _, z in keys], ps)


def ref_infeasible_mass(probabilities: dict) -> float:
    """Mass on z < x, summed in ascending (x, z) order."""
    return float(sum(p for (x, z), p in sorted(probabilities.items()) if z < x))


def ref_axis_sums(probabilities: dict, pick: int) -> dict[int, float]:
    """Probability per axis value, summed in ascending (x, z) order."""
    sums: dict[int, float] = {}
    for key, p in sorted(probabilities.items()):
        sums[key[pick]] = sums.get(key[pick], 0.0) + p
    return sums


def ref_predicted_curve(probabilities: dict) -> list[tuple[int, float, float]]:
    """Model curve ``(x, y, mass)``, sums in ascending (x, z) order."""
    z_sum: dict[int, float] = {}
    p_sum: dict[int, float] = {}
    for (x, z), p in sorted(probabilities.items()):
        z_sum[x] = z_sum.get(x, 0.0) + z * p
        p_sum[x] = p_sum.get(x, 0.0) + p
    return [
        (x, z_sum[x] / (x * p_sum[x]), p_sum[x]) for x in sorted(p_sum) if p_sum[x] > 0.0
    ]


# Line-by-line references for the ingest carriers: the whole input is
# split into lines at once, the way the package read it before it
# streamed blocks, and every line is parsed on its own.


def ref_lines(source) -> list[str]:
    """Lines of a string, text stream or iterable, less one ``\\r`` each.

    An iterable's items are the lines of one text: each item ends a
    line, and a ``\\n`` inside an item ends one too.
    """
    if isinstance(source, io.TextIOBase):
        source = source.read()
    elif not isinstance(source, str):
        source = "".join(item if item.endswith("\n") else item + "\n" for item in source)
    return [line[:-1] if line.endswith("\r") else line for line in source.split("\n")]


def ref_corpus(source, delimiter: str = "-", subdelimiter: str | None = None) -> dict:
    """``(x, z) -> count`` of a corpus, counted constituent by constituent.

    The subconstituents are the ``\\X`` clusters, or with a
    ``subdelimiter`` the parts ``str.split`` makes, none of them empty.
    """
    cells: dict[tuple[int, int], int] = {}
    for number, line in enumerate(ref_lines(source), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        constituents = stripped.split(delimiter)
        if "" in constituents:
            raise EmptyConstituent(number, line)
        if subdelimiter is None:
            z = sum(len(regex.findall(r"\X", c)) for c in constituents)
        else:
            parts = [p for c in constituents for p in c.split(subdelimiter)]
            if "" in parts:
                raise EmptyConstituent(number, line)
            z = len(parts)
        cells[(len(constituents), z)] = cells.get((len(constituents), z), 0) + 1
    if not cells:
        raise EmptyInput("no construct lines in input")
    return cells


def ref_row_error(x: int, z: int, n: int, domain: Domain):
    """``(error type, message)`` of the first rule a row breaks, or None.

    The rules in order: the domain's pair rules, then a count from 1 to
    2**63 - 1, then both lengths inside int64.
    """
    if domain is Domain.SEGMENTS:
        if x < 1:
            return InvalidPair, f"x must be >= 1 in segment domain, got ({x}, {z})"
        if z < x:
            return InvalidPair, f"z must be >= x in segment domain, got ({x}, {z})"
    elif x < 0 or z < 0:
        return InvalidPair, f"boundary counts must be >= 0, got ({x}, {z})"
    if n < 1:
        return InvalidPair, f"count must be >= 1, got {n}"
    if n > 2**63 - 1:
        return OverflowError, f"count {n} exceeds 2**63 - 1"
    if not (-(2**63) <= x < 2**63 and -(2**63) <= z < 2**63):
        return OverflowError, f"lengths must fit in 64 bits, got ({x}, {z})"
    return None


def ref_frequency_table(source) -> JointFrequencyTable:
    """Table rows read and checked one line at a time with ``int()``.

    The first bad line raises, whether it is malformed or breaks a row
    rule of :func:`ref_row_error`; a total past 2**63 - 1 raises after
    the last line.
    """
    domain = Domain.SEGMENTS
    rows = []
    for number, line in enumerate(ref_lines(source), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            directive = stripped.replace(" ", "").lower()
            if directive in ("#domain=segments", "#domain=boundaries"):
                if rows:
                    raise ParseError(number, line, "domain directive must precede data")
                domain = Domain(directive.split("=")[1])
            continue
        fields = [f.strip() for f in stripped.split("\t" if "\t" in stripped else ",")]
        if not rows and [f.lower() for f in fields] == ["x", "z", "count"]:
            continue
        if len(fields) != 3:
            raise ParseError(number, line, f"expected 3 fields, got {len(fields)}")
        try:
            x, z, n = map(int, fields)
        except ValueError:
            raise ParseError(number, line, "fields must be integers") from None
        error = ref_row_error(x, z, n, domain)
        if error is not None:
            kind, message = error
            raise kind(f"line {number}: {message}")
        rows.append((x, z, n))
    if not rows:
        raise EmptyInput("no data rows in input")
    if sum(n for _, _, n in rows) > 2**63 - 1:
        raise OverflowError("total count exceeds 2**63 - 1")
    return build_table(rows, domain)


def ref_format_rows(row: str, sep: str, *columns):
    """``_text._format_rows`` with every field filled by Python's ``%``.

    Each block of ``_text._BLOCK`` rows is one ``%``-format call on the
    columns' ``tolist()`` values, the way the package formatted rows
    before it rendered float fields with its own kernel.
    """
    chunk = _text._BLOCK
    for start in range(0, len(columns[0]), chunk):
        values = [c[start : start + chunk].tolist() for c in columns]
        flat = tuple(chain.from_iterable(zip(*values)))
        yield sep.join([row] * len(values[0])) % flat


# Element-by-element references for the batched kernels: every case of
# phi2 evaluated over the whole grid before masking, and every SVG
# coordinate scaled and formatted one Python float at a time, the way
# the package computed them before it batched them.


def ref_phi2(h, k, rho):
    """:func:`menzerath.phi2` with every case computed on the whole grid."""
    h_in, k_in, r_in = np.broadcast_arrays(
        np.asarray(h, dtype=float), np.asarray(k, dtype=float), np.asarray(rho, dtype=float)
    )
    scalar = h_in.ndim == 0
    hv = np.atleast_1d(h_in).ravel()
    kv = np.atleast_1d(k_in).ravel()
    rv = np.atleast_1d(r_in).ravel()
    out = np.empty(hv.shape)
    done = np.zeros(hv.shape, dtype=bool)

    def claim(mask, values):
        take = mask & ~done
        if np.any(take):
            out[take] = np.asarray(np.broadcast_to(values, hv.shape), dtype=float)[take]
            done[take] = True

    claim(np.isneginf(hv) | np.isneginf(kv), 0.0)
    claim(np.isposinf(hv), ndtr(kv))
    claim(np.isposinf(kv), ndtr(hv))
    claim(rv == 1.0, ndtr(np.minimum(hv, kv)))
    claim(rv == -1.0, np.maximum(ndtr(hv) + ndtr(kv) - 1.0, 0.0))
    claim(rv == 0.0, ndtr(hv) * ndtr(kv))

    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt((1.0 - rv) * (1.0 + rv))
        claim((hv == 0.0) & (kv == 0.0), 0.25 + np.arcsin(rv) / (2.0 * math.pi))
        claim((hv == 0.0), 0.5 * ndtr(kv) - owens_t(kv, -rv / s))
        claim((kv == 0.0), 0.5 * ndtr(hv) - owens_t(hv, -rv / s))
        a_h = (kv / hv - rv) / s
        a_k = (hv / kv - rv) / s
        beta = np.where(hv * kv < 0.0, 0.5, 0.0)
        general = (
            0.5 * (ndtr(hv) + ndtr(kv))
            - owens_t(hv, a_h)
            - owens_t(kv, a_k)
            - beta
        )
    claim(np.ones_like(done), general)

    out = np.clip(out, 0.0, 1.0)
    if scalar:
        return float(out[0])
    return out.reshape(h_in.shape)


def ref_joint_panel(table, samples, ox, oy, width, height):
    """``svgfig._joint_panel`` with one ``<rect>`` or ``<circle>`` per loop step."""
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
    if table.domain is Domain.SEGMENTS:
        for x in range(max(lo_x, lo_z + 1), hi_x + 1):
            top = min(x - 1, hi_z)
            if top < lo_z:
                continue
            out.append(
                f'<rect x="{_f(sx(x - 0.5))}" y="{_f(sz(top + 0.5))}" '
                f'width="{_f(cell_w)}" '
                f'height="{_f(sz(lo_z - 0.5) - sz(top + 0.5))}" '
                'fill="#dddddd"/>'
            )
    n_max = int(ns.max())
    for x, z, n in zip(xs.tolist(), zs.tolist(), ns.tolist()):
        r = side * 0.92 * (n / n_max) ** 0.5 / 2
        out.append(
            f'<rect x="{_f(sx(x) - r)}" y="{_f(sz(z) - r)}" '
            f'width="{_f(2 * r)}" height="{_f(2 * r)}" fill="#2166ac"/>'
        )
    if samples is not None and len(samples):
        pts = []
        for x, z in samples.tolist():
            pts.append(
                f'<circle cx="{_f(sx(float(x)))}" cy="{_f(sz(float(z)))}" '
                'r="2.5" fill="#d6604d" fill-opacity="0.35"/>'
            )
        out.append(f'<g id="samples">{"".join(pts)}</g>')
    _axis_frame(out, x0, y0, w, h, "x (constituents)", "z (subconstituents)")
    _tick_labels(out, x0, y0, w, h, lo_x, hi_x, lo_z, hi_z)
    out.append("</g>")
    return out


def ref_curve_paths(curves, empirical, scale_x, scale_y):
    """``svgfig._curve_paths`` with one point or ``<circle>`` per loop step."""
    paths = []
    for name, curve in curves:
        pts = " ".join(
            f"{_f(scale_x(float(x)))},{_f(scale_y(float(y)))}"
            for x, y in zip(curve.xs, curve.ys)
        )
        color = _COLORS.get(name, "#444444")
        paths.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    pts = " ".join(
        f"{_f(scale_x(float(x)))},{_f(scale_y(float(y)))}"
        for x, y in zip(empirical.xs, empirical.ys)
    )
    paths.append(
        f'<polyline points="{pts}" fill="none" stroke="{_COLORS["empirical"]}" '
        'stroke-width="1.2" stroke-dasharray="4 2"/>'
    )
    for x, y in zip(empirical.xs, empirical.ys):
        paths.append(
            f'<circle cx="{_f(scale_x(float(x)))}" cy="{_f(scale_y(float(y)))}" '
            f'r="3" fill="{_COLORS["empirical"]}"/>'
        )
    return paths
