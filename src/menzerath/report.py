"""Versioned JSON comparison reports and CSV exports.

Everything emitted here is canonical and reproducible byte for byte:
JSON uses sorted keys, shortest round-trip float formatting (Python's
``repr``) and a trailing newline; model blocks appear in a fixed order
inside an array so the canonical ordering survives key sorting.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, LogOfNonpositive, MenzerathError
from .table import (
    Domain,
    JointFrequencyTable,
    MalCurve,
    Space,
    Variable,
    _run_starts,
    empirical_mal_curve,
    weighted_correlation,
    weighted_moments,
)

__all__ = [
    "SCHEMA_VERSION",
    "MODEL_ORDER",
    "ComparisonReport",
    "dataset_summary",
    "write_report",
    "curves_csv",
    "cells_csv",
]

SCHEMA_VERSION = 1

MODEL_ORDER = (
    "hyperbolic",
    "altmann",
    "altmann-direct",
    "gaussian",
    "lognormal",
    "copula",
    "copula-boundaries",
)


@dataclass(frozen=True)
class ComparisonReport:
    """Dataset summary plus per-model parameter and RSS blocks.

    ``models`` blocks are dicts carrying at least ``model``, ``rss``
    and either a ``space`` or an ``estimator`` flag; they are stored in
    the canonical :data:`MODEL_ORDER`.
    """

    dataset: dict
    models: tuple = ()
    sampling: dict | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        known = {name: i for i, name in enumerate(MODEL_ORDER)}
        for block in self.models:
            name = block.get("model")
            if name not in known:
                raise ValueError(f"unknown model block {name!r}")
            if block.get("rss") is not None and block["rss"] < 0:
                raise ValueError(f"negative rss in model block {name!r}")
            if "space" not in block and "estimator" not in block:
                raise ValueError(f"model block {name!r} names no space/estimator flag")
        ordered = tuple(sorted(self.models, key=lambda b: known[b["model"]]))
        object.__setattr__(self, "models", ordered)


def _moments_or_none(table, variable):
    try:
        m = weighted_moments(table, variable)
        return {"mean": m.mean, "sd": m.sd}
    except LogOfNonpositive:
        return None


def _correlation_or_none(table, space):
    try:
        return weighted_correlation(table, space)
    except (DegenerateVariance, LogOfNonpositive):
        return None


def dataset_summary(table: JointFrequencyTable) -> dict:
    """Totals, supports, moments and correlations of the dataset.

    Log-space entries are ``null`` when undefined (boundary-domain
    zeros); correlations are ``null`` for degenerate tables.  For
    segment-domain tables the summary includes the empirical Menzerath
    curve, so reported RSS values can be re-derived from the report
    plus the dataset alone.
    """
    sx, sz = table.support_x, table.support_z
    summary = {
        "domain": table.domain.value,
        "total": table.total,
        "distinct_cells": len(table.xs),
        "support_x": {"min": int(sx[0]), "max": int(sx[-1]), "size": len(sx)},
        "support_z": {"min": int(sz[0]), "max": int(sz[-1]), "size": len(sz)},
        "moments": {
            "x": _moments_or_none(table, Variable.X),
            "z": _moments_or_none(table, Variable.Z),
            "log_x": _moments_or_none(table, Variable.LOG_X),
            "log_z": _moments_or_none(table, Variable.LOG_Z),
        },
        "correlation": {
            "raw": _correlation_or_none(table, Space.RAW),
            "log": _correlation_or_none(table, Space.LOG),
        },
    }
    if table.domain is Domain.SEGMENTS:
        curve = empirical_mal_curve(table)
        summary["mal_curve"] = [
            {"x": int(x), "y": float(y), "n": float(n)} for x, y, n in curve.points
        ]
    return summary


def write_report(report: ComparisonReport) -> str:
    """Serialize to canonical JSON text (sorted keys, newline terminated)."""
    payload = {
        "schema_version": report.schema_version,
        "dataset": report.dataset,
        "models": list(report.models),
    }
    if report.sampling is not None:
        payload["sampling"] = report.sampling
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def curves_csv(empirical: MalCurve, model_curves: dict[str, MalCurve]) -> str:
    """Empirical and model Menzerath curves on the shared x support."""
    names = [n for n in MODEL_ORDER if n in model_curves]
    header = ["x", "y_empirical"] + [f"y_{n}" for n in names]
    lines = [",".join(header)]
    for i, x in enumerate(empirical.xs):
        row = [str(int(x)), repr(float(empirical.ys[i]))]
        for n in names:
            curve = model_curves[n]
            j = int(np.searchsorted(curve.xs, x))
            if j >= len(curve.xs) or curve.xs[j] != x:
                raise MenzerathError(f"model {n!r} curve missing x={x}")
            row.append(repr(float(curve.ys[j])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cells_csv(table: JointFrequencyTable, model_cells: dict) -> str:
    """Empirical counts and model probabilities per (x, z) cell.

    One row per cell of the sorted union of the table's and the
    models' cells; a cell missing from a source reads 0 there.
    """
    names = [n for n in MODEL_ORDER if n in model_cells]
    sources = [table] + [model_cells[n] for n in names]
    values = [table.ns] + [model_cells[n].ps for n in names]
    xs = np.concatenate([s.xs for s in sources])
    zs = np.concatenate([s.zs for s in sources])
    order = np.lexsort((zs, xs))
    starts = _run_starts(xs[order], zs[order])
    # Union row of every concatenated cell.
    first = np.zeros(len(xs), dtype=np.intp)
    first[starts] = 1
    row = np.empty_like(first)
    row[order] = np.cumsum(first) - 1
    keys = order[starts]
    columns = [xs[keys], zs[keys]]
    end = 0
    for v in values:
        column = np.zeros(len(keys), dtype=v.dtype)
        column[row[end:end + len(v)]] = v
        columns.append(column)
        end += len(v)
    header = ["x", "z", "count"] + [f"p_{n}" for n in names]
    rows = zip(*(map(repr, c.tolist()) for c in columns))
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"
