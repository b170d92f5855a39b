"""Model comparison, versioned JSON reports, CSV exports and artifact files.

:func:`compare` fits named models through one registry and scores each
predicted Menzerath curve against the empirical one.  Its result is all
an artifact needs: :func:`write_report`, :func:`curves_csv`,
:func:`cells_csv` and :func:`~menzerath.svgfig.render_svg` each build
one file's text, and :func:`write_artifacts` writes the files, all or none.
Everything emitted here is canonical and reproducible byte for byte:
JSON uses sorted keys, shortest round-trip float formatting (Python's
``repr``) and a trailing newline; model blocks appear in a fixed order
inside an array so the canonical ordering survives key sorting.
"""

import json
import os
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _EXPORTS
from ._text import _format_rows
from .boundaries import boundary_copula_cells
from .classical import (
    AltmannFit,
    altmann_from_loglinear,
    eval_model,
    fit_altmann_direct,
    fit_linear,
    hyperbolic_from_linear,
    rss,
)
from .copula import (
    Estimator,
    cell_probabilities,
    fit_copula,
    infeasible_mass,
    predicted_mal_from_cells,
)
from .errors import MenzerathError, MismatchedSupport
from .gaussian import fit_bivariate, predicted_mal
from .svgfig import render_svg
from .table import (
    JointFrequencyTable,
    MalCurve,
    Space,
    _cell_index,
    empirical_mal_curve,
    weighted_moments,
)

__all__ = list(_EXPORTS["report"])

SCHEMA_VERSION = 1


def _closed_form(fit, space: str, derivation: str, curve: MalCurve):
    params = {"a": fit.a, "b": fit.b}
    if isinstance(fit, AltmannFit):
        params["log_a"] = fit.log_a
    block = {"space": space, "derivation": derivation, "params": params}
    return block, eval_model(fit, curve.xs), None, None


def _bivariate(table, space: Space, curve: MalCurve):
    p = fit_bivariate(table, space)
    block = {
        "space": space.value,
        "params": {"mean_x": p.mean_x, "mean_z": p.mean_z,
                   "sd_x": p.sd_x, "sd_z": p.sd_z, "rho": p.rho},
    }
    if space is Space.LOG:
        block["conditional"] = "median"
    return block, predicted_mal(p, curve.xs), None, None


def _copula(cells, model):
    block = {
        "estimator": model.estimator.value,
        "params": {"rho": model.rho},
        "infeasible_mass": infeasible_mass(cells),
    }
    return block, predicted_mal_from_cells(cells), cells, model


def _plain_copula(table, estimator):
    model = fit_copula(table, estimator)
    return _copula(cell_probabilities(model), model)


# name -> fit(table, empirical curve, estimator), returning the model's
# block fields, predicted curve, cells (or None) and copula (or None).
# Written in report order, which MODEL_ORDER reads from it.
_FITS = {
    "hyperbolic": lambda t, c, e: _closed_form(
        hyperbolic_from_linear(fit_linear(t, Space.RAW)), "raw", "moment-closed-form", c),
    "altmann": lambda t, c, e: _closed_form(
        altmann_from_loglinear(fit_linear(t, Space.LOG)), "log", "moment-closed-form", c),
    "altmann-direct": lambda t, c, e: _closed_form(
        fit_altmann_direct(c), "log", "curve-ols", c),
    "gaussian": lambda t, c, e: _bivariate(t, Space.RAW, c),
    "lognormal": lambda t, c, e: _bivariate(t, Space.LOG, c),
    "copula": lambda t, c, e: _plain_copula(t, e),
    "copula-boundaries": lambda t, c, e: _copula(*boundary_copula_cells(t, e)),
}

MODEL_ORDER = tuple(_FITS)


@dataclass(frozen=True)
class Comparison:
    """The fitted models of one :func:`compare` run.

    ``table`` is the compared table and ``seed`` the seed of the samples
    drawn from its copulas; ``curve`` is the empirical Menzerath curve.
    ``blocks`` are the report blocks in :data:`MODEL_ORDER`; ``curves``
    maps every model to its predicted curve, ``cells`` and ``copulas``
    map the copula models to their model cells and fitted
    :class:`GaussianCopulaModel`.
    """

    table: JointFrequencyTable
    seed: int
    curve: MalCurve
    blocks: tuple
    curves: dict
    cells: dict
    copulas: dict

    @property
    def dataset(self) -> dict:
        """Totals, supports, moments and correlations of ``table``.

        It also carries the empirical Menzerath ``curve``, so every
        reported RSS can be re-derived from the report alone.  The table
        is in the segment domain, so every raw and log mean exists; a
        correlation is ``None`` when an axis has zero variance.
        """
        table = self.table
        sx, sz = table.support_x, table.support_z
        raw, log = weighted_moments(table, Space.RAW), weighted_moments(table, Space.LOG)
        return {
            "domain": table.domain.value,
            "total": table.total,
            "distinct_cells": len(table.xs),
            "support_x": {"min": int(sx[0]), "max": int(sx[-1]), "size": len(sx)},
            "support_z": {"min": int(sz[0]), "max": int(sz[-1]), "size": len(sz)},
            "moments": {
                "x": {"mean": raw.mean_x, "sd": raw.sd_x},
                "z": {"mean": raw.mean_z, "sd": raw.sd_z},
                "log_x": {"mean": log.mean_x, "sd": log.sd_x},
                "log_z": {"mean": log.mean_z, "sd": log.sd_z},
            },
            "correlation": {"raw": raw.rho, "log": log.rho},
            "mal_curve": [
                {"x": int(x), "y": float(y), "n": float(n)}
                for x, y, n in self.curve.points
            ],
        }


def compare(
    table: JointFrequencyTable,
    names,
    estimator: Estimator = Estimator.PEARSON_RAW,
    seed: int = 0,
) -> Comparison:
    """Fit the named models of :data:`MODEL_ORDER` and score them by RSS.

    Every model predicts a Menzerath curve on the table's x support; its
    block carries its parameters and the RSS against the empirical
    curve.  Copula blocks also carry ``seed``, the seed of the samples
    drawn from them.  Models are fitted in :data:`MODEL_ORDER`, once
    each.  ``table`` must be in the segment domain.  A model whose curve
    misses an x of the empirical one raises :class:`MismatchedSupport`.
    """
    names = set(names)
    unknown = sorted(names - set(MODEL_ORDER))
    if unknown:
        raise ValueError(f"unknown model(s) {unknown}")
    curve = empirical_mal_curve(table)
    blocks, curves, cells, copulas = [], {}, {}, {}
    for name in MODEL_ORDER:
        if name not in names:
            continue
        fields, predicted, model_cells, model = _FITS[name](table, curve, estimator)
        # A copula curve drops every x its cells give no mass.
        missing = np.setdiff1d(curve.xs, predicted.xs).tolist()
        if missing:
            raise MismatchedSupport(
                f"model {name!r} puts no mass on x = {', '.join(map(str, missing))}"
            )
        block = {"model": name, **fields, "rss": rss(curve, predicted)}
        curves[name] = predicted
        if model is not None:
            block["seed"] = seed
            cells[name], copulas[name] = model_cells, model
        blocks.append(block)
    return Comparison(table, seed, curve, tuple(blocks), curves, cells, copulas)


def write_report(comparison: Comparison, n: int) -> str:
    """Canonical JSON text of ``comparison`` (sorted keys, newline terminated).

    The report holds the dataset summary, the model blocks in
    :data:`MODEL_ORDER` and the seed and number ``n`` of the samples
    drawn from the copulas.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "dataset": comparison.dataset,
        "models": list(comparison.blocks),
        "sampling": {"seed": comparison.seed, "n": n},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def curves_csv(empirical: MalCurve, model_curves: dict[str, MalCurve]) -> str:
    """Empirical and model Menzerath curves on the shared x support."""
    names = [n for n in MODEL_ORDER if n in model_curves]
    xs = empirical.xs
    found = np.array([np.isin(xs, model_curves[n].xs) for n in names], dtype=bool)
    if not found.all():
        # The smallest missing x, and at it the first model in MODEL_ORDER.
        i, k = divmod(int(np.argmin(found.T)), len(names))
        raise MenzerathError(f"model {names[k]!r} curve missing x={xs[i]}")
    columns = [xs, empirical.ys]
    columns += [model_curves[n].ys[np.searchsorted(model_curves[n].xs, xs)] for n in names]
    header = ",".join(["x", "y_empirical"] + [f"y_{n}" for n in names])
    rows = _format_rows("%d,%r" + ",%r" * len(names), "\n", *columns)
    return "\n".join([header, *rows]) + "\n"


def cells_csv(table: JointFrequencyTable, model_cells: dict) -> str:
    """Empirical counts and model probabilities per (x, z) cell.

    One row per cell of the sorted union of the table's and the
    models' cells; a cell missing from a source reads 0 there.
    """
    names = [n for n in MODEL_ORDER if n in model_cells]
    sources = [table] + [model_cells[n] for n in names]
    values = [table.ns] + [model_cells[n].ps for n in names]
    # The union cells, and the union row of every concatenated cell.
    union_xs, union_zs, row = _cell_index(
        np.concatenate([s.xs for s in sources]), np.concatenate([s.zs for s in sources])
    )
    columns = [union_xs, union_zs]
    end = 0
    for v in values:
        column = np.zeros(len(union_xs), dtype=v.dtype)
        column[row[end:end + len(v)]] = v
        columns.append(column)
        end += len(v)
    header = ",".join(["x", "z", "count"] + [f"p_{n}" for n in names])
    rows = _format_rows("%d,%d,%d" + ",%r" * len(names), "\n", *columns)
    return "\n".join([header, *rows]) + "\n"


def _write_files(out_dir, files) -> None:
    """Write ``files``, ``(name, byte chunks)`` in order, into ``out_dir``: all or none.

    Each is written to ``.<name>.<pid>.tmp`` and released before the next
    is built; once the last is whole, all are moved into place.  On any
    exception the temporary files are removed, so no new file is left.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    moves = []
    try:
        for name, chunks in files:
            moves.append((out_dir / f".{name}.{os.getpid()}.tmp", out_dir / name))
            with open(moves[-1][0], "wb") as out:
                out.writelines(chunks)
            del chunks
        for partial, final in moves:
            os.replace(partial, final)
    except BaseException:
        for partial, _ in moves:
            with suppress(OSError):
                partial.unlink()
        raise


def _artifacts(comparison: Comparison, emit, n: int, samples):
    """``(name, byte chunks)`` of the ``emit`` kinds, each file built when it is asked for."""
    if "json" in emit:
        yield "report.json", [write_report(comparison, n).encode("utf-8")]
    if "csv" in emit:
        yield "curves.csv", [curves_csv(comparison.curve, comparison.curves).encode("utf-8")]
        yield "cells.csv", [cells_csv(comparison.table, comparison.cells).encode("utf-8")]
    if "svg" in emit:
        yield "figure.svg", [render_svg(comparison, samples).encode("utf-8")]


def write_artifacts(out_dir, comparison: Comparison, emit, n: int, samples=None) -> None:
    """Write the ``emit`` kinds of artifact of ``comparison`` to ``out_dir``.

    ``json`` writes ``report.json`` (recording ``n`` samples drawn with
    the comparison's seed), ``csv`` writes ``curves.csv`` and
    ``cells.csv``, ``svg`` writes ``figure.svg`` with ``samples``, an
    optional array of sampled (x, z) rows, scattered over the joint
    table.  The directory is created when missing; the files land all or none.
    """
    _write_files(out_dir, _artifacts(comparison, emit, n, samples))
