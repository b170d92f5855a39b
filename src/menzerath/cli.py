"""Command-line driver: ingest, fit, compare, sample, render.

Two subcommands.  ``fit`` loads a frequency table or segmented corpus,
fits the selected models, compares each predicted Menzerath curve
against the empirical one by RSS, and writes a JSON report plus
optional CSV/SVG artifacts.  ``sample`` draws seeded random pairs from
the fitted Gaussian copula.  Identical inputs, flags and seed produce
byte-identical outputs.

Exit codes: 0 success, 1 input or parse errors, 2 fit errors
(degenerate variance and friends).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .boundaries import (
    boundary_copula_cells,
    cells_from_boundaries,
    from_boundaries,
    pairs_from_boundaries,
    to_boundaries,
)
from .classical import (
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
    sample_copula,
)
from .errors import (
    DegenerateVariance,
    EmptyConstituent,
    EmptyInput,
    InvalidPair,
    LogOfNonpositive,
    NonpositiveY,
    ParseError,
    RhoOutOfRange,
    WrongDomain,
    WrongSpace,
)
from .gaussian import fit_bivariate, predicted_mal
from .ingest import CorpusFormat, parse_frequency_table, parse_segmented_corpus
from .report import (
    ComparisonReport,
    cells_csv,
    curves_csv,
    dataset_summary,
    write_report,
)
from .svgfig import Layout, PanelModel, render_svg
from .table import Domain, Space, empirical_mal_curve

__all__ = ["main"]

# Rows per sample_copula call in ``sample``: peak memory follows this
# constant, not --n (unless the scatter in figure.svg keeps every row).
_SAMPLE_CHUNK = 1 << 16

ALL_MODELS = ("hyperbolic", "altmann", "altmann-direct", "gaussian", "lognormal", "copula")

_INPUT_ERRORS = (
    OSError,
    UnicodeDecodeError,
    ParseError,
    InvalidPair,
    EmptyInput,
    EmptyConstituent,
    OverflowError,
)
_FIT_ERRORS = (
    DegenerateVariance,
    LogOfNonpositive,
    WrongDomain,
    WrongSpace,
    RhoOutOfRange,
    NonpositiveY,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="menzerath",
        description="Fit and compare joint-distribution models of Menzerath's law.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fit", "fit models and write a comparison report"),
        ("sample", "draw seeded random pairs from the Gaussian copula"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="input file path")
        p.add_argument(
            "--kind",
            choices=("table", "corpus"),
            default="table",
            help="input kind: x,z,count table or segmented corpus",
        )
        p.add_argument(
            "--constituent-delimiter", default="-", help="corpus constituent separator"
        )
        p.add_argument(
            "--subconstituent-mode",
            choices=("chars", "delimited"),
            default="chars",
            help="count grapheme clusters, or explicitly delimited units",
        )
        p.add_argument(
            "--subconstituent-delimiter",
            default=".",
            help="separator for delimited subconstituent mode",
        )
        p.add_argument(
            "--estimator",
            choices=tuple(e.value for e in Estimator),
            default=Estimator.PEARSON_RAW.value,
            help="copula correlation estimator",
        )
        p.add_argument(
            "--log-copula",
            action="store_true",
            help="estimate the copula correlation on logarithmized data",
        )
        p.add_argument(
            "--boundaries",
            action="store_true",
            help="fit the copula on boundary counts and map predictions back",
        )
        p.add_argument("--n", type=int, default=100, help="number of random samples")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--emit",
            default="json" if name == "fit" else "csv",
            help="comma-separated artifact kinds: json,csv,svg",
        )
    parser_fit = sub.choices["fit"]
    parser_fit.add_argument(
        "--models",
        default=",".join(ALL_MODELS),
        help="comma-separated subset of: " + ",".join(ALL_MODELS),
    )
    return parser


def _load_table(args):
    # newline="" keeps a lone "\r" inside its line, as the parsers do.
    with open(args.input, encoding="utf-8", newline="") as stream:
        text = stream.read()
    if args.kind == "corpus":
        fmt = CorpusFormat(
            constituent_delimiter=args.constituent_delimiter,
            subconstituent_delimiter=(
                args.subconstituent_delimiter
                if args.subconstituent_mode == "delimited"
                else None
            ),
        )
        table = parse_segmented_corpus(text, fmt)
    else:
        table = parse_frequency_table(text)
    # The comparison pipeline lives in segment space; boundary-domain
    # inputs are converted up front (the --boundaries flag then controls
    # the fitting space of the copula, not the input representation).
    if table.domain is Domain.BOUNDARIES:
        table = from_boundaries(table)
    return table


def _estimator(args) -> Estimator:
    if args.log_copula:
        return Estimator.PEARSON_LOG
    return Estimator(args.estimator)


def _fit_one(name, table, curve, estimator, seed, copulas):
    """Fit one model; returns (block, predicted_curve, cells_or_None).

    A fitted copula model is also stored in ``copulas`` under its name.
    """
    xs = curve.xs
    if name == "hyperbolic":
        fit = hyperbolic_from_linear(fit_linear(table, Space.RAW))
        return (
            {"model": name, "space": "raw", "derivation": "moment-closed-form",
             "params": {"a": fit.a, "b": fit.b}},
            eval_model(fit, xs),
            None,
        )
    if name == "altmann":
        fit = altmann_from_loglinear(fit_linear(table, Space.LOG))
        return (
            {"model": name, "space": "log", "derivation": "moment-closed-form",
             "params": {"a": fit.a, "b": fit.b, "log_a": fit.log_a}},
            eval_model(fit, xs),
            None,
        )
    if name == "altmann-direct":
        fit = fit_altmann_direct(curve)
        return (
            {"model": name, "space": "log", "derivation": "curve-ols",
             "params": {"a": fit.a, "b": fit.b, "log_a": fit.log_a}},
            eval_model(fit, xs),
            None,
        )
    if name in ("gaussian", "lognormal"):
        space = Space.RAW if name == "gaussian" else Space.LOG
        params = fit_bivariate(table, space)
        block = {
            "model": name,
            "space": space.value,
            "params": {
                "mean_x": params.mean_x, "mean_z": params.mean_z,
                "sd_x": params.sd_x, "sd_z": params.sd_z, "rho": params.rho,
            },
        }
        if name == "lognormal":
            block["conditional"] = "median"
        return block, predicted_mal(params, xs), None
    if name == "copula":
        model = copulas[name] = fit_copula(table, estimator)
        cells = cell_probabilities(model)
        block = {
            "model": name,
            "estimator": model.estimator.value,
            "params": {"rho": model.rho},
            "infeasible_mass": infeasible_mass(cells),
            "seed": seed,
        }
        return block, predicted_mal_from_cells(cells), cells
    if name == "copula-boundaries":
        cells, model = boundary_copula_cells(table, estimator)
        copulas[name] = model
        block = {
            "model": name,
            "estimator": model.estimator.value,
            "params": {"rho": model.rho},
            "infeasible_mass": infeasible_mass(cells),
            "seed": seed,
        }
        return block, predicted_mal_from_cells(cells), cells
    raise ValueError(f"unknown model {name!r}")


def _cmd_fit(args) -> int:
    emit = _emit_kinds(args)
    if emit is None:
        return 1
    table = _load_table(args)
    names = [m.strip() for m in args.models.split(",") if m.strip()]
    for m in names:
        if m not in ALL_MODELS:
            print(f"error: unknown model {m!r}", file=sys.stderr)
            return 1
    if args.boundaries:
        # The boundary variant is always compared against the plain one.
        for extra in ("copula", "copula-boundaries"):
            if extra not in names:
                names.append(extra)
    if not names:
        print("error: no models selected", file=sys.stderr)
        return 1
    estimator = _estimator(args)
    curve = empirical_mal_curve(table)
    blocks, curves, cells, copulas = [], {}, {}, {}
    for name in names:
        block, predicted, cell_table = _fit_one(
            name, table, curve, estimator, args.seed, copulas
        )
        block["rss"] = rss(curve, predicted)
        blocks.append(block)
        curves[name] = predicted
        if cell_table is not None:
            cells[name] = cell_table
    report = ComparisonReport(
        dataset=dataset_summary(table),
        models=tuple(blocks),
        sampling={"seed": args.seed, "n": args.n},
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if "json" in emit:
        _write(out_dir / "report.json", write_report(report))
    if "csv" in emit:
        _write(out_dir / "curves.csv", curves_csv(curve, curves))
        _write(out_dir / "cells.csv", cells_csv(table, cells))
    if "svg" in emit:
        samples = _figure_samples(args, table, estimator, copulas)
        panel_models = [
            PanelModel(b["model"], curves[b["model"]], b["rss"])
            for b in report.models
        ]
        _write(
            out_dir / "figure.svg",
            render_svg(table, panel_models, samples, Layout.COMPOSITE),
        )
    for block in report.models:
        print(f"{block['model']}: rss={block['rss']!r}")
    return 0


def _figure_samples(args, table, estimator, copulas):
    # Scatter overlay mirrors the sample subcommand's output, drawn from
    # the copula already fitted for the report when there is one.
    try:
        if args.boundaries:
            model = copulas["copula-boundaries"]
            return pairs_from_boundaries(sample_copula(model, args.n, args.seed))
        model = copulas.get("copula") or fit_copula(table, estimator)
        return sample_copula(model, args.n, args.seed)
    except _FIT_ERRORS:
        return None


def _cmd_sample(args) -> int:
    emit = _emit_kinds(args)
    if emit is None:
        return 1
    if args.n < 1:
        print("error: sample needs --n >= 1", file=sys.stderr)
        return 1
    table = _load_table(args)
    estimator = _estimator(args)
    if args.boundaries:
        model = fit_copula(to_boundaries(table), estimator)
        model_name = "copula-boundaries"
    else:
        model = fit_copula(table, estimator)
        model_name = "copula"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = (
        f"# model={model_name} estimator={model.estimator.value} "
        f"rho={model.rho!r} n={args.n} seed={args.seed}\nx,z\n"
    )
    # Chunks drawn from one Generator continue its stream, so they
    # concatenate to the one-shot sample_copula(model, n, seed).
    rng = np.random.default_rng(args.seed)
    parts = []
    with open(out_dir / "samples.csv", "wb") as out:
        out.write(header.encode("utf-8"))
        for start in range(0, args.n, _SAMPLE_CHUNK):
            k = min(_SAMPLE_CHUNK, args.n - start)
            part = sample_copula(model, k, rng)
            if args.boundaries:
                part = pairs_from_boundaries(part)
            rows = ("%d,%d\n" * k) % tuple(part.ravel().tolist())
            out.write(rows.encode("ascii"))
            if "svg" in emit:
                parts.append(part)
    if "svg" in emit:
        cells = cell_probabilities(model)
        if args.boundaries:
            cells = cells_from_boundaries(cells)
        curve = empirical_mal_curve(table)
        predicted = predicted_mal_from_cells(cells)
        pm = PanelModel(model_name, predicted, rss(curve, predicted))
        _write(
            out_dir / "figure.svg",
            render_svg(table, [pm], np.concatenate(parts), Layout.COMPOSITE),
        )
    print(f"wrote {out_dir / 'samples.csv'} ({args.n} pairs, seed {args.seed})")
    return 0


def _emit_kinds(args) -> set | None:
    kinds = {e.strip() for e in args.emit.split(",") if e.strip()}
    unknown = kinds - {"json", "csv", "svg"}
    if unknown:
        print(f"error: unknown emit kind(s): {sorted(unknown)}", file=sys.stderr)
        return None
    return kinds


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        return _cmd_sample(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _FIT_ERRORS as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
