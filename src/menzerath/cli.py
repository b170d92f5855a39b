"""Command-line driver: ingest, fit, compare, sample, render.

Two subcommands.  ``fit`` loads a frequency table or segmented corpus,
fits the selected models, compares each predicted Menzerath curve
against the empirical one by RSS, and writes a JSON report plus
optional CSV/SVG artifacts.  ``sample`` draws seeded random pairs from
the fitted Gaussian copula.  Identical inputs, flags and seed produce
byte-identical outputs.

Exit codes: 0 success, 1 option, input or parse errors, 2 fit errors
(degenerate variance and every other package error).
"""

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import _text
from .boundaries import from_boundaries, pairs_from_boundaries, to_boundaries
from .copula import Estimator, fit_copula, sample_copula
from .errors import EmptyConstituent, EmptyInput, InvalidPair, MenzerathError, ParseError
from .ingest import CorpusFormat, parse_frequency_table, parse_segmented_corpus
from .report import MODEL_ORDER, compare, write_artifacts
from .table import Domain

__all__ = ["main"]

# copula-boundaries is selected by --boundaries, not by name.
ALL_MODELS = tuple(m for m in MODEL_ORDER if m != "copula-boundaries")

_INPUT_ERRORS = (
    OSError,
    UnicodeDecodeError,
    ParseError,
    InvalidPair,
    EmptyInput,
    EmptyConstituent,
    OverflowError,
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
            help="copula correlation estimator (default: pearson-raw)",
        )
        p.add_argument(
            "--log-copula",
            action="store_true",
            help="estimate the copula correlation on logarithmized data "
            "(the pearson-log estimator; conflicts with any other --estimator)",
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
            help="comma-separated artifact kinds: "
            + ("json,csv,svg" if name == "fit" else "csv,svg"),
        )
    parser_fit = sub.choices["fit"]
    parser_fit.add_argument(
        "--models",
        default=",".join(ALL_MODELS),
        help="comma-separated subset of: " + ",".join(ALL_MODELS),
    )
    return parser


def _load_table(args):
    # newline="" keeps a lone "\r" inside its line, as the parsers do;
    # they read the stream block by block.  utf-8-sig drops a leading
    # byte-order mark and decodes every other byte as utf-8 does.
    with open(args.input, encoding="utf-8-sig", newline="") as stream:
        if args.kind == "corpus":
            table = parse_segmented_corpus(stream, args.format)
        else:
            table = parse_frequency_table(stream)
    # The comparison pipeline lives in segment space; boundary-domain
    # inputs are converted up front (the --boundaries flag then controls
    # the fitting space of the copula, not the input representation).
    if table.domain is Domain.BOUNDARIES:
        table = from_boundaries(table)
    return table


def _check_options(args) -> str | None:
    """Parse --emit, --estimator, --models and the corpus format in place.

    Returns the message for the first invalid option value, or None.
    """
    log = Estimator.PEARSON_LOG.value
    if args.log_copula and args.estimator not in (None, log):
        return f"--log-copula conflicts with --estimator {args.estimator}"
    args.estimator = Estimator(
        log if args.log_copula else args.estimator or Estimator.PEARSON_RAW.value
    )
    args.emit = {e.strip() for e in args.emit.split(",") if e.strip()}
    kinds = ("json", "csv", "svg") if args.command == "fit" else ("csv", "svg")
    unknown = args.emit - set(kinds)
    if unknown:
        return (f"unknown emit kind(s): {sorted(unknown)} "
                f"({args.command} emits {','.join(kinds)})")
    if args.seed < 0:
        return "--seed must be >= 0"
    if args.kind == "corpus":
        try:
            args.format = CorpusFormat(
                constituent_delimiter=args.constituent_delimiter,
                subconstituent_delimiter=(
                    args.subconstituent_delimiter
                    if args.subconstituent_mode == "delimited"
                    else None
                ),
            )
        except ValueError as exc:
            return str(exc)
    low = 1 if args.command == "sample" else 0
    if args.n < low:
        return f"{args.command} needs --n >= {low}"
    # The copula that samples are drawn from.
    args.copula = "copula-boundaries" if args.boundaries else "copula"
    if args.command == "sample":
        return None
    args.models = [m.strip() for m in args.models.split(",") if m.strip()]
    for m in args.models:
        if m not in ALL_MODELS:
            return f"unknown model {m!r}"
    if args.boundaries:
        # The boundary variant is always compared against the plain one.
        args.models += ["copula", "copula-boundaries"]
    if not args.models:
        return "no models selected"
    return None


def _copula(args, table, comparison):
    # The args.copula model that samples are drawn from: the one compared
    # for the report, or one fitted here (on boundary counts under --boundaries).
    if comparison is not None and args.copula in comparison.copulas:
        return comparison.copulas[args.copula]
    fit_table = to_boundaries(table) if args.boundaries else table
    return fit_copula(fit_table, args.estimator)


def _draws(model, n: int, seed: int):
    """``sample_copula(model, n, seed)`` in ``_text._BLOCK``-row chunks of segment pairs.

    The chunks come from one Generator, whose stream they continue, so
    they concatenate to the one-shot draw.  A boundary-domain model's
    pairs are mapped back to segments.  Peak memory follows the block
    and the table, not n (unless the scatter in figure.svg keeps every row).
    """
    rng = np.random.default_rng(seed)
    for start in range(0, n, _text._BLOCK):
        pairs = sample_copula(model, min(_text._BLOCK, n - start), rng)
        yield pairs_from_boundaries(pairs) if model.domain is Domain.BOUNDARIES else pairs


def _cmd_fit(args, table) -> int:
    comparison = compare(table, args.models, args.estimator, args.seed)
    samples = None
    if "svg" in args.emit:
        # The scatter mirrors `sample`.
        try:
            parts = list(_draws(_copula(args, table, comparison), args.n, args.seed))
        except MenzerathError as exc:
            # The report stands without the scatter; say why it is missing.
            warnings.warn(f"figure.svg has no sample scatter: {exc}")
            parts = []
        samples = np.concatenate(parts) if parts else None
    write_artifacts(args.out, comparison, args.emit, args.n, samples)
    for block in comparison.blocks:
        print(f"{block['model']}: rss={block['rss']!r}")
    return 0


def _cmd_sample(args, table) -> int:
    comparison = None
    if "svg" in args.emit:
        comparison = compare(table, [args.copula], args.estimator, args.seed)
    model = _copula(args, table, comparison)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = (
        f"# model={args.copula} estimator={model.estimator.value} "
        f"rho={model.rho!r} n={args.n} seed={args.seed}\nx,z\n"
    )
    parts = []
    with open(out_dir / "samples.csv", "wb") as out:
        out.write(header.encode("utf-8"))
        for pairs in _draws(model, args.n, args.seed):
            for text in _text._format_rows("%d,%d\n", "", pairs[:, 0], pairs[:, 1]):
                out.write(text.encode("utf-8"))
            if comparison is not None:
                parts.append(pairs)
    if comparison is not None:
        write_artifacts(out_dir, comparison, {"svg"}, args.n, np.concatenate(parts))
    print(f"wrote {out_dir / 'samples.csv'} ({args.n} pairs, seed {args.seed})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    error = _check_options(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    command = _cmd_fit if args.command == "fit" else _cmd_sample
    error = ""
    # Each warning is one "warning:" line, whatever file raised it.  The
    # filters in force are kept, so an "error" filter still raises.
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = command(args, _load_table(args))
        except _INPUT_ERRORS as exc:
            code, error = 1, f"error: {exc}\n"
        except MenzerathError as exc:
            code, error = 2, f"fit error: {exc}\n"
    sys.stderr.write("".join(f"warning: {w.message}\n" for w in caught) + error)
    return code
