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
import os
import sys
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path

import numpy as np

from . import _text
from .boundaries import from_boundaries, pairs_from_boundaries, to_boundaries
from .copula import Estimator, fit_copula, sample_copula
from .errors import EmptyConstituent, EmptyInput, InvalidPair, MenzerathError, ParseError
from .ingest import CorpusFormat, parse_frequency_table, parse_segmented_corpus
from .report import MODEL_ORDER, _artifacts, _write_files, compare, write_artifacts
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
    # The parsers open the path and read the file block by block.
    path = Path(args.input)
    if args.kind == "corpus":
        table = parse_segmented_corpus(path, args.format)
    else:
        table = parse_frequency_table(path)
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


# A draw chunk is this many _text._BLOCK blocks of rows (2^16 rows).
_CHUNK_BLOCKS = 8
# The most pool threads, whatever the CPU count, so that the chunks held
# at once (one per thread and the one being written) stay bounded.
_MAX_WORKERS = 4


def _workers() -> int:
    """Pool threads for the draw: the CPUs this process may run on, at most ``_MAX_WORKERS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _chunk(model, seed: int, start: int, m: int, rows: bool):
    """Rows ``[start, start + m)`` of ``sample_copula(model, n, seed)`` as segment pairs.

    PCG64 spends one word per element over 2**53, so ``PCG64(seed)``
    advanced by ``2 * start`` words stands where the one-shot draw
    stands at row ``start``.  Returns the pairs and, if ``rows``, their
    ``samples.csv`` rows as bytes.
    """
    rng = np.random.Generator(np.random.PCG64(seed).advance(2 * start))
    pairs = sample_copula(model, m, rng)
    if model.domain is Domain.BOUNDARIES:
        pairs = pairs_from_boundaries(pairs)
    text = None
    if rows:
        text = "".join(_text._format_rows("%d,%d\n", "", pairs[:, 0], pairs[:, 1])).encode()
    return pairs, text


def _draws(model, n: int, seed: int, rows: bool = False):
    """``sample_copula(model, n, seed)`` in chunks of segment pairs, drawn ahead on threads.

    Yields ``(pairs, text)`` per chunk of ``_CHUNK_BLOCKS * _text._BLOCK``
    rows, in order (see :func:`_chunk`).  Each chunk is drawn from its
    own stream position on a pool of :func:`_workers` threads, at most
    one chunk per thread ahead of the one yielded, so the chunks
    concatenate to the one-shot draw whatever the thread count, and
    peak memory follows the chunk, the thread cap and the table, not n.
    A chunk's exception is raised when its turn comes.  The pool is shut
    down, its queued chunks cancelled, when the generator ends or is closed.
    """
    size = _CHUNK_BLOCKS * _text._BLOCK
    workers = _workers()
    pool = ThreadPoolExecutor(workers)
    ahead = deque()
    try:
        for start in range(0, n, size):
            ahead.append(pool.submit(_chunk, model, seed, start, min(size, n - start), rows))
            if len(ahead) > workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_fit(args, table) -> int:
    comparison = compare(table, args.models, args.estimator, args.seed)
    samples = None
    if "svg" in args.emit:
        # The scatter mirrors `sample`.
        try:
            parts = [pairs for pairs, _ in _draws(_copula(args, table, comparison),
                                                  args.n, args.seed)]
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
    header = (
        f"# model={args.copula} estimator={model.estimator.value} "
        f"rho={model.rho!r} n={args.n} seed={args.seed}\nx,z\n"
    )
    parts = []

    def rows(draws):
        yield header.encode("utf-8")
        for pairs, text in draws:
            if comparison is not None:
                parts.append(pairs)
            yield text

    def files(draws):
        # samples.csv streams chunk by chunk; the scatter waits for its last.
        yield "samples.csv", rows(draws)
        if comparison is not None:
            yield from _artifacts(comparison, {"svg"}, args.n, np.concatenate(parts))

    with closing(_draws(model, args.n, args.seed, rows=True)) as draws:
        _write_files(args.out, files(draws))
    print(f"wrote {Path(args.out) / 'samples.csv'} ({args.n} pairs, seed {args.seed})")
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
