"""Seeded inputs and command lines for the benchmark workloads.

Every generator takes the workload seed and writes the input file the
CLI reads, and returns the exact (x, z) -> count table that file
encodes.  The expected table is built from the generator's own
construction, never by parsing the file with the library, so the
oracles in :mod:`oracles` stay independent of the code under test.

The cell structure of each generated table is the same for every seed;
only the counts move.  That keeps the amount of work per run, and the
deterministic per-layer counts, identical across seeds.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# fit-table-120k: x in 1..80, z in x..x+1499, every cell present.
TABLE_MAX_X = 80
TABLE_Z_SPAN = 1500
# fit-corpus-300k: about 3e5 construct lines of 1..6 syllables, each
# syllable 1..4 grapheme clusters long.
CORPUS_LINES = 300_000
CORPUS_MAX_X = 6
CORPUS_MAX_SYLLABLE = 4
# sample-1m: draws from the copula fitted to the bundled table.
SAMPLE_N = 1_000_000

# One grapheme cluster each.  Several carry one or two combining marks,
# so the \X counting path sees multi-code-point clusters.
_CLUSTERS = (
    "a", "e", "i", "o", "u", "m", "n", "t", "k", "s", "r", "l", "p",
    "ʃ", "ŋ", "ə",
    "á", "è", "ö", "ñ", "ụ",
    "í̄", "ą́", "õ̞",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: its CLI arguments and expected table."""

    name: str
    seed: int
    argv: list
    # {(x, z): count} that the input file encodes.
    expected: dict
    # Artifact file names the command writes into its --out directory.
    artifacts: tuple
    # Number of pairs drawn, for the sample workload.
    sample_n: int = 0


def table_cells(seed: int, max_x: int, z_span: int) -> dict:
    """Full band x in 1..max_x, z in x..x+z_span-1, counts from the seed."""
    rng = np.random.default_rng(seed)
    xs = np.repeat(np.arange(1, max_x + 1), z_span)
    zs = xs + np.tile(np.arange(z_span), max_x)
    # Counts lean towards z near 3x so x and z correlate, as lengths do.
    base = rng.integers(1, 1000, size=xs.size)
    lean = 1 + (np.abs(zs - 3 * xs) < z_span // 4) * rng.integers(0, 4000, size=xs.size)
    ns = base * lean
    return {(int(x), int(z)): int(n) for x, z, n in zip(xs, zs, ns)}


def write_table(path: Path, cells: dict) -> None:
    lines = ["# generated benchmark table", "x,z,count"]
    lines.extend(f"{x},{z},{n}" for (x, z), n in sorted(cells.items()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def corpus_lines(
    seed: int,
    n_lines: int,
    max_x: int = CORPUS_MAX_X,
    max_syllable: int = CORPUS_MAX_SYLLABLE,
) -> tuple[list, dict]:
    """Construct lines and the (x, z) table they encode.

    One line is made for every reachable (x, z) cell first, so the cell
    set does not depend on the seed; the rest are drawn at random and
    the whole list is shuffled.
    """
    rng = np.random.default_rng(seed)
    shapes = []
    for x in range(1, max_x + 1):
        for z in range(x, max_syllable * x + 1):
            lengths = [1] * x
            extra = z - x
            for i in range(x):
                step = min(extra, max_syllable - 1)
                lengths[i] += step
                extra -= step
            shapes.append(lengths)
    n_random = n_lines - len(shapes)
    if n_random < 0:
        raise ValueError("corpus too small to cover every cell")
    xs = rng.integers(1, max_x + 1, size=n_random)
    sizes = rng.integers(1, max_syllable + 1, size=(n_random, max_x))
    shapes.extend(row[:x] for row, x in zip(sizes.tolist(), xs.tolist()))
    order = rng.permutation(len(shapes)).tolist()
    n_clusters = sum(sum(s) for s in shapes)
    clusters = np.array(_CLUSTERS, dtype=object)[
        rng.integers(0, len(_CLUSTERS), size=n_clusters)
    ].tolist()
    lines, counts, k = [], {}, 0
    for i in order:
        lengths = shapes[i]
        syllables = []
        for m in lengths:
            syllables.append("".join(clusters[k : k + m]))
            k += m
        lines.append("-".join(syllables))
        key = (len(lengths), sum(lengths))
        counts[key] = counts.get(key, 0) + 1
    return lines, counts


def write_corpus(path: Path, lines: list) -> None:
    text = "# generated benchmark corpus\n" + "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")


def read_table(path: Path) -> dict:
    """Plain parser for an ``x,z,count`` file, for the bundled input."""
    cells = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line == "x,z,count":
            continue
        x, z, n = (int(f) for f in line.split(","))
        cells[(x, z)] = cells.get((x, z), 0) + n
    return cells


def make(name: str, seed: int, work: Path, root: Path) -> Workload:
    """Write the inputs of workload ``name`` into ``work``.

    The sizes are read from the module constants at call time, so a test
    can shrink them.
    """
    out = str(work / "out")
    if name == "fit-table-120k":
        cells = table_cells(seed, TABLE_MAX_X, TABLE_Z_SPAN)
        write_table(work / "table.csv", cells)
        argv = ["fit", "--input", str(work / "table.csv"), "--boundaries",
                "--emit", "json,csv,svg", "--seed", str(seed), "--out", out]
        return Workload(name, seed, argv, cells,
                        ("report.json", "curves.csv", "cells.csv", "figure.svg"))
    if name == "fit-corpus-300k":
        lines, cells = corpus_lines(seed, CORPUS_LINES)
        write_corpus(work / "corpus.txt", lines)
        argv = ["fit", "--kind", "corpus", "--input", str(work / "corpus.txt"),
                "--emit", "json", "--seed", str(seed), "--out", out]
        return Workload(name, seed, argv, cells, ("report.json",))
    if name == "sample-1m":
        src = root / "data" / "menzerath_synthetic.csv"
        data = src.read_bytes()
        (work / "table.csv").write_bytes(data)
        n = SAMPLE_N
        argv = ["sample", "--input", str(work / "table.csv"), "--n", str(n),
                "--seed", str(seed), "--emit", "csv", "--out", out]
        return Workload(name, seed, argv, read_table(work / "table.csv"),
                        ("samples.csv",), sample_n=n)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("fit-table-120k", "fit-corpus-300k", "sample-1m")
