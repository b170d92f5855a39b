"""Joint frequency tables and the empirical Menzerath curve.

The starting point of everything in this package: how often does a
construct of x constituents and z subconstituents occur?  The Menzerath
curve falls out of that joint table by summation.

Run from the repository root:  python3 demos/01_tables_and_curves.py
"""

from pathlib import Path

from menzerath import (
    Axis,
    CorpusFormat,
    Domain,
    build_table,
    empirical_mal_curve,
    marginal,
    parse_frequency_table,
    parse_segmented_corpus,
    weighted_moments,
)

DATA = Path(__file__).resolve().parent.parent / "data"

# %% Build a table by hand: (x, z, count) rows, duplicates aggregate.
table = build_table(
    [(1, 2, 14), (1, 3, 6), (2, 4, 11), (2, 5, 18), (2, 6, 7),
     (3, 6, 5), (3, 7, 9), (3, 8, 4), (4, 9, 5), (4, 11, 2)],
    Domain.SEGMENTS,
)
print(f"hand-built table: {table.total} constructs, {len(table.xs)} cells")

# %% The Menzerath curve: mean constituent length y = E[z|x] / x per x.
curve = empirical_mal_curve(table)
for x, y, n in curve.points:
    print(f"  x={x}: mean constituent length {y:.4f}  (n={n:.0f})")

# %% Marginals project the joint table onto one axis.
mx = marginal(table, Axis.X)
print("x marginal pmf:", dict(zip(mx.support.tolist(), mx.pmf.round(4).tolist())))
print(f"raw correlation between x and z: {weighted_moments(table).rho:.4f}")

# %% The same objects come from files: a frequency-table CSV ...
bundled = parse_frequency_table((DATA / "menzerath_synthetic.csv").read_text())
print(f"bundled table: {bundled.total} constructs")

# %% ... or a segmented corpus, one construct per line.
corpus = parse_segmented_corpus(
    (DATA / "syllables_synthetic.txt").read_text(), CorpusFormat()
)
print(f"bundled corpus: {corpus.total} pseudo-words")
print("its curve:", [(x, round(y, 3)) for x, y, _ in empirical_mal_curve(corpus).points])
