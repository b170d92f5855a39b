"""Boundary-space modelling and reproducible artifacts.

Counting boundaries between segments (x' = x - 1, z' = z - x) removes
the forbidden z < x region entirely: a copula fitted there and mapped
back can only produce feasible cells.  The second half writes the full
artifact set: canonical JSON report, CSV exports, composite SVG.

Run from the repository root:  python3 demos/05_boundaries_and_reports.py
"""

from pathlib import Path

from menzerath import (
    compare,
    parse_frequency_table,
    sample_copula,
    to_boundaries,
    write_artifacts,
)

DATA = Path(__file__).resolve().parent.parent / "data"
OUT = Path(__file__).resolve().parent / "output"
table = parse_frequency_table((DATA / "menzerath_synthetic.csv").read_text())

# %% The transform itself: a (2, 7) word has boundary counts (1, 5).
boundary_table = to_boundaries(table)
print(f"boundary table spans x' {min(x for x, _ in boundary_table.cells)}..."
      f"{max(x for x, _ in boundary_table.cells)}")

# %% Plain copula vs boundary-space copula, fitted and scored side by
# side; every copula block carries the seed of its samples.
result = compare(table, ["copula", "copula-boundaries"], seed=0)
for block in result.blocks:
    print(f"{block['model']:<18} rho {block['params']['rho']:.4f}, "
          f"infeasible mass {block['infeasible_mass']:.6f}, RSS {block['rss']:.6f}")

# %% Write everything: the report (dataset summary plus the per-model
# blocks), the CSV exports and the figure with 100 sampled pairs.
# Identical inputs give byte-identical files.
samples = sample_copula(result.copulas["copula"], 100, seed=0)
write_artifacts(OUT, result, {"json", "csv", "svg"}, 100, samples)
print(f"wrote {OUT}/report.json, curves.csv, cells.csv, figure.svg")
