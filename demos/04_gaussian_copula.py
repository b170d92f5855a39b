"""Gaussian copula over the empirical marginals.

Instead of modelling marginals and joint at once, keep the observed
marginals exactly and model only the coupling between them: one
correlation coefficient suffices.  Cell probabilities are exact
bivariate-normal rectangle probabilities, sampling is the presentation
path, and the fit is judged by curve RSS.

Run from the repository root:  python3 demos/04_gaussian_copula.py
"""

from pathlib import Path

from menzerath import (
    Estimator,
    cell_probabilities,
    empirical_mal_curve,
    estimate_rho,
    fit_copula,
    infeasible_mass,
    parse_frequency_table,
    predicted_mal_from_cells,
    rss,
    sample_copula,
)

DATA = Path(__file__).resolve().parent.parent / "data"
table = parse_frequency_table((DATA / "menzerath_synthetic.csv").read_text())
curve = empirical_mal_curve(table)

# %% Three estimators for the one free parameter.
for estimator in Estimator:
    print(f"rho by {estimator.value:13s}: {estimate_rho(table, estimator):.4f}")

# %% Fit with the default (raw Pearson) and inspect the model cells.
model = fit_copula(table)
cells = cell_probabilities(model)
print(f"model cells: {len(cells.xs)}, total mass {sum(cells.ps.tolist()):.12f}")

# %% The copula keeps the marginals but, on the segment grid, puts some
# mass on impossible cells (z < x); that defect is reported, never
# silently renormalized away.
print(f"infeasible mass: {infeasible_mass(cells):.6f}")

# %% Predicted curve and fit quality.
predicted = predicted_mal_from_cells(cells)
print(f"copula curve RSS: {rss(curve, predicted):.6f}")
for (x, y_hat), (_, y_emp, _) in zip(
    zip(predicted.xs, predicted.ys), curve.points
):
    print(f"  x={x}: model {y_hat:.4f} vs empirical {y_emp:.4f}")

# %% One hundred seeded random samples (the scatter shown in figures).
samples = sample_copula(model, 100, seed=0)
print("first samples:", samples[:8].tolist())

# %% The log-copula variant estimates rho on logarithmized data; with
# fixed discrete marginals only the estimate changes, not the machinery.
log_model = fit_copula(table, Estimator.PEARSON_LOG)
log_rss = rss(
    curve, predicted_mal_from_cells(cell_probabilities(log_model))
)
print(f"log-copula RSS: {log_rss:.6f} (raw: {rss(curve, predicted):.6f})")
