"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on a green run).  Tolerances and runtime budgets are fixed here,
not calibrated elsewhere; the oracles are brute-force expansions,
normal-equation solves, closed forms, adaptive quadrature, and seeded
Monte Carlo, all independent of the library's computation paths.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from menzerath import (
    BivariateGaussianParams,
    Discretize,
    Domain,
    Estimator,
    GaussianCopulaModel,
    MarginalDistribution,
    Space,
    altmann_from_loglinear,
    build_table,
    cell_probabilities,
    empirical_mal_curve,
    eval_model,
    fit_bivariate_pairs,
    fit_copula,
    fit_linear,
    from_boundaries,
    hyperbolic_from_linear,
    infeasible_mass,
    phi2,
    predicted_mal,
    predicted_mal_from_cells,
    rss,
    sample_copula,
    sample_synthetic,
    to_boundaries,
    weighted_moments,
)
from menzerath.boundaries import boundary_copula_cells

from util import expand, ols_normal_equations, random_table, ref_axis_sums

DATA = Path(__file__).resolve().parent.parent / "data"


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status}  criterion {number:2d}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def fifty_tables():
    rng = np.random.default_rng(1001)
    return [random_table(rng) for _ in range(50)]


def test_criterion_01_derivation_chain_identity():
    start = time.perf_counter()
    worst = 0.0
    for table in fifty_tables():
        fit = hyperbolic_from_linear(fit_linear(table, Space.RAW))
        ex, ez = expand(table)
        alpha, beta = ols_normal_equations(ex, ez)
        worst = max(worst, abs(fit.a - alpha), abs(fit.b - beta))
    elapsed = time.perf_counter() - start
    report(
        1,
        "closed-form hyperbolic fit equals brute-force OLS of z on x",
        worst <= 1e-9 and elapsed < 1.0,
        f"max |diff| {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_log_chain_identity():
    start = time.perf_counter()
    worst_b, worst_a = 0.0, 0.0
    for table in fifty_tables():
        fit = altmann_from_loglinear(fit_linear(table, Space.LOG))
        ex, ez = expand(table)
        alpha, beta = ols_normal_equations(np.log(ex), np.log(ez))
        worst_b = max(worst_b, abs(fit.b - (1.0 - beta)))
        worst_a = max(worst_a, abs(fit.a - math.exp(alpha)) / math.exp(alpha))
    elapsed = time.perf_counter() - start
    report(
        2,
        "Altmann b = 1 - log-log OLS slope, a = exp(intercept)",
        worst_b <= 1e-9 and worst_a <= 1e-9 and elapsed < 1.0,
        f"max |b diff| {worst_b:.2e}, max rel |a diff| {worst_a:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_lognormal_parameter_recovery():
    start = time.perf_counter()
    true = BivariateGaussianParams(0.6, 1.7, 0.5, 0.6, 0.8, Space.LOG)
    analytic_b = 1.0 - 0.8 * (0.6 / 0.5)
    samples = sample_synthetic(true, 100_000, 2024, Discretize.NONE)
    fitted = fit_bivariate_pairs(samples, Space.LOG)
    b = 1.0 - fitted.rho * fitted.sd_z / fitted.sd_x
    elapsed = time.perf_counter() - start
    report(
        3,
        "fitted exponent recovers analytic b = 0.04 from 1e5 draws",
        abs(b - analytic_b) <= 0.02 and elapsed < 5.0,
        f"b {b:.5f} vs {analytic_b}, {elapsed:.2f}s",
    )


def test_criterion_04_phi2_kernel_accuracy():
    start = time.perf_counter()
    worst_closed = 0.0
    for rho in (-0.95, -0.5, 0.0, 0.3, 0.5, 0.9):
        closed = 0.25 + math.asin(rho) / (2.0 * math.pi)
        worst_closed = max(worst_closed, abs(phi2(0.0, 0.0, rho) - closed))

    def density(y, x, r):
        q = (x * x - 2 * r * x * y + y * y) / (2 * (1 - r * r))
        return math.exp(-q) / (2 * math.pi * math.sqrt(1 - r * r))

    worst_quad = 0.0
    for h in np.linspace(-2.0, 2.0, 5):
        for k in np.linspace(-2.0, 2.0, 5):
            for r in (-0.9, -0.45, 0.0, 0.45, 0.9):
                oracle, _ = integrate.dblquad(
                    density, -8.5, h, -8.5, k, args=(r,), epsabs=1e-10
                )
                worst_quad = max(worst_quad, abs(phi2(float(h), float(k), r) - oracle))
    elapsed = time.perf_counter() - start
    report(
        4,
        "phi2 matches arcsin closed form and 2-D quadrature within 1e-7",
        worst_closed <= 1e-7 and worst_quad <= 1e-7 and elapsed < 10.0,
        f"closed {worst_closed:.2e}, quadrature {worst_quad:.2e}, {elapsed:.2f}s",
    )


def _random_model(rng):
    size_x = int(rng.integers(2, 7))
    size_z = int(rng.integers(2, 9))
    sx = np.sort(rng.choice(np.arange(1, 9), size=size_x, replace=False))
    sz = np.sort(rng.choice(np.arange(6, 25), size=size_z, replace=False))
    return GaussianCopulaModel(
        rho=float(rng.uniform(-0.9, 0.9)),
        marginal_x=MarginalDistribution.from_counts(
            sx, rng.integers(1, 40, size=size_x)
        ),
        marginal_z=MarginalDistribution.from_counts(
            sz, rng.integers(1, 40, size=size_z)
        ),
        estimator=Estimator.PEARSON_RAW,
        domain=Domain.SEGMENTS,
    )


def test_criterion_05_copula_cell_correctness():
    rng = np.random.default_rng(1005)
    worst_sum, worst_marg, worst_prod = 0.0, 0.0, 0.0
    for _ in range(20):
        model = _random_model(rng)
        cells = cell_probabilities(model)
        worst_sum = max(worst_sum, abs(sum(cells.cells.values()) - 1.0))
        x_sums = ref_axis_sums(dict(cells.cells), 0)
        for v, p in zip(model.marginal_x.support, model.marginal_x.pmf):
            worst_marg = max(worst_marg, abs(x_sums[int(v)] - float(p)))
        z_sums = ref_axis_sums(dict(cells.cells), 1)
        for v, p in zip(model.marginal_z.support, model.marginal_z.pmf):
            worst_marg = max(worst_marg, abs(z_sums[int(v)] - float(p)))
        independent = GaussianCopulaModel(
            0.0, model.marginal_x, model.marginal_z, model.estimator, model.domain
        )
        cells0 = cell_probabilities(independent)
        for i, x in enumerate(independent.marginal_x.support):
            for j, z in enumerate(independent.marginal_z.support):
                product = float(
                    independent.marginal_x.pmf[i] * independent.marginal_z.pmf[j]
                )
                worst_prod = max(
                    worst_prod, abs(cells0.cells[(int(x), int(z))] - product)
                )
    report(
        5,
        "cells sum to 1, reproduce marginals, factor at rho = 0",
        worst_sum <= 1e-9 and worst_marg <= 1e-6 and worst_prod <= 1e-9,
        f"sum {worst_sum:.2e}, marginal {worst_marg:.2e}, product {worst_prod:.2e}",
    )


def test_criterion_06_sampling_matches_analytic_cells():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    model = _random_model(rng)
    n = 1_000_000
    samples = sample_copula(model, n, 606)
    cells = cell_probabilities(model)
    pairs, counts = np.unique(samples, axis=0, return_counts=True)
    freq = {tuple(map(int, pair)): c / n for pair, c in zip(pairs, counts)}
    ok = True
    worst_ratio = 0.0
    for key, p in cells.cells.items():
        bound = 4.0 * math.sqrt(p * (1.0 - p) / n)
        deviation = abs(freq.get(key, 0.0) - p)
        if bound > 0:
            worst_ratio = max(worst_ratio, deviation / bound)
        ok = ok and deviation <= bound + 1e-15
    elapsed = time.perf_counter() - start
    report(
        6,
        "1e6 seeded samples deviate from analytic cells within 4 sigma",
        ok and elapsed < 30.0,
        f"worst deviation {worst_ratio:.2f} of bound, {elapsed:.2f}s",
    )


def test_criterion_07_copula_beats_independence():
    marg_x = MarginalDistribution.from_counts([1, 2, 3, 4, 5], [30, 30, 20, 12, 8])
    marg_z = MarginalDistribution.from_counts(
        list(range(6, 21)), [4, 6, 9, 12, 14, 13, 11, 9, 7, 5, 4, 3, 2, 1, 1]
    )
    generator = GaussianCopulaModel(
        0.8, marg_x, marg_z, Estimator.PEARSON_RAW, Domain.SEGMENTS
    )
    wins = 0
    for trial in range(100):
        samples = sample_copula(generator, 400, 7000 + trial)
        table = build_table(
            [(int(x), int(z), 1) for x, z in samples], Domain.SEGMENTS
        )
        curve = empirical_mal_curve(table)
        fitted = fit_copula(table, Estimator.PEARSON_RAW)
        rss_fit = rss(curve, predicted_mal_from_cells(cell_probabilities(fitted)))
        independent = GaussianCopulaModel(
            0.0, fitted.marginal_x, fitted.marginal_z, fitted.estimator, fitted.domain
        )
        rss_ind = rss(
            curve, predicted_mal_from_cells(cell_probabilities(independent))
        )
        if rss_fit < rss_ind:
            wins += 1
    report(
        7,
        "fitted copula beats the rho = 0 model in >= 95 of 100 trials",
        wins >= 95,
        f"{wins}/100 wins",
    )


def test_criterion_08_boundary_round_trip_and_feasibility():
    rng = np.random.default_rng(1008)
    ok = True
    for _ in range(1000):
        n_cells = int(rng.integers(1, 12))
        cells = {}
        for _ in range(n_cells):
            x = int(rng.integers(1, 9))
            z = x + int(rng.integers(0, 14))
            cells[(x, z)] = cells.get((x, z), 0) + int(rng.integers(1, 50))
        table = build_table(
            [(x, z, n) for (x, z), n in cells.items()], Domain.SEGMENTS
        )
        back = from_boundaries(to_boundaries(table))
        ok = ok and back.cells == table.cells and back.total == table.total
    worked = to_boundaries(build_table([(2, 7, 1)], Domain.SEGMENTS))
    ok = ok and worked.cells == {(1, 5): 1}
    ok = ok and from_boundaries(worked).cells == {(2, 7): 1}
    rng2 = np.random.default_rng(1009)
    zero_mass = True
    for _ in range(10):
        mapped, _ = boundary_copula_cells(random_table(rng2))
        zero_mass = zero_mass and infeasible_mass(mapped) == 0.0
    report(
        8,
        "boundary transform round-trips exactly; pipeline mass all feasible",
        ok and zero_mass,
    )


def test_criterion_09_increasing_curve_capability():
    # Roughly z ~ x^2 with noise: log-space slope well above 1.
    table = build_table(
        [
            (1, 1, 10), (1, 2, 2),
            (2, 4, 10), (2, 5, 3),
            (3, 9, 10), (3, 8, 3),
            (4, 16, 10), (4, 18, 3),
        ],
        Domain.SEGMENTS,
    )
    m = weighted_moments(table, Space.LOG)
    rho = m.rho
    ratio = m.sd_z / m.sd_x
    assert rho * ratio > 1.0, "construction must satisfy the slope condition"
    fit = altmann_from_loglinear(fit_linear(table, Space.LOG))
    xs = [1, 2, 3, 4]
    curve = eval_model(fit, xs)
    increasing = bool(np.all(np.diff(curve.ys) > 0))
    report(
        9,
        "log-space slope > 1 yields b < 0 and an increasing curve",
        fit.b < 0 and increasing,
        f"b {fit.b:.4f}",
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    start = time.perf_counter()
    table = DATA / "menzerath_synthetic.csv"
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        fit_run = subprocess.run(
            [
                sys.executable, "-m", "menzerath", "fit",
                "--input", str(table), "--out", str(out),
                "--emit", "json,csv,svg", "--boundaries", "--seed", "4",
            ],
            capture_output=True,
            text=True,
        )
        sample_run = subprocess.run(
            [
                sys.executable, "-m", "menzerath", "sample",
                "--input", str(table), "--out", str(out),
                "--n", "100", "--seed", "4",
            ],
            capture_output=True,
            text=True,
        )
        assert fit_run.returncode == 0, fit_run.stderr
        assert sample_run.returncode == 0, sample_run.stderr
        outputs.append(
            {
                artifact: (out / artifact).read_bytes()
                for artifact in (
                    "report.json", "curves.csv", "cells.csv",
                    "figure.svg", "samples.csv",
                )
            }
        )
    elapsed = time.perf_counter() - start
    identical = outputs[0] == outputs[1]
    payload = json.loads(outputs[0]["report.json"])
    boundary_block = [
        b for b in payload["models"] if b["model"] == "copula-boundaries"
    ][0]
    report(
        10,
        "fit and sample artifacts byte-identical; bundled run fast",
        identical and boundary_block["infeasible_mass"] == 0.0 and elapsed < 2 * 5.0,
        f"two full runs in {elapsed:.2f}s",
    )
