"""Bivariate (log-)normal fitting, lattice densities, curves, sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from menzerath import (
    BivariateGaussianParams,
    DegenerateVariance,
    Discretize,
    Domain,
    RhoOutOfRange,
    Space,
    altmann_from_loglinear,
    build_table,
    eval_model,
    fit_bivariate,
    fit_bivariate_pairs,
    fit_linear,
    hyperbolic_from_linear,
    lattice_density,
    predicted_mal,
    sample_synthetic,
)

from util import random_table


def from_cells(cells, domain=Domain.SEGMENTS):
    return build_table([(x, z, n) for (x, z), n in cells.items()], domain)


class TestFitBivariate:
    def test_collinear_two_points_flagged(self):
        params = fit_bivariate(from_cells({(2, 4): 1, (4, 8): 1}), Space.RAW)
        assert (params.mean_x, params.mean_z) == (3.0, 6.0)
        assert (params.sd_x, params.sd_z) == (1.0, 2.0)
        assert params.rho == 1.0
        assert abs(params.rho) == 1.0

    def test_product_grid_independent(self):
        t = from_cells({(1, 2): 1, (1, 4): 1, (3, 2): 1, (3, 4): 1}, Domain.BOUNDARIES)
        params = fit_bivariate(t, Space.RAW)
        assert (params.mean_x, params.mean_z) == (2.0, 3.0)
        assert (params.sd_x, params.sd_z) == (1.0, 1.0)
        assert abs(params.rho) <= 1e-12

    def test_point_mass_degenerate(self):
        with pytest.raises(DegenerateVariance):
            fit_bivariate(from_cells({(2, 5): 9}), Space.LOG)

    def test_pairs_variant_matches_table_fit(self):
        rng = np.random.default_rng(41)
        t = random_table(rng)
        xs, zs, ns = t.arrays()
        pairs = np.column_stack((np.repeat(xs, ns), np.repeat(zs, ns)))
        for space in Space:
            a = fit_bivariate(t, space)
            b = fit_bivariate_pairs(pairs, space)
            assert a.mean_x == pytest.approx(b.mean_x, abs=1e-12)
            assert a.sd_z == pytest.approx(b.sd_z, abs=1e-12)
            assert a.rho == pytest.approx(b.rho, abs=1e-12)


class TestLatticeDensity:
    def test_reflection_symmetry_at_zero_rho(self):
        params = BivariateGaussianParams(3.0, 6.0, 1.2, 2.0, 0.0, Space.RAW)
        masses = lattice_density(params, range(1, 6), range(2, 11))
        for (x, z), p in masses.items():
            mirror = (int(2 * 3.0 - x), int(2 * 6.0 - z))
            if mirror in masses:
                assert p == pytest.approx(masses[mirror], abs=1e-9)

    def test_total_mass_over_wide_window(self):
        params = BivariateGaussianParams(20.0, 30.0, 2.0, 3.0, 0.4, Space.RAW)
        masses = lattice_density(
            params, range(0, 41), range(0, 61), renormalize=False
        )
        assert sum(masses.values()) == pytest.approx(1.0, abs=1e-6)

    def test_unit_cell_mass_via_erf_oracle(self):
        # Independent oracle: product of univariate cell masses by erf.
        params = BivariateGaussianParams(0.0, 0.0, 1.0, 1.0, 0.0, Space.RAW)
        masses = lattice_density(
            params, range(0, 1), range(0, 1), renormalize=False
        )
        univariate = math.erf(0.5 / math.sqrt(2))
        assert masses[(0, 0)] == pytest.approx(univariate**2, abs=1e-12)
        assert masses[(0, 0)] == pytest.approx(0.14663145, abs=1e-7)

    def test_renormalized_window_sums_to_one(self):
        params = BivariateGaussianParams(1.0, 2.0, 0.8, 1.1, 0.6, Space.LOG)
        masses = lattice_density(params, range(1, 7), range(1, 30))
        assert sum(masses.values()) == pytest.approx(1.0, abs=1e-12)

    def test_log_space_matches_quadrature(self):
        params = BivariateGaussianParams(0.7, 1.6, 0.5, 0.6, 0.5, Space.LOG)
        masses = lattice_density(params, range(2, 4), range(4, 6), renormalize=False)

        def density(lz, lx):
            q = (
                ((lx - 0.7) / 0.5) ** 2
                - 2 * 0.5 * ((lx - 0.7) / 0.5) * ((lz - 1.6) / 0.6)
                + ((lz - 1.6) / 0.6) ** 2
            ) / (2 * (1 - 0.25))
            return math.exp(-q) / (2 * math.pi * 0.5 * 0.6 * math.sqrt(0.75))

        expected, _ = integrate.dblquad(
            density,
            math.log(1.5),
            math.log(2.5),
            math.log(3.5),
            math.log(4.5),
            epsabs=1e-12,
        )
        assert masses[(2, 4)] == pytest.approx(expected, abs=1e-9)

    def test_gapped_window_integrates_per_cell(self):
        params = BivariateGaussianParams(2.0, 5.0, 1.0, 2.0, 0.3, Space.RAW)
        full = lattice_density(params, range(1, 6), range(1, 10), renormalize=False)
        gapped = lattice_density(params, [1, 3, 5], [2, 8], renormalize=False)
        for key, p in gapped.items():
            assert p == pytest.approx(full[key], abs=1e-12)

    def test_wide_sparse_window_costs_its_cells(self):
        # The grid holds the requested cells' edges, not the hull's 10**7.
        params = BivariateGaussianParams(2.0, 5.0, 1.0, 2.0, 0.3, Space.RAW)
        tracemalloc.start()
        try:
            wide = lattice_density(params, [1, 10**7], [1, 2, 3], renormalize=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        for x in (1, 10**7):
            alone = lattice_density(params, [x], [1, 2, 3], renormalize=False)
            for key, p in alone.items():
                assert np.float64(wide[key]).tobytes() == np.float64(p).tobytes(), key

    def test_degenerate_rho_rejected(self):
        params = BivariateGaussianParams(0.0, 0.0, 1.0, 1.0, 1.0, Space.RAW)
        with pytest.raises(RhoOutOfRange):
            lattice_density(params, range(0, 3), range(0, 3))

    @pytest.mark.parametrize("x_range, z_range, empty", [
        ([], range(1, 3), "x_range"),
        (range(1, 3), [], "z_range"),
    ])
    def test_empty_range_rejected(self, x_range, z_range, empty):
        params = BivariateGaussianParams(2.0, 5.0, 1.0, 2.0, 0.3, Space.RAW)
        with pytest.raises(ValueError, match=f"{empty} is empty"):
            lattice_density(params, x_range, z_range)


class TestPredictedMal:
    def test_zero_intercept_raw_is_constant(self):
        params = BivariateGaussianParams(4.0, 8.0, 1.0, 2.0, 1.0, Space.RAW)
        curve = predicted_mal(params, [1, 2, 5])
        np.testing.assert_allclose(curve.ys, 2.0, atol=1e-12)

    def test_log_beta_one_is_constant(self):
        params = BivariateGaussianParams(
            0.4, 0.4 + math.log(2.5), 0.5, 0.5, 1.0, Space.LOG
        )
        curve = predicted_mal(params, [1, 2, 8])
        np.testing.assert_allclose(curve.ys, 2.5, atol=1e-12)

    def test_log_median_formula(self):
        # slope 0.96 and intercept 0.5: y = e^0.5 * x^(-0.04).
        params = BivariateGaussianParams(1.0, 0.5 + 0.96, 0.5, 0.48, 1.0, Space.LOG)
        curve = predicted_mal(params, [1, 2, 10])
        np.testing.assert_allclose(
            curve.ys, math.e**0.5 * np.array([1.0, 2.0, 10.0]) ** -0.04, atol=1e-12
        )

    def test_raw_equals_hyperbolic_chain(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            t = random_table(rng)
            xs = sorted(set(t.xs.tolist()))
            via_params = predicted_mal(fit_bivariate(t, Space.RAW), xs)
            via_chain = eval_model(hyperbolic_from_linear(fit_linear(t, Space.RAW)), xs)
            np.testing.assert_allclose(via_params.ys, via_chain.ys, atol=1e-9)

    def test_log_median_equals_altmann_chain(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            t = random_table(rng)
            xs = sorted(set(t.xs.tolist()))
            via_params = predicted_mal(fit_bivariate(t, Space.LOG), xs)
            via_chain = eval_model(
                altmann_from_loglinear(fit_linear(t, Space.LOG)), xs
            )
            np.testing.assert_allclose(via_params.ys, via_chain.ys, atol=1e-9)

    def test_mean_mode_matches_quadrature_oracle(self):
        # E[z | x] of the log-normal via numerical integration.
        params = BivariateGaussianParams(0.6, 1.7, 0.5, 0.6, 0.8, Space.LOG)
        x0 = 3
        mu = 1.7 + 0.8 * (0.6 / 0.5) * (math.log(x0) - 0.6)
        s = 0.6 * math.sqrt(1 - 0.8**2)

        def upper_tail(z):
            lz = math.log(z)
            return (
                z
                * math.exp(-((lz - mu) ** 2) / (2 * s * s))
                / (z * s * math.sqrt(2 * math.pi))
            )

        expected, _ = integrate.quad(upper_tail, 1e-9, 400, epsabs=1e-12)
        curve = predicted_mal(params, [x0], conditional="mean")
        assert curve.ys[0] == pytest.approx(expected / x0, rel=1e-7)

    def test_conditional_flag_validated(self):
        params = BivariateGaussianParams(0.0, 0.0, 1.0, 1.0, 0.5, Space.LOG)
        with pytest.raises(ValueError):
            predicted_mal(params, [1], conditional="mode")


class TestSampleSynthetic:
    def test_empty(self):
        params = BivariateGaussianParams(0.0, 0.0, 1.0, 1.0, 0.5, Space.RAW)
        assert sample_synthetic(params, 0, 0).shape == (0, 2)

    def test_degenerate_rho_rejected(self):
        params = BivariateGaussianParams(0.0, 0.0, 1.0, 1.0, 1.0, Space.RAW)
        with pytest.raises(RhoOutOfRange):
            sample_synthetic(params, 10, 0)

    def test_deterministic(self):
        params = BivariateGaussianParams(0.6, 1.7, 0.5, 0.6, 0.8, Space.LOG)
        a = sample_synthetic(params, 1000, 5)
        b = sample_synthetic(params, 1000, 5)
        assert a.tobytes() == b.tobytes()

    def test_round_clamp_repairs_to_segment_domain(self):
        # Means near zero force both clamps to fire.
        params = BivariateGaussianParams(0.4, 0.2, 1.5, 2.5, -0.3, Space.RAW)
        samples = sample_synthetic(params, 5000, 11, Discretize.ROUND_CLAMP)
        assert samples.dtype == np.int64
        assert np.all(samples[:, 0] >= 1)
        assert np.all(samples[:, 1] >= samples[:, 0])

    def test_parameter_recovery_within_standard_errors(self):
        true = BivariateGaussianParams(0.6, 1.7, 0.5, 0.6, 0.8, Space.LOG)
        n = 100_000
        fitted = fit_bivariate_pairs(sample_synthetic(true, n, 17), Space.LOG)
        se_mean_x = true.sd_x / math.sqrt(n)
        se_mean_z = true.sd_z / math.sqrt(n)
        se_sd = lambda sd: sd / math.sqrt(2 * n)
        se_rho = (1 - true.rho**2) / math.sqrt(n)
        assert abs(fitted.mean_x - true.mean_x) <= 5 * se_mean_x
        assert abs(fitted.mean_z - true.mean_z) <= 5 * se_mean_z
        assert abs(fitted.sd_x - true.sd_x) <= 5 * se_sd(true.sd_x)
        assert abs(fitted.sd_z - true.sd_z) <= 5 * se_sd(true.sd_z)
        assert abs(fitted.rho - true.rho) <= 5 * se_rho
