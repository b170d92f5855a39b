"""Closed-form fits against brute-force least-squares oracles."""

import math

import numpy as np
import pytest

from menzerath import (
    AltmannFit,
    DegenerateVariance,
    Domain,
    HyperbolicFit,
    InvalidPair,
    LinearFit,
    MalCurve,
    MismatchedSupport,
    NonpositiveY,
    Space,
    WrongDomain,
    WrongSpace,
    altmann_from_loglinear,
    build_table,
    empirical_mal_curve,
    eval_model,
    fit_altmann_direct,
    fit_linear,
    hyperbolic_from_linear,
    rss,
    weighted_moments,
)

from util import expand, ols_normal_equations, random_table, scaled


def from_cells(cells, domain=Domain.SEGMENTS):
    return build_table([(x, z, n) for (x, z), n in cells.items()], domain)


def points_curve(points) -> MalCurve:
    """Curve through ``(x, y, weight)`` points."""
    xs, ys, ns = zip(*points)
    return MalCurve(xs=np.array(xs, dtype=np.int64), ys=np.array(ys, dtype=float),
                    ns=np.array(ns, dtype=float))


class TestFitLinear:
    def test_exact_line(self):
        t = from_cells({(1, 3): 1, (2, 5): 1, (3, 7): 1})
        fit = fit_linear(t, Space.RAW)
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)
        assert fit.beta == pytest.approx(2.0, abs=1e-12)

    def test_exact_power_law_in_log_space(self):
        # z = 2.5 x exactly on the integer cells (2,5) and (4,10).
        t = from_cells({(2, 5): 1, (4, 10): 1})
        fit = fit_linear(t, Space.LOG)
        assert fit.beta == pytest.approx(1.0, abs=1e-12)
        assert fit.alpha == pytest.approx(0.9162907318741551, abs=1e-12)
        assert fit.alpha == pytest.approx(math.log(2.5), abs=1e-15)

    def test_single_x_degenerate(self):
        with pytest.raises(DegenerateVariance):
            fit_linear(from_cells({(2, 5): 9}), Space.RAW)

    def test_log_space_needs_segment_domain(self):
        t = build_table([(1, 2, 1), (2, 5, 1)], Domain.BOUNDARIES)
        with pytest.raises(WrongDomain):
            fit_linear(t, Space.LOG)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            t = random_table(rng)
            fit = fit_linear(t, Space.RAW)
            ex, ez = expand(t)
            alpha, beta = ols_normal_equations(ex, ez)
            assert fit.alpha == pytest.approx(alpha, abs=1e-9)
            assert fit.beta == pytest.approx(beta, abs=1e-9)

    def test_log_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            t = random_table(rng)
            fit = fit_linear(t, Space.LOG)
            ex, ez = expand(t)
            alpha, beta = ols_normal_equations(np.log(ex), np.log(ez))
            assert fit.alpha == pytest.approx(alpha, abs=1e-9)
            assert fit.beta == pytest.approx(beta, abs=1e-9)


class TestHyperbolicFromLinear:
    def test_substitution_identity(self):
        fit = hyperbolic_from_linear(LinearFit(1.0, 2.0, Space.RAW))
        assert (fit.a, fit.b) == (1.0, 2.0)
        curve = eval_model(fit, [1])
        assert curve.ys[0] == 3.0

    def test_zero_intercept_is_flat(self):
        fit = hyperbolic_from_linear(LinearFit(0.0, 2.5, Space.RAW))
        curve = eval_model(fit, [1, 3, 10])
        np.testing.assert_allclose(curve.ys, 2.5)

    def test_wrong_space(self):
        with pytest.raises(WrongSpace):
            hyperbolic_from_linear(LinearFit(0.0, 1.0, Space.LOG))


class TestAltmannFromLoglinear:
    def test_flat_curve(self):
        fit = altmann_from_loglinear(LinearFit(math.log(2.5), 1.0, Space.LOG))
        assert fit.a == pytest.approx(2.5, rel=1e-15)
        assert fit.b == pytest.approx(0.0, abs=1e-15)

    def test_slope_above_one_gives_negative_b(self):
        fit = altmann_from_loglinear(LinearFit(0.2, 1.2, Space.LOG))
        assert fit.b == pytest.approx(-0.2, abs=1e-15)
        assert fit.b < 0

    def test_zero_fit(self):
        fit = altmann_from_loglinear(LinearFit(0.0, 0.0, Space.LOG))
        assert (fit.a, fit.b) == (1.0, 1.0)

    def test_wrong_space(self):
        with pytest.raises(WrongSpace):
            altmann_from_loglinear(LinearFit(0.0, 1.0, Space.RAW))

    def test_log_a_recovers_intercept(self):
        fit = altmann_from_loglinear(LinearFit(0.37, 0.8, Space.LOG))
        assert fit.log_a == pytest.approx(0.37, abs=1e-15)


class TestFitAltmannDirect:
    def test_exact_power_law_through_two_points(self):
        curve = points_curve([(1, 4.0, 1), (4, 2.0, 1)])
        fit = fit_altmann_direct(curve)
        assert fit.a == pytest.approx(4.0, rel=1e-12)
        assert fit.b == pytest.approx(0.5, abs=1e-12)

    def test_constant_curve(self):
        curve = points_curve([(1, 3.0, 1), (2, 3.0, 1), (5, 3.0, 1)])
        fit = fit_altmann_direct(curve)
        assert fit.a == pytest.approx(3.0, rel=1e-12)
        assert fit.b == pytest.approx(0.0, abs=1e-12)

    def test_single_point_degenerate(self):
        with pytest.raises(DegenerateVariance):
            fit_altmann_direct(points_curve([(1, 2.0, 1)]))

    def test_nonpositive_y(self):
        with pytest.raises(NonpositiveY):
            fit_altmann_direct(points_curve([(1, 2.0, 1), (2, -1.0, 1)]))

    def test_recovers_generating_parameters(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = float(rng.uniform(0.5, 5.0))
            b = float(rng.uniform(-1.0, 1.5))
            xs = sorted(rng.choice(np.arange(1, 40), size=6, replace=False))
            curve = eval_model(AltmannFit(a, b), [int(x) for x in xs])
            fit = fit_altmann_direct(curve)
            assert fit.a == pytest.approx(a, rel=1e-9)
            assert fit.b == pytest.approx(b, abs=1e-9)


class TestEvalModel:
    def test_hyperbolic_values(self):
        curve = eval_model(HyperbolicFit(1.0, 2.0), [1, 2, 4])
        np.testing.assert_allclose(curve.ys, [3.0, 2.5, 2.25])
        np.testing.assert_allclose(curve.ns, 1.0)

    def test_altmann_values(self):
        curve = eval_model(AltmannFit(4.0, 0.5), [1, 4])
        np.testing.assert_allclose(curve.ys, [4.0, 2.0])

    def test_negative_b_increases(self):
        # 32**0.2 = 2, so y(32) = 2.5 * 2 = 5.
        curve = eval_model(AltmannFit(2.5, -0.2), [1, 32])
        np.testing.assert_allclose(curve.ys, [2.5, 5.0], atol=1e-12)


class TestRss:
    def test_identical_curves(self):
        c = points_curve([(1, 2.0, 1), (2, 1.5, 1)])
        assert rss(c, c) == 0.0

    def test_unit_offsets(self):
        a = points_curve([(1, 2.0, 1), (2, 1.5, 1)])
        b = points_curve([(1, 3.0, 1), (2, 0.5, 1)])
        assert rss(a, b) == 2.0
        assert rss(b, a) == 2.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_is_refused_either_way_round(self, bad):
        # rss read nan, with either curve first, when one mean was not finite.
        good = points_curve([(1, 2.0, 1), (2, 1.0, 1)])
        for call in (lambda c: rss(c, good), lambda c: rss(good, c)):
            with pytest.raises(InvalidPair, match="curve means must be finite"):
                call(points_curve([(1, bad, 1), (2, 1.0, 1)]))

    def test_mismatched_support(self):
        a = points_curve([(1, 2.0, 1), (2, 1.5, 1)])
        b = points_curve([(1, 2.0, 1), (3, 1.5, 1)])
        with pytest.raises(MismatchedSupport):
            rss(a, b)


class TestDerivationChainProperties:
    def test_b_sign_matches_slope_condition(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            t = random_table(rng)
            m = weighted_moments(t, Space.LOG)
            rho = m.rho
            s_ratio = m.sd_z / m.sd_x
            fit = altmann_from_loglinear(fit_linear(t, Space.LOG))
            assert (fit.b < 0) == (rho * s_ratio > 1)

    def test_count_scaling_leaves_fits_unchanged(self):
        rng = np.random.default_rng(15)
        for k in (2, 5):
            t = random_table(rng)
            raw, raw_k = fit_linear(t, Space.RAW), fit_linear(scaled(t, k), Space.RAW)
            assert raw.alpha == pytest.approx(raw_k.alpha, abs=1e-12)
            assert raw.beta == pytest.approx(raw_k.beta, abs=1e-12)
            log, log_k = fit_linear(t, Space.LOG), fit_linear(scaled(t, k), Space.LOG)
            assert log.alpha == pytest.approx(log_k.alpha, abs=1e-12)
            assert log.beta == pytest.approx(log_k.beta, abs=1e-12)

    def test_hyperbolic_curve_equals_ols_line_through_z(self):
        # y(x) * x from the hyperbolic fit is the OLS line of z on x.
        rng = np.random.default_rng(16)
        for _ in range(10):
            t = random_table(rng)
            fit = hyperbolic_from_linear(fit_linear(t, Space.RAW))
            ex, ez = expand(t)
            alpha, beta = ols_normal_equations(ex, ez)
            xs = np.unique(ex)
            curve = eval_model(fit, xs.astype(int))
            np.testing.assert_allclose(
                curve.ys * xs, alpha + beta * xs, atol=1e-9
            )

    def test_direct_fit_differs_from_moment_fit_in_general(self):
        # Curve-level and joint-level objectives legitimately disagree.
        t = from_cells({(1, 2): 50, (2, 4): 3, (3, 11): 1, (4, 12): 2})
        moment = altmann_from_loglinear(fit_linear(t, Space.LOG))
        direct = fit_altmann_direct(empirical_mal_curve(t))
        assert abs(moment.b - direct.b) > 1e-3
