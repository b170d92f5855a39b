"""Gaussian copula: CDF kernel, estimation, cells, sampling, curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from menzerath import (
    Axis,
    DegenerateVariance,
    Domain,
    Estimator,
    GaussianCopulaModel,
    JointFrequencyTable,
    LogOfNonpositive,
    RhoOutOfRange,
    WrongDomain,
    build_table,
    cell_probabilities,
    estimate_rho,
    fit_copula,
    infeasible_mass,
    marginal,
    phi2,
    predicted_mal_from_cells,
    sample_copula,
    sample_indices,
)
from menzerath.copula import RHO_CLAMP

from util import (
    probability_table,
    random_marginal_counts,
    random_table,
    ref_axis_sums,
    ref_phi2,
    scaled,
)


def from_cells(cells, domain=Domain.SEGMENTS):
    return build_table([(x, z, n) for (x, z), n in cells.items()], domain)


def bvn_quadrature(h, k, rho):
    """Adaptive 2-D quadrature of the bivariate normal density."""

    def density(y, x):
        q = (x * x - 2 * rho * x * y + y * y) / (2 * (1 - rho * rho))
        return math.exp(-q) / (2 * math.pi * math.sqrt(1 - rho * rho))

    value, _ = integrate.dblquad(density, -9, h, -9, k, epsabs=1e-10)
    return value


def tiny_model(rho, counts_x=(1, 1), counts_z=(1, 1)):
    mx = type(marginal(from_cells({(1, 2): 1}), Axis.X)).from_counts(
        [1, 2], list(counts_x)
    )
    mz = type(mx).from_counts([2, 4], list(counts_z))
    return GaussianCopulaModel(
        rho=rho,
        marginal_x=mx,
        marginal_z=mz,
        estimator=Estimator.PEARSON_RAW,
        domain=Domain.SEGMENTS,
    )


def random_model(rng, domain=Domain.SEGMENTS):
    from menzerath.table import MarginalDistribution

    if domain is Domain.SEGMENTS:
        sx, cx = random_marginal_counts(rng, 1, 6)
        sz, cz = random_marginal_counts(rng, 6, 20)
    else:
        sx, cx = random_marginal_counts(rng, 0, 5)
        sz, cz = random_marginal_counts(rng, 0, 14)
    return GaussianCopulaModel(
        rho=float(rng.uniform(-0.95, 0.95)),
        marginal_x=MarginalDistribution.from_counts(sx, cx),
        marginal_z=MarginalDistribution.from_counts(sz, cz),
        estimator=Estimator.PEARSON_RAW,
        domain=domain,
    )


class TestPhi2:
    def test_independence_at_origin(self):
        assert phi2(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_closed_form_at_origin(self):
        # phi2(0, 0, rho) = 1/4 + arcsin(rho) / (2 pi); 1/3 at rho = 1/2.
        assert phi2(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)
        for rho in (-0.95, -0.5, 0.3, 0.9):
            expected = 0.25 + math.asin(rho) / (2 * math.pi)
            assert phi2(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-12)

    def test_large_h_reduces_to_univariate(self):
        assert phi2(8.0, 0.0, 0.7) == pytest.approx(0.5, abs=1e-7)

    def test_infinite_limits_exact(self):
        assert phi2(-math.inf, 1.0, 0.3) == 0.0
        assert phi2(1.0, -math.inf, 0.3) == 0.0
        assert phi2(math.inf, 0.0, 0.3) == 0.5
        assert phi2(math.inf, math.inf, -0.8) == 1.0

    def test_degenerate_rho_limits(self):
        from scipy.special import ndtr

        assert phi2(0.5, 0.4, 1.0) == pytest.approx(float(ndtr(0.4)), abs=1e-15)
        assert phi2(0.5, 0.4, -1.0) == pytest.approx(
            float(ndtr(0.5) + ndtr(0.4) - 1.0), abs=1e-15
        )

    def test_rho_out_of_range(self):
        with pytest.raises(RhoOutOfRange):
            phi2(0.0, 0.0, 1.5)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            h, k = rng.uniform(-3, 3, size=2)
            rho = rng.uniform(-0.99, 0.99)
            assert phi2(h, k, rho) == pytest.approx(phi2(k, h, rho), abs=1e-14)

    def test_monotone_in_rho(self):
        rhos = np.linspace(-0.999, 0.999, 41)
        values = phi2(0.7, -0.4, rhos)
        assert np.all(np.diff(values) >= -1e-14)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(22)
        h = rng.uniform(-3, 3, size=17)
        k = rng.uniform(-3, 3, size=17)
        h[3] = 0.0
        k[5] = 0.0
        h[7] = math.inf
        k[11] = -math.inf
        rho = rng.uniform(-0.99, 0.99, size=17)
        rho[13] = 0.0
        vec = phi2(h, k, rho)
        for i in range(17):
            assert vec[i] == pytest.approx(
                phi2(float(h[i]), float(k[i]), float(rho[i])), abs=1e-15
            )

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            h, k = rng.uniform(-2.5, 2.5, size=2)
            rho = float(rng.uniform(-0.97, 0.97))
            assert phi2(h, k, rho) == pytest.approx(
                bvn_quadrature(h, k, rho), abs=1e-9
            )


_EDGE_RHOS = [-1.0, 0.0, 1.0, RHO_CLAMP, -RHO_CLAMP]
_LIMITS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
    st.floats(-40.0, 40.0, allow_nan=False),
)


class TestPhi2Lazy:
    """Each case on its claimed entries only, byte-equal to the whole-grid form."""

    @staticmethod
    def same(h, k, rho):
        # A subnormal limit overflows k / h in both forms alike.
        with np.errstate(over="ignore"):
            got, want = phi2(h, k, rho), ref_phi2(h, k, rho)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        h=st.lists(_LIMITS, min_size=1, max_size=12),
        k=st.lists(_LIMITS, min_size=1, max_size=12),
        rho=st.one_of(st.sampled_from(_EDGE_RHOS), st.floats(-1.0, 1.0)),
    )
    def test_grid_matches_whole_grid_form(self, h, k, rho):
        h, k = np.array(h), np.array(k)
        self.same(h[:, None], k[None, :], rho)
        self.same(h[:, None], k[None, :], np.full((len(h), len(k)), rho))

    @settings(max_examples=150, deadline=None)
    @given(
        hkr=st.lists(
            st.tuples(_LIMITS, _LIMITS, st.one_of(st.sampled_from(_EDGE_RHOS),
                                                  st.floats(-1.0, 1.0))),
            min_size=1, max_size=30,
        )
    )
    def test_mixed_rho_matches_whole_grid_form(self, hkr):
        h, k, rho = (np.array(c) for c in zip(*hkr))
        self.same(h, k, rho)

    @settings(max_examples=100, deadline=None)
    @given(h=_LIMITS, k=_LIMITS,
           rho=st.one_of(st.sampled_from(_EDGE_RHOS), st.floats(-1.0, 1.0)))
    def test_scalar_matches_whole_grid_form(self, h, k, rho):
        self.same(h, k, rho)

    def test_cases_claim_in_order(self):
        # h = k = 0 takes the arcsin form before the h = 0 and k = 0
        # forms do, and h = 0 before k = 0; rho of 0 or +-1 comes first.
        for rho in _EDGE_RHOS + [0.3, -0.7]:
            self.same(np.array([0.0, 0.0, 1.5, -0.0]), np.array([0.0, -2.0, 0.0, 0.0]), rho)


class TestEstimateRho:
    def test_collinear_raw(self):
        t = from_cells({(1, 2): 1, (2, 4): 1, (3, 6): 1})
        assert estimate_rho(t, Estimator.PEARSON_RAW) == 1.0

    def test_clamped_with_warning_in_fit(self):
        t = from_cells({(1, 2): 1, (2, 4): 1, (3, 6): 1})
        with pytest.warns(UserWarning, match="clamped"):
            model = fit_copula(t)
        assert model.rho == pytest.approx(1.0 - 1e-9, abs=1e-15)

    def test_independent_product_table(self):
        cells = {(x, z): 2 for x in (1, 2, 3) for z in (4, 6, 9)}
        t = from_cells(cells)
        for estimator in Estimator:
            assert abs(estimate_rho(t, estimator)) <= 1e-12

    def test_collinear_in_log_space(self):
        t = from_cells({(2, 5): 1, (4, 10): 1})
        assert estimate_rho(t, Estimator.PEARSON_LOG) == pytest.approx(1.0, abs=1e-12)

    def test_pearson_log_rejects_boundary_zeros(self):
        t = build_table([(0, 1, 1), (2, 3, 1)], Domain.BOUNDARIES)
        with pytest.raises(LogOfNonpositive):
            estimate_rho(t, Estimator.PEARSON_LOG)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            estimate_rho(from_cells({(2, 5): 9}), Estimator.PEARSON_RAW)

    def test_axis_swap_invariance(self):
        rng = np.random.default_rng(24)
        for _ in range(8):
            t = random_table(rng)
            swapped = build_table(
                zip(t.zs.tolist(), t.xs.tolist(), t.ns.tolist()), Domain.BOUNDARIES
            )
            for estimator in (Estimator.PEARSON_RAW, Estimator.NORMAL_SCORES):
                assert estimate_rho(t, estimator) == pytest.approx(
                    estimate_rho(swapped, estimator), abs=1e-12
                )

    def test_normal_scores_invariant_under_monotone_relabeling(self):
        rng = np.random.default_rng(25)
        for _ in range(8):
            t = random_table(rng)
            relabeled = build_table(
                zip(t.xs.tolist(), (t.zs * t.zs + 3).tolist(), t.ns.tolist()),
                Domain.BOUNDARIES,
            )
            original = JointFrequencyTable(Domain.BOUNDARIES, t.xs, t.zs, t.ns)
            assert estimate_rho(
                original, Estimator.NORMAL_SCORES
            ) == pytest.approx(
                estimate_rho(relabeled, Estimator.NORMAL_SCORES), abs=1e-12
            )


class TestCellProbabilities:
    def test_independence_is_marginal_product(self):
        rng = np.random.default_rng(26)
        model = random_model(rng)
        model = GaussianCopulaModel(
            0.0, model.marginal_x, model.marginal_z, model.estimator, model.domain
        )
        cells = cell_probabilities(model)
        for i, x in enumerate(model.marginal_x.support):
            for j, z in enumerate(model.marginal_z.support):
                expected = model.marginal_x.pmf[i] * model.marginal_z.pmf[j]
                assert cells.cells[(int(x), int(z))] == pytest.approx(
                    expected, abs=1e-9
                )

    def test_two_point_half_marginals(self):
        # Both CDF steps at 1/2: the lowest cell is phi2(0, 0, 1/2) = 1/3.
        model = tiny_model(0.5)
        cells = cell_probabilities(model)
        assert cells.cells[(1, 2)] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_cells_sum_to_one(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            cells = cell_probabilities(random_model(rng))
            assert sum(cells.cells.values()) == pytest.approx(1.0, abs=1e-9)

    def test_marginal_preservation(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            model = random_model(rng)
            cells = cell_probabilities(model)
            x_sums = ref_axis_sums(dict(cells.cells), 0)
            for v, p in zip(model.marginal_x.support, model.marginal_x.pmf):
                assert x_sums[int(v)] == pytest.approx(float(p), abs=1e-6)
            z_sums = ref_axis_sums(dict(cells.cells), 1)
            for v, p in zip(model.marginal_z.support, model.marginal_z.pmf):
                assert z_sums[int(v)] == pytest.approx(float(p), abs=1e-6)

    def test_top_right_cell_monotone_in_rho(self):
        rng = np.random.default_rng(29)
        base = random_model(rng)
        top_right = (int(base.marginal_x.support[-1]), int(base.marginal_z.support[-1]))
        last = -1.0
        for rho in np.linspace(-0.95, 0.95, 9):
            model = GaussianCopulaModel(
                float(rho), base.marginal_x, base.marginal_z,
                base.estimator, base.domain,
            )
            p = cell_probabilities(model).cells[top_right]
            assert p >= last - 1e-12
            last = p


class TestSampleCopula:
    def test_empty(self):
        model = tiny_model(0.4)
        assert sample_copula(model, 0, 0).shape == (0, 2)

    def test_deterministic(self):
        model = tiny_model(0.4)
        a = sample_copula(model, 100, 42)
        b = sample_copula(model, 100, 42)
        assert a.tobytes() == b.tobytes()

    @given(
        seed=st.integers(0, 2**63 - 1),
        sizes=st.one_of(
            st.lists(st.integers(1, 50), min_size=1, max_size=8),
            # Fixed chunks of k rows and a shorter remainder, as the CLI draws.
            st.tuples(st.integers(1, 300), st.integers(1, 64)).map(
                lambda t: [t[1]] * (t[0] // t[1]) + [t[0] % t[1]] * (t[0] % t[1] > 0)
            ),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_chunks_from_one_generator_match_one_shot(self, seed, sizes):
        model = random_model(np.random.default_rng(33))
        rng = np.random.default_rng(seed)
        chunks = [sample_copula(model, k, rng) for k in sizes]
        one_shot = sample_copula(model, sum(sizes), seed)
        assert np.concatenate(chunks).tobytes() == one_shot.tobytes()

    @pytest.mark.parametrize("domain", [Domain.SEGMENTS, Domain.BOUNDARIES])
    def test_values_are_the_supports_at_the_drawn_indices(self, domain):
        model = random_model(np.random.default_rng(8), domain)
        ix, iz = sample_indices(model, 500, 11)
        mx, mz = model.marginal_x, model.marginal_z
        assert 0 <= ix.min() and ix.max() < len(mx.support)
        assert 0 <= iz.min() and iz.max() < len(mz.support)
        expected = [[int(mx.support[i]), int(mz.support[j])] for i, j in zip(ix, iz)]
        samples = sample_copula(model, 500, 11)
        assert samples.dtype == np.int64
        assert samples.tolist() == expected

    def test_comonotone_limit_with_identical_marginals(self):
        from menzerath.table import MarginalDistribution

        m = MarginalDistribution.from_counts([1, 2, 3], [3, 4, 5])
        model = GaussianCopulaModel(
            1.0 - 1e-9, m, m, Estimator.PEARSON_RAW, Domain.BOUNDARIES
        )
        samples = sample_copula(model, 500, 7)
        assert np.all(samples[:, 0] == samples[:, 1])

    def test_frequencies_match_analytic_cells(self):
        rng = np.random.default_rng(30)
        model = random_model(rng)
        n = 200_000
        samples = sample_copula(model, n, 123)
        cells = cell_probabilities(model)
        pairs, counts = np.unique(samples, axis=0, return_counts=True)
        freq = {tuple(map(int, p)): c / n for p, c in zip(pairs, counts)}
        for key, p in cells.cells.items():
            observed = freq.get(key, 0.0)
            bound = 5.0 * math.sqrt(p * (1 - p) / n) + 1e-12
            assert abs(observed - p) <= bound


class TestPredictedMalFromCells:
    def test_independence_gives_mean_over_x(self):
        rng = np.random.default_rng(31)
        model = random_model(rng)
        model = GaussianCopulaModel(
            0.0, model.marginal_x, model.marginal_z, model.estimator, model.domain
        )
        curve = predicted_mal_from_cells(cell_probabilities(model))
        ez = float(np.dot(model.marginal_z.support, model.marginal_z.pmf))
        for x, y, _ in curve.points:
            assert y == pytest.approx(ez / x, abs=1e-9)

    def test_single_column(self):
        from menzerath.table import MarginalDistribution

        mx = MarginalDistribution.from_counts([2], [5])
        mz = MarginalDistribution.from_counts([4, 8], [1, 3])
        model = GaussianCopulaModel(
            0.3, mx, mz, Estimator.PEARSON_RAW, Domain.SEGMENTS
        )
        curve = predicted_mal_from_cells(cell_probabilities(model))
        assert len(curve.xs) == 1
        assert curve.ys[0] == pytest.approx(np.dot(mz.support, mz.pmf) / 2.0, abs=1e-9)

    def test_boundary_cells_rejected(self):
        rng = np.random.default_rng(32)
        model = random_model(rng, Domain.BOUNDARIES)
        with pytest.raises(WrongDomain):
            predicted_mal_from_cells(cell_probabilities(model))

    def test_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(33)
        model = random_model(rng)
        analytic = predicted_mal_from_cells(cell_probabilities(model))
        n = 1_000_000
        samples = sample_copula(model, n, 99)
        for x, y, weight in analytic.points:
            mask = samples[:, 0] == x
            count = int(mask.sum())
            if count < 1000:
                continue
            zs = samples[mask, 1]
            mc_y = float(zs.mean()) / x
            se = float(zs.std()) / math.sqrt(count) / x
            # 1e-6 floor covers kernel rounding when the column is constant.
            assert abs(mc_y - y) <= 3.0 * se + 1e-6

    def test_pipeline_invariant_under_count_scaling(self):
        rng = np.random.default_rng(34)
        t = random_table(rng)
        a = predicted_mal_from_cells(cell_probabilities(fit_copula(t)))
        b = predicted_mal_from_cells(cell_probabilities(fit_copula(scaled(t, 3))))
        np.testing.assert_allclose(a.ys, b.ys, atol=1e-12)


class TestInfeasibleMass:
    def test_reports_mass_below_diagonal(self):
        cells = probability_table(Domain.SEGMENTS, {(2, 1): 0.25, (2, 3): 0.75})
        assert infeasible_mass(cells) == pytest.approx(0.25)

    def test_boundary_cells_rejected(self):
        cells = probability_table(Domain.BOUNDARIES, {(0, 0): 1.0})
        with pytest.raises(WrongDomain):
            infeasible_mass(cells)

    def test_typical_segment_copula_has_some(self):
        t = from_cells({(1, 2): 5, (2, 3): 4, (2, 6): 3, (3, 7): 4, (4, 9): 2})
        cells = cell_probabilities(fit_copula(t))
        assert infeasible_mass(cells) > 0.0
