"""Joint table construction, marginals, moments, correlation, MAL curve."""

import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menzerath import (
    Axis,
    DegenerateVariance,
    Domain,
    EmptyInput,
    InvalidPair,
    LogOfNonpositive,
    Space,
    UOutOfRange,
    WrongDomain,
    build_table,
    empirical_mal_curve,
    marginal,
    parse_frequency_table,
    weighted_moments,
)
from menzerath import table as table_module

from util import expand, probability_table, random_table, scaled

# Hypothesis strategy: valid segment-domain cell dictionaries.
segment_cells = st.dictionaries(
    keys=st.tuples(st.integers(1, 6), st.integers(0, 8)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    values=st.integers(1, 9),
    min_size=1,
    max_size=12,
)


def from_cells(cells, domain=Domain.SEGMENTS):
    return build_table([(x, z, n) for (x, z), n in cells.items()], domain)


@pytest.mark.parametrize("table, columns", [
    (build_table([(1, 2, 3), (1, 4, 1), (3, 3, 2)], Domain.SEGMENTS),
     ("xs", "zs", "ns", "support_x", "support_z")),
    (probability_table(Domain.BOUNDARIES, {(0, 1): 0.25, (0, 3): 0.5, (2, 0): 0.25}),
     ("xs", "zs", "ps")),
], ids=["counts", "probabilities"])
def test_cell_columns_pickle_and_stay_read_only(table, columns):
    copy = pickle.loads(pickle.dumps(table))
    assert type(copy) is type(table) and copy.domain is table.domain
    for name in columns:
        assert getattr(copy, name).tolist() == getattr(table, name).tolist()
        assert getattr(copy, name).dtype == getattr(table, name).dtype
    for t in (table, copy):
        for name in ("domain", *columns, "unknown"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)
        for name in columns:
            column = getattr(t, name)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]
        assert len(t.cells) == len(t.xs) == 3


class TestBuildTable:
    def test_aggregates_equal_keys(self):
        t = build_table([(2, 5, 3), (2, 5, 2)], Domain.SEGMENTS)
        assert t.cells == {(2, 5): 5}
        assert t.total == 5

    def test_rejects_z_below_x_in_segments(self):
        with pytest.raises(InvalidPair):
            build_table([(3, 2, 1)], Domain.SEGMENTS)

    def test_boundary_domain_admits_zeros(self):
        t = build_table([(0, 0, 4)], Domain.BOUNDARIES)
        assert t.cells == {(0, 0): 4}

    def test_boundary_domain_rejects_negative(self):
        with pytest.raises(InvalidPair):
            build_table([(-1, 0, 1)], Domain.BOUNDARIES)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_table([], Domain.SEGMENTS)

    @pytest.mark.parametrize("count", [0, -3, 1.5])
    def test_rejects_bad_counts(self, count):
        with pytest.raises(InvalidPair):
            build_table([(2, 5, count)], Domain.SEGMENTS)

    def test_accepts_integral_float_count(self):
        t = build_table([(2, 5, 3.0)], Domain.SEGMENTS)
        assert t.cells[(2, 5)] == 3

    def test_count_overflow(self):
        with pytest.raises(OverflowError):
            build_table([(1, 1, 2**63)], Domain.SEGMENTS)

    def test_rows_are_summed_once(self):
        # The rows are summed when they arrive; the table is built from
        # that sum without sorting it again.
        rows = [(2, 5, 3), (1, 4, 1), (2, 5, 2)]
        sum_rows = table_module._sum_rows
        with mock.patch.object(table_module, "_sum_rows", wraps=sum_rows) as sums:
            t = build_table(rows, Domain.SEGMENTS)
        assert sums.call_count == 1
        parsed = parse_frequency_table("".join(f"{x},{z},{n}\n" for x, z, n in rows))
        for t2 in (parsed, build_table(sorted(rows), Domain.SEGMENTS)):
            assert t2.domain is t.domain
            for name in ("xs", "zs", "ns"):
                assert getattr(t2, name).tolist() == getattr(t, name).tolist()
        assert t.cells == {(1, 4): 1, (2, 5): 5}


class TestMarginal:
    def test_x_marginal(self):
        t = from_cells({(1, 2): 1, (2, 4): 3})
        m = marginal(t, Axis.X)
        assert m.support.tolist() == [1, 2]
        np.testing.assert_allclose(m.pmf, [0.25, 0.75])

    def test_z_marginal(self):
        t = from_cells({(1, 2): 1, (2, 4): 3})
        m = marginal(t, Axis.Z)
        assert m.support.tolist() == [2, 4]
        np.testing.assert_allclose(m.pmf, [0.25, 0.75])

    def test_single_cell(self):
        m = marginal(from_cells({(2, 6): 10}), Axis.X)
        assert m.support.tolist() == [2]
        assert m.pmf.tolist() == [1.0]
        assert m.cdf.tolist() == [1.0]

    @given(segment_cells)
    @settings(max_examples=60)
    def test_pmf_sums_to_one_and_cdf_ends_at_exactly_one(self, cells):
        t = from_cells(cells)
        for axis in (Axis.X, Axis.Z):
            m = marginal(t, axis)
            assert abs(m.pmf.sum() - 1.0) <= 1e-12
            assert m.cdf[-1] == 1.0
            assert np.all(np.diff(m.cdf) >= 0)


class TestQuantile:
    def test_step_cases(self):
        m = marginal(from_cells({(1, 2): 1, (2, 4): 1}), Axis.X)
        assert m.cdf.tolist() == [0.5, 1.0]
        assert m.quantile_many(0.3) == 1
        assert m.quantile_many(0.5) == 1
        assert m.quantile_many(0.51) == 2

    def test_u_one_gives_last_value(self):
        m = marginal(from_cells({(1, 2): 1, (2, 4): 1, (5, 9): 2}), Axis.X)
        assert m.quantile_many(1.0) == 5

    def test_u_zero_rejected(self):
        m = marginal(from_cells({(1, 2): 1}), Axis.X)
        with pytest.raises(UOutOfRange):
            m.quantile_many(0.0)
        with pytest.raises(UOutOfRange):
            m.quantile_many(1.0000001)

    @given(segment_cells, st.floats(min_value=1e-9, max_value=1.0))
    @settings(max_examples=80)
    def test_matches_linear_scan(self, cells, u):
        m = marginal(from_cells(cells), Axis.Z)
        expected = next(
            int(v) for v, c in zip(m.support, m.cdf) if c >= u
        )
        assert m.quantile_many(u) == expected


class TestMalCurve:
    def test_single_cell(self):
        c = empirical_mal_curve(from_cells({(2, 6): 10}))
        assert c.points == [(2, 3.0, 10.0)]

    def test_mean_within_x(self):
        c = empirical_mal_curve(from_cells({(1, 2): 1, (1, 4): 1}))
        assert c.points == [(1, 3.0, 2.0)]

    def test_weighted_mean(self):
        # E[z | x=2] = (4 + 3*8) / 4 = 7, y = 7/2.
        c = empirical_mal_curve(from_cells({(2, 4): 1, (2, 8): 3}))
        assert c.points == [(2, 3.5, 4.0)]

    def test_boundary_table_rejected(self):
        t = build_table([(0, 0, 1)], Domain.BOUNDARIES)
        with pytest.raises(WrongDomain):
            empirical_mal_curve(t)

    @given(segment_cells)
    @settings(max_examples=60)
    def test_matches_count_expansion(self, cells):
        t = from_cells(cells)
        curve = empirical_mal_curve(t)
        ex, ez = expand(t)
        for x, y, n in curve.points:
            mask = ex == x
            assert n == mask.sum()
            assert abs(y - np.mean(ez[mask] / ex[mask])) <= 1e-12


class TestWeightedMoments:
    def test_symmetric_two_point(self):
        m = weighted_moments(from_cells({(1, 1): 2, (3, 3): 2}), Space.RAW)
        assert m.mean_x == 2.0
        assert m.sd_x == 1.0

    def test_point_mass(self):
        m = weighted_moments(from_cells({(2, 5): 7}), Space.RAW)
        assert m.mean_z == 5.0
        assert m.sd_z == 0.0

    def test_log_z_two_point(self):
        # ln 1 = 0 and ln 7 = 1.9459101490553132: mean = sd = ln(7)/2.
        m = weighted_moments(from_cells({(1, 1): 1, (1, 7): 1}), Space.LOG)
        assert m.mean_z == pytest.approx(0.9729550745276566, abs=1e-12)
        assert m.sd_z == pytest.approx(0.9729550745276566, abs=1e-12)
        assert m.mean_z == pytest.approx(math.log(7) / 2, abs=1e-15)

    def test_log_of_zero_rejected(self):
        t = build_table([(0, 1, 1), (2, 3, 1)], Domain.BOUNDARIES)
        with pytest.raises(LogOfNonpositive):
            weighted_moments(t, Space.LOG).correlation()

    @pytest.mark.parametrize("rows, cause", [
        ([(0, 1, 1), (2, 3, 1)], "log_x undefined: the boundary counts hold the zero x'"),
        ([(1, 0, 1), (2, 3, 1)], "log_z undefined: the boundary counts hold the zero z'"),
    ])
    def test_log_of_zero_names_its_boundary_cause(self, rows, cause):
        t = build_table(rows, Domain.BOUNDARIES)
        with pytest.raises(LogOfNonpositive, match=cause):
            weighted_moments(t, Space.LOG).correlation()

    def test_log_moments_null_per_axis(self):
        # Zeros in x only: log x has no moments, log z keeps its own.
        t = build_table([(0, 1, 3), (1, 2, 4), (2, 5, 1)], Domain.BOUNDARIES)
        log = weighted_moments(t, Space.LOG)
        _, ez = expand(t)
        assert log.mean_x is None and log.sd_x is None
        assert log.mean_z == pytest.approx(np.log(ez).mean(), abs=1e-12)
        assert log.sd_z == pytest.approx(np.log(ez).std(), abs=1e-12)
        assert log.rho is None
        assert weighted_moments(t, Space.RAW).rho is not None

    def test_log_of_one_allowed(self):
        m = weighted_moments(from_cells({(1, 1): 5}), Space.LOG)
        assert m.mean_x == 0.0

    def test_matches_count_expansion(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            t = random_table(rng)
            ex, ez = expand(t)
            m = weighted_moments(t, Space.RAW)
            for mean, sd, raw in ((m.mean_x, m.sd_x, ex), (m.mean_z, m.sd_z, ez)):
                assert abs(mean - raw.mean()) <= 1e-12
                assert abs(sd - raw.std()) <= 1e-12
            m = weighted_moments(t, Space.LOG)
            assert abs(m.mean_z - np.log(ez).mean()) <= 1e-12
            assert abs(m.sd_z - np.log(ez).std()) <= 1e-12


class TestWeightedCorrelation:
    def test_perfect_line(self):
        t = from_cells({(1, 2): 1, (2, 4): 1, (3, 6): 1})
        assert weighted_moments(t).rho == 1.0

    def test_point_mass_degenerate(self):
        with pytest.raises(DegenerateVariance):
            weighted_moments(from_cells({(2, 5): 9})).correlation()

    def test_constant_x_with_huge_counts_is_degenerate(self):
        # With counts near 2**62 a weighted average of a constant can miss
        # it by an ulp; the spread of a constant must still be exactly 0.
        a = 2**62 - 1
        t = build_table([(3, 3, a), (3, 4, a - a // 3)], Domain.SEGMENTS)
        m = weighted_moments(t, Space.RAW)
        assert (m.mean_x, m.sd_x) == (3.0, 0.0)
        with pytest.raises(DegenerateVariance):
            m.correlation()

    def test_product_table_independent(self):
        cells = {(x, z): 1 for x in (1, 2) for z in (2, 4)}
        assert abs(weighted_moments(from_cells(cells)).rho) <= 1e-12

    def test_log_space(self):
        t = from_cells({(2, 5): 1, (4, 10): 1})
        assert abs(weighted_moments(t, Space.LOG).rho - 1.0) <= 1e-12

    def test_symmetric_under_axis_swap(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = random_table(rng)
            swapped = build_table(
                zip(t.zs.tolist(), t.xs.tolist(), t.ns.tolist()), Domain.BOUNDARIES
            )
            assert abs(
                weighted_moments(t).rho
                - weighted_moments(swapped).rho
            ) <= 1e-12

    def test_invariant_under_count_scaling(self):
        rng = np.random.default_rng(4)
        for k in (2, 7):
            t = random_table(rng)
            assert abs(
                weighted_moments(t).rho - weighted_moments(scaled(t, k)).rho
            ) <= 1e-12

    def test_bounded_and_matches_expansion(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            t = random_table(rng)
            rho = weighted_moments(t).rho
            assert abs(rho) <= 1.0 + 1e-12
            ex, ez = expand(t)
            assert abs(rho - np.corrcoef(ex, ez)[0, 1]) <= 1e-10
