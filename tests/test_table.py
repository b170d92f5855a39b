"""Joint table construction, marginals, moments, correlation, MAL curve."""

import math
import pickle
from copy import deepcopy
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from menzerath import (
    MODEL_ORDER,
    Axis,
    BivariateGaussianParams,
    DegenerateVariance,
    Domain,
    EmptyInput,
    InvalidPair,
    JointFrequencyTable,
    JointProbabilityTable,
    LogOfNonpositive,
    MalCurve,
    MarginalDistribution,
    Space,
    UOutOfRange,
    WrongDomain,
    build_table,
    compare,
    empirical_mal_curve,
    fit_bivariate_pairs,
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
     ("xs", "zs", "ns", "support_x", "support_z", "counts_x", "counts_z")),
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


def test_marginals_and_curves_copy_read_only():
    # Pickled and deep copies go through the constructor: its checks run
    # again and every array comes back frozen.
    t = build_table([(1, 2, 3), (1, 4, 1), (3, 3, 2)], Domain.SEGMENTS)
    m = marginal(t, Axis.Z)
    model = compare(t, ["copula"]).copulas["copula"]
    values = [(m, ("support", "pmf", "cdf")), (empirical_mal_curve(t), ("xs", "ys", "ns"))]
    for value, arrays in values:
        for copy in (pickle.loads(pickle.dumps(value)), deepcopy(value)):
            assert type(copy) is type(value)
            for name in arrays:
                column = getattr(copy, name)
                assert column.tolist() == getattr(value, name).tolist()
                assert column.dtype == getattr(value, name).dtype
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[-1]
            with pytest.raises(AttributeError):
                setattr(copy, arrays[0], None)
    copy = pickle.loads(pickle.dumps(m))
    u = np.array([0.1, 0.5, 0.9, 1.0])
    assert copy.quantile_index(u).tolist() == m.quantile_index(u).tolist() == [0, 0, 2, 2]
    for marg in (deepcopy(model).marginal_x, deepcopy(model).marginal_z):
        assert not any(a.flags.writeable for a in (marg.support, marg.pmf, marg.cdf))


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

    def test_ascending_rows_are_not_sorted(self):
        # Rows whose packed (x, z) key takes few values are grouped through
        # a lookup array in any order; with a z past 10**6, by one lexsort.
        # The table's z axis pass is the one stable argsort of a build.
        rows = [(1, 2, 4), (1, 3, 1), (1, 3, 2), (2, 2, 5), (2, 7, 1), (4, 4, 3)]
        wide = [(x, z + 10**6 * (z == 7), n) for x, z, n in rows]
        built = []
        for source, sorts in ((rows, 0), (wide, 1)):
            tables = []
            for order in ((0, 1, 2, 3, 4, 5), (3, 1, 5, 0, 4, 2)):
                in_sums = []

                def sum_rows(*columns, real=table_module._sum_rows):
                    before = arg.call_count
                    summed = real(*columns)
                    in_sums.append(arg.call_count - before)
                    return summed

                with mock.patch.object(table_module.np, "lexsort", wraps=np.lexsort) as sort, \
                        mock.patch.object(table_module.np, "argsort", wraps=np.argsort) as arg, \
                        mock.patch.object(table_module, "_sum_rows", side_effect=sum_rows):
                    tables.append(build_table([source[i] for i in order], Domain.SEGMENTS))
                assert sort.call_count == sorts
                assert arg.call_args_list == [mock.call(mock.ANY, kind="stable")]
                assert in_sums == [0]
            assert tables[0] == tables[1]
            built.append(tables[0])
        t, t_wide = built
        assert t.cells == {(1, 2): 4, (1, 3): 3, (2, 2): 5, (2, 7): 1, (4, 4): 3}
        assert t_wide.cells == {(1, 2): 4, (1, 3): 3, (2, 2): 5, (2, 10**6 + 7): 1, (4, 4): 3}


@st.composite
def cell_rows(draw):
    """Seeded int64 (xs, zs) rows of one of three families.

    ``narrow``: small ranges from 0 up, as boundary counts have.
    ``edge``: a packed key range of exactly ``4 * rows + 1024`` values,
    the widest that the lookup takes, or one value more.  ``far``:
    values near -2**62, 0 and 2**62, in one cluster or spread across.
    """
    rows = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["narrow", "edge", "far"]))
    if family == "narrow":
        lows = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        widths = (draw(st.integers(1, 12)), draw(st.integers(1, 40)))
        xs, zs = (low + rng.integers(0, w, rows) for low, w in zip(lows, widths))
    elif family == "edge":
        rows = max(rows, 2)
        span = 4 * rows + 1024 + draw(st.integers(0, 1))
        x_span = draw(st.sampled_from([d for d in range(1, 65) if span % d == 0]))
        spans = (x_span, span // x_span)
        xs, zs = (rng.integers(0, w, rows) for w in spans)
        # The first and last rows hold the corners, so the range is exact.
        xs[0], zs[0] = 0, 0
        xs[-1], zs[-1] = spans[0] - 1, spans[1] - 1
    else:
        centres = st.sampled_from([[2**62], [-2**62], [0, 2**62], [-2**62, 2**62]])
        xs, zs = (
            rng.choice(np.array(draw(centres)), rows) + rng.integers(-3, 4, rows)
            for _ in range(2)
        )
    return xs.astype(np.int64), zs.astype(np.int64)


class TestCellIndex:
    @given(cell_rows())
    @example((np.array([0, 3, 1, 1]), np.array([0, 259, 7, 9])))  # 4 * 260 keys: lookup
    @example((np.array([0, 2, 1, 1]), np.array([0, 346, 7, 9])))  # 3 * 347 keys: sort
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_row_unique(self, rows):
        xs, zs = rows
        span = (int(xs.max()) - int(xs.min()) + 1) * (int(zs.max()) - int(zs.min()) + 1)
        with mock.patch.object(table_module.np, "lexsort", wraps=np.lexsort) as sort:
            cell_xs, cell_zs, index = table_module._cell_index(xs, zs)
        # The lookup runs exactly when the key range fits it.
        assert sort.call_count == (span > 4 * len(xs) + 1024)
        cells, want = np.unique(np.column_stack((xs, zs)), axis=0, return_inverse=True)
        assert cell_xs.tolist() == cells[:, 0].tolist()
        assert cell_zs.tolist() == cells[:, 1].tolist()
        assert index.tolist() == want.ravel().tolist()
        assert np.array_equal(cell_xs[index], xs) and np.array_equal(cell_zs[index], zs)


class TestConstructorsCheckTheirColumns:
    """Each public constructor refuses columns it would truncate or misalign."""

    @pytest.mark.parametrize("values, counts, error, message", [
        ([1.5, 2.5], [1, 1], InvalidPair, "fractional values"),
        ([True, 2], [1, 1], InvalidPair, "value must be an integer"),
        ([1, 2], [1.5, 1], InvalidPair, "fractional counts"),
        ([1, 2], [True, 1], InvalidPair, "count must be an integer"),
        ([1, 2], [0, 1], InvalidPair, "count must be >= 1"),
        ([], [], EmptyInput, "at least one value"),
        ([1, 2, 3], [1, 1], ValueError, "3 values for 2 counts"),
        ([1, 2], [1, 1, 1], ValueError, "2 values for 3 counts"),
        ([math.nan, 2], [1, 1], InvalidPair, "non-finite values"),
        ([1, -math.inf], [1, 1], InvalidPair, "non-finite values"),
        ([1, 2], [math.nan, 1], InvalidPair, "non-finite counts"),
        ([1, 2], [1, math.inf], InvalidPair, "non-finite counts"),
    ])
    def test_marginal_from_counts(self, values, counts, error, message):
        with pytest.raises(error, match=message):
            MarginalDistribution.from_counts(values, counts)

    @pytest.mark.parametrize("row, message", [
        ((2.7, 5.9, 1), "fractional xs"),
        ((2, 5.5, 1), "fractional zs"),
        ((True, 5, 1), "x must be an integer"),
        ((2, True, 1), "z must be an integer"),
        (("2", 5, 1), "x must be an integer"),
        ((math.nan, 5, 1), "non-finite xs"),
        ((2, math.inf, 1), "non-finite zs"),
        ((2, 5, math.nan), "non-finite counts"),
        ((2, 5, math.inf), "non-finite counts"),
        ((2, 5, -math.inf), "non-finite counts"),
    ])
    def test_build_table(self, row, message):
        with pytest.raises(InvalidPair, match=message):
            build_table([(1, 3, 1), row], Domain.SEGMENTS)

    @pytest.mark.parametrize("support, pmf, cdf", [
        ([1, 2, 3], [0.5, 0.5], [0.5, 1.0]),
        ([1, 2], [0.5, 0.5], [1.0]),
        ([], [], []),
    ])
    def test_marginal(self, support, pmf, cdf):
        with pytest.raises(ValueError, match="one length >= 1"):
            MarginalDistribution(np.array(support, dtype=np.int64), np.array(pmf), np.array(cdf))

    @pytest.mark.parametrize("xs, zs, ps", [
        ([1, 2, 3], [1, 2, 3], [0.5, 0.5]),
        ([1, 2], [1, 2, 3], [0.5, 0.5]),
        ([1, 2, 3], [1, 2], [0.25, 0.25, 0.5]),
    ])
    def test_joint_probability_table(self, xs, zs, ps):
        with pytest.raises(ValueError, match="unequal length"):
            JointProbabilityTable(Domain.SEGMENTS, xs, zs, ps)

    @pytest.mark.parametrize("make, error, message", [
        (lambda: JointProbabilityTable(Domain.SEGMENTS, [1, 1], [1, 2], [math.nan, math.nan]),
         ValueError, "sum to nan"),
        (lambda: JointProbabilityTable(Domain.SEGMENTS, [1, 1], [1, 2], [math.nan, 1.0]),
         ValueError, "sum to nan"),
        (lambda: MarginalDistribution(np.array([math.nan, 2.0]), np.array([0.5, 0.5]),
                                      np.array([0.5, 1.0])),
         InvalidPair, "support must be strictly ascending"),
        (lambda: MarginalDistribution(np.array([1, 2]), np.array([math.nan, math.nan]),
                                      np.array([math.nan, 1.0])),
         InvalidPair, "pmf values must be positive"),
        (lambda: MarginalDistribution(np.array([1, 2]), np.array([0.5, 0.5]),
                                      np.array([math.nan, 1.0])),
         InvalidPair, "cdf must be nondecreasing"),
        (lambda: MalCurve(np.array([1, 2]), np.array([2.0, 1.5]), np.array([math.nan, 1.0])),
         InvalidPair, "curve weights must be positive"),
        (lambda: BivariateGaussianParams(1.0, 2.0, math.nan, 1.0, math.nan, Space.RAW),
         ValueError, "must be finite"),
        (lambda: BivariateGaussianParams(math.inf, 2.0, 1.0, 1.0, 0.5, Space.RAW),
         ValueError, "must be finite"),
        (lambda: fit_bivariate_pairs([[1, math.nan], [2, 3], [3, 5]], Space.RAW),
         ValueError, "pairs must be finite"),
    ], ids=["probabilities-all-nan", "probabilities-one-nan", "marginal-support",
            "marginal-pmf", "marginal-cdf", "curve-weights", "params-nan", "params-inf",
            "pairs"])
    def test_nan_fails_every_invariant(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    @pytest.mark.parametrize("xs, zs, ns", [
        ([1, 2], [1, 2, 3], [1, 1]),
        ([1, 2, 3], [1, 2], [1, 1, 1]),
        ([1, 2], [1, 2], [1, 1, 1]),
    ])
    def test_joint_frequency_table(self, xs, zs, ns):
        with pytest.raises(ValueError, match="unequal length"):
            JointFrequencyTable(Domain.SEGMENTS, xs, zs, ns)


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

    def test_reads_the_counts_the_table_keeps(self):
        # The table finds each axis's support and counts once; a marginal
        # sorts and reduces nothing.
        t = from_cells({(1, 5): 2, (1, 2): 1, (2, 4): 3, (3, 5): 4})
        with mock.patch.object(np, "argsort", wraps=np.argsort) as sort, \
                mock.patch.object(np, "unique", wraps=np.unique) as unique, \
                mock.patch.object(np, "add", wraps=np.add) as add:
            mx, mz = marginal(t, Axis.X), marginal(t, Axis.Z)
        assert (sort.call_count, unique.call_count, add.reduceat.call_count) == (0, 0, 0)
        assert mx.support.tolist() == [1, 2, 3] and mz.support.tolist() == [2, 4, 5]
        assert mx.pmf.tolist() == [0.3, 0.3, 0.4] and mz.pmf.tolist() == [0.1, 0.3, 0.6]
        assert (t.counts_x.tolist(), t.counts_z.tolist()) == ([3, 3, 4], [1, 3, 6])

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

    def test_cdf_that_rounds_above_one_is_capped(self):
        # The float running sum of these pmf values passes 1 before the
        # last entry; the marginal is valid all the same.
        counts = np.random.default_rng(1).integers(1, 10**15, 69, endpoint=True)
        counts[-1] = 1
        m = MarginalDistribution.from_counts(np.arange(69), counts)
        assert np.cumsum(m.pmf)[-2] > 1.0
        assert m.cdf[-1] == 1.0
        assert np.all(np.diff(m.cdf) >= 0) and np.all(m.cdf <= 1.0)


class TestQuantile:
    def test_step_cases(self):
        m = marginal(from_cells({(1, 2): 1, (2, 4): 1}), Axis.X)
        assert m.cdf.tolist() == [0.5, 1.0]
        assert m.support[m.quantile_index(0.3)] == 1
        assert m.support[m.quantile_index(0.5)] == 1
        assert m.support[m.quantile_index(0.51)] == 2

    def test_u_one_gives_last_value(self):
        m = marginal(from_cells({(1, 2): 1, (2, 4): 1, (5, 9): 2}), Axis.X)
        assert m.support[m.quantile_index(1.0)] == 5

    def test_u_zero_rejected(self):
        m = marginal(from_cells({(1, 2): 1}), Axis.X)
        with pytest.raises(UOutOfRange):
            m.support[m.quantile_index(0.0)]
        with pytest.raises(UOutOfRange):
            m.support[m.quantile_index(1.0000001)]

    def test_nan_rejected(self):
        m = marginal(from_cells({(1, 2): 1, (2, 4): 1}), Axis.X)
        with pytest.raises(UOutOfRange):
            m.support[m.quantile_index(math.nan)]
        with pytest.raises(UOutOfRange):
            m.quantile_index(np.array([0.3, math.nan]))

    @given(
        size=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        top=st.sampled_from([1, 10, 10**6, 10**15]),
        tail=st.integers(0, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_matches_searchsorted(self, size, seed, top, tail):
        # Counts up to 1e15 give pmf entries near 1e-18, and a tail of
        # unit counts puts several CDF values just below 1.  Each CDF
        # value is its exact fraction rounded once, so none passes 1.
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, top, size=size, endpoint=True).astype(object)
        counts[size - min(tail, size):] = 1
        total = counts.sum()
        m = MarginalDistribution(
            support=np.arange(size),
            pmf=(counts / total).astype(float),
            cdf=(np.cumsum(counts) / total).astype(float),
        )
        k = 1 << max(10, (16 * size - 1).bit_length())  # the guide's bin count
        edges = np.arange(k + 2) / k
        u = np.concatenate([
            m.cdf, edges, [1.0, 2.0**-53, 5e-324],
            ndtr(rng.standard_normal(4096)),
        ])
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 2.0)])
        u = u[(u > 0.0) & (u <= 1.0)]
        expected = np.searchsorted(m.cdf, u, side="left")
        assert np.array_equal(m.quantile_index(u), expected)
        even = len(u) // 2 * 2
        grid = m.quantile_index(u[:even].reshape(2, -1))
        assert np.array_equal(grid, expected[:even].reshape(2, -1))
        for i in rng.integers(0, len(u), size=8).tolist():
            assert m.quantile_index(float(u[i])) == expected[i]
            assert m.quantile_index(np.asarray(u[i])).shape == ()

    @given(segment_cells, st.floats(min_value=1e-9, max_value=1.0))
    @settings(max_examples=80)
    def test_matches_linear_scan(self, cells, u):
        m = marginal(from_cells(cells), Axis.Z)
        expected = next(
            int(v) for v, c in zip(m.support, m.cdf) if c >= u
        )
        assert m.support[m.quantile_index(u)] == expected


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

    def test_one_pass_per_table_and_space(self):
        # A full comparison with both copulas asks for the moments eight
        # times: raw and log on the table, raw on its boundary table.
        t = random_table(np.random.default_rng(11))
        passes = []
        moments = table_module._moments

        def counted(*args):
            passes.append(args)
            return moments(*args)

        with mock.patch.object(table_module, "_moments", counted):
            comparison = compare(t, MODEL_ORDER)
            comparison.dataset
            again = weighted_moments(t, Space.RAW)
        assert len(passes) == 3
        assert again is weighted_moments(t, Space.RAW)
        for space in Space:
            fresh = moments(
                table_module._axis_values(t.xs, space),
                table_module._axis_values(t.zs, space),
                t.ns,
            )
            assert weighted_moments(t, space) == fresh
            assert weighted_moments(pickle.loads(pickle.dumps(t)), space) == fresh


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
