"""Columnar table core against the plain-dict references in ``util``.

Tables come from ``util.random_table`` and from rows whose counts and
totals sit near ``MAX_COUNT``, where an int64 sum that wrapped would
show.  Integer results must match the Python-int references exactly and
float sums bit for bit; moments, which numpy sums in its own order,
match to 1e-12 and correlations to 1e-10.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menzerath import (
    Axis,
    DegenerateVariance,
    Domain,
    Space,
    build_table,
    cell_probabilities,
    cells_from_boundaries,
    empirical_mal_curve,
    fit_copula,
    from_boundaries,
    infeasible_mass,
    marginal,
    predicted_mal_from_cells,
    to_boundaries,
    weighted_moments,
)
from menzerath.table import MAX_COUNT

from util import (
    probability_table,
    random_table,
    ref_cells,
    ref_correlation,
    ref_from_boundaries,
    ref_infeasible_mass,
    ref_marginal,
    ref_mal_curve,
    ref_moments,
    ref_predicted_curve,
    ref_to_boundaries,
    scaled,
)

segment_keys = st.tuples(st.integers(1, 6), st.integers(0, 8)).map(
    lambda t: (t[0], t[0] + t[1])
)


@st.composite
def near_max_rows(draw):
    """Segment rows whose total is within a factor of two of MAX_COUNT.

    Every cell is split over two rows, so aggregation adds counts near
    the top of the int64 range.
    """
    keys = draw(st.lists(segment_keys, min_size=1, max_size=6, unique=True))
    share = MAX_COUNT // len(keys)
    rows = []
    for x, z in keys:
        n = draw(st.integers(share // 2, share))
        a = draw(st.integers(1, n - 1))
        rows += [(x, z, a), (x, z, n - a)]
    return draw(st.permutations(rows))


small_rows = st.lists(
    st.tuples(segment_keys, st.integers(1, 9)).map(lambda t: (*t[0], t[1])),
    min_size=1,
    max_size=20,
)
random_tables = st.integers(0, 2**32 - 1).map(
    lambda seed: random_table(np.random.default_rng(seed))
)
tables = st.one_of(
    random_tables,
    near_max_rows().map(lambda rows: build_table(rows, Domain.SEGMENTS)),
)


def plain(table) -> dict:
    return dict(zip(zip(table.xs.tolist(), table.zs.tolist()), table.ns.tolist()))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


@given(st.one_of(small_rows, near_max_rows()))
@settings(max_examples=80)
def test_aggregation_is_exact(rows):
    table = build_table(rows, Domain.SEGMENTS)
    expected = ref_cells(rows)
    assert list(plain(table).items()) == sorted(expected.items())
    assert table.total == sum(expected.values())
    assert table.support_x.tolist() == sorted({x for x, _ in expected})
    assert table.support_z.tolist() == sorted({z for _, z in expected})
    assert all(c.dtype == np.int64 and not c.flags.writeable for c in table.arrays())


@given(near_max_rows(), st.integers(1, 2**40))
@settings(max_examples=40)
def test_total_past_max_count_raises(rows, extra):
    x, z, _ = rows[0]
    total = sum(n for _, _, n in rows)
    # The same key again, so the excess arrives through aggregation.
    overflow = rows + [(x, z, MAX_COUNT - total + extra)]
    with pytest.raises(OverflowError):
        build_table(overflow, Domain.SEGMENTS)
    table = build_table(rows, Domain.SEGMENTS)
    with pytest.raises(OverflowError):
        scaled(table, MAX_COUNT // table.total + 1)


@given(tables)
@settings(max_examples=80)
def test_marginals_and_curve_are_exact(table):
    cells = plain(table)
    for axis, pick in ((Axis.X, 0), (Axis.Z, 1)):
        support, counts = ref_marginal(cells, pick)
        m = marginal(table, axis)
        assert m.support.tolist() == support
        # Correctly rounded: Python ints divide exactly, then round once.
        assert m.pmf.tolist() == [c / sum(counts) for c in counts]
    assert empirical_mal_curve(table).points == ref_mal_curve(cells)


def test_pmf_is_correctly_rounded_past_2_53():
    # float64 rounds both counts and their total (about 2**62) before
    # dividing, which lands one ulp off the exact quotient here.
    a, b = 2400321522944818455, 2343953142055984643
    table = build_table([(1, 1, a), (2, 2, b)], Domain.SEGMENTS)
    pmf = marginal(table, Axis.X).pmf.tolist()
    assert pmf == [a / (a + b), b / (a + b)] == [0.5059406742725786, 0.49405932572742134]


@given(tables)
@settings(max_examples=80)
def test_moments_and_correlation_match(table):
    cells = plain(table)
    for space, a, b in (
        (Space.RAW, lambda x, z: float(x), lambda x, z: float(z)),
        (Space.LOG, lambda x, z: math.log(x), lambda x, z: math.log(z)),
    ):
        m = weighted_moments(table, space)
        for mean, sd, value in ((m.mean_x, m.sd_x, a), (m.mean_z, m.sd_z, b)):
            ref_mean, ref_sd = ref_moments(cells, value)
            assert close(mean, ref_mean) and close(sd, ref_sd)
        if len(table.support_x) < 2 or len(table.support_z) < 2:
            with pytest.raises(DegenerateVariance):
                m.correlation()
        else:
            rho = m.correlation()
            assert math.isclose(rho, ref_correlation(cells, a, b), abs_tol=1e-10)


@given(tables)
@settings(max_examples=60)
def test_boundary_shears_match(table):
    cells = plain(table)
    there = to_boundaries(table)
    assert plain(there) == ref_to_boundaries(cells)
    assert list(plain(there)) == sorted(ref_to_boundaries(cells))
    back = from_boundaries(there)
    assert plain(back) == ref_from_boundaries(plain(there)) == cells
    assert back == table and back.total == table.total


def test_from_boundaries_refuses_to_wrap():
    table = build_table([(MAX_COUNT - 1, 1, 1)], Domain.BOUNDARIES)
    with pytest.raises(OverflowError):
        from_boundaries(table)


probability_dicts = st.dictionaries(
    keys=st.tuples(st.integers(1, 6), st.integers(0, 8)),
    values=st.floats(1e-6, 1.0),
    min_size=1,
    max_size=20,
).map(lambda d: {k: v / math.fsum(d.values()) for k, v in d.items()})


def test_segment_cells_need_positive_x():
    # The model curve divides by x, so x = 0 must not reach it.
    with pytest.raises(ValueError, match="x >= 1"):
        probability_table(Domain.SEGMENTS, {(0, 0): 0.5, (1, 1): 0.5})


def _model_cells(table):
    segment = cell_probabilities(fit_copula(table))
    mapped = cells_from_boundaries(cell_probabilities(fit_copula(to_boundaries(table))))
    return [segment, mapped]


@given(st.one_of(
    probability_dicts.map(lambda d: [probability_table(Domain.SEGMENTS, d)]),
    random_tables.map(_model_cells),
))
@settings(max_examples=60)
def test_probability_reductions_are_bitwise(models):
    for cells in models:
        probabilities = dict(cells.cells)
        assert infeasible_mass(cells) == ref_infeasible_mass(probabilities)
        expected = ref_predicted_curve(probabilities)
        if expected:
            assert predicted_mal_from_cells(cells).points == expected
