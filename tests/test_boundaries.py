"""Boundary transform: exact round trips and the clean copula pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menzerath import (
    Domain,
    WrongDomain,
    boundary_copula_cells,
    build_table,
    cell_probabilities,
    cells_from_boundaries,
    fit_copula,
    from_boundaries,
    infeasible_mass,
    pairs_from_boundaries,
    sample_copula,
    to_boundaries,
)

from util import random_table

segment_cells = st.dictionaries(
    keys=st.tuples(st.integers(1, 7), st.integers(0, 9)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    values=st.integers(1, 9),
    min_size=1,
    max_size=12,
)


def from_cells(cells, domain=Domain.SEGMENTS):
    return build_table([(x, z, n) for (x, z), n in cells.items()], domain)


class TestTransform:
    def test_worked_cell(self):
        # 2 syllables / 7 phonemes: one syllable boundary, five phoneme
        # boundaries that are not syllable boundaries.
        t = to_boundaries(from_cells({(2, 7): 3}))
        assert t.cells == {(1, 5): 3}
        back = from_boundaries(t)
        assert back.cells == {(2, 7): 3}

    def test_minimal_word(self):
        t = to_boundaries(from_cells({(1, 1): 4}))
        assert t.cells == {(0, 0): 4}
        assert from_boundaries(t).cells == {(1, 1): 4}

    def test_wrong_domain_both_ways(self):
        seg = from_cells({(2, 7): 1})
        bnd = to_boundaries(seg)
        with pytest.raises(WrongDomain):
            to_boundaries(bnd)
        with pytest.raises(WrongDomain):
            from_boundaries(seg)

    @given(segment_cells)
    @settings(max_examples=100)
    def test_round_trip_exact(self, cells):
        t = from_cells(cells)
        there = to_boundaries(t)
        assert there.total == t.total
        assert all(x >= 0 and z >= 0 for x, z in there.cells)
        back = from_boundaries(there)
        assert back.cells == t.cells
        assert back.domain is t.domain

    @given(segment_cells)
    @settings(max_examples=50)
    def test_boundary_grid_has_no_forbidden_cells(self, cells):
        # Any nonnegative (x', z') combination is a legal boundary cell.
        t = to_boundaries(from_cells(cells))
        xs = sorted({x for x, _ in t.cells})
        zs = sorted({z for _, z in t.cells})
        for x in xs:
            for z in zs:
                build_table([(x, z, 1)], Domain.BOUNDARIES)


class TestBoundaryPipeline:
    def test_mapped_cells_are_feasible(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            t = random_table(rng)
            cells, model = boundary_copula_cells(t)
            assert model.domain is Domain.BOUNDARIES
            assert cells.domain is Domain.SEGMENTS
            assert all(z >= x for x, z in cells.cells)
            assert infeasible_mass(cells) == 0.0

    def test_mapped_cells_preserve_mass(self):
        rng = np.random.default_rng(52)
        t = random_table(rng)
        model = fit_copula(to_boundaries(t))
        boundary_cells = cell_probabilities(model)
        mapped = cells_from_boundaries(boundary_cells)
        assert sum(mapped.cells.values()) == pytest.approx(
            sum(boundary_cells.cells.values()), abs=1e-15
        )

    def test_cells_from_boundaries_requires_boundary_domain(self):
        rng = np.random.default_rng(53)
        t = random_table(rng)
        segment_cells_table = cell_probabilities(
            boundary_copula_cells(t)[1]
        )  # boundary-domain cells
        mapped = cells_from_boundaries(segment_cells_table)
        with pytest.raises(WrongDomain):
            cells_from_boundaries(mapped)

    def test_sampled_pairs_map_to_feasible_segments(self):
        rng = np.random.default_rng(54)
        t = random_table(rng)
        model = fit_copula(to_boundaries(t))
        pairs = pairs_from_boundaries(sample_copula(model, 2000, 3))
        assert np.all(pairs[:, 0] >= 1)
        assert np.all(pairs[:, 1] >= pairs[:, 0])

    def test_pairs_past_int64_raise(self):
        # x' + z' + 1 = 2**63 + 1, which would wrap to a negative z.
        with pytest.raises(OverflowError):
            pairs_from_boundaries(np.array([[2**62, 2**62]]))

    def test_no_pairs_keep_their_shape(self):
        pairs = pairs_from_boundaries(np.empty((0, 2), dtype=np.int64))
        assert pairs.shape == (0, 2)
