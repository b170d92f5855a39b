"""Reformulation in terms of segment boundaries.

A construct with x constituents has x' = x - 1 constituent boundaries,
and its z subconstituents contain z' = z - x subconstituent boundaries
that are not constituent boundaries (a word with 2 syllables and 7
phonemes has one syllable boundary and five phoneme boundaries).  The
transform removes the definitionally forbidden region z < x: boundary
counts are free nonnegative integers, so a copula fitted in boundary
space and mapped back can place no mass on impossible cells.
"""

import numpy as np

from .copula import (
    Estimator,
    GaussianCopulaModel,
    JointProbabilityTable,
    cell_probabilities,
    fit_copula,
)
from .errors import WrongDomain
from .table import MAX_COUNT, Domain, JointFrequencyTable

__all__ = [
    "to_boundaries",
    "from_boundaries",
    "cells_from_boundaries",
    "pairs_from_boundaries",
    "boundary_copula_cells",
]


def to_boundaries(table: JointFrequencyTable) -> JointFrequencyTable:
    """Map each segment cell (x, z) to the boundary cell (x-1, z-x)."""
    if table.domain is not Domain.SEGMENTS:
        raise WrongDomain("to_boundaries needs a segment-domain table")
    # The shear keeps ascending (x, z) order, so the columns stay sorted.
    xs, zs = table.xs, table.zs
    return JointFrequencyTable(Domain.BOUNDARIES, xs - 1, zs - xs, table.ns)


def _segment_columns(xs: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (x', z') -> (x' + 1, z' + x' + 1), refusing to wrap past int64.
    if len(xs) and int(xs.max()) + int(zs.max()) + 1 > MAX_COUNT:
        raise OverflowError("segment lengths exceed 2**63 - 1")
    return xs + 1, zs + xs + 1


def from_boundaries(table: JointFrequencyTable) -> JointFrequencyTable:
    """Exact inverse of :func:`to_boundaries`."""
    if table.domain is not Domain.BOUNDARIES:
        raise WrongDomain("from_boundaries needs a boundary-domain table")
    return JointFrequencyTable(
        Domain.SEGMENTS, *_segment_columns(table.xs, table.zs), table.ns
    )


def cells_from_boundaries(cells: JointProbabilityTable) -> JointProbabilityTable:
    """Map model cells from boundary space back to segment space.

    Every image cell satisfies z >= x by construction, so the mapped
    model carries zero infeasible mass.
    """
    if cells.domain is not Domain.BOUNDARIES:
        raise WrongDomain("cells_from_boundaries needs boundary-domain cells")
    return JointProbabilityTable(
        Domain.SEGMENTS, *_segment_columns(cells.xs, cells.zs), cells.ps
    )


def pairs_from_boundaries(pairs: np.ndarray) -> np.ndarray:
    """Map sampled boundary pairs (x', z') to segment pairs (x, z)."""
    pairs = np.asarray(pairs)
    return np.column_stack(_segment_columns(pairs[:, 0], pairs[:, 1]))


def boundary_copula_cells(
    table: JointFrequencyTable, estimator: Estimator = Estimator.PEARSON_RAW
) -> tuple[JointProbabilityTable, GaussianCopulaModel]:
    """Full boundary pipeline: fit, compute cells, map back to segments.

    Returns the mapped segment-domain cells together with the fitted
    boundary-space model.
    """
    model = fit_copula(to_boundaries(table), estimator)
    return cells_from_boundaries(cell_probabilities(model)), model
