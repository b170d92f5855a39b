"""Gaussian copula over empirical discrete marginals.

The copula decouples the joint distribution from the marginals: keep
both empirical marginal distributions exactly as observed and couple
them through a correlated bivariate standard normal.  Knowing the two
marginals and one correlation coefficient fully determines the model.

Cell probabilities are exact rectangle probabilities of the bivariate
normal CDF (:func:`phi2`), so model evaluation never depends on
sampling noise; seeded sampling exists separately as the presentation
path for scatter overlays.
"""

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from ._normals import correlate_pairs, standard_normal_pairs
from .errors import RhoOutOfRange, WrongDomain
from .table import (
    Axis,
    Domain,
    JointFrequencyTable,
    MalCurve,
    MarginalDistribution,
    Space,
    _CellColumns,
    _moments,
    _run_sums,
    marginal,
    weighted_moments,
)

__all__ = [
    "Estimator",
    "GaussianCopulaModel",
    "JointProbabilityTable",
    "phi2",
    "estimate_rho",
    "fit_copula",
    "cell_probabilities",
    "sample_indices",
    "sample_copula",
    "predicted_mal_from_cells",
    "infeasible_mass",
]

# Collinear data would put the copula on its degenerate boundary; the
# estimate is clamped just inside (-1, 1) instead so phi2 stays defined.
RHO_CLAMP = 1.0 - 1e-9


class Estimator(enum.Enum):
    """How the copula correlation is estimated from a frequency table.

    PEARSON_RAW is weighted Pearson on the lengths themselves,
    PEARSON_LOG on their natural logs, and NORMAL_SCORES on
    mid-probability normal scores of each marginal (rank-based, hence
    invariant under monotone relabeling of the support).
    """

    PEARSON_RAW = "pearson-raw"
    PEARSON_LOG = "pearson-log"
    NORMAL_SCORES = "normal-scores"


def phi2(h, k, rho):
    """Standard bivariate normal CDF P(X <= h, Y <= k) at correlation rho.

    Evaluated through the Owen (1956) T-function decomposition with the
    Patefield-Tandy algorithm behind ``scipy.special.owens_t``.  For
    |rho| <= 0.97 the absolute error observed against adaptive
    quadrature is below 1e-14, far inside the 1e-7 documented tolerance.
    Nearer |rho| = 1 the T-function argument ``(k / h - rho) / s``, with
    ``s = sqrt(1 - rho**2)``, cancels where h and k are close, and its
    error grows like eps / s: at ``RHO_CLAMP`` one such point read
    3.9e-13 against 40-digit arithmetic, and no bound is claimed there.
    :func:`fit_copula` never returns |rho| between ``RHO_CLAMP`` and 1.
    Accepts scalars or broadcastable arrays; ``h`` and ``k`` may be
    ``+-inf`` (exact limits) and ``rho`` may be ``+-1`` (degenerate
    comonotone limits).

    Parameters
    ----------
    h, k : float or array_like
        Upper integration limits.
    rho : float or array_like
        Correlation in [-1, 1].

    Returns
    -------
    float or numpy.ndarray
        Rectangle probability, clipped into [0, 1].

    Notes
    -----
    Each entry is claimed by the first case that applies, in a fixed
    order: an infinite limit, ``rho`` of +-1 or 0, ``h = k = 0``,
    ``h = 0``, ``k = 0``, then the general T-function sum.  Each case is
    computed only on the entries it claims, so a case that claims none
    costs nothing.
    """
    h_in, k_in, r_in = np.broadcast_arrays(
        np.asarray(h, dtype=float), np.asarray(k, dtype=float), np.asarray(rho, dtype=float)
    )
    if np.any(np.abs(r_in) > 1.0) or np.any(np.isnan(r_in)):
        raise RhoOutOfRange("phi2 requires |rho| <= 1")
    scalar = h_in.ndim == 0
    hv = np.atleast_1d(h_in).ravel()
    kv = np.atleast_1d(k_in).ravel()
    rv = np.atleast_1d(r_in).ravel()
    out = np.empty(hv.shape)
    done = np.zeros(hv.shape, dtype=bool)

    def claim(mask, branch):
        # The branch sees only the entries it claims.
        take = mask & ~done
        if np.any(take):
            out[take] = branch(hv[take], kv[take], rv[take])
            done[take] = True

    def root(r):
        # sqrt(1 - r^2), as (1 - r)(1 + r) for precision near |r| = 1.
        return np.sqrt((1.0 - r) * (1.0 + r))

    def general(h, k, r):
        s = root(r)
        beta = np.where(h * k < 0.0, 0.5, 0.0)
        return (
            0.5 * (ndtr(h) + ndtr(k))
            - owens_t(h, (k / h - r) / s)
            - owens_t(k, (h / k - r) / s)
            - beta
        )

    claim(np.isneginf(hv) | np.isneginf(kv), lambda h, k, r: 0.0)
    claim(np.isposinf(hv), lambda h, k, r: ndtr(k))
    claim(np.isposinf(kv), lambda h, k, r: ndtr(h))
    claim(rv == 1.0, lambda h, k, r: ndtr(np.minimum(h, k)))
    claim(rv == -1.0, lambda h, k, r: np.maximum(ndtr(h) + ndtr(k) - 1.0, 0.0))
    claim(rv == 0.0, lambda h, k, r: ndtr(h) * ndtr(k))
    # From here on |rho| < 1, so root(r) > 0, and h, k are finite or NaN.
    zero_h, zero_k = hv == 0.0, kv == 0.0
    claim(zero_h & zero_k, lambda h, k, r: 0.25 + np.arcsin(r) / (2.0 * math.pi))
    claim(zero_h, lambda h, k, r: 0.5 * ndtr(k) - owens_t(k, -r / root(r)))
    claim(zero_k, lambda h, k, r: 0.5 * ndtr(h) - owens_t(h, -r / root(r)))
    claim(~done, general)

    out = np.clip(out, 0.0, 1.0)
    if scalar:
        return float(out[0])
    return out.reshape(h_in.shape)


@dataclass(frozen=True)
class GaussianCopulaModel:
    """Copula correlation plus the two empirical marginals it couples."""

    rho: float
    marginal_x: MarginalDistribution
    marginal_z: MarginalDistribution
    estimator: Estimator
    domain: Domain

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise RhoOutOfRange(f"copula needs |rho| < 1, got {self.rho}")

    def support_pairs(self, ix: np.ndarray, iz: np.ndarray) -> np.ndarray:
        """(n, 2) int64 array of the support values at indices ``ix``, ``iz``."""
        pairs = np.column_stack((self.marginal_x.support[ix], self.marginal_z.support[iz]))
        return pairs.astype(np.int64, copy=False)


class JointProbabilityTable(_CellColumns):
    """Model-side joint distribution: probability per (x, z) cell.

    Held as read-only columns ``xs``, ``zs`` (int64) and ``ps`` (float)
    in strictly ascending (x, z) order; ``cells`` is a read-only mapping
    view of them.  The probabilities are non-negative and sum to 1, and
    segment-domain cells have x >= 1.
    """

    __slots__ = ("ps",)
    _VALUE = "ps"

    def __init__(self, domain: Domain, xs, zs, ps):
        xs, zs = np.array(xs, dtype=np.int64), np.array(zs, dtype=np.int64)
        super().__init__(domain, xs, zs, np.array(ps, dtype=float))
        if domain is Domain.SEGMENTS and len(xs) and xs[0] < 1:
            raise ValueError(f"segment-domain cells need x >= 1, got x = {xs[0]}")
        negative = np.flatnonzero(self.ps < 0.0)
        if len(negative):
            i = negative[0]
            key = (int(xs[i]), int(zs[i]))
            raise ValueError(f"negative probability {self.ps[i]} at {key}")
        total = float(self.ps.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"cell probabilities sum to {total}, not 1")


def _normal_scores(m: MarginalDistribution, values: np.ndarray) -> np.ndarray:
    # Mid-probability score of each support value: the normal quantile
    # of (F(v-) + F(v)) / 2, always strictly inside (0, 1).
    edges = m.cdf_edges()
    scores = ndtri((edges[:-1] + edges[1:]) / 2.0)
    return scores[np.searchsorted(m.support, values)]


def estimate_rho(table: JointFrequencyTable, estimator: Estimator) -> float:
    """Correlation coefficient for the copula, by the chosen estimator."""
    if estimator is Estimator.NORMAL_SCORES:
        a = _normal_scores(marginal(table, Axis.X), table.xs)
        b = _normal_scores(marginal(table, Axis.Z), table.zs)
        return _moments(a, b, table.ns.astype(float)).correlation()
    space = Space.RAW if estimator is Estimator.PEARSON_RAW else Space.LOG
    return weighted_moments(table, space).correlation()


def fit_copula(
    table: JointFrequencyTable, estimator: Estimator = Estimator.PEARSON_RAW
) -> GaussianCopulaModel:
    """Estimate rho and couple the table's own marginals with it.

    A collinear or nearly collinear table yields |rho| past 1 - 1e-9,
    which is clamped to 1 - 1e-9 with a warning so the model stays
    evaluable: ``phi2`` loses accuracy faster between the clamp and 1
    than at the clamp itself.
    """
    rho = estimate_rho(table, estimator)
    if abs(rho) > RHO_CLAMP:
        warnings.warn(
            f"|rho| = {abs(rho)} clamped to {RHO_CLAMP} (collinear table)",
            stacklevel=2,
        )
        rho = math.copysign(RHO_CLAMP, rho)
    return GaussianCopulaModel(
        rho=rho,
        marginal_x=marginal(table, Axis.X),
        marginal_z=marginal(table, Axis.Z),
        estimator=estimator,
        domain=table.domain,
    )


def _rectangle_masses(h: np.ndarray, k: np.ndarray, rho: float) -> np.ndarray:
    """Standard bivariate normal mass of every rectangle of an edge grid.

    Entry (i, j) is the mass of ``[h[i], h[i+1]] x [k[j], k[j+1]]``, the
    double difference of :func:`phi2` over the grid.  Cancellation can
    make a difference slightly negative; this is the one place such
    negative mass is clipped to 0.
    """
    grid = phi2(h[:, None], k[None, :], rho)
    return np.maximum(np.diff(np.diff(grid, axis=0), axis=1), 0.0)


def cell_probabilities(model: GaussianCopulaModel) -> JointProbabilityTable:
    """Exact model probability of every cell on the marginal support grid.

    Each cell is the rectangle probability
    ``C(F_x(x), F_z(z)) - C(F_x(x-), F_z(z)) - C(F_x(x), F_z(z-)) +
    C(F_x(x-), F_z(z-))`` with ``C(u, v) = phi2(ndtri(u), ndtri(v),
    rho)``; CDF values of exactly 0 and 1 enter as the exact infinite
    limits.  The rectangle terms telescope, so the grid sums to 1.

    In the segment domain the grid deliberately keeps cells with z < x:
    their mass is a model defect ("infeasible mass") that is reported,
    not renormalized away; see :func:`infeasible_mass`.
    """
    hx = ndtri(model.marginal_x.cdf_edges())
    kz = ndtri(model.marginal_z.cdf_edges())
    probs = _rectangle_masses(hx, kz, model.rho)
    sx, sz = model.marginal_x.support, model.marginal_z.support
    return JointProbabilityTable(
        model.domain, np.repeat(sx, len(sz)), np.tile(sz, len(sx)), probs.ravel()
    )


def sample_indices(
    model: GaussianCopulaModel, n: int, seed: int | np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n cells from the copula model as support indices ``(ix, iz)``.

    Per draw: a correlated standard-normal pair is mapped to uniforms
    through the normal CDF, then to the index of each marginal's
    quantile in its support.  Deterministic given the seed (see
    :mod:`menzerath._normals` for the generator contract).  ``seed`` may
    also be a ``numpy.random.Generator``, whose stream continues, so
    successive calls on one Generator concatenate to a single draw.
    """
    z = standard_normal_pairs(n, seed)
    z1, z2 = correlate_pairs(z, model.rho)
    return (
        model.marginal_x.quantile_index(ndtr(z1)),
        model.marginal_z.quantile_index(ndtr(z2)),
    )


def sample_copula(
    model: GaussianCopulaModel, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Draw n pairs from the copula model as an (n, 2) integer array.

    The support values of :func:`sample_indices` on the same ``seed``:
    each marginal's quantile of its uniform.
    """
    return model.support_pairs(*sample_indices(model, n, seed))


def predicted_mal_from_cells(cells: JointProbabilityTable) -> MalCurve:
    """Menzerath curve implied by a model joint distribution.

    Same summation as the empirical curve, with probabilities in place
    of counts; x columns carrying zero mass are dropped.
    """
    if cells.domain is not Domain.SEGMENTS:
        raise WrongDomain("curve needs segment-domain cells; map boundaries back first")
    xs, p_sum = _run_sums(cells.xs, cells.ps)
    _, z_sum = _run_sums(cells.xs, cells.zs * cells.ps)
    keep = p_sum > 0.0
    xs, p_sum = xs[keep], p_sum[keep]
    return MalCurve(xs=xs, ys=z_sum[keep] / (xs * p_sum), ns=p_sum)


def infeasible_mass(cells: JointProbabilityTable) -> float:
    """Model mass on definitionally impossible segment cells (z < x)."""
    if cells.domain is not Domain.SEGMENTS:
        raise WrongDomain("infeasible mass is a segment-domain diagnostic")
    infeasible = cells.ps[cells.zs < cells.xs]
    # Summed left to right from 0.0, as the builtin sum does.
    return float(np.cumsum(infeasible)[-1] + 0.0) if len(infeasible) else 0.0
