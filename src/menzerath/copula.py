"""Gaussian copula over empirical discrete marginals.

The copula decouples the joint distribution from the marginals: keep
both empirical marginal distributions exactly as observed and couple
them through a correlated bivariate standard normal.  Knowing the two
marginals and one correlation coefficient fully determines the model.

Cell probabilities are exact rectangle probabilities of the bivariate
normal CDF (:func:`phi2`), so model evaluation never depends on
sampling noise; seeded sampling exists separately as the presentation
path for scatter overlays.

The standard bivariate normal that :mod:`menzerath.gaussian` shares is
here too: :func:`phi2`, the rectangle masses and the seeded draw.
"""

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .errors import DegenerateVariance, RhoOutOfRange, WrongDomain
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
    ``s = sqrt(1 - rho**2)``, cancels where k is close to ``rho * h``,
    and its error grows like eps / s: at ``+-RHO_CLAMP`` it stays within
    1e-12 of a 1-D quadrature broken at the integrand's step (tested).
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
    ``h = 0``, ``k = 0``, then the general T-function sum.  The sum is
    taken over the broadcast arguments unless every ``rho`` is 0 or +-1;
    each other case is computed on the arguments it reads, only when it
    claims an entry, and laid over the sum in reverse order, so on a
    grid of limits at one ``rho`` the two ``owens_t`` calls are the only
    work per entry.
    """
    h, k, rho = (np.asarray(a, dtype=float) for a in (h, k, rho))
    if np.any(np.abs(rho) > 1.0) or np.any(np.isnan(rho)):
        raise RhoOutOfRange("phi2 requires |rho| <= 1")
    nh, nk = ndtr(h), ndtr(k)
    zero_h, zero_k = h == 0.0, k == 0.0
    # Where the T-function forms apply; elsewhere a rho case claims.
    bent = (rho != 0.0) & (np.abs(rho) != 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # sqrt(1 - rho^2), as (1 - rho)(1 + rho) for precision near |rho| = 1.
        s = np.sqrt((1.0 - rho) * (1.0 + rho))
        if np.any(bent):
            out = (
                0.5 * (nh + nk)
                - owens_t(h, (k / h - rho) / s)
                - owens_t(k, (h / k - rho) / s)
                - np.where(h * k < 0.0, 0.5, 0.0)
            )
        else:
            out = np.zeros(np.broadcast_shapes(h.shape, k.shape, rho.shape))
        for claims, value in (
            (zero_k & bent, lambda: 0.5 * nh - owens_t(h, -rho / s)),
            (zero_h & bent, lambda: np.where(
                zero_k, 0.25 + np.arcsin(rho) / (2.0 * math.pi), 0.5 * nk - owens_t(k, -rho / s)
            )),
            (rho == 0.0, lambda: nh * nk),
            (rho == -1.0, lambda: np.maximum(nh + nk - 1.0, 0.0)),
            (rho == 1.0, lambda: ndtr(np.minimum(h, k))),
            (np.isposinf(k), lambda: nh),
            (np.isposinf(h), lambda: nk),
            (np.isneginf(k), lambda: 0.0),
            (np.isneginf(h), lambda: 0.0),
        ):
            if np.any(claims):
                out = np.where(claims, value(), out)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _correlated_normals(n: int, seed: int | np.random.Generator, rho: float):
    """n standard normal pairs ``(z1, rho * z1 + sqrt(1 - rho**2) * z2)``.

    Each deviate is the normal quantile of ``(j + 0.5) * 2**-53`` for a
    53-bit j from numpy's PCG64 ``default_rng(seed)``: the same bytes on
    every platform.  For j >= 2**52, ``j + 0.5`` rounds to even, so
    j = 2**53 - 1 gives +inf.  Over 2**53 PCG64 spends one word per
    element and carries no bits between calls, so draws from one
    ``Generator`` passed as ``seed`` concatenate to the one-shot draw,
    bit for bit: ``menzerath sample`` writes its chunks on that.
    """
    j = np.random.default_rng(seed).integers(0, 2**53, size=(int(n), 2), dtype=np.int64)
    z = ndtri((j + 0.5) * 2.0**-53)
    return z[:, 0], rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]


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


def _normal_scores(table: JointFrequencyTable, axis: Axis) -> np.ndarray:
    # Mid-probability score of each cell's value on the axis: the normal
    # quantile of (F(v-) + F(v)) / 2.  Where the CDF has already reached
    # 1 below v, that mid-point is 1 and the score infinite.
    m = marginal(table, axis)
    edges = m.cdf_edges()
    scores = ndtri((edges[:-1] + edges[1:]) / 2.0)
    infinite = np.flatnonzero(np.isinf(scores))
    if len(infinite):
        v = axis.value
        raise DegenerateVariance(
            f"normal scores undefined: the CDF of {v} does not step at "
            f"{v} = {m.support[infinite[0]]}, whose share of the total rounds to 0"
        )
    return scores[np.searchsorted(m.support, table.xs if axis is Axis.X else table.zs)]


def estimate_rho(table: JointFrequencyTable, estimator: Estimator) -> float:
    """Correlation coefficient for the copula, by the chosen estimator."""
    if estimator is Estimator.NORMAL_SCORES:
        a = _normal_scores(table, Axis.X)
        b = _normal_scores(table, Axis.Z)
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


def sample_copula(
    model: GaussianCopulaModel, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Draw n pairs from the copula model as an (n, 2) int64 array.

    Per draw: a correlated standard-normal pair is mapped to uniforms
    through the normal CDF, then to each marginal's quantile of its
    uniform.  Deterministic given the seed (see
    :func:`_correlated_normals` for the generator contract).  ``seed``
    may also be a ``numpy.random.Generator``, whose stream continues, so
    successive calls on one Generator concatenate to a single draw.
    """
    z1, z2 = _correlated_normals(n, seed, model.rho)
    mx, mz = model.marginal_x, model.marginal_z
    pairs = np.column_stack((
        mx.support[mx.quantile_index(ndtr(z1))],
        mz.support[mz.quantile_index(ndtr(z2))],
    ))
    return pairs.astype(np.int64, copy=False)


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
