"""Bivariate normal and log-normal joint models of construct lengths.

The stochastic reading: many small forces add to (raw space) or
multiply (log space) a construct's length in constituents and in
subconstituents, and the two effects correlate imperfectly.  A raw
bivariate normal therefore predicts the hyperbolic Menzerath curve and
a bivariate log-normal predicts the classical power law, via the
regression line of z on x in the respective space.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .copula import _correlated_normals, _rectangle_masses
from .errors import DegenerateVariance, LogOfNonpositive, RhoOutOfRange
from .table import (
    JointFrequencyTable,
    MalCurve,
    Space,
    WeightedMoments,
    _moments,
    weighted_moments,
)

__all__ = [
    "BivariateGaussianParams",
    "Discretize",
    "fit_bivariate",
    "fit_bivariate_pairs",
    "lattice_density",
    "predicted_mal",
    "sample_synthetic",
]


class Discretize(enum.Enum):
    """Post-processing of synthetic draws: keep real, or round and repair."""

    NONE = "none"
    ROUND_CLAMP = "round-clamp"


@dataclass(frozen=True)
class BivariateGaussianParams:
    """Means, sds and correlation of a bivariate (log-)normal joint.

    In log space the fields describe the distribution of (ln x, ln z).
    |rho| = 1 is representable (a collinear fit result), but density
    evaluation and sampling reject it.
    """

    mean_x: float
    mean_z: float
    sd_x: float
    sd_z: float
    rho: float
    space: Space

    def __post_init__(self):
        if self.sd_x <= 0 or self.sd_z <= 0:
            raise DegenerateVariance("sds must be positive")
        if abs(self.rho) > 1.0:
            raise RhoOutOfRange(f"|rho| must be <= 1, got {self.rho}")


def fit_bivariate(table: JointFrequencyTable, space: Space) -> BivariateGaussianParams:
    """Method-of-moments fit in the chosen space.

    Reads the table's weighted moments; raises :class:`DegenerateVariance`
    when either axis has zero spread.
    """
    return _from_moments(weighted_moments(table, space), space)


def _from_moments(m: WeightedMoments, space: Space) -> BivariateGaussianParams:
    rho = m.correlation()
    return BivariateGaussianParams(
        mean_x=m.mean_x, mean_z=m.mean_z, sd_x=m.sd_x, sd_z=m.sd_z, rho=rho, space=space
    )


def fit_bivariate_pairs(pairs, space: Space) -> BivariateGaussianParams:
    """Method-of-moments fit from raw (x, z) pairs, e.g. synthetic draws."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) == 0:
        raise ValueError("pairs must be a nonempty (n, 2) array")
    xs, zs = arr[:, 0], arr[:, 1]
    if space is Space.LOG:
        if np.any(xs <= 0) or np.any(zs <= 0):
            raise LogOfNonpositive("log-space fit needs positive values")
        xs, zs = np.log(xs), np.log(zs)
    return _from_moments(_moments(xs, zs, np.ones(len(xs))), space)


def lattice_density(
    params: BivariateGaussianParams, x_range, z_range, renormalize: bool = True
) -> dict[tuple[int, int], float]:
    """Continuous joint density integrated over unit lattice cells.

    Cell (x, z) receives the probability of [x-1/2, x+1/2] x
    [z-1/2, z+1/2] under the raw bivariate normal, or of the log-mapped
    cell under the log-normal, making cell masses directly comparable
    to empirical relative frequencies.  With ``renormalize`` the masses
    are rescaled to sum to 1 over the requested window.  A gapped window
    is evaluated on its contiguous hull and the requested cells picked.
    """
    if abs(params.rho) >= 1.0:
        raise RhoOutOfRange("density needs |rho| < 1")
    xs = np.asarray(list(x_range), dtype=np.int64)
    zs = np.asarray(list(z_range), dtype=np.int64)
    for name, values in (("x_range", xs), ("z_range", zs)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty")
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(zs) <= 0):
        raise ValueError("x_range and z_range must be strictly ascending")
    if params.space is Space.LOG and (xs[0] - 0.5 <= 0 or zs[0] - 0.5 <= 0):
        raise LogOfNonpositive("log-space lattice needs cell edges > 0")
    # One CDF grid over the cell edges of the hull.
    x_edges = np.arange(xs[0], xs[-1] + 2) - 0.5
    z_edges = np.arange(zs[0], zs[-1] + 2) - 0.5
    if params.space is Space.LOG:
        x_edges = np.log(x_edges)
        z_edges = np.log(z_edges)
    h = (x_edges - params.mean_x) / params.sd_x
    k = (z_edges - params.mean_z) / params.sd_z
    masses = _rectangle_masses(h, k, params.rho)[np.ix_(xs - xs[0], zs - zs[0])]
    if renormalize:
        total = masses.sum()
        if total > 0:
            masses = masses / total
    return {
        (int(x), int(z)): float(masses[i, j])
        for i, x in enumerate(xs)
        for j, z in enumerate(zs)
    }


def predicted_mal(
    params: BivariateGaussianParams, xs, conditional: str = "median"
) -> MalCurve:
    """Menzerath curve implied by the joint model.

    Raw space: the conditional mean E[z | x] is the regression line, so
    y(x) = E[z | x] / x is exactly the hyperbolic curve.  Log space:
    the de-logged regression line is the conditional *median* of z
    given x (the default, matching the closed-form power-law
    derivation); ``conditional="mean"`` multiplies in the log-normal
    mean correction exp(s_z^2 (1 - rho^2) / 2).
    """
    if conditional not in ("median", "mean"):
        raise ValueError("conditional must be 'median' or 'mean'")
    xs = np.asarray(xs, dtype=np.int64)
    xf = xs.astype(float)
    beta = params.rho * params.sd_z / params.sd_x
    if params.space is Space.RAW:
        ez = params.mean_z + beta * (xf - params.mean_x)
        ys = ez / xf
    else:
        alpha = params.mean_z - beta * params.mean_x
        ys = np.exp(alpha) * xf ** (beta - 1.0)
        if conditional == "mean":
            ys = ys * math.exp(0.5 * params.sd_z**2 * (1.0 - params.rho**2))
    return MalCurve(xs=xs, ys=ys, ns=np.ones(len(xs)))


def sample_synthetic(
    params: BivariateGaussianParams,
    n: int,
    seed: int,
    discretize: Discretize = Discretize.NONE,
) -> np.ndarray:
    """Draw n synthetic (x, z) pairs from the joint model.

    Standard-normal pairs come from the documented seeded inverse-CDF
    generator, are correlated as (u1, rho*u1 + sqrt(1-rho^2)*u2),
    scaled and shifted by the parameters, and exponentiated in log
    space.  ROUND_CLAMP then rounds to nearest integers (ties to even)
    and repairs to the segment domain: first clamp x up to 1, then
    clamp z up to x.  Returns an (n, 2) float array, or int64 under
    ROUND_CLAMP.
    """
    if abs(params.rho) >= 1.0:
        raise RhoOutOfRange("sampling needs |rho| < 1")
    u1, u2 = _correlated_normals(n, seed, params.rho)
    xs = params.mean_x + params.sd_x * u1
    zs = params.mean_z + params.sd_z * u2
    if params.space is Space.LOG:
        xs, zs = np.exp(xs), np.exp(zs)
    out = np.column_stack((xs, zs))
    if discretize is Discretize.ROUND_CLAMP:
        out = np.rint(out).astype(np.int64)
        out[:, 0] = np.maximum(out[:, 0], 1)
        out[:, 1] = np.maximum(out[:, 1], out[:, 0])
    return out
