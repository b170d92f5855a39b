"""Closed-form classical models of Menzerath's law.

The hyperbolic model ``y = a/x + b`` is the image of ordinary linear
regression of z on x under the substitution z = x*y, so its parameters
come straight from weighted moments: slope ``beta = rho * s_z / s_x``
and intercept ``alpha = mean_z - beta * mean_x``.  The Altmann model
``y = a * x**(-b)`` is the same construction in log space: regressing
ln z on ln x with slope beta gives ``b = 1 - beta`` and ``a =
exp(intercept)``.

Both fits are computed from the joint table's moments, never by a
generic least-squares solver; a direct unweighted log-log fit of the
Menzerath curve itself (:func:`fit_altmann_direct`) is kept as the
conventional baseline, and the two can legitimately disagree because
they minimize different objectives.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import (
    DegenerateVariance,
    MismatchedSupport,
    NonpositiveY,
    WrongDomain,
    WrongSpace,
)
from .table import (
    Domain,
    JointFrequencyTable,
    MalCurve,
    Space,
    weighted_moments,
)

__all__ = list(_EXPORTS["classical"])


@dataclass(frozen=True)
class LinearFit:
    """Regression line of z on x, in raw or log space."""

    alpha: float
    beta: float
    space: Space

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("linear fit parameters must be finite")


@dataclass(frozen=True)
class HyperbolicFit:
    """Hyperbolic Menzerath model y = a/x + b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("hyperbolic parameters must be finite")

    def predict(self, xs: np.ndarray) -> np.ndarray:
        return self.a / xs + self.b


@dataclass(frozen=True)
class AltmannFit:
    """Power-law Menzerath model y = a * x**(-b), a > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("Altmann parameters must be finite")
        if self.a <= 0:
            raise ValueError("Altmann coefficient a must be positive")

    @property
    def log_a(self) -> float:
        return math.log(self.a)

    def predict(self, xs: np.ndarray) -> np.ndarray:
        return self.a * np.asarray(xs, dtype=float) ** (-self.b)


def fit_linear(table: JointFrequencyTable, space: Space = Space.RAW) -> LinearFit:
    """Moment-based regression of z on x (raw) or ln z on ln x (log).

    Raises :class:`DegenerateVariance` when either variable has zero
    spread and :class:`WrongDomain` for log space on a boundary table.
    """
    if space is Space.LOG and table.domain is not Domain.SEGMENTS:
        raise WrongDomain("log-space regression needs a segment-domain table")
    m = weighted_moments(table, space)
    if m.sd_x == 0.0:
        raise DegenerateVariance("regressor has zero variance (single x value)")
    beta = m.correlation() * m.sd_z / m.sd_x
    alpha = m.mean_z - beta * m.mean_x
    return LinearFit(alpha=alpha, beta=beta, space=space)


def hyperbolic_from_linear(fit: LinearFit) -> HyperbolicFit:
    """Raw-space line reread as the hyperbolic curve y = alpha/x + beta."""
    if fit.space is not Space.RAW:
        raise WrongSpace("hyperbolic parameters come from a raw-space fit")
    return HyperbolicFit(a=fit.alpha, b=fit.beta)


def altmann_from_loglinear(fit: LinearFit) -> AltmannFit:
    """Log-space line de-logged into the power law y = a * x**(-b).

    ``b = 1 - beta``; the intercept is a log-scale quantity, so the
    multiplicative coefficient is ``a = exp(alpha)`` (``log_a`` on the
    result recovers the intercept for reporting).
    """
    if fit.space is not Space.LOG:
        raise WrongSpace("Altmann parameters come from a log-space fit")
    return AltmannFit(a=math.exp(fit.alpha), b=1.0 - fit.beta)


def fit_altmann_direct(curve: MalCurve) -> AltmannFit:
    """Unweighted log-log least squares on the curve points themselves.

    The conventional baseline fit: one point per x, no frequency
    weighting, minimizing the RSS of ln y against ln a - b ln x.
    """
    if len(curve.xs) < 2:
        raise DegenerateVariance("need at least two distinct x values")
    if np.any(curve.ys <= 0):
        raise NonpositiveY("curve has y <= 0; log-log fit undefined")
    lx = np.log(curve.xs.astype(float))
    ly = np.log(curve.ys)
    mx, my = lx.mean(), ly.mean()
    slope = float(np.dot(lx - mx, ly - my) / np.dot(lx - mx, lx - mx))
    return AltmannFit(a=math.exp(my - slope * mx), b=-slope)


def eval_model(fit: HyperbolicFit | AltmannFit, xs) -> MalCurve:
    """Evaluate a fitted model on ascending integer x values."""
    xs = np.asarray(xs, dtype=np.int64)
    ys = fit.predict(xs.astype(float))
    return MalCurve(xs=xs, ys=ys, ns=np.ones(len(xs)))


def rss(empirical: MalCurve, model: MalCurve) -> float:
    """Residual sum of squares between two curves on the same x support."""
    if not np.array_equal(empirical.xs, model.xs):
        raise MismatchedSupport("curves are not defined on identical x values")
    return float(np.sum((empirical.ys - model.ys) ** 2))
