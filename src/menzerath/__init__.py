"""Menzerath's law as a property of the joint length distribution.

The package models the relationship between construct length in
constituents (x) and in subconstituents (z) three ways: classical
closed-form curves derived from weighted moments, bivariate normal and
log-normal joint fits, and Gaussian copulas over the empirical
marginals.  Every model yields a predicted Menzerath curve that is
compared against the empirical one by residual sum of squares.

Each module's ``__all__`` is its public API, and the package
republishes those names.
"""

from .boundaries import *  # noqa: F401,F403
from .classical import *  # noqa: F401,F403
from .copula import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .gaussian import *  # noqa: F401,F403
from .ingest import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
from .svgfig import *  # noqa: F401,F403
from .table import *  # noqa: F401,F403

__version__ = "0.1.0"
