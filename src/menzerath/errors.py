"""Exception hierarchy shared by all menzerath modules."""

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


class MenzerathError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPair(MenzerathError):
    """A (x, z) pair violates the invariant of its length domain."""


class EmptyInput(MenzerathError):
    """No data rows or pairs were supplied."""


class WrongDomain(MenzerathError):
    """Operation requires the other length domain (segments vs boundaries)."""


class WrongSpace(MenzerathError):
    """Fit carries the wrong space (raw vs log) for this conversion."""


class LogOfNonpositive(MenzerathError):
    """A log-space statistic was requested on nonpositive values."""


class DegenerateVariance(MenzerathError):
    """A required standard deviation is zero."""


class NonpositiveY(MenzerathError):
    """Curve has nonpositive mean lengths; log-space fit undefined."""


class MismatchedSupport(MenzerathError):
    """Two curves are not defined on the identical x values."""


class RhoOutOfRange(MenzerathError):
    """Correlation outside the open interval (-1, 1) where it is required."""


class UOutOfRange(MenzerathError):
    """Quantile argument outside the half-open interval (0, 1]."""


class ParseError(MenzerathError):
    """Malformed input line.

    Carries the 1-based line number and the offending text.
    """

    def __init__(self, line_number: int, text: str, reason: str):
        self.line_number = line_number
        self.text = text
        self.reason = reason
        super().__init__(f"line {line_number}: {reason}: {text!r}")


class EmptyConstituent(MenzerathError):
    """A segmented construct contains an empty unit (adjacent delimiters)."""

    def __init__(self, line_number: int, text: str):
        self.line_number = line_number
        self.text = text
        super().__init__(f"line {line_number}: empty unit in {text!r}")
