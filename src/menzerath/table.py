"""Joint frequency tables over construct lengths, and what follows from them.

The central object is the joint distribution of ``(x, z)``: how many
constructs (e.g. words) have exactly ``x`` constituents (e.g. syllables)
and exactly ``z`` subconstituents (e.g. phonemes).  Menzerath's law is a
derived quantity of this table: for each ``x``, the mean constituent
length is ``y(x) = E[z | x] / x``.

Two length domains exist.  In the segment domain a construct has at
least one constituent and every constituent has at least one
subconstituent, so ``x >= 1`` and ``z >= x``.  In the boundary domain
lengths are re-expressed as boundary counts (``x' = x - 1``,
``z' = z - x``), which removes the coupling constraint; both coordinates
may be zero.

All values here are immutable after construction and all operations are
pure functions, so concurrent reads are safe.
"""

import enum
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import (
    DegenerateVariance,
    EmptyInput,
    InvalidPair,
    LogOfNonpositive,
    UOutOfRange,
    WrongDomain,
)

__all__ = list(_EXPORTS["table"])

# Counts live in int64 columns and silent wraparound is forbidden, so
# construction rejects totals beyond signed 64-bit range.
MAX_COUNT = 2**63 - 1
# Integers below this convert to float exactly, so dividing them as
# floats rounds as Python's exact int division does.
_EXACT_INT_FLOAT = 2**53


class Domain(enum.Enum):
    """Length domain of a table: segment counts or boundary counts."""

    SEGMENTS = "segments"
    BOUNDARIES = "boundaries"


class Axis(enum.Enum):
    X = "x"
    Z = "z"


class Space(enum.Enum):
    """Raw lengths or natural-log lengths."""

    RAW = "raw"
    LOG = "log"


def _check_pair(x: int, z: int, domain: Domain) -> None:
    if domain is Domain.SEGMENTS:
        if x < 1:
            raise InvalidPair(f"x must be >= 1 in segment domain, got ({x}, {z})")
        if z < x:
            raise InvalidPair(f"z must be >= x in segment domain, got ({x}, {z})")
    else:
        if x < 0 or z < 0:
            raise InvalidPair(f"boundary counts must be >= 0, got ({x}, {z})")


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer, float)):
        raise InvalidPair(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        what = "fractional" if math.isfinite(value) else "non-finite"
        raise InvalidPair(f"{what} {name}s are rejected, got {value!r}")
    return int(value)


def _as_count(value) -> int:
    n = _as_int(value, "count")
    if n < 1:
        raise InvalidPair(f"count must be >= 1, got {value!r}")
    if n > MAX_COUNT:
        raise OverflowError(f"count {n} exceeds 2**63 - 1")
    return n


def _int_column(values) -> np.ndarray:
    """int64 column, or Python ints when a value does not fit in 64 bits."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _checked_rows(xs, zs, ns, domain: Domain, lines=None):
    """Validated int64 copies of ``(x, z, count)`` integer row columns.

    All rows are checked at once.  The first bad row raises the error a
    row-by-row scan would, an :class:`InvalidPair` or an
    ``OverflowError``, its message prefixed with ``line {lines[i]}:``
    when ``lines`` is given.
    """
    cols = [_int_column(v) for v in (xs, zs, ns)]
    x, z, n = cols
    if domain is Domain.SEGMENTS:
        bad = (x < 1) | (z < x)
    else:
        bad = (x < 0) | (z < 0)
    bad |= n < 1
    for col in cols:
        if col.dtype == object:
            bad |= (col < -MAX_COUNT - 1) | (col > MAX_COUNT)
    if bad.any():
        i = int(np.argmax(bad))
        x, z = int(xs[i]), int(zs[i])
        try:
            _check_pair(x, z, domain)
            _as_count(int(ns[i]))
            raise OverflowError(f"lengths must fit in 64 bits, got ({x}, {z})")
        except (InvalidPair, OverflowError) as exc:
            if lines is None:
                raise
            raise type(exc)(f"line {lines[i]}: {exc}") from None
    return tuple(col.astype(np.int64, copy=False) for col in cols)


def _exact_sum(ns: np.ndarray) -> int:
    """Exact sum of positive int64 counts, as a Python int."""
    # The float sum is far closer than a factor of two to the true sum,
    # so below 2**62 the int64 sum cannot wrap; above it Python ints
    # add exactly.
    if float(ns.sum(dtype=float)) < 2.0**62:
        return int(ns.sum())
    return sum(ns.tolist())


def _check_total(total: int) -> int:
    if total > MAX_COUNT:
        raise OverflowError("total count exceeds 2**63 - 1")
    return total


def _exact_total(ns: np.ndarray) -> int:
    """Exact sum of positive int64 counts; OverflowError past MAX_COUNT."""
    return _check_total(_exact_sum(ns))


def _ascending(xs: np.ndarray, zs: np.ndarray) -> bool:
    """Whether the (x, z) rows ascend strictly."""
    dx, dz = np.diff(xs), np.diff(zs)
    return not np.any((dx < 0) | ((dx == 0) & (dz <= 0)))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in a grouped key column."""
    change = np.ones(len(keys), dtype=bool)
    change[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(change)


def _cell_index(xs: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (x, z) of int64 row columns, ascending, and each row's index into them.

    A packed key ``(x - x_min) * z_span + (z - z_min)`` of at most
    ``4 * rows + 1024`` values (reckoned in Python ints, so it cannot
    wrap) marks the cells in a lookup array; wider rows take one lexsort.
    """
    x_min, z_min = int(xs.min()), int(zs.min())
    z_span = int(zs.max()) - z_min + 1
    span = (int(xs.max()) - x_min + 1) * z_span
    if span <= 4 * len(xs) + 1024:
        key = (xs - x_min) * z_span + (zs - z_min)
        present = np.zeros(span, dtype=bool)
        present[key] = True
        cells = np.flatnonzero(present)
        lut = np.empty(span, dtype=np.intp)
        lut[cells] = np.arange(len(cells))
        return cells // z_span + x_min, cells % z_span + z_min, lut[key]
    order = np.lexsort((zs, xs))
    xs, zs = xs[order], zs[order]
    change = np.ones(len(xs), dtype=bool)
    change[1:] = (xs[1:] != xs[:-1]) | (zs[1:] != zs[:-1])
    index = np.empty(len(xs), dtype=np.intp)
    index[order] = np.cumsum(change) - 1
    starts = np.flatnonzero(change)
    return xs[starts], zs[starts], index


def _axis_counts(values: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a grouped column and each run's count sum, exact in int64."""
    starts = _run_starts(values)
    return values[starts], np.add.reduceat(ns, starts)


def _run_sums(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of grouped ``keys`` and the float sum of each run.

    Each run is summed left to right from 0.0, as a Python loop does, so
    the sums match such a loop bit for bit (numpy's reductions sum
    pairwise).  Runs of one length are summed together as matrix rows.
    """
    starts = _run_starts(keys)
    lengths = np.diff(np.append(starts, len(keys)))
    sums = np.empty(len(starts))
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        pick = np.flatnonzero(lengths == length)
        block = values[starts[pick, None] + np.arange(length)]
        # Adding 0.0 last equals starting from 0.0: either way only an
        # all -0.0 run changes, to 0.0.
        sums[pick] = np.cumsum(block, axis=1)[:, -1] + 0.0
    return keys[starts], sums


class CellView(Mapping):
    """Read-only ``(x, z) -> value`` mapping over sorted cell columns.

    ``len`` is O(1), a lookup is a binary search, and iteration walks
    the cells in ascending (x, z) order.  It serves tests and small
    callers; the statistics read the columns.
    """

    __slots__ = ("_xs", "_zs", "_values")

    def __init__(self, xs: np.ndarray, zs: np.ndarray, values: np.ndarray):
        self._xs, self._zs, self._values = xs, zs, values

    def __len__(self) -> int:
        return len(self._xs)

    def __iter__(self):
        return zip(self._xs.tolist(), self._zs.tolist())

    def __getitem__(self, key):
        try:
            x, z = key
            lo = int(np.searchsorted(self._xs, x, side="left"))
            hi = int(np.searchsorted(self._xs, x, side="right"))
            i = lo + int(np.searchsorted(self._zs[lo:hi], z))
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if i < hi and self._zs[i] == z:
            return self._values[i].item()
        raise KeyError(key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class _CellColumns:
    """Immutable cells in strictly ascending (x, z) order, as columns.

    ``xs`` and ``zs`` (int64) key the cells and the column a subclass
    names in ``_VALUE`` holds their values.  A subclass checks its values
    and stores what it derives through :meth:`_set`, which freezes arrays.
    """

    __slots__ = ("domain", "xs", "zs")
    _VALUE: str

    def __init__(self, domain: Domain, xs: np.ndarray, zs: np.ndarray, values: np.ndarray):
        self._check_lengths(xs, zs, values)
        if not _ascending(xs, zs):
            raise ValueError("cells must be strictly ascending in (x, z)")
        self._set(domain=domain, xs=xs, zs=zs, **{self._VALUE: values})

    def _check_lengths(self, xs, zs, values) -> None:
        if not len(xs) == len(zs) == len(values):
            raise ValueError(f"cell columns of unequal length: {len(xs)} xs, {len(zs)} zs, "
                             f"{len(values)} {self._VALUE}")

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.domain, self.xs, self.zs, getattr(self, self._VALUE))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(domain={self.domain}, cells={len(self.xs)})"

    @property
    def cells(self) -> CellView:
        """Read-only ``(x, z) -> value`` view of the columns."""
        return CellView(self.xs, self.zs, getattr(self, self._VALUE))


class JointFrequencyTable(_CellColumns):
    """Counts over (x, z) pairs: the empirical joint length distribution.

    The table is three read-only int64 columns ``xs``, ``zs`` and
    ``ns``, one entry per distinct cell in strictly ascending (x, z)
    order with every count >= 1, their exact ``total``, each axis's
    ascending distinct values, ``support_x`` and ``support_z``, and
    their marginal counts, ``counts_x`` and ``counts_z``.  All are
    computed and checked once, at construction.
    ``cells`` is a read-only mapping view of the columns.  The table also
    keeps the :class:`WeightedMoments` of each :class:`Space` once
    :func:`weighted_moments` has computed them.

    Build one from unordered ``(x, z, count)`` rows with
    :func:`build_table`; the constructor takes integer columns that are
    already in strictly ascending (x, z) order.
    """

    __slots__ = ("ns", "total", "support_x", "support_z", "counts_x", "counts_z",
                 "_moments_by_space")
    _VALUE = "ns"

    def __init__(self, domain: Domain, xs, zs, ns):
        self._check_lengths(xs, zs, ns)
        if len(xs) == 0:
            raise EmptyInput("table has no cells")
        super().__init__(domain, *_checked_rows(xs, zs, ns, domain))
        total = _exact_total(self.ns)
        order = np.argsort(self.zs, kind="stable")
        sx, cx = _axis_counts(self.xs, self.ns)
        sz, cz = _axis_counts(self.zs[order], self.ns[order])
        self._set(total=total, support_x=sx, support_z=sz, counts_x=cx, counts_z=cz,
                  _moments_by_space={})

    def __eq__(self, other):
        if not isinstance(other, JointFrequencyTable):
            return NotImplemented
        return self.domain is other.domain and all(
            np.array_equal(a, b)
            for a, b in ((self.xs, other.xs), (self.zs, other.zs), (self.ns, other.ns))
        )

    __hash__ = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only (xs, zs, counts) columns, in ascending cell order."""
        return self.xs, self.zs, self.ns


def _sum_rows(xs, zs, ns):
    """Distinct (x, z) of int64 row columns, ascending, and their summed counts.

    The counts must total at most ``MAX_COUNT``, so no int64 sum can wrap.
    """
    cell_xs, cell_zs, index = _cell_index(xs, zs)
    sums = np.zeros(len(cell_xs), dtype=np.int64)
    np.add.at(sums, index, ns)
    return cell_xs, cell_zs, sums


class _Cells:
    """Valid ``(x, z, count)`` int64 columns, summed into one table.

    Columns arrive a block at a time and are summed as soon as the rows
    held are more than twice the rows of the last sum, so memory follows
    the table and one block, not the input, and the sums take time
    linear in the rows added.  Once the exact total passes 2**63 - 1 no
    more rows are held and :meth:`table` raises, so that an error on a
    later line is still the one reported.
    """

    def __init__(self, domain: Domain, empty: str):
        self.domain = domain
        self.empty = empty  # the EmptyInput message of a table without rows
        self.columns = []  # int64 (xs, zs, ns) columns
        self.rows = 0  # rows held in columns
        self.summed = 0  # rows after the last sum
        self.total = 0  # exact sum of the counts added; every count is >= 1

    def add(self, xs: np.ndarray, zs: np.ndarray, ns: np.ndarray) -> None:
        self.total += _exact_sum(ns)
        if len(xs) and self.total <= MAX_COUNT:
            self.columns.append((xs, zs, ns))
            self.rows += len(xs)
            if self.rows > 2 * self.summed:
                self._sum()

    def _sum(self) -> None:
        self.columns = [_sum_rows(*map(np.concatenate, zip(*self.columns)))]
        self.rows = self.summed = len(self.columns[0][0])

    def table(self) -> JointFrequencyTable:
        if not self.total:
            raise EmptyInput(self.empty)
        _check_total(self.total)
        if self.rows > self.summed:
            self._sum()
        return JointFrequencyTable(self.domain, *self.columns[0])


def build_table(pairs, domain: Domain) -> JointFrequencyTable:
    """Build a :class:`JointFrequencyTable` from ``(x, z, count)`` rows.

    Rows with equal ``(x, z)`` are aggregated by summing their counts.
    Raises :class:`InvalidPair` when a value is not an integer (a bool,
    a fraction, NaN or infinity) or a pair violates the domain
    invariant, and :class:`EmptyInput` when nothing is supplied.
    """
    cells = _Cells(domain, "no pairs supplied")
    rows = [(_as_int(x, "x"), _as_int(z, "z"), _as_count(n)) for x, z, n in pairs]
    if rows:
        cells.add(*_checked_rows(*zip(*rows), domain))
    return cells.table()


@dataclass(frozen=True, eq=False)
class MarginalDistribution:
    """Discrete marginal over one axis of a joint table.

    ``support`` is strictly ascending, ``pmf`` holds the probability of
    each support value (all > 0, summing to 1), and ``cdf`` is the
    cumulative distribution with its final entry set to exactly 1.
    """

    support: np.ndarray
    pmf: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        sizes = (len(self.support), len(self.pmf), len(self.cdf))
        if not 0 < sizes[0] == sizes[1] == sizes[2]:
            raise ValueError(f"support, pmf and cdf need one length >= 1, got {sizes}")
        # Each check is written so that NaN fails it.
        if not np.all(np.diff(self.support) > 0):
            raise InvalidPair("support must be strictly ascending")
        if not np.all(self.pmf > 0):
            raise InvalidPair("pmf values must be positive")
        if not abs(float(self.pmf.sum()) - 1.0) <= 1e-12:
            raise InvalidPair("pmf must sum to 1")
        if not np.all(np.diff(self.cdf) >= 0) or self.cdf[-1] != 1.0:
            raise InvalidPair("cdf must be nondecreasing and end at exactly 1")
        for arr in (self.support, self.pmf, self.cdf):
            arr.setflags(write=False)

    def __reduce__(self):
        # A copy re-runs the constructor's checks and comes back read-only.
        return type(self), (self.support, self.pmf, self.cdf)

    @classmethod
    def from_counts(cls, values, counts) -> "MarginalDistribution":
        """From integer values and their counts (each >= 1), in any order."""
        values = np.array([_as_int(v, "value") for v in values], dtype=np.int64)
        counts = np.array([_as_count(n) for n in counts], dtype=np.int64)
        if len(values) != len(counts):
            raise ValueError(f"{len(values)} values for {len(counts)} counts")
        if not len(values):
            raise EmptyInput("a marginal needs at least one value")
        order = np.argsort(values)
        return cls._of_sorted(values[order], counts[order], _exact_total(counts))

    @classmethod
    def _of_sorted(cls, values, counts, total: int) -> "MarginalDistribution":
        """From ascending int64 values and their counts, which sum to ``total``."""
        # Python ints divide exactly and round once; float64 would round
        # each count and the total first once the total passes 2**53.
        pmf = (counts.astype(object) / total).astype(float)
        # A running sum may round above 1 before its end; 1 bounds it.
        cdf = np.minimum(np.cumsum(pmf), 1.0)
        cdf[-1] = 1.0
        return cls(support=values, pmf=pmf, cdf=cdf)

    def cdf_edges(self) -> np.ndarray:
        """CDF including the zero level below the first support value."""
        return np.concatenate(([0.0], self.cdf))

    @functools.cached_property
    def _guide(self) -> np.ndarray:
        """Guide table of :meth:`quantile_index`, built on first use.

        ``K + 1`` entries for a power of two ``K`` of at least
        ``16 * len(cdf)`` and 1024.  Entry ``b`` is the index that every
        ``u`` in ``[b/K, (b+1)/K)`` maps to when no CDF value falls in
        that bin, and -1 when one does.  ``b/K`` is exact, and so is
        ``floor(u * K)``, since ``K`` is a power of two.  Bin ``K``
        holds ``cdf[-1] == 1.0``, so it is always -1.
        """
        k = 1 << max(10, (16 * len(self.cdf) - 1).bit_length())
        below = np.searchsorted(self.cdf, np.arange(k + 2) / k, side="left")
        guide = np.where(below[:-1] == below[1:], below[:-1], -1)
        guide.setflags(write=False)
        return guide

    def quantile_index(self, u: np.ndarray) -> np.ndarray:
        """Right-continuous generalized inverse of the CDF, as support indices.

        Each ``u`` maps to the index of the smallest support value whose
        cumulative probability reaches it, ``searchsorted(cdf, u,
        side="left")``.  Defined for ``0 < u <= 1``.  The index is read
        from a guide table whose size follows the support (at most
        ``max(1025, 32 * len(cdf))`` entries): ``u`` in a bin that holds
        no CDF value reads its index there, and only the rest are searched.
        """
        u = np.asarray(u, dtype=float)
        if np.any(~((u > 0.0) & (u <= 1.0))):  # NaN fails both
            raise UOutOfRange("all u must satisfy 0 < u <= 1")
        flat = u.ravel()
        index = self._guide[(flat * (len(self._guide) - 1)).astype(np.intp)]
        open_bins = np.flatnonzero(index < 0)
        if len(open_bins):
            index[open_bins] = np.searchsorted(self.cdf, flat[open_bins], side="left")
        return index.reshape(u.shape)[()]  # a scalar for 0-d u, as searchsorted gives


@dataclass(frozen=True)
class WeightedMoments:
    """Population means, sds and correlation of x and z under count weights.

    In log space an axis holding a value <= 0 has no moments: its mean
    and sd are ``None``.  ``rho`` is ``None`` when an axis has no
    moments or zero variance; :meth:`correlation` raises there instead.
    """

    mean_x: float | None
    mean_z: float | None
    sd_x: float | None
    sd_z: float | None
    rho: float | None

    def correlation(self) -> float:
        """``rho``, or the error that leaves it undefined."""
        # Only boundary counts reach 0 (segment lengths are >= 1).
        for axis, mean, zero in (
            ("x", self.mean_x, "x' = x - 1 of a one-constituent construct"),
            ("z", self.mean_z, "z' = z - x of a construct with z = x"),
        ):
            if mean is None:
                raise LogOfNonpositive(
                    f"log_{axis} undefined: the boundary counts hold the zero {zero}; "
                    "use the rank-based --estimator normal-scores, not --log-copula"
                )
        if self.rho is None:
            raise DegenerateVariance(
                "correlation undefined: a variable has zero variance"
            )
        return self.rho


@dataclass(frozen=True, eq=False)
class MalCurve:
    """Menzerath curve: mean constituent length per construct length.

    ``xs`` is strictly ascending; ``ys`` holds the mean constituent
    length at each x; ``ns`` the weights (construct counts for empirical
    curves, probability mass for model curves, 1 for evaluated models).
    """

    xs: np.ndarray
    ys: np.ndarray
    ns: np.ndarray

    def __post_init__(self):
        if len(self.xs) == 0:
            raise EmptyInput("curve has no points")
        if not np.all(np.diff(self.xs) > 0):
            raise InvalidPair("curve x values must be strictly ascending")
        if not np.all(self.ns > 0):  # NaN fails
            raise InvalidPair("curve weights must be positive")
        for arr in (self.xs, self.ys, self.ns):
            arr.setflags(write=False)

    def __reduce__(self):
        return type(self), (self.xs, self.ys, self.ns)

    @property
    def points(self) -> list[tuple[int, float, float]]:
        return [
            (int(x), float(y), float(n))
            for x, y, n in zip(self.xs, self.ys, self.ns)
        ]


def marginal(table: JointFrequencyTable, axis: Axis) -> MarginalDistribution:
    """Project the joint table onto one axis, from the counts it keeps."""
    if axis is Axis.X:
        return MarginalDistribution._of_sorted(table.support_x, table.counts_x, table.total)
    return MarginalDistribution._of_sorted(table.support_z, table.counts_z, table.total)


def empirical_mal_curve(table: JointFrequencyTable) -> MalCurve:
    """Menzerath curve of a segment-domain table.

    For each construct length x the curve holds
    ``y(x) = sum_z z * n(x, z) / (x * sum_z n(x, z))`` and the weight
    ``n(x) = sum_z n(x, z)``.  The sums are exact integers.
    """
    if table.domain is not Domain.SEGMENTS:
        raise WrongDomain("Menzerath curve needs a segment-domain table; convert first")
    xs, zs, ns, n_sum = table.support_x, table.zs, table.ns, table.counts_x
    # z >= x, so max(z) * total bounds every sum and product below.
    if int(table.support_z[-1]) * table.total >= _EXACT_INT_FLOAT:
        # Python ints: exact at any size, and their division rounds once.
        xs, zs, ns, n_sum = (a.astype(object) for a in (xs, zs, ns, n_sum))
    z_sum = np.add.reduceat(zs * ns, _run_starts(table.xs))
    return MalCurve(
        xs=table.support_x,
        ys=np.asarray(z_sum / (xs * n_sum), dtype=float),
        ns=np.asarray(n_sum, dtype=float),
    )


def _mean_var(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    # Population convention (divide by total count), which makes the
    # closed-form regression identities exact.  Every weighted moment in
    # the package comes from here.
    if values.min() == values.max():
        # A constant has no spread, but with huge weights the weighted
        # average can miss it by an ulp and leave a spurious variance.
        return float(values[0]), 0.0
    mean = float(np.average(values, weights=weights))
    var = float(np.average((values - mean) ** 2, weights=weights))
    return mean, var


def _moments(a, b, weights: np.ndarray) -> WeightedMoments:
    """Moments of two value columns; ``None`` marks a column without them."""
    ma, va = _mean_var(a, weights) if a is not None else (None, None)
    mb, vb = _mean_var(b, weights) if b is not None else (None, None)
    rho = None
    if va and vb:
        cov = float(np.average((a - ma) * (b - mb), weights=weights))
        rho = float(np.clip(cov / math.sqrt(va * vb), -1.0, 1.0))
    sd_a = None if va is None else math.sqrt(va)
    sd_b = None if vb is None else math.sqrt(vb)
    return WeightedMoments(mean_x=ma, mean_z=mb, sd_x=sd_a, sd_z=sd_b, rho=rho)


def _axis_values(column: np.ndarray, space: Space) -> np.ndarray | None:
    if space is Space.RAW:
        return column.astype(float)
    if np.any(column <= 0):
        return None
    return np.log(column.astype(float))


def weighted_moments(
    table: JointFrequencyTable, space: Space = Space.RAW
) -> WeightedMoments:
    """Means, sds and Pearson correlation of x and z (or their natural logs).

    One pass over the table: each axis's mean and variance once, then
    the covariance once.  Population convention, cell counts as weights.
    Log space needs positive values (x = z = 1 is fine, ln 1 = 0); see
    :class:`WeightedMoments` for what stays undefined.  The pass runs once
    per table and space; later calls return the moments the table keeps.
    """
    memo = table._moments_by_space
    if space not in memo:
        memo[space] = _moments(
            _axis_values(table.xs, space), _axis_values(table.zs, space), table.ns
        )
    return memo[space]
