"""Rows of ``%d``, ``repr`` and ``'%.2f'`` fields, a whole block of columns at once.

:func:`_format_rows` and :func:`_rows_at` give the bytes Python's
``%`` gives for a row template of those fields.  :func:`slots_d`,
:func:`slots_r` and :func:`slots_2f` render a block of an int64 or
float64 array as a uint8 matrix, one row per element, whose bytes
without their NULs are ``b"%d" % v``, ``repr(v)`` or ``b"%.2f" % v``.
Each float element is either proved here or formatted by Python's own
``%`` (:func:`_fallback`); the bytes are the same either way.

Error bounds.  Both texts come from ``N``, the nearest integer to
``x * 10**s`` for ``x = |v|``, and the residual ``r = x * 10**s - N``.
``10**s`` is the pair ``hi + lo`` of :func:`_powers`, within ``2**-106
* 10**s``, and ``x * hi`` is ``p + e`` exactly (Dekker's two-product).
``repr`` takes ``s = 15 - floor(log10(x))``, which puts ``x * 10**s``
in ``[10**15, 10**16)``, or a hair outside where ``log10`` rounds next
to a power of ten.  There ``r`` is ``(p - rint(p)) + e + x * lo`` less
its nearest integer: two roundings of sums below 4, the rounding of
``x * lo`` and the error of ``lo`` keep it within ``2**-50``.  The
17-digit residual ``10 * r`` is within ``2**-46``, and ``h``, half an
ulp of ``x`` on the same scale, within ``2**-51``.  ``'%.2f'`` scales
by the exact ``100.0``, so its one rounding keeps ``r`` within
``2**-52``.  Every decision holds with a margin ``_TOL = 2**-44`` past
these bounds, and an element inside a margin falls back: a tie, or a
decimal on the edge of the round-trip interval.  Each step is its own
numpy ufunc call, which rounds its float64 result, so no step can be
fused into a multiply-add whose single rounding would break Dekker's
split.

Shortest digits.  ``repr`` is the shortest decimal that reads back as
``v`` and, among those, the nearest (David Gay's dtoa, mode 0).  The
decimals that read back lie within ``h`` of ``x * 10**s``, and ``h``
is below 1.25 (checked), so the 16-digit candidates are ``N - 1``,
``N`` and ``N + 1``.  Each p-digit grid is a subset of the
(p + 1)-digit grid, so a candidate inside the interval that ends in 0
is shorter than the others, and wins; otherwise ``N`` does, when it is
inside.  When ``N`` is outside, no 16-digit decimal reads back, and
the nearest 17-digit one, ``10 * N + rint(10 * r)``, is the answer
when it is inside.  A scale one digit off stays exact: a coarser grid
only holds fewer candidates, and a finer one has a larger ``h``, still
checked.  Trailing zeros are stripped.

Left to Python: powers of two, whose interval is lopsided; NaN and
infinities; and ``|v|`` outside ``[1e-280, 1e280]``, where ``hi``,
``lo`` or Dekker's halves would leave the normal range.  Zeros are
written as ``0.0`` or ``-0.0`` directly.  ``'%.2f'`` leaves ``|v| >=
1e15``, NaN and infinities to Python; below ``1e-280`` its ``N`` is 0,
far from any tie, whatever Dekker's split gives there.

Text.  Every text is a slot: a row of bytes whose NULs are padding,
so that :func:`_slot_rows` can place the slots of a row's fields
between its literal text and :func:`_unpadded` drop the padding of a
whole block in one step.  Digits come
from a table of 4-digit words (:func:`_quads`), in three forms: zero
padded, with leading zeros as NULs, and the same keeping the units
digit.  ``%d`` and ``'%.2f'`` are right-aligned slots: the digits of
``|v|`` (of ``N // 100`` for ``'%.2f'``, then the word ``".dd"``) with
their leading zeros as NULs, and ``"-"`` in the first column of a
negative value's row.  ``|v|`` of an int64 is taken as a uint64, so
``-2**63`` is exact.  ``repr`` rows are left-aligned: each distinct
layout (sign, digit count, and the decimal point's place or the
exponent form) is one gather of source columns.
"""
import functools
from itertools import chain

import numpy as np

_TOL = 2.0**-44
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter of a 53-bit significand
# repr searches 1e-280 <= |v| <= 1e280, so 10**s has s in [-265, 296].
_POWER_MIN, _POWER_MAX = -266, 297
_MANTISSA = np.uint64((1 << 52) - 1)
_EXPONENT = np.uint64(0x7FF << 52)
_E4, _E8 = np.uint64(10**4), np.uint64(10**8)
# Rows per block: _format_rows yields one block at a time, so the text and
# temporaries (about 60 arrays of a block) held at once follow it, not the table.
_BLOCK = 1 << 13
# Word offsets in _quads: "%04d" % i is word i; LEAD + i has its leading
# zeros as NULs (LEAD itself is four NULs); UNITS + i keeps the units
# digit; CENTS + i, for i < 100, is ".%02d" and a NUL; SIGNS is "-.e+".
_LEAD, _UNITS, _CENTS = 10**4, 2 * 10**4, 3 * 10**4
_SIGNS = _CENTS + 100
# Columns of a source row (_source): 20 digits, an exponent's 4, then
# the constants; column 0 always holds a "0".
_ZERO, _MINUS, _DOT, _E, _PLUS, _NUL = 0, 24, 25, 26, 27, 28


@functools.cache
def _powers():
    """``10**s`` as ``hi + lo`` for ``s`` in ``[_POWER_MIN, _POWER_MAX]``.

    Returns one row ``(hi, lo, hi_hi, hi_lo)`` per ``s``, indexed by
    ``s - _POWER_MIN``: ``hi`` is ``10**s`` correctly rounded (an exact
    int division), ``lo`` the rounded remainder and ``hi_hi + hi_lo``
    Dekker's split of ``hi``.
    """
    hi, lo = [], []
    for s in range(_POWER_MIN, _POWER_MAX + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    return _frozen(np.stack([hi, np.array(lo), *_split(hi)], axis=1))


@functools.cache
def _quads():
    """The text words (uint32, 4 bytes each) at the offsets above, and trailing zeros.

    The second table is the count of trailing zeros of ``"%04d" % i``.
    """
    i = np.arange(10**4)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + 48
    significant = np.searchsorted([1, 10, 100, 1000], i, side="right")
    column = np.arange(4)
    cents = np.zeros_like(digits)
    cents[:100, 0] = ord(".")
    cents[:100, 1:3] = digits[:100, 2:]
    text = np.concatenate([
        digits,
        np.where(column >= 4 - significant[:, None], digits, 0),
        np.where(column >= 4 - np.maximum(significant, 1)[:, None], digits, 0),
        cents,
    ]).astype(np.uint8)
    text[_SIGNS] = np.frombuffer(b"-.e+", np.uint8)
    zeros = np.full(10**4, 4, dtype=np.intp)
    for k in (3, 2, 1, 0):
        zeros[i % 10 ** (k + 1) != 0] = k
    return _frozen(text.view(np.uint32).ravel()), _frozen(zeros)


def _frozen(a):
    # The cached tables are shared by every call: none may write to them.
    a.setflags(write=False)
    return a


# The rows of repr(0.0) and repr(-0.0).
_ZEROS = _frozen(np.array([b"0.0", b"-0.0"], dtype="S24").view(np.uint8).reshape(2, 24))


def _split(a):
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _nearest(x, s):
    """``N``, ``r`` and ``hi`` with ``x * 10**s = N + r``, ``|r| <= 1/2``, ``hi ~ 10**s``."""
    hi, lo, hi_hi, hi_lo = _powers()[s - _POWER_MIN].T
    p = x * hi
    x_hi, x_lo = _split(x)
    e = ((x_hi * hi_hi - p) + x_hi * hi_lo + x_lo * hi_hi) + x_lo * hi_lo
    n0 = np.rint(p)
    t = ((p - n0) + e) + x * lo
    k = np.rint(t)
    return n0.astype(np.int64) + k.astype(np.int64), t - k, hi


def _source(m, exp):
    """Source rows for the repr layouts, and the digit groups of ``m``.

    Row ``i`` is 32 bytes: ``m[i]`` (``0 <= m < 10**17``) as 20
    zero-padded digits, ``exp[i]`` (``0 <= exp < 10**4``) as 4, then
    ``b"-.e+"`` and 4 NULs.  The groups are the 4-digit words of ``m``.
    """
    q = np.empty((len(m), 8), dtype=np.intp)
    u = m.view(np.uint64)
    high = u // _E8
    low = u - high * _E8
    top = high // _E4
    first, fourth = top // _E4, low // _E4
    q[:, 0], q[:, 1], q[:, 2] = first, top - first * _E4, high - top * _E4
    q[:, 3], q[:, 4] = fourth, low - fourth * _E4
    q[:, 5] = exp
    q[:, 6] = _SIGNS
    q[:, 7] = _LEAD
    return _quads()[0][q].view(np.uint8), q


def _right_aligned(u, neg, tail=None):
    """Slots of ``u`` (uint64) as right-aligned digits with ``"-"`` where ``neg``.

    Leading zeros are NULs, and ``tail``, a word index per row, follows
    the digits.  Only the words that the block's widest row needs are
    made: from the last, word ``r`` takes its LEAD form when ``u <
    10**(4 * (r + 1))``, and the last word its UNITS form when ``u <
    10**4``.
    """
    text = _quads()[0]
    digits = len(str(int(u.max(initial=0))))
    signed = bool(neg.any())
    count = (digits + signed + 3) // 4
    words = [] if tail is None else [text[tail]]
    rest = u
    for r in range(count):
        form = _UNITS if r == 0 else _LEAD
        if r < count - 1:
            high = rest // _E4
            word = (rest - high * _E4).astype(np.intp)
            rest = high
            word += form * (u < np.uint64(10 ** (4 * r + 4)))
        else:
            word = rest.astype(np.intp) + form
        words.append(text[word])
    rows = np.stack(words[::-1], axis=1).view(np.uint8)
    start = 4 * count - digits - signed
    if signed:
        rows[:, start] = neg * ord("-")
    return rows[:, start:]


def _gather(src, keys, index):
    """Row ``i`` of the result is ``src[i, index(keys[i])]``.

    ``keys`` are small non-negative int16s; there is one gather per
    distinct key, over the rows sorted by key.
    """
    counts = np.bincount(keys)
    present = np.flatnonzero(counts)
    if len(present) == 1:
        return src.take(index(int(present[0])), axis=1)
    order = np.argsort(keys, kind="stable")
    rows = src.view("V32").ravel()[order].view(np.uint8).reshape(-1, 32)
    bounds = np.cumsum(counts[present]).tolist()
    part = np.empty((len(src), 24), dtype=np.uint8)
    for key, a, b in zip(present.tolist(), [0] + bounds, bounds):
        part[a:b] = rows[a:b].take(index(key), axis=1)
    out = np.empty_like(part)
    out.view("V24").ravel()[order] = part.view("V24").ravel()
    return out


# A repr key is ((neg * 21 + width) * 21 + ndigits) * 24 + form: the
# sign, the digit count of the integer whose leading ndigits are the
# significant digits, and the form, decpt + 3 for the positional
# decpt in [-3, 16], or 20 + 2 * (exponent < 0) + (3-digit exponent).
_REPR_FORMS = 24


@functools.cache
def _repr_index(key):
    rest, form = divmod(key, _REPR_FORMS)
    rest, nd = divmod(rest, 21)
    neg, width = divmod(rest, 21)
    digits = list(range(20 - width, 20 - width + nd))
    if form < 20:
        decpt = form - 3
        if decpt <= 0:
            cols = [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < nd:
            cols = digits[:decpt] + [_DOT] + digits[decpt:]
        else:
            cols = digits + [_ZERO] * (decpt - nd) + [_DOT, _ZERO]
    else:
        explen = 2 + (form - 20) % 2
        cols = digits[:1] + ([_DOT] + digits[1:] if nd > 1 else [])
        cols += [_E, _MINUS if (form - 20) // 2 else _PLUS]
        cols += list(range(24 - explen, 24))
    cols = [_MINUS] * neg + cols
    return _frozen(np.array(cols + [_NUL] * (24 - len(cols)), dtype=np.intp))


def _fallback(rows, sure, spec, v):
    """``rows`` with Python's ``spec % x``, left-aligned, in each row not ``sure``."""
    pick = np.flatnonzero(~sure)
    if len(pick):
        texts = [(spec % x).encode("ascii") for x in v[pick].tolist()]
        widest = max(map(len, texts))
        if widest > rows.shape[1]:
            rows = np.pad(rows, ((0, 0), (0, widest - rows.shape[1])))
        width = rows.shape[1]
        rows[pick] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return rows


def slots_d(values) -> np.ndarray:
    """``b"%d" % v`` for each element of an int64 array, as slots."""
    v = np.asarray(values)
    # |-2**63| wraps to -2**63, whose uint64 view is 2**63 itself.
    return _right_aligned(np.abs(v).view(np.uint64), v < 0)


def slots_r(values) -> np.ndarray:
    """``repr(v)`` for each element of a float64 array, as slots."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    return _fallback(*_repr_block(v), "%r", v)


def slots_2f(values) -> np.ndarray:
    """``b"%.2f" % v`` for each element of a float64 array, as slots."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    return _fallback(*_2f_block(v), "%.2f", v)


def _repr_block(v):
    bits = v.view(np.uint64)
    neg = (bits >> np.uint64(63)).astype(np.int16)
    x = np.abs(v)
    searched = (x >= 1e-280) & (x <= 1e280) & ((bits & _MANTISSA) != 0)
    # Every element is searched; the others on a stand-in.
    x = np.where(searched, x, 1.5)
    s = 15 - np.floor(np.log10(x)).astype(np.int64)
    n, r, scale = _nearest(x, s)
    # Half an ulp of x, 2**(E - 53), on the scale of N.
    h = ((x.view(np.uint64) & _EXPONENT) - np.uint64(53 << 52)).view(np.float64) * scale
    size = np.abs(r)
    inside = size < h - _TOL
    sure = searched & (h < 1.25)
    sure &= (inside & (size < 0.5 - _TOL)) | (size > h + _TOL)
    # A neighbour of N that ends in 0 and reads back is one digit shorter.
    last = n - n // 10 * 10
    up, down = last == 9, last == 1
    gap = np.where(up, 1.0 - r, 1.0 + r)
    sure &= ~((up | down) & (np.abs(gap - h) <= _TOL))
    step = gap < h
    m = n + (up & step) - (down & step)
    # No 16-digit decimal reads back: the 17-digit nearest one does.
    t = 10.0 * r
    k = np.rint(t)
    sure &= inside | (np.abs(t - k) < np.minimum(0.5, 10.0 * h) - _TOL)
    m = np.where(inside, m, 10 * n + k.astype(np.int64))
    s += ~inside
    sure &= m < 10**17
    m = np.where(sure, m, 10**15)
    width = 15 + (m >= 10**15) + (m >= 10**16)
    decpt = width - s
    exp = decpt - 1
    src, q = _source(m, np.minimum(np.abs(exp), 9999))
    zeros = _quads()[1]
    trailing = zeros[q[:, 4]]
    more = np.flatnonzero(trailing == 4)
    for col in (3, 2, 1):
        trailing[more] += zeros[q[more, col]]
        more = more[trailing[more] == 4 * (5 - col)]
    form = np.where(
        (decpt >= -3) & (decpt <= 16),
        decpt + 3,
        20 + 2 * (exp < 0) + (np.abs(exp) >= 100),
    )
    keys = ((neg * 21 + width) * 21 + (width - trailing)) * _REPR_FORMS + form
    body = _gather(src, keys.astype(np.int16), _repr_index)
    zero = np.flatnonzero(v == 0.0)
    body[zero] = _ZEROS[neg[zero]]
    sure[zero] = True
    return body, sure


def _2f_block(v):
    bits = v.view(np.uint64)
    x = np.abs(v)
    searched = x < 1e15
    x = np.where(searched, x, 0.0)
    # 100 is exact, so x * 100 = p + e with no error at all.
    p = x * 100.0
    x_hi, x_lo = _split(x)
    e = (x_hi * 100.0 - p) + x_lo * 100.0
    n0 = np.rint(p)
    t = (p - n0) + e
    k = np.rint(t)
    sure = searched & (np.abs(t - k) < 0.5 - _TOL)
    n = n0.astype(np.int64) + k.astype(np.int64)
    whole = n // 100
    body = _right_aligned(whole.view(np.uint64), bits >> np.uint64(63), n - whole * 100 + _CENTS)
    return body, sure


# The fields _format_rows renders: the column dtype each needs, and its
# slot renderer.
_SLOTS = {
    "d": (np.int64, slots_d),
    "r": (np.float64, slots_r),
    ".2f": (np.float64, slots_2f),
}


def _slot_template(row: str, sep: str, columns):
    """The literal bytes around ``row``'s fields and each field's renderer.

    The last literal ends with ``sep``.  Raises ``ValueError`` for a
    field other than ``%d``, ``%r`` or ``%.2f`` (``%%`` included), a
    column of another dtype, or a NUL in ``row`` or ``sep``, which would
    be taken for padding.
    """
    if "\0" in row + sep:
        raise ValueError(f"NUL in row {row!r} or separator {sep!r}")
    head, *fields = row.split("%")
    if len(fields) != len(columns):
        raise ValueError(f"row {row!r} has {len(fields)} fields for {len(columns)} columns")
    literals, renders = [head], []
    for field, column in zip(fields, columns):
        spec = ".2f" if field.startswith(".2f") else field[:1]
        if spec not in _SLOTS or column.dtype != _SLOTS[spec][0]:
            raise ValueError(f"no slot for %{field[:3]} of a {column.dtype} column in {row!r}")
        literals.append(field[len(spec):])
        renders.append(_SLOTS[spec][1])
    literals[-1] += sep
    return [text.encode() for text in literals], renders


def _slot_rows(literals, slots) -> np.ndarray:
    """Rows ``literals[0]``, ``slots[0]``, ``literals[1]``, ... as a uint8 matrix.

    Each slot holds one field's text per row with NULs as padding, so
    the text of the rows is the matrix without its NULs (:func:`_unpadded`).
    """
    widths = [slot.shape[1] for slot in slots]
    row = b"".join(chain.from_iterable(zip(literals, map(bytes, widths)))) + literals[-1]
    rows = np.empty((len(slots[0]), len(row)), dtype=np.uint8)
    rows[:] = np.frombuffer(row, dtype=np.uint8)
    at = 0
    for text, slot in zip(literals, slots):
        at += len(text)
        rows[:, at : at + slot.shape[1]] = slot
        at += slot.shape[1]
    return rows


def _unpadded(rows: np.ndarray) -> bytes:
    """The bytes of a :func:`_slot_rows` matrix, row after row, without their NULs."""
    return rows.tobytes().translate(None, b"\0")


def _rows_at(row: str, index, *columns) -> bytes:
    """``row`` filled from element ``i`` of each column, for each ``i`` in ``index``."""
    literals, renders = _slot_template(row, "", columns)
    rows = _slot_rows(literals, [render(c) for render, c in zip(renders, columns)])
    return _unpadded(rows[index])


def _format_rows(row: str, sep: str, *columns):
    """``row`` filled from ``columns`` once per element, joined by ``sep``.

    The text is the bytes Python's ``%`` gives (see :func:`_slot_template`
    for the fields).  Each block of ``_BLOCK`` rows is one :func:`_slot_rows`
    matrix, yielded in order as a ``str``; the blocks join with ``sep``.
    A column passed twice is rendered once.
    """
    literals, renders = _slot_template(row, sep, columns)
    sources = {}
    for render, column in zip(renders, columns):
        sources.setdefault((render, id(column)), (render, column))
    pick = [list(sources).index((render, id(c))) for render, c in zip(renders, columns)]
    sep_size = len(sep.encode())
    for start in range(0, len(columns[0]), _BLOCK):
        slots = [render(c[start : start + _BLOCK]) for render, c in sources.values()]
        text = _unpadded(_slot_rows(literals, [slots[i] for i in pick]))
        # Every row ends with sep, which only joins rows: drop the last.
        yield text[: len(text) - sep_size].decode()
