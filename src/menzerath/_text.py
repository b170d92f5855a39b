"""Python's ``repr`` and ``'%.2f'`` of a whole float64 array at once.

:func:`format_repr` and :func:`format_2f` return NUL-padded bytes
arrays (``S24``, wider only for a long ``'%.2f'`` text) whose
``tolist()`` holds, element for element, the bytes of ``repr(v)`` and
``'%.2f' % v``.  Each element is either proved here or formatted by
Python's own ``%``; the bytes are the same either way.

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

Text.  The digits of the chosen integer come from a table of 4-digit
words, and each distinct layout (sign, digit count, and the decimal
point's place or the exponent form) is one gather of source columns.
"""
import functools

import numpy as np

_TOL = 2.0**-44
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter of a 53-bit significand
# repr searches 1e-280 <= |v| <= 1e280, so 10**s has s in [-265, 296].
_POWER_MIN, _POWER_MAX = -266, 297
_MANTISSA = np.uint64((1 << 52) - 1)
_EXPONENT = np.uint64(0x7FF << 52)
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# Values per block: the block's temporaries, about 60 arrays of it,
# stay small next to a chunk of formatted rows.
_BLOCK = 1 << 13
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
    """Text of ``"%04d" % i`` for ``i < 10**4`` as uint32 words, and its trailing zeros.

    Word ``10**4`` is ``b"-.e+"`` and word ``10**4 + 1`` is NULs.
    """
    i = np.arange(10**4)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + 48
    text = np.concatenate([digits.astype(np.uint8).ravel(), np.frombuffer(b"-.e+\0\0\0\0", np.uint8)])
    zeros = np.full(10**4, 4, dtype=np.intp)
    for k in (3, 2, 1, 0):
        zeros[i % 10 ** (k + 1) != 0] = k
    return _frozen(text.view(np.uint32)), _frozen(zeros)


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
    """Source rows for the layouts, and the digit groups of ``m``.

    Row ``i`` is 32 bytes: ``m[i]`` (``0 <= m < 10**17``) as 20
    zero-padded digits, ``exp[i]`` (``0 <= exp < 10**4``) as 4, then
    ``b"-.e+"`` and 4 NULs.  The groups are the 4-digit words of ``m``.
    """
    text = _quads()[0]
    q = np.empty((len(m), 8), dtype=np.intp)
    high = m // 10**8
    low = m - high * 10**8
    top = high // 10**4
    q[:, 0] = top // 10**4
    q[:, 1] = top - q[:, 0] * 10**4
    q[:, 2] = high - top * 10**4
    q[:, 3] = low // 10**4
    q[:, 4] = low - q[:, 3] * 10**4
    q[:, 5] = exp
    q[:, 6] = 10**4
    q[:, 7] = 10**4 + 1
    return text[q].view(np.uint8), q


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


def _row(cols, neg):
    cols = [_MINUS] * neg + cols
    return _frozen(np.array(cols + [_NUL] * (24 - len(cols)), dtype=np.intp))


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
    return _row(cols, neg)


# A '%.2f' key is neg * 21 + width, width the digit count of N, at least 3.
@functools.cache
def _2f_index(key):
    neg, width = divmod(key, 21)
    return _row(list(range(20 - width, 18)) + [_DOT, 18, 19], neg)


def _run(block, spec, values):
    """Text of ``values`` from ``block``, a block at a time; Python's ``spec`` for the rest.

    ``block`` maps a float64 block to its ``(n, 24)`` text rows and a
    mask of the rows it has proved.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out = np.empty(len(v), dtype="S24")
    rows = out.view(np.uint8).reshape(-1, 24)
    sure = np.empty(len(v), dtype=bool)
    for start in range(0, len(v), _BLOCK):
        end = start + _BLOCK
        rows[start:end], sure[start:end] = block(v[start:end])
    pick = np.flatnonzero(~sure)
    if len(pick):
        texts = [(spec % x).encode("ascii") for x in v[pick].tolist()]
        widest = max(map(len, texts))
        if widest > out.itemsize:
            out = out.astype(f"S{widest}")
        out[pick] = texts
    return out


def format_repr(values) -> np.ndarray:
    """``repr`` of each element of a float64 array, as an ``S24`` array."""
    return _run(_repr_block, "%r", values)


def format_2f(values) -> np.ndarray:
    """``'%.2f' % v`` for each element of a float64 array, as bytes (``S24`` or wider)."""
    return _run(_2f_block, "%.2f", values)


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
    neg = (bits >> np.uint64(63)).astype(np.int16)
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
    src, _ = _source(n, 0)
    width = np.maximum(np.searchsorted(_POW10, n, side="right"), 3)
    body = _gather(src, (neg * 21 + width).astype(np.int16), _2f_index)
    return body, sure
