"""The float text kernel and the row formatter that uses it.

The slots of ``_text`` must hold the bytes of Python's ``%d``, ``repr``
and ``'%.2f'``, and ``_text._format_rows`` give the text of a plain
``%``-format of the same rows (``util.ref_format_rows``).
"""

import math
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from menzerath import Domain, _text, build_table, compare
from menzerath._text import _format_rows
from menzerath.report import cells_csv

from util import ref_format_rows

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def _neighbours(v: float, k: int = 3) -> list:
    out = []
    for direction in (0.0, math.inf):
        a = v
        for _ in range(k):
            a = float(np.nextafter(a, direction))
            out.append(a)
    return out


# Zeros, non-finite values, the subnormal and normal extremes, powers of
# two, both sides of the switches between positional and exponent form,
# the '%.2f' ties k/8 (exact) and k/200 (a hair off), and integers past
# 2**56 whose round-trip interval ends exactly on a shorter decimal.
SPECIAL = (
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, np.finfo(float).max]
    + [9.999999999999999e-05, 1e-4, 1e16, 1e-5, 1e15]
    + [2.0**k for k in range(-1074, 1024, 37)]
    + [-(2.0**k) for k in range(-60, 60, 7)]
    + _neighbours(1e-4)
    + _neighbours(1e16)
    + [k / 8 for k in range(-17, 18)]
    + [k / 200 for k in range(-17, 18)]
    + [float(x + 800 * k) for x in (72057594037928192, 72057594037928608) for k in range(4)]
)
FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.sampled_from(SPECIAL),
    st.floats(),
)
TEMPLATES = ("%d,%d,%r,%r", '<rect x="%.2f" y="%.2f" n="%d"/>', "%r|%d|%.2f")
BLOCKS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, _text._BLOCK, 1 << 16])


def _columns(values, template):
    """A column per field: int64 under ``%d``, float64 under the others."""
    v = np.array(values, dtype=np.float64)
    pool = [v, v[::-1].copy()]
    return [
        v.view(np.int64) if field.startswith("d") else pool[i % 2]
        for i, field in enumerate(template.replace("%%", "").split("%")[1:])
    ]


def _check_kernels(v):
    """Each float slot renderer, and ``_format_rows`` of its field, give Python's ``%``."""
    for spec, slots in (("%r", _text.slots_r), ("%.2f", _text.slots_2f)):
        want = [spec % x for x in v.tolist()]
        assert [bytes(row[row != 0]).decode() for row in slots(v)] == want
        assert "\n".join(_format_rows(spec, "\n", v)) == "\n".join(want)


def _with_special_examples(test):
    for block in (1, 7, 1 << 16):
        for template in TEMPLATES:
            test = example(values=SPECIAL, template=template, sep="\n", block=block)(test)
    return test


@given(
    values=st.lists(FLOATS, max_size=40),
    template=st.sampled_from(TEMPLATES),
    sep=st.sampled_from(["\n", "", " "]),
    block=BLOCKS,
)
@_with_special_examples
@settings(max_examples=300, deadline=None)
def test_format_rows_matches_percent_format(values, template, sep, block):
    columns = _columns(values, template)
    with mock.patch.object(_text, "_BLOCK", block):
        assert list(_format_rows(template, sep, *columns)) == list(
            ref_format_rows(template, sep, *columns)
        )


# Other fields (%s, %%, %.3f, %e), and a NUL in a template or separator,
# which would be taken for padding: there is no slot for them.
@pytest.mark.parametrize(
    "row, sep",
    [("%s;%r;%d", "\n"), ("%r%%|%d|%.2f", "\n"), ("%.3f,%r,%d", "\n"), ("%d %.2f %e", "\n"),
     ("%d\0%r", "\n"), ("%d,%r", "\0"), ("\0%.2f|%d", "")],
)
def test_templates_without_slots_are_refused(row, sep):
    columns = _columns(SPECIAL, row)
    with pytest.raises(ValueError):
        list(_format_rows(row, sep, *columns))


INT64 = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from(
        [-(2**63), -(2**63) + 1, 2**63 - 1, 0, 1, -1]
        + [sign * 10**k + d for k in range(19) for sign in (1, -1) for d in (-1, 0, 1)]
    ),
)


@given(
    ints=st.lists(INT64, max_size=40),
    template=st.sampled_from(["%d", "%d,%d,%d", "x=%d;%.2f|%r\t"]),
    sep=st.sampled_from(["\n", "", ", "]),
    block=BLOCKS,
)
@example(ints=[-(2**63), 2**63 - 1, 0, -1, 10**18, -(10**18)], template="%d,%d,%d",
         sep="\n", block=_text._BLOCK)
@settings(max_examples=300, deadline=None)
def test_int_slots_match_percent_format(ints, template, sep, block):
    # Rows of %d fields, and of %d beside float fields, across block edges.
    v = np.array(ints, dtype=np.int64)
    columns = [np.roll(v, i) if field[0] == "d" else v.view(np.float64)
               for i, field in enumerate(template.split("%")[1:])]
    with mock.patch.object(_text, "_BLOCK", block):
        assert list(_format_rows(template, sep, *columns)) == list(
            ref_format_rows(template, sep, *columns)
        )
    assert [bytes(row[row != 0]) for row in _text.slots_d(v)] == [b"%d" % i for i in ints]


@pytest.mark.parametrize("template", ["%d,%d,%r,%r", '<rect w="%.2f" h="%.2f"/>'])
def test_a_column_passed_twice_is_rendered_once(template):
    rng = np.random.default_rng(3)
    n = 3 * _text._BLOCK + 2
    column = rng.integers(-(10**6), 10**6, n) if "%d" in template else rng.random(n) * 1e3
    other = rng.random(n)
    columns = [column, column, other, other][: template.count("%")]
    renders = []

    def counted(render):
        def wrapper(values):
            renders.append(render)
            return render(values)
        return wrapper

    slots = {spec: (dtype, counted(render)) for spec, (dtype, render) in _text._SLOTS.items()}
    with mock.patch.object(_text, "_SLOTS", slots):
        got = list(_format_rows(template, "\n", *columns))
    assert got == list(ref_format_rows(template, "\n", *columns))
    # Four blocks, and per block one render per distinct column.
    assert len(renders) == 4 * len({id(c) for c in columns})


def test_wide_2f_fallback_in_the_middle_of_a_block():
    # 1e15 and up leave the kernel; their text is wider than the slot.
    v = np.random.default_rng(5).random(2 * _text._BLOCK) * 100
    v[[5, _text._BLOCK + 7]] = [1e15, -1.5e300]
    columns = [v, np.arange(len(v))]
    assert list(_format_rows("%.2f|%d", "\n", *columns)) == list(
        ref_format_rows("%.2f|%d", "\n", *columns)
    )
    _check_kernels(v)


@given(st.lists(st.integers(0, 2**64 - 1), max_size=200))
@settings(max_examples=200, deadline=None)
def test_kernels_match_python_on_bit_patterns(bits):
    _check_kernels(np.array(bits, dtype=np.uint64).view(np.float64))


@pytest.mark.parametrize(
    "block, spec, values",
    [
        (_text._2f_block, "%.2f", [0.125, -0.375, math.inf, math.nan, 1e300, -1e15]),
        (_text._repr_block, "%r", [5e-324, -2.5e-300, math.inf, -math.inf, math.nan,
                                   0.5, 1e300]),
    ],
)
def test_fallback_values_are_flagged_and_byte_equal(block, spec, values):
    v = np.array(values)
    _, sure = block(v)
    assert not sure.any()
    assert list(_format_rows(spec, "\n", v)) == ["\n".join(spec % x for x in values)]


def test_empty_and_single_values():
    for spec in ("%r", "%.2f"):
        assert list(_format_rows(spec, "\n", np.array([]))) == []
        assert list(_format_rows(spec, "\n", np.array([0.1]))) == [spec % 0.1]
    assert list(_format_rows("%d,%r", "\n", np.array([], dtype=np.int64), np.array([]))) == []


def test_block_edges():
    rng = np.random.default_rng(7)
    v = rng.random(3 * _text._BLOCK + 5) * 10.0 ** rng.integers(-8, 8, 3 * _text._BLOCK + 5)
    _check_kernels(v)


def test_power_table_error_bound():
    # hi is 10**s correctly rounded, and hi + lo within 2**-106 of 10**s.
    table = _text._powers()
    for i, s in enumerate(range(_text._POWER_MIN, _text._POWER_MAX + 1)):
        hi, lo, hi_hi, hi_lo = map(Fraction, table[i])
        exact = Fraction(10) ** s
        assert float(exact) == float(hi)
        assert abs(hi + lo - exact) <= exact / 2**106
        assert hi_hi + hi_lo == hi


def test_no_probability_of_the_benchmark_table_falls_back():
    cells = workloads.table_cells(1, workloads.TABLE_MAX_X, workloads.TABLE_Z_SPAN)
    table = build_table(((x, z, n) for (x, z), n in cells.items()), Domain.SEGMENTS)
    comparison = compare(table, ["copula", "copula-boundaries"], seed=1)
    seen, flagged = [], []
    block = _text._repr_block

    def spy(values):
        rows, sure = block(values)
        seen.append(len(sure))
        flagged.append(int(np.count_nonzero(~sure)))
        return rows, sure

    with mock.patch.object(_text, "_repr_block", spy):
        text = cells_csv(table, comparison.cells)
    rows = text.splitlines()[1:]
    assert sum(seen) == 2 * len(rows) == 2 * 126320
    assert any(row.endswith(",0.0") for row in rows)  # zeros are included
    assert sum(flagged) == 0
