"""Frequency-table files and segmented corpora."""

import io
import os
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from menzerath import ingest
from menzerath import (
    CorpusFormat,
    Domain,
    EmptyConstituent,
    EmptyInput,
    InvalidPair,
    ParseError,
    build_table,
    parse_frequency_table,
    parse_segmented_corpus,
    write_frequency_table,
)
from util import ref_corpus, ref_frequency_table

DATA = Path(__file__).resolve().parent.parent / "data"

table_strategy = st.builds(
    lambda cells, boundaries: build_table(
        [
            ((x, x + dz, n) if not boundaries else (x - 1, dz, n))
            for (x, dz), n in cells.items()
        ],
        Domain.BOUNDARIES if boundaries else Domain.SEGMENTS,
    ),
    cells=st.dictionaries(
        keys=st.tuples(st.integers(1, 7), st.integers(0, 9)),
        values=st.integers(1, 99),
        min_size=1,
        max_size=12,
    ),
    boundaries=st.booleans(),
)


class TestParseFrequencyTable:
    def test_header_and_aggregation(self):
        t = parse_frequency_table("x,z,count\n2,5,10\n2,5,5\n")
        assert t.cells == {(2, 5): 15}
        assert t.domain is Domain.SEGMENTS

    def test_non_integer_field(self):
        with pytest.raises(ParseError) as err:
            parse_frequency_table("1,2,one\n")
        assert err.value.line_number == 1

    def test_invalid_pair_reports_line(self):
        with pytest.raises(InvalidPair, match="line 1"):
            parse_frequency_table("3,2,1\n")

    def test_tabs_comments_blank_lines_crlf(self):
        text = "# a comment\r\nx\tz\tcount\r\n\r\n2\t5\t4\r\n2\t6\t1\r\n"
        t = parse_frequency_table(text)
        assert t.cells == {(2, 5): 4, (2, 6): 1}

    def test_domain_directive(self):
        t = parse_frequency_table("#domain=boundaries\n0,0,7\n")
        assert t.domain is Domain.BOUNDARIES
        assert t.cells == {(0, 0): 7}

    def test_directive_after_data_rejected(self):
        with pytest.raises(ParseError, match="precede"):
            parse_frequency_table("1,2,3\n#domain=boundaries\n0,0,7\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="3 fields"):
            parse_frequency_table("1,2\n")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_frequency_table("# nothing\n\n")

    def test_count_of_zero_rejected(self):
        with pytest.raises(InvalidPair, match="line 2"):
            parse_frequency_table("1,2,3\n1,3,0\n")

    def test_accepts_iterable_of_lines(self):
        t = parse_frequency_table(iter(["x,z,count\n", "2,5,1\n"]))
        assert t.cells == {(2, 5): 1}

    @given(table_strategy)
    @settings(max_examples=80)
    def test_round_trip(self, table):
        text = write_frequency_table(table)
        back = parse_frequency_table(text)
        assert back.cells == table.cells
        assert back.domain is table.domain
        assert back.total == table.total
        # Canonical writes are idempotent.
        assert write_frequency_table(back) == text

    def test_order_insensitive(self):
        a = parse_frequency_table("1,2,3\n2,5,4\n1,4,1\n")
        b = parse_frequency_table("1,4,1\n1,2,3\n2,5,4\n")
        assert a.cells == b.cells


class TestWriteFrequencyTable:
    def test_canonical_format(self):
        t = build_table([(2, 5, 1), (1, 2, 3)], Domain.SEGMENTS)
        assert write_frequency_table(t) == "x,z,count\n1,2,3\n2,5,1\n"

    def test_boundary_directive_emitted(self):
        t = build_table([(0, 0, 2)], Domain.BOUNDARIES)
        assert write_frequency_table(t) == "#domain=boundaries\nx,z,count\n0,0,2\n"


class TestParseSegmentedCorpus:
    def test_chars_mode(self):
        t = parse_segmented_corpus("men-ze-rath\n")
        assert t.cells == {(3, 9): 1}

    def test_single_character_construct(self):
        t = parse_segmented_corpus("a\n")
        assert t.cells == {(1, 1): 1}

    def test_adjacent_delimiters(self):
        with pytest.raises(EmptyConstituent) as err:
            parse_segmented_corpus("ab--cd\n")
        assert err.value.line_number == 1

    def test_leading_delimiter(self):
        with pytest.raises(EmptyConstituent):
            parse_segmented_corpus("ok\n-ab\n")

    def test_counts_accumulate(self):
        t = parse_segmented_corpus("ab-cd\nab-cd\nxyz\n")
        assert t.cells == {(2, 4): 2, (1, 3): 1}

    def test_blank_lines_and_comments_skipped(self):
        t = parse_segmented_corpus("# corpus\n\nab\n\n")
        assert t.cells == {(1, 2): 1}

    def test_combining_diacritics_count_once(self):
        # 'a' + combining acute is one grapheme cluster.
        t = parse_segmented_corpus("pá-la\n")
        assert t.cells == {(2, 4): 1}

    def test_delimited_mode(self):
        fmt = CorpusFormat(subconstituent_delimiter=".")
        t = parse_segmented_corpus("m.en-z.e.r", fmt)
        assert t.cells == {(2, 5): 1}

    def test_delimited_mode_empty_unit(self):
        fmt = CorpusFormat(subconstituent_delimiter=".")
        with pytest.raises(EmptyConstituent):
            parse_segmented_corpus("a..b\n", fmt)

    def test_segment_invariant_always_holds(self):
        t = parse_segmented_corpus("a-b-c\nquite-long-words\nx\n")
        for x, z in t.cells:
            assert 1 <= x <= z

    def test_empty_corpus(self):
        with pytest.raises(EmptyInput):
            parse_segmented_corpus("# nothing here\n")

    def test_order_insensitive(self):
        a = parse_segmented_corpus("ab-c\nde\n")
        b = parse_segmented_corpus("de\nab-c\n")
        assert a.cells == b.cells


class TestCorpusFormat:
    def test_delimiters_must_differ(self):
        with pytest.raises(ValueError):
            CorpusFormat(constituent_delimiter="-", subconstituent_delimiter="-")

    def test_comment_prefix_collision(self):
        with pytest.raises(ValueError):
            CorpusFormat(constituent_delimiter="#")

    def test_single_character_only(self):
        with pytest.raises(ValueError):
            CorpusFormat(constituent_delimiter="--")

    @pytest.mark.parametrize("field", ["constituent_delimiter",
                                       "subconstituent_delimiter"])
    def test_newline_is_not_a_delimiter(self, field):
        # Lines are split at "\n" first, so no line can hold it.
        with pytest.raises(ValueError, match="which ends lines"):
            CorpusFormat(**{field: "\n"})

    @pytest.mark.parametrize("field", ["constituent_delimiter",
                                       "subconstituent_delimiter"])
    @pytest.mark.parametrize("space", [" ", "\t", "\u3000"])
    def test_whitespace_is_not_a_delimiter(self, field, space):
        # A line is stripped before it is split, so a whitespace
        # delimiter at either end would make no empty unit.
        with pytest.raises(ValueError, match="cannot be whitespace"):
            CorpusFormat(**{field: space})


def _as_table(cells):
    return build_table([(x, z, n) for (x, z), n in cells.items()], Domain.SEGMENTS)


def _outcome(parse, source):
    try:
        table = parse(source)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return table.domain, dict(table.cells)


def _pieces(text):
    """The ``\\n``-terminated pieces of a text, and its unterminated tail."""
    return re.findall(r".*\n|.+", text)


def _carriers(text):
    """The same text as a string, a text stream, two iterables of its
    lines and an open file."""
    yield text
    yield io.StringIO(text, newline="")
    yield [text]
    yield iter(_pieces(text))
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as out:
            out.write(text)
        with open(path, encoding="utf-8", newline="") as stream:
            yield stream
    finally:
        os.remove(path)


# Line breaks for str.splitlines besides "\n"; a universal-newlines
# stream breaks at "\r" as well.
_ODD_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_table_lines = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(1, 9)).map(
        lambda t: f"{t[0]},{t[0] + t[1]},{t[2]}"
    ),
    st.text(alphabet="#x,z01" + _ODD_BREAKS, max_size=8).map(lambda s: "#" + s),
    st.text(alphabet="12,\t" + _ODD_BREAKS, max_size=8),
)
_corpus_lines = st.text(alphabet="ab-é#" + _ODD_BREAKS, max_size=10)


@st.composite
def _texts(draw, lines):
    body = draw(st.lists(lines, min_size=1, max_size=8))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                            min_size=len(body), max_size=len(body)))
    text = "".join(line + end for line, end in zip(body, endings))
    return text + draw(st.sampled_from(["", "\r", "x"]))


class TestCarriers:
    """Strings, streams, iterables and files split lines at ``\\n`` alone."""

    def test_line_separator_inside_a_line(self):
        text = "ab-c\u2028d-ef"
        assert parse_segmented_corpus(text).cells == {(3, 7): 1}
        stream = io.StringIO(text, newline="")
        assert parse_segmented_corpus(stream).cells == {(3, 7): 1}

    @given(_texts(_table_lines))
    @settings(max_examples=80)
    def test_frequency_table_carriers_agree(self, text):
        outcomes = [_outcome(parse_frequency_table, c) for c in _carriers(text)]
        assert outcomes == [outcomes[0]] * 5

    @given(_texts(_corpus_lines))
    @settings(max_examples=80)
    def test_corpus_carriers_agree(self, text):
        outcomes = [_outcome(parse_segmented_corpus, c) for c in _carriers(text)]
        assert outcomes == [outcomes[0]] * 5


# Spaces that str.strip removes but \X counts as plain code points.
_PLAIN_SPACES = [" ", "\u3000", "\xa0", "\u2009", "\u202f"]
# One code point of every grapheme cluster break class (CR and LF come
# as line ends), a conjunct consonant and its virama (GB9c), the
# delimiter, a delimiter before an extender, the comment prefix, a
# byte-order mark and several kinds of space.
_CLUSTER_ALPHABET = [
    "a",  # Other: a plain code point
    "\u0301",  # Extend
    "\u200d",  # ZWJ
    "\u0903",  # SpacingMark
    "\u0600",  # Prepend
    "\t",  # Control
    "\ufeff",  # Control, and not a space to str.strip
    "\u1100", "\u1161", "\u11a8", "\uac00", "\uac01",  # L, V, T, LV, LVT
    "\U0001f1e6",  # Regional_Indicator
    "\U0001f600",  # Extended_Pictographic
    "\u0915",  # InCB=Consonant
    "\u094d",  # InCB=Linker
    "-", "-\u0301", "#", *_PLAIN_SPACES, "\r", "\r\n", "\n",
]
# Lines made of these alone can be counted without \X, so half of the
# texts are drawn from them.
_PLAIN_ALPHABET = ["a", "b", "\u0301", "\u200d", "\u0903", "\u094d", "-", "-\u0301",
                   *_PLAIN_SPACES, "\n"]
# Delimited mode splits on the two delimiters alone, whatever the
# grapheme classes of the code points around them.
_DELIMITED_ALPHABET = ["a", "b", "\u0301", "\u0915", "\ufeff", "-", ".", "#",
                       *_PLAIN_SPACES, "\t", "\r", "\r\n", "\n"]
_cluster_texts = st.one_of(
    st.lists(st.sampled_from(alphabet), max_size=40).map("".join)
    for alphabet in (_CLUSTER_ALPHABET, _PLAIN_ALPHABET)
)


def _line_carriers(text):
    """The text as a string, a ``newline=""`` stream, an iterable of its
    ``str.splitlines`` lines, an iterable whose one item holds every
    line and an iterable of its ``\\n``-terminated pieces."""
    return (text, io.StringIO(text, newline=""),
            iter(text.splitlines(keepends=True)), [text], iter(_pieces(text)))


class TestBlocks:
    """Block-streamed ingest against line-by-line references.

    The block constant is patched small, so lines and ``\\r\\n`` pairs
    cross block edges.
    """

    @given(_cluster_texts, st.integers(1, 12))
    @example("a-\u0301b\n\u0301a\na \u0301-b\n", 1 << 16)  # extenders opening units
    @example("\u0915\u094d\u0937-a\r\nab-\u1100\u1161\r\r\nx\r", 5)
    @example("a-b\na--b\n", 1 << 16)  # an empty unit after a plain line
    @example("ab-c\u0301\n\u0915\u094d\u0937-a\nd-e\n", 1 << 16)  # Latin, Devanagari
    @example("a\n \xa0\t\n\u3000\nb-c\n", 1 << 16)  # whitespace-only lines
    # Repeated lines that take \X, summed within a block and across blocks.
    @example("\u0915\u094d\u0937-a\n\uac00\u0301\n\u0915\u094d\u0937-a\n" * 3, 1 << 16)
    @example("\u0915\u094d\u0937-a\n\uac00\u0301\n\u0915\u094d\u0937-a\n" * 3, 7)
    @settings(max_examples=300, deadline=None)
    def test_corpus_matches_cluster_reference(self, text, block):
        with mock.patch.object(ingest, "_BLOCK", block):
            for source, reference in zip(_line_carriers(text), _line_carriers(text)):
                got = _outcome(parse_segmented_corpus, source)
                want = _outcome(lambda s: _as_table(ref_corpus(s)), reference)
                assert got == want, (text, block)

    @given(st.lists(st.sampled_from(_DELIMITED_ALPHABET), max_size=40).map("".join),
           st.integers(1, 12))
    @example("m.en-z.e.r\n.a\na.\na-.b\na.-b\n", 1 << 16)  # units at every edge
    @example("a.b\n# c..d\n \t\n a-b \na..b\n", 1 << 16)  # an empty unit last
    @settings(max_examples=300, deadline=None)
    def test_delimited_corpus_matches_split_reference(self, text, block):
        fmt = CorpusFormat(subconstituent_delimiter=".")
        with mock.patch.object(ingest, "_BLOCK", block):
            for source, reference in zip(_line_carriers(text), _line_carriers(text)):
                got = _outcome(lambda s: parse_segmented_corpus(s, fmt), source)
                want = _outcome(
                    lambda s: _as_table(ref_corpus(s, subdelimiter=".")), reference
                )
                assert got == want, (text, block)

    @pytest.mark.parametrize("fmt", [
        CorpusFormat(), CorpusFormat(subconstituent_delimiter="."),
    ], ids=["chars", "delimited"])
    def test_plain_lines_are_counted_without_line_key(self, fmt):
        # A fallback that kept the table but lost the screen fails here.
        with mock.patch.object(ingest, "_line_key", wraps=ingest._line_key) as line_key:
            with open(DATA / "syllables_synthetic.txt", encoding="utf-8",
                      newline="") as stream:
                parse_segmented_corpus(stream, fmt)
        assert line_key.call_count == 0

    def test_line_key_counts_only_the_lines_that_need_it(self):
        text = "ka-t\u0301a\n\u0915\u094d\u0937-\u0915\u093e\n" * 40
        with mock.patch.object(ingest, "_line_key", wraps=ingest._line_key) as line_key:
            t = parse_segmented_corpus(text)
        assert line_key.call_count == 40
        assert t.cells == {(2, 4): 40, (2, 2): 40}

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    def test_conjunct_is_one_cluster(self, block):
        # GB9c: consonant + virama + consonant is one cluster, although
        # the virama alone is an extender.
        with mock.patch.object(ingest, "_BLOCK", block):
            assert parse_segmented_corpus("\u0915\u094d\u0937-a").cells == {(2, 2): 1}

    def test_space_before_an_extender_is_a_cluster(self):
        # Stripping comes before extenders are set aside: " \u0301" is a
        # cluster of its own.
        assert parse_segmented_corpus("a \u0301\n").cells == {(1, 2): 1}

    def test_item_with_a_newline_reads_as_the_string(self):
        lines = ["ab-c\n", "d\ne-f\r\n", "g"]
        got = _outcome(parse_segmented_corpus, lines)
        assert got == _outcome(parse_segmented_corpus, "".join(lines))
        assert got == (Domain.SEGMENTS, {(2, 3): 1, (1, 1): 2, (2, 2): 1})

    @pytest.mark.parametrize("items, want", [
        (["1,1,1", "1,2,3\n2,3,4", "x"],
         (ParseError, "line 4: expected 3 fields, got 1: 'x'")),
        (["x,z,count\n", "1,1,1\n", "2,3,4\n2,3,4\n", "1,1,1"],
         (Domain.SEGMENTS, {(1, 1): 2, (2, 3): 8})),
        (["1,1,1\n2,2,2"], (Domain.SEGMENTS, {(1, 1): 1, (2, 2): 2})),
    ])
    def test_table_item_with_a_newline_reads_as_the_string(self, items, want):
        text = "\n".join(item.removesuffix("\n") for item in items)
        got = _outcome(parse_frequency_table, items)
        assert got == _outcome(parse_frequency_table, text) == want

    @given(_texts(st.one_of(
        _table_lines,
        st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(1, 9),
                  st.integers(0, 3)).map(
            lambda t: f"{t[0]:0{t[3] + 1}d},{t[0] + t[1]},{t[2]}"
        ),
        st.sampled_from([
            "x,z,count", "#domain=boundaries", "0,0,1", "3,2,1", "1,2,0", "1,2",
            "1,2,-3", "1,2,+3", "1,2,1_0", "1,2,\u0663", " 1 , 2 , 3 ",
            "1,2,1234567890123456789", "1,2,9999999999999999999",
            "1,1,000000000000000001",
        ]),
    )), st.integers(1, 24))
    @example("1,1,1\n1,2,3\n# c\n2,3,4\n2,2,1\n", 1 << 16)  # two strict runs, a comment
    @example("1,1,1\n 1, 2, 3\n2,3,4\n", 1 << 16)  # a spaced row between two runs
    @example("1,1,1\n1\t2\t3\n2,3,4\n", 1 << 16)  # a tab row between two runs
    @settings(max_examples=300, deadline=None)
    def test_table_matches_row_reference(self, text, block):
        with mock.patch.object(ingest, "_BLOCK", block):
            for source, reference in zip(_line_carriers(text), _line_carriers(text)):
                got = _outcome(parse_frequency_table, source)
                want = _outcome(ref_frequency_table, reference)
                assert got == want, (text, block)

    @pytest.mark.parametrize("bad, error", [
        ("1,2", ParseError),      # malformed
        ("3,2,1", InvalidPair),   # z < x
        ("1,2,0", InvalidPair),   # zero count
        ("1,2,99999999999999999999", OverflowError),  # count past int64
        ("99999999999999999999,99999999999999999999,1", OverflowError),  # x
        ("1,99999999999999999999,1", OverflowError),  # z past int64
    ])
    def test_bad_row_past_the_first_block_keeps_its_line(self, bad, error):
        rows = [f"{x},{x + 1},{x}" for x in range(1, 60)]
        rows[41] = bad
        text = "# header\nx,z,count\n" + "\n".join(rows)
        with mock.patch.object(ingest, "_BLOCK", 64):
            with pytest.raises(error, match="line 44"):
                parse_frequency_table(io.StringIO(text, newline=""))
        with pytest.raises(error, match="line 44"):
            ref_frequency_table(text)

    @pytest.mark.parametrize("block", [16, 1 << 16])
    @pytest.mark.parametrize("bad, error", [
        ("1,2", ParseError),      # malformed
        ("3,2,1", InvalidPair),   # z < x
    ])
    def test_row_error_after_the_total_overflows(self, bad, error, block):
        # Row errors come before the total's overflow, even when the
        # running total has passed 2**63 - 1 before the bad row is read.
        rows = "1,1,999999999999999999\n" * 10
        text = rows + bad + "\n"
        with mock.patch.object(ingest, "_BLOCK", block):
            with pytest.raises(error, match="^line 11: "):
                parse_frequency_table(text)
            assert _outcome(parse_frequency_table, text) == \
                _outcome(ref_frequency_table, text)
            with pytest.raises(OverflowError, match="total count exceeds"):
                parse_frequency_table(rows)

    def test_memory_follows_the_block_not_the_rows(self):
        # Repeated rows from a generator that is never held whole: the
        # peak of a 300k-row parse is that of a 30k-row one.
        rows = ["1,1,3\n", "1,2,1\n", "2,2,5\n", "2,4,2\n"]
        peaks = []
        for n in (30_000, 300_000):
            tracemalloc.start()
            try:
                table = parse_frequency_table(rows[i % 4] for i in range(n))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            k = n // 4
            assert table.cells == {(1, 1): 3 * k, (1, 2): k, (2, 2): 5 * k,
                                   (2, 4): 2 * k}
        assert peaks[1] - peaks[0] < 1 << 20, peaks

    def test_strict_body_without_final_newline_and_crlf(self):
        text = "x,z,count\r\n007,0010,3\r\n1,1,999999999999999999\r\n1,1,1"
        with mock.patch.object(ingest, "_BLOCK", 8):
            t = parse_frequency_table(io.StringIO(text, newline=""))
        assert t.cells == {(7, 10): 3, (1, 1): 10**18}
