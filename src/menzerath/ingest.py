"""Reading and writing joint frequency tables.

Two input carriers exist: delimited frequency-table files (rows of
``x, z, count``) and segmented text corpora (one construct per line,
constituents split by a delimiter).  Segmentation itself is the user's
input; no syllabification or morphological analysis happens here.
Both are read in blocks of whole lines, and each block's rows or keys
are summed into the table as the parse goes, so a parse holds one block
of the input at a time besides the table it builds.
"""

import functools
import io
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from ._text import _format_rows
from .errors import EmptyConstituent, EmptyInput, ParseError
from .table import Domain, JointFrequencyTable, _Cells, _checked_rows

__all__ = list(_EXPORTS["ingest"])

COMMENT_PREFIX = "#"
_DOMAIN_DIRECTIVES = {
    "#domain=segments": Domain.SEGMENTS,
    "#domain=boundaries": Domain.BOUNDARIES,
}
# Characters per read: the memory a parse needs follows this constant,
# not the size of the input.
_BLOCK = 1 << 16
# Flags of a code point in a parse's kind table; one without a flag is
# plain.
_EXTENDER, _DELIMITER, _SUBDELIMITER, _OTHER, _SPACE, _COMMENT = 1, 2, 4, 8, 16, 32
_UNSEEN = 128
# A run of strict table rows: unsigned ASCII digits, at most 18 of them,
# so every value fits in int64 and numpy reads it as int() would.
_STRICT_RUN = re.compile(r"(?m)^((?:[0-9]{1,18},[0-9]{1,18},[0-9]{1,18}\n)+)")


@functools.cache
def _unicode_patterns():
    """``(grapheme, plain, extender)`` patterns, compiled on first use.

    Only a corpus parse needs them, so a table parse never loads
    ``regex``.  ``grapheme`` matches extended grapheme clusters, so
    combining diacritics common in phonetic transcription count as one
    subconstituent, not two.  ``plain`` and ``extender`` are code point
    classes from the same Unicode data as ``\\X``.  A plain code point
    always starts a cluster and an extender never does (it joins the
    cluster before it).  Every other code point (controls, CR and LF,
    Prepend, Hangul jamo, regional indicators, pictographs, and conjunct
    consonants, which join across a virama under GB9c) can join or split
    clusters in other ways.
    """
    import regex

    return (
        regex.compile(r"\X"),
        regex.compile(r"[\p{GCB=Other}--\p{ExtPict}--\p{InCB=Consonant}]", regex.V1),
        regex.compile(r"[\p{GCB=Extend}\p{GCB=SpacingMark}\p{GCB=ZWJ}]"),
    )


@dataclass(frozen=True)
class CorpusFormat:
    """How segmented corpus lines are split into units.

    ``constituent_delimiter`` separates constituents within a construct.
    ``subconstituent_delimiter`` of ``None`` selects character mode
    (every grapheme cluster is one subconstituent); a character selects
    delimited mode (subconstituents are explicitly marked, e.g. ``.``).
    Neither may be ``\n``, which ends lines, ``#``, or any other
    whitespace (``str.isspace``), which is stripped from both ends of a
    line before it is split.
    """

    constituent_delimiter: str = "-"
    subconstituent_delimiter: str | None = None

    def __post_init__(self):
        delims = [self.constituent_delimiter]
        if self.subconstituent_delimiter is not None:
            delims.append(self.subconstituent_delimiter)
        for d in delims:
            if len(d) != 1:
                raise ValueError(f"delimiter must be a single character, got {d!r}")
            if d == "\n":
                raise ValueError("delimiters cannot be '\\n', which ends lines")
            if d.isspace():
                raise ValueError(
                    f"delimiters cannot be whitespace, which is stripped from "
                    f"line ends, got {d!r}"
                )
        if len(set(delims)) != len(delims) or COMMENT_PREFIX in delims:
            raise ValueError("delimiters must be distinct from each other and from '#'")


def _blocks(stream):
    """Text blocks of about ``_BLOCK`` characters, each whole lines.

    Each line ends in ``\n``; a parser numbers the lines itself.  Lines
    end at ``\n`` only, less one ``\r``: a string and a text stream
    split the same way (``str.splitlines`` and a universal-newlines
    stream would also split at ``\r``, U+2028 and other separators).  A
    string or stream comes ``_BLOCK`` characters at a time, any other
    iterable an item at a time, each item one line; a block is cut after
    the last ``\n`` once it holds ``_BLOCK`` characters.  An item is text
    like any other, so a ``\n`` inside it ends a line as it does in a
    string.
    """
    if isinstance(stream, str):
        chunks = (stream[i : i + _BLOCK] for i in range(0, len(stream), _BLOCK))
    elif isinstance(stream, io.TextIOBase):
        chunks = iter(lambda: stream.read(_BLOCK), "")
    else:
        chunks = (item if item.endswith("\n") else item + "\n" for item in stream)
    pieces, size = [], 0
    for chunk in chunks:
        pieces.append(chunk)
        size += len(chunk)
        cut = chunk.rfind("\n") + 1
        if size < _BLOCK or not cut:
            continue
        pieces[-1] = chunk[:cut]
        # Most text holds no "\r": the search is far cheaper than the copy.
        text = "".join(pieces)
        yield text.replace("\r\n", "\n") if "\r" in text else text
        pieces, size = [chunk[cut:]], len(chunk) - cut
    last = "".join(pieces)
    last = last.replace("\r\n", "\n") if "\r" in last else last
    if last:
        yield last if last.endswith("\n") else last.removesuffix("\r") + "\n"


def _scan_rows(first: int, lines, cells: _Cells) -> None:
    """Add ``lines`` row by row; raise the error of the first malformed one."""
    xs, zs, ns, numbers = [], [], [], []
    failure = None
    for number, line in enumerate(lines, start=first):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(COMMENT_PREFIX):
            directive = stripped.replace(" ", "").lower()
            if directive in _DOMAIN_DIRECTIVES:
                if cells.total or numbers:
                    failure = ParseError(
                        number, line, "domain directive must precede data"
                    )
                    break
                cells.domain = _DOMAIN_DIRECTIVES[directive]
            continue
        sep = "\t" if "\t" in stripped else ","
        fields = [f.strip() for f in stripped.split(sep)]
        if not (cells.total or numbers) and (
            [f.lower() for f in fields] == ["x", "z", "count"]
        ):
            continue
        if len(fields) != 3:
            failure = ParseError(number, line, f"expected 3 fields, got {len(fields)}")
            break
        try:
            x, z, n = map(int, fields)
        except ValueError:
            failure = ParseError(number, line, "fields must be integers")
            break
        xs.append(x)
        zs.append(z)
        ns.append(n)
        numbers.append(number)
    # The rows before a malformed line are checked first, so the error
    # reported is always the one on the earliest bad line.
    cells.add(*_checked_rows(xs, zs, ns, cells.domain, lines=numbers))
    if failure is not None:
        raise failure


def parse_frequency_table(stream) -> JointFrequencyTable:
    """Parse ``x, z, count`` rows (comma or tab separated) into a table.

    Accepts a string, a text stream or an iterable of lines; lines end
    at ``\n``, and a ``\n`` inside an item ends a line as it does in a
    string.  An optional header row ``x,z,count`` is skipped, ``#``
    lines are comments, and a ``#domain=boundaries`` directive before
    the data switches the domain (segments is the default).  Rows with
    equal (x, z) are aggregated.  Raises :class:`ParseError` with the
    1-based line number on malformed rows, :class:`InvalidPair` on
    domain violations, and :class:`EmptyInput` when no data rows are
    present.
    """
    cells = _Cells(Domain.SEGMENTS, "no data rows in input")
    first = 1
    for text in _blocks(stream):
        # Text alternates gaps and runs of strict rows.  A run is converted
        # in one numpy call; a gap (header, comments, directive, any other
        # row) goes row by row.
        for i, piece in enumerate(_STRICT_RUN.split(text)):
            if i % 2:
                values = np.fromstring(piece[:-1].replace("\n", ","), np.int64, sep=",")
                xs, zs, ns = values.reshape(-1, 3).T
                numbers = range(first, first + len(xs))
                cells.add(*_checked_rows(xs, zs, ns, cells.domain, lines=numbers))
                first += len(xs)
            else:
                lines = piece.split("\n")[:-1]
                _scan_rows(first, lines, cells)
                first += len(lines)
    return cells.table()


def write_frequency_table(table: JointFrequencyTable) -> str:
    """Canonical CSV: header, ascending (x, z), newline terminated.

    Boundary-domain tables carry the ``#domain=boundaries`` directive,
    so :func:`parse_frequency_table` round-trips every table exactly.
    """
    head = ["#domain=boundaries"] if table.domain is Domain.BOUNDARIES else []
    rows = _format_rows("%d,%d,%d", "\n", table.xs, table.zs, table.ns)
    return "\n".join([*head, "x,z,count", *rows]) + "\n"


def _count_subconstituents(
    constituent: str, fmt: CorpusFormat, number: int, line: str
) -> int:
    if fmt.subconstituent_delimiter is None:
        grapheme, _, _ = _unicode_patterns()
        return len(grapheme.findall(constituent))
    parts = constituent.split(fmt.subconstituent_delimiter)
    if any(not p for p in parts):
        raise EmptyConstituent(number, line)
    return len(parts)


def _line_key(number: int, line: str, stripped: str, fmt: CorpusFormat):
    """``(x, z)`` of one construct line, counted unit by unit."""
    constituents = stripped.split(fmt.constituent_delimiter)
    if any(not c for c in constituents):
        raise EmptyConstituent(number, line)
    z = sum(_count_subconstituents(c, fmt, number, line) for c in constituents)
    return len(constituents), z


class _CodeKinds:
    """Flags of every code point, classified on first sight in a parse.

    A lookup table over all of Unicode, so a block's flags are one
    gather.  Each delimiter carries its own flag whatever its grapheme
    class, since no constituent holds it; ``\\n`` carries none, since
    it only ends lines.
    """

    def __init__(self, fmt: CorpusFormat):
        self.delimiters = {fmt.constituent_delimiter: _DELIMITER}
        if fmt.subconstituent_delimiter is not None:
            self.delimiters[fmt.subconstituent_delimiter] = _SUBDELIMITER
        self.table = np.full(sys.maxunicode + 1, _UNSEEN, dtype=np.uint8)
        self.table[ord("\n")] = 0

    def __call__(self, units: np.ndarray) -> np.ndarray:
        flags = self.table.take(units)
        unseen = flags == _UNSEEN
        if unseen.any():
            for code in np.unique(units[unseen]).tolist():
                self.table[code] = self._classify(chr(code))
            flags = self.table.take(units)
        return flags

    def _classify(self, char: str) -> int:
        flags = _SPACE if char.isspace() else 0
        if char == COMMENT_PREFIX:
            flags |= _COMMENT
        if char in self.delimiters:
            return flags | self.delimiters[char]
        _, plain, extender = _unicode_patterns()
        if plain.fullmatch(char):
            return flags
        return flags | (_EXTENDER if extender.fullmatch(char) else _OTHER)


def _screen(
    flags: np.ndarray, starts: np.ndarray, ends: np.ndarray, fmt: CorpusFormat
):
    """Keys of the lines a block's flags count, and the other lines' indices.

    A line is counted from its flags unless it is a comment, its first
    or last code point is a space (so ``strip`` changes it), or it may
    hold an empty unit or one that \\X counts otherwise: it opens with a
    code point that cannot open a unit (a delimiter; in chars mode an
    extender too), ends with a delimiter, holds a delimiter followed by
    such a code point, or, in chars mode, holds an other code point.
    The others are returned in line order, blank lines left out.  A
    counted line has x = delimiters + 1 and z = length - delimiters -
    extenders in chars mode (one cluster per plain code point), or
    z = subconstituent delimiters + x in delimited mode.
    """
    chars = fmt.subconstituent_delimiter is None
    split = _DELIMITER if chars else _DELIMITER | _SUBDELIMITER
    closed = split | _EXTENDER if chars else split  # cannot open a unit
    # A blank line's first and last code points read as the flagless
    # "\n" at either side of it (the block's last one before the first),
    # so a blank line is never slow.
    slow = (
        flags[starts] & (_SPACE | _COMMENT | closed)
        | flags[ends - 1] & (_SPACE | split)
        | np.bitwise_or.reduceat(flags, starts) & (_OTHER if chars else 0)
    ) != 0
    fast = (starts < ends) & ~slow
    splits = np.flatnonzero((flags & split) != 0)
    # The block ends with "\n", so every split has a next code point.
    slow[np.searchsorted(ends, splits[(flags[splits + 1] & closed) != 0])] = True
    fast &= ~slow

    def count(positions):
        """How many of the sorted ``positions`` each counted line holds."""
        return np.diff(np.searchsorted(positions, ends), prepend=0)[fast]

    if chars:
        xs = count(splits) + 1
        extenders = np.flatnonzero((flags & _EXTENDER) != 0)
        zs = (ends - starts)[fast] - (xs - 1) - count(extenders)
    else:
        xs = count(np.flatnonzero((flags & _DELIMITER) != 0)) + 1
        zs = count(splits) + 1
    return xs, zs, np.flatnonzero(slow)


def _count_block(
    first: int, text: str, fmt: CorpusFormat, kinds: _CodeKinds, cells: _Cells
) -> int:
    """Add the key of every construct line of one block to ``cells``.

    :func:`_screen` counts most lines of the block's text from one flag
    array; the rest, sliced out of the text, go through :func:`_line_key`
    in line order, so the earliest bad line raises.  Returns the number
    of lines, the first numbered ``first``.
    """
    units = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    ends = np.flatnonzero(units == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    xs, zs, rest = _screen(kinds(units), starts, ends, fmt)
    cells.add(xs, zs, np.ones_like(xs))
    keys = []
    for i, a, b in zip(rest.tolist(), starts[rest].tolist(), ends[rest].tolist()):
        line = text[a:b]
        stripped = line.strip()
        if stripped and not stripped.startswith(COMMENT_PREFIX):
            keys.append(_line_key(first + i, line, stripped, fmt))
    xs, zs = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    cells.add(xs, zs, np.ones_like(xs))
    return len(ends)


def parse_segmented_corpus(
    stream, fmt: CorpusFormat = CorpusFormat()
) -> JointFrequencyTable:
    """Count constituents and subconstituents of one construct per line.

    For every line: x is the number of delimiter-separated
    constituents, z the total number of subconstituents across them.
    Blank lines and ``#`` comments are skipped.  Adjacent, leading or
    trailing delimiters make an empty unit and raise
    :class:`EmptyConstituent` with the line number.  Accepts a string,
    a text stream or an iterable of lines, read block by block; lines
    end at ``\n``, and a ``\n`` inside an item ends a line as it does in
    a string, so ``\n`` is no valid delimiter (see :class:`CorpusFormat`).
    """
    kinds = _CodeKinds(fmt)
    cells = _Cells(Domain.SEGMENTS, "no construct lines in input")
    first = 1
    for text in _blocks(stream):
        first += _count_block(first, text, fmt, kinds, cells)
    return cells.table()
