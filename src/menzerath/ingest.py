"""Reading and writing joint frequency tables.

Two input carriers exist: delimited frequency-table files (rows of
``x, z, count``) and segmented text corpora (one construct per line,
constituents split by a delimiter).  Segmentation itself is the user's
input; no syllabification or morphological analysis happens here.
Both are read in blocks of lines, so a parse holds one block of the
input at a time besides the table it builds.
"""

import io
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import regex

from .errors import EmptyConstituent, EmptyInput, ParseError
from .table import Domain, JointFrequencyTable, _aggregate, _checked_rows, build_table

__all__ = [
    "CorpusFormat",
    "parse_frequency_table",
    "write_frequency_table",
    "parse_segmented_corpus",
]

COMMENT_PREFIX = "#"
_DOMAIN_DIRECTIVES = {
    "#domain=segments": Domain.SEGMENTS,
    "#domain=boundaries": Domain.BOUNDARIES,
}
# Characters per read: the memory a parse needs follows this constant,
# not the size of the input.
_BLOCK = 1 << 16
# Extended grapheme clusters, so combining diacritics common in phonetic
# transcription count as one subconstituent, not two.
_GRAPHEME = regex.compile(r"\X")
# Code point classes from the same Unicode data as \X.  A plain code
# point always starts a cluster and an extender never does (it joins the
# cluster before it).  Every other code point (controls, CR and LF,
# Prepend, Hangul jamo, regional indicators, pictographs, and conjunct
# consonants, which join across a virama under GB9c) can join or split
# clusters in other ways.
_PLAIN_RE = regex.compile(r"[\p{GCB=Other}--\p{ExtPict}--\p{InCB=Consonant}]", regex.V1)
_EXTENDER_RE = regex.compile(r"[\p{GCB=Extend}\p{GCB=SpacingMark}\p{GCB=ZWJ}]")
_PLAIN, _EXTENDER, _OTHER = range(3)
# A strict table row: unsigned ASCII digits, at most 18 of them, so every
# value fits in int64 and numpy reads it as int() would.
_STRICT_ROW = re.compile(r"[0-9]{1,18},[0-9]{1,18},[0-9]{1,18}")
_STRICT_ROWS = re.compile(rf"(?:{_STRICT_ROW.pattern}\n)*")


@dataclass(frozen=True)
class CorpusFormat:
    """How segmented corpus lines are split into units.

    ``constituent_delimiter`` separates constituents within a construct.
    ``subconstituent_delimiter`` of ``None`` selects character mode
    (every grapheme cluster is one subconstituent); a character selects
    delimited mode (subconstituents are explicitly marked, e.g. ``.``).
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
        if len(set(delims)) != len(delims) or COMMENT_PREFIX in delims:
            raise ValueError("delimiters must be distinct from each other and from '#'")


def _blocks(stream):
    """``(first line number, lines)`` blocks of about ``_BLOCK`` characters.

    Lines end at ``\n`` only, less one ``\r``.  A string and a text
    stream split the same way (``str.splitlines`` and a universal-newlines
    stream would also split at ``\r``, U+2028 and other separators); a
    stream is read ``_BLOCK`` characters at a time and cut after the last
    ``\n``.  Any other iterable yields its items as lines.
    """
    if isinstance(stream, str):
        chunks = (stream[i : i + _BLOCK] for i in range(0, len(stream), _BLOCK))
    elif isinstance(stream, io.TextIOBase):
        chunks = iter(lambda: stream.read(_BLOCK), "")
    else:
        yield from _item_blocks(stream)
        return
    number, pieces = 1, []
    for chunk in chunks:
        cut = chunk.rfind("\n") + 1
        if not cut:
            pieces.append(chunk)
            continue
        pieces.append(chunk[:cut])
        lines = "".join(pieces).replace("\r\n", "\n").split("\n")
        lines.pop()  # the empty rest after the final "\n"
        yield number, lines
        number += len(lines)
        pieces = [chunk[cut:]]
    last = "".join(pieces)
    if last:
        yield number, [last[:-1] if last.endswith("\r") else last]


def _item_blocks(items):
    number, lines, size = 1, [], 0
    for item in items:
        line = item[:-1] if item.endswith("\n") else item
        lines.append(line[:-1] if line.endswith("\r") else line)
        size += len(line)
        if size >= _BLOCK:
            yield number, lines
            number, lines, size = number + len(lines), [], 0
    if lines:
        yield number, lines


class _TableRows:
    """Rows of a frequency table, checked in line order as they arrive."""

    def __init__(self):
        self.domain = Domain.SEGMENTS
        self.columns = []  # checked (xs, zs, ns) int64 columns
        self.seen = False  # a data row has been read

    def scan(self, first: int, lines) -> ParseError | None:
        """Read ``lines`` row by row; the error on the first malformed one."""
        xs, zs, ns, numbers = [], [], [], []
        failure = None
        for number, line in enumerate(lines, start=first):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith(COMMENT_PREFIX):
                directive = stripped.replace(" ", "").lower()
                if directive in _DOMAIN_DIRECTIVES:
                    if self.seen or numbers:
                        failure = ParseError(
                            number, line, "domain directive must precede data"
                        )
                        break
                    self.domain = _DOMAIN_DIRECTIVES[directive]
                continue
            sep = "\t" if "\t" in stripped else ","
            fields = [f.strip() for f in stripped.split(sep)]
            if not (self.seen or numbers) and (
                [f.lower() for f in fields] == ["x", "z", "count"]
            ):
                continue
            if len(fields) != 3:
                failure = ParseError(
                    number, line, f"expected 3 fields, got {len(fields)}"
                )
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
        self._add(xs, zs, ns, numbers)
        return failure

    def add_strict(self, first: int, body: str) -> None:
        """Add the rows of a body that ``_STRICT_ROWS`` matches, in one pass."""
        values = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",")
        xs, zs, ns = values.reshape(-1, 3).T
        self._add(xs, zs, ns, range(first, first + len(xs)))

    def _add(self, xs, zs, ns, numbers) -> None:
        if len(numbers):
            self.columns.append(_checked_rows(xs, zs, ns, self.domain, lines=numbers))
            self.seen = True


def parse_frequency_table(stream) -> JointFrequencyTable:
    """Parse ``x, z, count`` rows (comma or tab separated) into a table.

    Accepts a string, a text stream or an iterable of lines.  An
    optional header row ``x,z,count`` is skipped, ``#`` lines are
    comments, and a ``#domain=boundaries`` directive before the data
    switches the domain (segments is the default).  Rows with equal
    (x, z) are aggregated.  Raises :class:`ParseError` with the 1-based
    line number on malformed rows, :class:`InvalidPair` on domain
    violations, and :class:`EmptyInput` when no data rows are present.
    """
    rows = _TableRows()
    for first, lines in _blocks(stream):
        # Header, comments and directive go row by row up to the first
        # strict row; from there the longest strict run is converted at
        # once, and whatever follows it goes row by row again.
        head = 0
        while head < len(lines) and not _STRICT_ROW.fullmatch(lines[head]):
            head += 1
        body = "\n".join(lines[head:]) + "\n"
        if body.count("\n") != len(lines) - head:  # an iterable's item held a "\n"
            head = len(lines)
        failure = rows.scan(first, lines[:head])
        if failure is None and head < len(lines):
            end = _STRICT_ROWS.match(body).end()
            run = body.count("\n", 0, end)
            rows.add_strict(first + head, body[: end - 1])
            failure = rows.scan(first + head + run, lines[head + run :])
        if failure is not None:
            raise failure
    if not rows.seen:
        raise EmptyInput("no data rows in input")
    return _aggregate(*map(np.concatenate, zip(*rows.columns)), rows.domain)


def write_frequency_table(table: JointFrequencyTable) -> str:
    """Canonical CSV: header, ascending (x, z), newline terminated.

    Boundary-domain tables carry the ``#domain=boundaries`` directive,
    so :func:`parse_frequency_table` round-trips every table exactly.
    """
    lines = []
    if table.domain is Domain.BOUNDARIES:
        lines.append("#domain=boundaries")
    lines.append("x,z,count")
    lines.extend(
        f"{x},{z},{n}"
        for x, z, n in zip(table.xs.tolist(), table.zs.tolist(), table.ns.tolist())
    )
    return "\n".join(lines) + "\n"


def _count_subconstituents(
    constituent: str, fmt: CorpusFormat, number: int, line: str
) -> int:
    if fmt.subconstituent_delimiter is None:
        return len(_GRAPHEME.findall(constituent))
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


class _CodeClasses(dict):
    """Class of each code point seen in a parse, classified on first sight."""

    def __missing__(self, char: str) -> int:
        cls = self[char] = (
            _PLAIN if _PLAIN_RE.fullmatch(char)
            else _EXTENDER if _EXTENDER_RE.fullmatch(char)
            else _OTHER
        )
        return cls


def _distinct_chars(text: str) -> list[str]:
    """The distinct characters of ``text``, found in one numpy pass."""
    units = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return [chr(c) for c in np.flatnonzero(np.bincount(units)).tolist()]


def _block_keys(first: int, lines: list[str], fmt: CorpusFormat, classes) -> list:
    """The ``(x, z)`` key of every construct line of one block."""
    keys, rest = [], range(len(lines))
    delim = fmt.constituent_delimiter
    if fmt.subconstituent_delimiter is None and classes[delim] == _PLAIN:
        keys, rest = _plain_keys(lines, delim, classes)
    for i in rest:
        line = lines[i]
        stripped = line.strip()
        if stripped and not stripped.startswith(COMMENT_PREFIX):
            keys.append(_line_key(first + i, line, stripped, fmt))
    return keys


def _plain_keys(lines: list[str], delim: str, classes) -> tuple[list, Sequence[int]]:
    """The keys of the plain lines, and the indices of the other lines.

    A block that holds an other code point has no plain lines: the
    screening would cost more than it saves on scripts (Devanagari,
    Hangul) whose lines nearly all hold one.  Otherwise a plain line is
    one whose constituents each start with a plain code point, so it has
    one cluster per plain code point: z = length - delimiters -
    extenders.  The extenders are counted by deleting them from the
    whole block.  The indices returned are those of every other
    non-blank line, comments included, in line order.
    """
    text = "\n".join(lines)
    chars = _distinct_chars(text)
    if any(classes[c] == _OTHER for c in chars if c != "\n"):
        return [], range(len(lines))
    extenders = [c for c in chars if classes[c] == _EXTENDER]
    bare = text
    for char in extenders:
        bare = bare.replace(char, "")
    bare_lines = bare.split("\n")
    if len(bare_lines) != len(lines):  # an item of an iterable held a "\n"
        return [], range(len(lines))
    openers = {COMMENT_PREFIX, delim, *extenders}
    # An empty constituent, or one that opens with an extender.
    inner = re.compile(f"{re.escape(delim)}[{re.escape(delim + ''.join(extenders))}]")
    check = bool(inner.search(text))
    keys, rest = [], []
    for i, (line, bare_line) in enumerate(zip(lines, bare_lines)):
        s = line.strip()
        if not s:
            continue
        if s[0] in openers or s[-1] == delim or check and inner.search(s):
            rest.append(i)
            continue
        k = s.count(delim)
        keys.append((k + 1, len(s) - k - len(line) + len(bare_line)))
    return keys, rest


def parse_segmented_corpus(
    stream, fmt: CorpusFormat = CorpusFormat()
) -> JointFrequencyTable:
    """Count constituents and subconstituents of one construct per line.

    For every line: x is the number of delimiter-separated
    constituents, z the total number of subconstituents across them.
    Blank lines and ``#`` comments are skipped.  Adjacent, leading or
    trailing delimiters make an empty unit and raise
    :class:`EmptyConstituent` with the line number.  Accepts a string,
    a text stream or an iterable of lines, read block by block.
    """
    counts = Counter()
    classes = _CodeClasses()  # kept across the blocks of this parse
    for first, lines in _blocks(stream):
        counts.update(_block_keys(first, lines, fmt, classes))
    if not counts:
        raise EmptyInput("no construct lines in input")
    return build_table(((x, z, n) for (x, z), n in counts.items()), Domain.SEGMENTS)
