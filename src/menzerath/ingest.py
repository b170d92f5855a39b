"""Reading and writing joint frequency tables.

Two input carriers exist: delimited frequency-table files (rows of
``x, z, count``) and segmented text corpora (one construct per line,
constituents split by a delimiter).  Segmentation itself is the user's
input; no syllabification or morphological analysis happens here.
"""

import io
from dataclasses import dataclass

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
# Extended grapheme clusters, so combining diacritics common in phonetic
# transcription count as one subconstituent, not two.
_GRAPHEME = regex.compile(r"\X")


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


def _iter_lines(stream):
    """``(number, line)`` pairs; lines end at ``\n`` only, less one ``\r``.

    A string and a text stream split the same way (``str.splitlines``
    and a universal-newlines stream would also split at ``\r``,
    U+2028 and other separators).  Any other iterable yields its
    items as lines.
    """
    if isinstance(stream, str):
        lines = stream.split("\n")
    elif isinstance(stream, io.TextIOBase):
        lines = _newline_split(stream)
    else:
        lines = (line[:-1] if line.endswith("\n") else line for line in stream)
    for number, line in enumerate(lines, start=1):
        yield number, line[:-1] if line.endswith("\r") else line


def _newline_split(stream):
    # Rejoin the pieces a universal-newlines stream cuts at a lone "\r".
    pending = ""
    for piece in stream:
        if piece.endswith("\n"):
            yield pending + piece[:-1]
            pending = ""
        else:
            pending += piece
    if pending:
        yield pending


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
    domain = Domain.SEGMENTS
    xs, zs, ns, numbers = [], [], [], []
    failure = None
    for number, line in _iter_lines(stream):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(COMMENT_PREFIX):
            directive = stripped.replace(" ", "").lower()
            if directive in _DOMAIN_DIRECTIVES:
                if numbers:
                    failure = ParseError(
                        number, line, "domain directive must precede data"
                    )
                    break
                domain = _DOMAIN_DIRECTIVES[directive]
            continue
        fields = [f.strip() for f in stripped.split("\t" if "\t" in stripped else ",")]
        if not numbers and [f.lower() for f in fields] == ["x", "z", "count"]:
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
    rows = _checked_rows(xs, zs, ns, domain, lines=numbers)
    if failure is not None:
        raise failure
    if not numbers:
        raise EmptyInput("no data rows in input")
    return _aggregate(*rows, domain)


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


def parse_segmented_corpus(
    stream, fmt: CorpusFormat = CorpusFormat()
) -> JointFrequencyTable:
    """Count constituents and subconstituents of one construct per line.

    For every line: x is the number of delimiter-separated
    constituents, z the total number of subconstituents across them.
    Blank lines and ``#`` comments are skipped.  Adjacent, leading or
    trailing delimiters make an empty unit and raise
    :class:`EmptyConstituent` with the line number.
    """
    counts: dict[tuple[int, int], int] = {}
    for number, line in _iter_lines(stream):
        stripped = line.strip()
        if not stripped or stripped.startswith(COMMENT_PREFIX):
            continue
        constituents = stripped.split(fmt.constituent_delimiter)
        if any(not c for c in constituents):
            raise EmptyConstituent(number, line)
        x = len(constituents)
        z = sum(
            _count_subconstituents(c, fmt, number, line) for c in constituents
        )
        counts[(x, z)] = counts.get((x, z), 0) + 1
    if not counts:
        raise EmptyInput("no construct lines in input")
    return build_table(((x, z, n) for (x, z), n in counts.items()), Domain.SEGMENTS)
