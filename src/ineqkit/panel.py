"""Country-year indicator panels: CSV ingestion, validation, slicing, export.

Panels hold published indicator values (Gini, top-10% share, bottom-10%
share) exactly as reported; nothing is recomputed from micro-data.  Internal
units are always decimals in [0, 1]; percent-unit inputs are converted at the
parse boundary.  A panel is stored as numpy columns and its rows are checked
once, when they are parsed.  Bad rows are skipped and reported as
diagnostics, while a missing declared column rejects the whole file.
"""

from __future__ import annotations

import codecs
import csv
import enum
import io
import itertools
import os
import pickle
import re
import stat
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._fork import Children, _may_fork, _usable_cpus
from .errors import DomainError, SchemaError


class Source(enum.Enum):
    WB = "WB"
    OECD = "OECD"
    OTHER = "OTHER"


# Sources in value order.  A panel's source column holds indexes into this
# table, so sorting the codes sorts by source value.
SOURCES = tuple(sorted(Source, key=lambda s: s.value))

# The range and ordering rules of a record, in checking order, each with the
# reason a row that breaks it gets.  A rule reads scalars and columns alike.
_SHARE_RULES = (
    (lambda g, t, b: (0.0 < g) & (g < 1.0), "gini out of range: {0!r}"),
    (lambda g, t, b: (0.0 < t) & (t <= 1.0), "top10 share out of range: {1!r}"),
    (lambda g, t, b: (0.0 <= b) & (b < 1.0), "bottom10 share out of range: {2!r}"),
    # NaN never reaches this rule: it breaks a range rule first
    (lambda g, t, b: b <= t, "share ordering violated"),
)


@dataclass(frozen=True)
class CountryYearRecord:
    """One panel row of published indicator values (decimal units)."""

    country: str
    year: int
    gini: float
    top10: float
    bottom10: float
    source: Source = Source.OTHER

    def __post_init__(self):
        if not self.country:
            raise DomainError("country identifier must be non-empty")
        for rule, reason in _SHARE_RULES:
            if not rule(self.gini, self.top10, self.bottom10):
                raise DomainError(reason.format(self.gini, self.top10, self.bottom10))

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.country, self.year, self.source.value)


# Column name and dtype of every panel column: 37 bytes a row, 13 of them
# the key columns.
_COLUMNS = {
    "country": np.int32,
    "year": np.int64,
    "source": np.int8,
    "gini": np.float64,
    "top10": np.float64,
    "bottom10": np.float64,
}
_KEYS = ("country", "year", "source")


@dataclass(frozen=True)
class _Filter:
    """The rows :func:`slice_panel` keeps: those of the year ``year``, the
    source ``source`` and the country named ``country``, each None for any."""

    year: int | None = None
    source: Source | None = None
    country: str | None = None

    def __bool__(self) -> bool:
        return (self.year, self.source, self.country) != (None, None, None)

    def mask(self, country, year, source, code: int):
        """The mask of the rows of the key columns ``country``, ``year`` and
        ``source`` that match, the filter's country coded ``code`` (-1 where
        no row names it); True where no filter is set."""
        keep = True
        if self.year is not None:
            keep = keep & (year == self.year)
        if self.source is not None:
            keep = keep & (source == SOURCES.index(self.source))
        if self.country is not None:
            keep = keep & (country == code)
        return keep

    def code(self, names) -> int:
        """The index of the filter's country in the name table ``names``, -1
        where it is not there."""
        return names.index(self.country) if self.country in names else -1


@dataclass(frozen=True)
class _Packing:
    """The layout of a packed key, one int64 that holds, from its high bits
    down, a row's country code, year above ``low`` in ``year_bits``, source
    code and row index in ``row_bits``: distinct rows' keys differ, and
    their value order is the stable (country, year, source) order."""

    low: int
    year_bits: int
    row_bits: int
    source_bits = (len(SOURCES) - 1).bit_length()

    @staticmethod
    def of(country, year) -> "_Packing | None":
        """The packing of the key columns of at least one row, or None where
        the key is too wide for 63 bits (years spread towards int64's ends)."""
        low = int(year.min())
        packing = _Packing(low, (int(year.max()) - low).bit_length(), (len(year) - 1).bit_length())
        bits = int(country.max()).bit_length() + packing.year_bits + packing.source_bits + packing.row_bits
        return packing if bits <= 63 else None

    def sort(self, country, year, source, key) -> np.ndarray:
        """Pack the rows' keys into the int64 array ``key``, which may be
        ``year`` itself, a slice of rows at a time, and sort them in place;
        the mask of the places whose key is the one before but for the row
        index: each row there repeats the key of an earlier row."""
        for rows in _slices(key):
            part = country[rows].astype(np.int64) << self.year_bits
            part |= year[rows] - self.low
            part <<= self.source_bits
            part |= source[rows]
            part <<= self.row_bits
            part |= np.arange(rows.start, rows.stop)
            key[rows] = part
        key.sort()
        repeat = np.zeros(len(key), dtype=bool)
        for rows in _slices(key):
            first = max(rows.start, 1)
            step = key[first : rows.stop] ^ key[first - 1 : rows.stop - 1]
            np.less(step, 1 << self.row_bits, out=repeat[first : rows.stop])
        return repeat

    def unpack(self, key) -> tuple[np.ndarray, ...]:
        """The country code, year, source code and row index of each packed
        key of ``key``, each as int64."""
        row = key & ((1 << self.row_bits) - 1)
        rest = key >> self.row_bits
        source = rest & ((1 << self.source_bits) - 1)
        rest >>= self.source_bits
        year = (rest & ((1 << self.year_bits) - 1)) + self.low
        return rest >> self.year_bits, year, source, row


def _key_sort(country, year, source) -> tuple[np.ndarray, np.ndarray]:
    """The indexes of the rows in ascending (country, year, source) order,
    equal keys in row order, and the mask of the places in that order whose
    key is the one before: each row there repeats the key of an earlier row.

    The rows' keys are packed (see :class:`_Packing`) into a new int64
    array and sorted, and only their row-index bits are kept.  A key too
    wide for 63 bits takes a stable lexsort of the three columns instead.
    A sliced parse sorts its packed keys in its year column, not here.
    """
    if not len(year):
        return np.empty(0, dtype=np.intp), np.zeros(0, dtype=bool)
    packing = _Packing.of(country, year)
    if packing is None:
        order = np.lexsort((source, year, country))
        repeat = np.zeros(len(order), dtype=bool)
        repeat[1:] = True
        for column in (country, year, source):
            ordered = column[order]
            repeat[1:] &= ordered[1:] == ordered[:-1]
        return order, repeat
    key = np.empty(len(year), dtype=np.int64)
    repeat = packing.sort(country, year, source, key)
    key &= (1 << packing.row_bits) - 1
    return key, repeat


class Panel:
    """Immutable country-year rows stored as numpy columns, unique by
    (country, year, source).

    ``gini``, ``top10`` and ``bottom10`` hold decimal shares and ``year`` the
    year.  ``country`` indexes the sorted name table ``names`` and ``source``
    indexes :data:`SOURCES`, so sorting the codes sorts by the key.
    ``records`` gives the rows as :class:`CountryYearRecord` objects.

    Building a panel from records checks that their keys are unique; the
    panels :func:`parse_panel` and :func:`slice_panel` return are not
    checked again.  Rows stay in the order given; the key order of a parsed
    panel is the one its duplicate check sorted (a sliced parse's rows are
    in that order), and any other panel sorts its keys when first asked for
    that order.
    """

    def __init__(self, records=(), label: str = ""):
        records = tuple(records)
        names = sorted({r.country for r in records})
        code = {name: i for i, name in enumerate(names)}
        columns = {name: [getattr(r, name) for r in records] for name in _COLUMNS}
        columns["country"] = [code[name] for name in columns["country"]]
        columns["source"] = [SOURCES.index(source) for source in columns["source"]]
        self._set(label, names, None, **columns)
        self._order, repeat = _key_sort(self.country, self.year, self.source)
        if repeat.any():
            raise DomainError(f"duplicate record {records[self._order[repeat].min()].key}")

    def _set(self, label: str, names, order, **columns) -> "Panel":
        self.label, self.names, self._order = label, tuple(names), order
        for name, dtype in _COLUMNS.items():
            values = np.asarray(columns[name], dtype=dtype)
            values.flags.writeable = False
            setattr(self, name, values)
        return self

    def _key_order(self, year=None, source=None, country=None):
        """Indexes of the rows matching the filters in ascending (country,
        year, source) order; equal keys keep their row order.  A range when
        no filter is given and the rows are in that order."""
        if self._order is None:
            self._order = _key_sort(self.country, self.year, self.source)[0]
        rows, where = self._order, _Filter(year, source, country)
        if where:
            keep = where.mask(self.country, self.year, self.source, where.code(self.names))
            rows = np.asarray(rows, dtype=np.intp)[keep[rows]]
        return rows

    def take(self, rows) -> "Panel":
        """The panel of the rows at the indexes ``rows``, in that order."""
        columns = {name: getattr(self, name)[rows] for name in _COLUMNS}
        return Panel.__new__(Panel)._set(self.label, self.names, None, **columns)

    @property
    def records(self) -> "_Records":
        return _Records(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Panel):
            return NotImplemented
        return self.label == other.label and self.records == other.records

    def __len__(self) -> int:
        return len(self.year)

    def countries(self) -> list[str]:
        return [self.names[c] for c in np.unique(self.country).tolist()]


class _Records(Sequence):
    """The rows of a panel as :class:`CountryYearRecord` objects, each built
    when it is read."""

    def __init__(self, panel: Panel):
        self._panel = panel

    def __len__(self) -> int:
        return len(self._panel)

    def __getitem__(self, i):
        rows = _Records(self._panel.take(np.atleast_1d(np.arange(len(self))[i])))
        return tuple(rows) if isinstance(i, slice) else next(iter(rows))

    def __iter__(self):
        p = self._panel
        for c, y, s, g, t, b in zip(*(getattr(p, name).tolist() for name in _COLUMNS)):
            yield CountryYearRecord(p.names[c], y, g, t, b, SOURCES[s])

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


@dataclass(frozen=True)
class SchemaConfig:
    """Column names and unit modes for panel ingestion.

    ``source`` of None auto-uses a column literally named "source" when the
    header has one and falls back to ``default_source`` otherwise; naming a
    source column explicitly makes it required.
    """

    country: str = "country"
    year: str = "year"
    gini: str = "gini"
    top10: str = "top10"
    bottom10: str = "bottom10"
    source: str | None = None
    gini_unit: str = "decimal"
    share_unit: str = "decimal"
    default_source: Source = Source.OTHER

    def __post_init__(self):
        for name in ("gini_unit", "share_unit"):
            unit = getattr(self, name)
            if unit not in ("decimal", "percent"):
                raise SchemaError(f"{name} must be 'decimal' or 'percent', got {unit!r}")


@dataclass(frozen=True)
class RowDiagnostic:
    """A skipped data row: 1-based line number plus the reason."""

    line: int
    reason: str


# Bytes of CSV input read and tokenized at a time: the cells of one block are
# held at once.
_BLOCK_CHARS = 1 << 18
# Bytes per cell of numpy's reader at the start of a parse, by declared
# column (country, year, gini, top10, bottom10, source).  A cell that fills
# its width may have been cut short: its column's width is doubled, up to
# _WIDEST_CELL bytes, and its block read again; a cell that fills
# _WIDEST_CELL sends its block to csv.reader instead.
_CELL_BYTES = (32, 8, 16, 16, 16, 8)
_WIDEST_CELL = 256
_SOURCE_CODES = {s.value: i for i, s in enumerate(SOURCES)}
# Cells are held as UTF-8 bytes; a lone surrogate of text input is kept, not
# an error.
_ERRORS = "surrogatepass"


# Mask, by byte, of the bytes that may border a plain quote.
_QUOTE_BORDERS = np.array([c in b'\n\r",' for c in range(256)])
# The powers of ten a fraction of at most 15 digits divides by, all exact.
_POWERS_OF_TEN = 10.0 ** np.arange(16)


def _text(cell) -> str:
    """A cell, UTF-8 bytes or text, as stripped text."""
    return (cell.decode(errors=_ERRORS) if isinstance(cell, bytes) else cell).strip()


def _undecodable(exc: UnicodeDecodeError, offset: int) -> ValueError:
    """The error ``exc`` of bytes that start ``offset`` bytes into the input,
    worded as decoding the whole input words it."""
    start = exc.start + offset
    if exc.end - exc.start == 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{exc.end - 1 + offset}"
    return ValueError(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}")


def _chunks(source):
    """The input ``source``, CSV text or a binary or text stream of it, in
    pieces of ``_BLOCK_CHARS`` characters or bytes."""
    size = _BLOCK_CHARS
    if isinstance(source, str):
        for start in range(0, len(source), size):
            yield source[start : start + size]
    else:
        while part := source.read(size):
            yield part


def _file_chunks(fd: int, start: int, stop: int):
    """The bytes ``start`` to ``stop`` of the file ``fd`` in pieces of
    ``_BLOCK_CHARS`` bytes, read by ``os.pread``: the file's offset, which
    other processes may share, is not moved."""
    while start < stop and (part := os.pread(fd, min(_BLOCK_CHARS, stop - start), start)):
        start += len(part)
        yield part


class _Rows:
    """Where csv.reader ends its rows, by its own quote rule, in bytes read a
    chunk at a time.  A quote opens a quoted field where it is not inside
    one and the byte before it is a delimiter, a line end or the start of
    the input.  Inside a quoted field a doubled quote is a quote, and any
    other quote closes the field.  A line end ("\\n", "\\r\\n" or a lone
    "\\r") ends a row unless it lies inside a quoted field; the end of the
    input, which ends the last row, is left to :func:`_byte_blocks`.  A
    "\\r" that ends a chunk is counted with the next (ending at offset 0 if
    no "\\n" follows).

    A quote is plain where it opens a field, closes one just before a
    delimiter or line end, or is one of a doubled pair; numpy's reader reads
    such quotes alike.  Where every quote is plain, the quoted line ends are
    those after an odd number of quotes; only a chunk with another quote is
    read a quote at a time.
    """

    quoted = False  # inside a quoted field
    before = ord("\n")  # the last byte read, or a line end
    toggled = False  # that byte is a quote that opened or closed a field
    seen = opened = 0  # the bytes read, and the offset of the quote that opened the field

    def lines(self, data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The offset in ``data`` after each of its lines, the mask of the
        lines that end a row, and the offsets of its quotes that are not
        plain, in order; the state moves on to its end."""
        raw = np.frombuffer(data, dtype=np.uint8)
        n = len(raw)
        held, lone = data[-1:] == b"\r", np.empty(0, np.intp)
        if b"\r" in data:
            cr = np.flatnonzero(raw[: n - held] == ord("\r"))
            lone = cr[raw[np.minimum(cr + 1, n - 1)] != ord("\n")]
        if self.before == ord("\r") and data[:1] != b"\n":
            lone = np.concatenate(([-1], lone))
        quotes = np.flatnonzero(raw == ord('"'))
        # The byte before an opening quote and after a closing one; the end
        # of the data borders a quote as a line end does.
        opens = self.before in b",\n\r" or self.toggled
        opening = np.arange(self.quoted, self.quoted + len(quotes)) % 2 == 0
        border = _QUOTE_BORDERS[raw[np.where(opening, quotes - 1, np.minimum(quotes + 1, n - 1))]]
        if len(quotes) and quotes[0] == 0 and opening[0]:
            border[0] = opens
        # A quote that closed the chunk before, not before a border, counts at offset 0.
        closed = bool(self.toggled and not self.quoted and n and not _QUOTE_BORDERS[raw[0]])
        if not closed and border.all():
            toggles, stray = quotes, quotes[:0]
        else:
            # A quote toggles where it is inside a quoted field, or opens one
            # after a delimiter, a line end or the quote that closed a field;
            # that read also tells which quotes are not plain.
            marks, stray, quoted = [], [0] * closed, self.quoted
            for q in quotes.tolist():
                if quoted or (data[q - 1] in b",\n\r" or marks[-1:] == [q - 1] if q else opens):
                    marks.append(q)
                    quoted = not quoted
                    if quoted or q + 1 == n or data[q + 1] in b',\n\r"':
                        continue
                stray.append(q)
            toggles, stray = np.array(marks, dtype=np.intp), np.array(stray, dtype=np.intp)
        # The last quote that opens a field, not one that follows the quote
        # that closed a field: that pair is a quote.
        k = np.arange(self.quoted, len(toggles), 2)
        after = np.where(k > 0, toggles[k - 1], -1 if self.toggled else -2) == toggles[k] - 1
        if not after.all():
            self.opened = self.seen + int(toggles[k[~after][-1]])
        quoted = self.quoted
        self.quoted ^= len(toggles) % 2 == 1
        if n:
            self.before, self.toggled = data[-1], len(toggles) > 0 and toggles[-1] == n - 1
        self.seen += n
        at = np.flatnonzero(raw == ord("\n"))  # the lines, by last byte
        if len(lone):
            at = np.sort(np.concatenate((at, lone)))
        return at + 1, np.searchsorted(toggles, at) % 2 == quoted, stray


def _byte_blocks(parts, head: bool = True, at_cut: bool = False):
    """The bytes of ``parts``, pieces of CSV text or of its bytes, in blocks
    of whole rows, each cut at the last row end :class:`_Rows` finds or at
    the end of the input.  With each block come whether its quotes are
    plain, its line count and the 0-based line on which each of its rows
    ends, but a blank row (one whose first byte is a line end).  The block
    at the end of the input holds at most one row, which ends on its last
    line.  A row whose open quoted field passes 4 bytes for each character
    of csv's field limit ends the blocks, as far as it is read, for
    csv.reader to refuse: an unclosed quote is not read on to the end of
    the input.  Pieces that ``at_cut`` says a cut of a file ends raise
    :class:`_SplitFailed`, after the last row end, where the blocks end
    inside a quoted field.

    A leading byte-order mark is dropped where ``head`` says the pieces start
    the input, and "\\r\\n" and a lone "\\r" are read as "\\n", as with
    universal newlines.  Text is encoded as UTF-8, lone surrogates kept.
    Bytes must be UTF-8: a ValueError names the first byte that is not, by
    its position in the pieces after the mark.
    """

    def block(raw: bytes, plain: bool, lines: int, rows: np.ndarray, ends) -> tuple:
        """The block ``raw``, checked and translated, with ``plain``,
        ``lines`` and the lines ``rows`` on which its rows end, at the
        offsets ``ends`` counted back from its end, but those of its blank
        rows."""
        nonlocal offset
        if check and not raw.isascii():
            try:
                raw.decode()
            except UnicodeDecodeError as exc:
                raise _undecodable(exc, offset) from None
        offset += len(raw)
        # Each row but the first starts where the one before ends.
        first = np.frombuffer(raw, dtype=np.uint8)[np.concatenate(([0], ends[:-1] + len(raw)))]
        rows = rows[(first != ord("\n")) & (first != ord("\r"))]
        if b"\r" in raw:
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return raw, plain, lines, rows

    pending: list[bytes] = []  # read, and no row end since the last block
    offset, check, plain, held, rows = 0, True, True, 0, _Rows()  # held: the lines of ``pending``
    for part in parts:
        if isinstance(part, str):
            part, check = part.encode("utf-8", _ERRORS), False
        if head:
            part = b"".join([*pending, part])
            if codecs.BOM_UTF8.startswith(part):  # the mark may be cut short
                pending = [part]
                continue
            part, pending, head = part.removeprefix(codecs.BOM_UTF8), [], False
        ends, ended, stray = rows.lines(part)
        row, cut = np.flatnonzero(ended), 0
        if len(row):
            cut, done = int(ends[row[-1]]), int(row[-1]) + 1
            plain &= not (stray < cut).any()
            yield block(b"".join([*pending, part[:cut]]), plain, held + done, held + row, ends[row] - cut)
            pending, plain, held = [], True, -done
        plain &= not (stray >= cut).any()
        pending.append(part[cut:])
        held += len(ends)
        if rows.quoted and rows.seen - rows.opened > 4 * (csv.field_size_limit() + 1):
            # The open field holds more characters than csv.reader takes, at
            # most 4 bytes each: csv.reader reads the row so far and raises.
            break
    if at_cut and rows.quoted:
        raise _SplitFailed("a cut inside a quoted field")
    data = b"".join(pending)
    if head:
        data = data.removeprefix(codecs.BOM_UTF8)
    if data:
        lines = held + (data[-1:] != b"\n")
        yield block(data, plain and not rows.quoted, lines, np.array([lines - 1]), np.zeros(1, np.intp))


def _csv_rows(text: str, line: int) -> list[list[str]]:
    """The rows csv.reader reads from ``text``, which starts on line
    ``line``; a cell past csv's field limit raises a ValueError that names
    its line."""
    reader = csv.reader(io.StringIO(text))
    try:
        return list(reader)
    except csv.Error as exc:
        raise ValueError(f"line {line - 1 + reader.line_num}: {exc}") from None


def _byte_cells(block, lines: int, usecols: list[int], widths: list[int]) -> list[np.ndarray] | None:
    """The cells of columns ``usecols`` of the non-empty rows of ``block``,
    ``lines`` lines of whole rows with plain quotes and line ends read as
    "\\n", a byte column each, read by numpy's C reader.  None for a block
    that reader may read otherwise than csv.reader: with a control
    character, a short row, a whitespace-only line, a cell of
    ``_WIDEST_CELL`` bytes or more, or no row.  A column of ``widths``
    (bytes per cell) with a cell that fills it is widened in place, as
    ``_CELL_BYTES`` says, for the blocks to come."""
    raw = np.frombuffer(block, dtype=np.uint8)
    # A bare CR, a NUL or another control character
    if np.count_nonzero(raw < 32) != lines - (block[-1] != ord("\n")) or block.isspace():
        return None
    while True:
        dtype = np.dtype([(f"c{k}", f"S{width}") for k, width in enumerate(widths)])
        try:
            # Each byte read as one Latin-1 character, which a byte column
            # stores as that byte: the cells hold UTF-8.
            table = np.loadtxt(
                io.BytesIO(block),
                dtype=dtype,
                delimiter=",",
                quotechar='"',
                comments=None,
                usecols=usecols,
                ndmin=1,
                encoding="latin-1",
            )
        except ValueError:  # a short row, a whitespace-only line, ...
            return None
        cells = [table[name] for name in dtype.names]
        full = [k for k, col in enumerate(cells) if col[:, None].view(np.uint8)[:, -1].any()]
        if not full:
            return cells
        if any(widths[k] >= _WIDEST_CELL for k in full):
            return None
        for k in full:
            widths[k] = min(2 * widths[k], _WIDEST_CELL)


def _lookup(cells: np.ndarray, convert, memo: dict) -> np.ndarray:
    """``convert`` of the text of each cell, called once per distinct cell
    and kept in ``memo``."""
    cells = cells.tolist()
    for cell in set(cells).difference(memo):
        memo[cell] = convert(_text(cell))
    return np.fromiter(map(memo.__getitem__, cells), np.intp, len(cells))


def _source_codes(cells: np.ndarray, memo: dict) -> np.ndarray:
    """The index in :data:`SOURCES` of the source each cell names, -1 for
    none.  A cell that spells a source exactly is found by comparing the
    column with each spelling; only the others are looked up."""
    codes = np.full(len(cells), -1, dtype=np.intp)
    for i, source in enumerate(SOURCES):
        codes[cells == source.value.encode()] = i
    rest = np.flatnonzero(codes < 0)
    codes[rest] = _lookup(cells[rest], lambda text: _SOURCE_CODES.get(text.upper(), -1), memo)
    return codes


def _decimals(cells: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The byte cells of the form ``[+-]digits[.digits]`` read exactly as
    ``dtype`` from their bytes, and the mask of the cells read; the others
    read 0.

    A float64 cell holds at most 15 digits: its digits make an integer
    m < 2**53 and it reads as m / 10**f, f <= 15 its fraction digits, in one
    correctly rounded division of two exact floats, so it has the bits
    float() gives (Clinger's fast path).  An int64 cell has no point and at
    most 18 digits, so m fits.  The digits are read a byte position at a
    time over every cell at once."""
    integer = dtype == np.int64
    n = len(cells)
    byte = np.ascontiguousarray(cells[:, None].view(np.uint8).T)
    # Positions past every cell's end hold padding only.
    used = np.flatnonzero(byte.any(axis=1))
    if not used.size:
        return np.zeros(n, dtype), np.zeros(n, dtype=bool)
    byte = byte[: used[-1] + 1]
    width = len(byte)
    count_type = np.min_scalar_type(width)  # counts of bytes up to the width
    filled = byte != 0
    digit_of = byte - np.uint8(ord("0"))  # wraps to >= 10 below "0"
    digit = digit_of < 10
    point = byte == ord(".")
    count, points, length = (x.sum(axis=0, dtype=count_type) for x in (digit, point, filled))
    # Each byte of a cell is a digit, a point or a leading sign, a float has
    # at most one point and an integer none, and padding only ends a cell.
    minus = byte[0] == ord("-")
    signed = minus | (byte[0] == ord("+"))
    plain = (count + points + signed == length) & (count > 0) & (count <= (18 if integer else 15))
    plain &= points <= (0 if integer else 1)
    plain &= ~(filled[1:] > filled[:-1]).any(axis=0)
    m = np.zeros(n, dtype)
    with np.errstate(over="ignore"):  # a long cell, not read, may overflow
        for j in range(width):
            np.multiply(m, 10, out=m, where=digit[j])
            np.add(m, digit_of[j], out=m, where=digit[j])
    if not integer:
        # The fraction digits are the bytes after the point.
        at = np.zeros(n, count_type)
        for j in range(1, width):
            at[point[j]] = j
        fraction = np.where(points > 0, length - 1 - at, 0)
        np.minimum(fraction, 15, out=fraction)
        m /= _POWERS_OF_TEN[fraction]
    np.negative(m, out=m, where=minus)
    m[~plain] = 0
    return m, plain


def _cast(cells: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The cells as ``dtype``, and the mask of the cells cast; the others
    read 0.  :func:`_decimals` reads the cells it can exactly, and each of
    the rest is read alone: by ``int()`` or ``float()`` of its bytes, or of
    its stripped text where it is not ASCII.  A cell that fails, or an int
    beyond int64, is left unmarked.  A column of text (one that holds a NUL)
    is read a cell at a time throughout."""
    if cells.dtype == object:
        values, plain = np.zeros(len(cells), dtype), np.zeros(len(cells), dtype=bool)
    else:
        values, plain = _decimals(cells, dtype)
    rest = np.flatnonzero(~plain)
    kind = int if dtype == np.int64 else float
    # A memoryview sets one element faster than numpy's indexing; it refuses
    # an int beyond int64 with a ValueError.
    out, read = memoryview(values), memoryview(plain)
    for j, cell in zip(rest.tolist(), cells[rest].tolist()):
        try:
            out[j] = kind(cell if cell.isascii() else _text(cell))
            read[j] = True
        except ValueError:
            pass
    return values, plain


def _blocks(blocks, line: int, usecols: list[int], widths):
    """Tokenize ``blocks``, as :func:`_byte_blocks` yields them, the first
    row starting on line ``line``.

    Yields, for each block, the cells of columns ``usecols`` of its non-empty
    rows, one array per column; the number of cells of each row that has
    fewer than ``max(usecols) + 1``, by row index; the line number each row
    ends on; and the line after the block.  A column holds the UTF-8 bytes
    of its cells.  Numpy's C reader tokenizes a block with plain quotes, at
    the cell ``widths`` :func:`_byte_cells` widens, where it reads as many
    rows as the row rule of :class:`_Rows` gives; otherwise csv.reader does,
    and its cells are stripped (and kept as text where one holds a NUL).
    """
    width = max(usecols) + 1
    for block, plain, lines, ends in blocks:
        cells, short = _byte_cells(block, lines, usecols, widths) if plain else None, {}
        if cells is None or len(cells[0]) != len(ends):
            rows = [row for row in _csv_rows(block.decode("utf-8", _ERRORS), line) if row]
            short = {j: len(row) for j, row in enumerate(rows) if len(row) < width}
            for j, length in short.items():
                rows[j] += [""] * (width - length)
            texts = [[row[i].strip() for row in rows] for i in usecols]
            if any("\0" in "".join(col) for col in texts):  # a byte column would drop a trailing NUL
                cells = [np.array(col, dtype=object) for col in texts]
            else:
                cells = [np.array([t.encode("utf-8", _ERRORS) for t in col], "S") for col in texts]
        yield cells, short, line + ends, line + lines
        line += lines


def _slices(values: np.ndarray):
    """Consecutive slices of the array ``values``, each of about a block's
    bytes, that cover it."""
    step = max(_BLOCK_CHARS // values.itemsize, 1)
    return (slice(start, min(start + step, len(values))) for start in range(0, len(values), step))


def _compact(values: np.ndarray, keep) -> None:
    """Keep the elements of the array ``values`` where ``keep`` of their
    slice gives a set mask, in order and in place: they are moved down a
    slice at a time, each slice's mask taken before it moves, and the array
    is then shrunk, so no second copy of it is held."""
    size = 0
    for rows in _slices(values):
        part = values[rows][keep(rows)]
        values[size : size + len(part)] = part
        size += len(part)
    values.resize(size, refcheck=False)


def _remap(values: np.ndarray, table: np.ndarray) -> None:
    """Replace each index of the array ``values`` by the entry of ``table``
    at it, in place, a slice at a time."""
    for rows in _slices(values):
        values[rows] = table[values[rows]]


@dataclass(frozen=True)
class _Layout:
    """The declared columns of a panel file, by the names of its header: in
    the order country, year, gini, top10, bottom10 and the source where
    there is one, their positions, the divisor of each share column and the
    source of a file without a source column; and the filter of the rows
    whose shares are kept.  A row's cells are checked in that order."""

    declared: tuple[str, ...]
    where: tuple[int, ...]
    scale: tuple[float, float, float]
    default_source: Source
    wanted: _Filter = _Filter()

    def reason(self, k: int, cell, length: int) -> str:
        """The reason of a row of ``length`` cells whose first failed check
        is that of its declared cell ``k``, ``cell`` (padding where the row
        is short).  Only that cell is decoded, and read again only to tell
        which way it failed."""
        name, text = self.declared[k], _text(cell)
        if self.where[k] >= length:
            return f"row too short: no value for column '{name}'"
        if k == 0:
            return "empty country identifier"
        if k == 1:
            try:
                int(text)
            except ValueError:
                return f"year is not an integer: {text!r}"
            return f"year out of range: {text!r}"
        if k == 5:
            return f"unknown source {text.upper()!r}"
        try:
            float(text)
        except ValueError:
            return f"unparseable numeric in column '{name}': {text!r}"
        return f"non-finite value in column '{name}': {text!r}"


def _append(values: np.ndarray, size: int, new: np.ndarray) -> int:
    """Write ``new`` after the first ``size`` elements of the array
    ``values``, grown in place by at least 5/4 where full; the size after."""
    stop = size + len(new)
    if stop > len(values):
        values.resize(max(stop, len(values) * 5 // 4), refcheck=False)
    values[size:stop] = new
    return stop


@dataclass
class _Part:
    """``rows`` parsed rows in file order, each one that passed every check:
    their columns, which may hold room for more, the share columns only of
    the ``matched`` rows the layout's filter wants; the line number and
    reason of each skipped row; the codes of the country names, in the order
    the names were first read; the line after the last line read; and
    ``runs`` runs of rows, each row from ``starts[j]`` on ending on line row
    + ``offsets[j]``: a skipped row, a blank line, a row that spans lines or
    the start of a part starts a run.  Both arrays may hold room for more."""

    columns: dict[str, np.ndarray]
    rows: int
    matched: int
    skipped: list[tuple[int, str]]
    codes: dict[str, int]
    line: int
    starts: np.ndarray
    offsets: np.ndarray
    runs: int


def _read_part(blocks, line: int, layout: _Layout) -> _Part:
    """The rows of ``blocks``, as :func:`_byte_blocks` yields them, the
    first starting on line ``line``.

    Each block's cells become columns, each read by one _cast, lookup or
    source coding.  Each check of a row is a mask over the block, in order:
    one per declared cell (a country code < 0, a year not read, a share not
    read or not finite, a source code < 0), then one per share rule.  A row
    that fails one is skipped, with the reason of the first: a cell's is
    worded by :meth:`_Layout.reason`, a rule's from the shares read.  Only
    the rows that pass every check are copied to the ends of the part's key
    columns, which grow in place, and of those only the rows the layout's
    filter wants to the ends of its share columns; and the rows where line
    less row changes.
    """
    codes: dict[str, int] = {}

    def country_code(text: str) -> int:
        return codes.setdefault(text, len(codes)) if text else -1

    columns = {name: np.empty(0, dtype) for name, dtype in _COLUMNS.items()}
    starts, offsets, runs = np.empty(0, np.int64), np.empty(0, np.int64), 0
    skipped: list[tuple[int, str]] = []
    country_memo: dict = {}
    source_memo: dict = {}
    done = matched = 0
    width = max(layout.where) + 1
    widths = list(_CELL_BYTES[: len(layout.declared)])
    for cells, short, numbers, line in _blocks(blocks, line, list(layout.where), widths):
        country = _lookup(cells[0], country_code, country_memo)
        year, read = _cast(cells[1], np.int64)
        failed, shares = [country < 0, ~read], []
        for col, s in zip(cells[2:5], layout.scale):
            values, read = _cast(col, np.float64)
            failed.append(~(read & np.isfinite(values)))
            shares.append(values / s)
        values = {"country": country, "year": year}
        values.update(zip(("gini", "top10", "bottom10"), shares))
        if len(cells) > 5:
            values["source"] = _source_codes(cells[5], source_memo)
            failed.append(values["source"] < 0)
        else:
            values["source"] = np.full(len(numbers), SOURCES.index(layout.default_source))
        failed += [~rule(*shares) for rule, _ in _SHARE_RULES]
        failed = np.array(failed)
        ok = ~failed.any(axis=0)
        bad = np.flatnonzero(~ok)
        for j, k in zip(bad.tolist(), failed[:, bad].argmax(axis=0).tolist()):
            if k < len(cells):
                reason = layout.reason(k, cells[k][j], short.get(j, width))
            else:
                reason = _SHARE_RULES[k - len(cells)][1].format(*(share[j].item() for share in shares))
            skipped.append((numbers[j].item(), reason))
        code = codes.get(layout.wanted.country, -1)
        wanted = ok & layout.wanted.mask(values["country"], values["year"], values["source"], code)
        for name, column in columns.items():
            if name in _KEYS:
                _append(column, done, values[name][ok])
            else:
                _append(column, matched, values[name][wanted])
        stop, matched = done + np.count_nonzero(ok), matched + np.count_nonzero(wanted)
        shift = numbers[ok] - np.arange(done, stop)
        change = np.flatnonzero(np.diff(shift, prepend=offsets[runs - 1] if runs else 0))
        _append(starts, runs, change + done)
        runs = _append(offsets, runs, shift[change])
        done = stop
    return _Part(columns, done, matched, skipped, codes, line, starts, offsets, runs)


# A file is parsed in parts, each by a process of its own, only where each
# part holds at least this many bytes.  On 2 CPUs a bench-shaped panel of
# 1.1 MB parsed as fast in two parts as in one, and one of 2.3 MB 19% faster.
_PART_BYTES = 1 << 20
# The bytes of part 0 over those of each other part: the parent process
# parses part 0 and then joins the others.
_FIRST_PART_SHARE = 0.9


class _SplitFailed(Exception):
    """A parse in parts that cannot stand: a child process failed, or a part
    ended inside a quoted field, so the next one started inside it."""


def _line_cut(fd: int, target: int, end: int) -> int:
    """The offset just after the first line end ("\\n", "\\r\\n" or a lone
    "\\r") at or past the byte offset ``target`` of the file ``fd``, read by
    ``os.pread`` a block at a time, or ``end`` where no line ends before it."""
    for data in _file_chunks(fd, target, end):
        if found := re.search(rb"\r\n?|\n", data):
            cut = target + found.end()
            # A "\r" that ends the read may be the first byte of a "\r\n".
            if found.group() == b"\r" and found.end() == len(data):
                cut += os.pread(fd, 1, cut) == b"\n"
            return min(cut, end)
        target += len(data)
    return end


def _split_plan(source) -> list[tuple[int, int]] | None:
    """The byte range of each part ``source`` is parsed in, up to one per
    usable CPU, or None where one process parses it whole, as it parses
    stdin or text: it is not a binary stream of a regular file, fewer than
    2 * ``_PART_BYTES`` bytes are left to read, one CPU is usable, the
    process may not fork (see :func:`_may_fork`), or no line ends past the
    first cut's target.  Part 0 holds ``_FIRST_PART_SHARE`` times the bytes
    of each other part.  Each part is cut just after the first line end at
    or past its target, quotes unread; a target an earlier cut has passed
    makes no cut."""
    if type(source) not in (io.BufferedReader, io.FileIO) or not _may_fork():
        return None
    try:
        fd = source.fileno()
        info = os.fstat(fd)
        start = source.tell()
    except (OSError, ValueError):  # closed: the read fails as it always has
        return None
    if not stat.S_ISREG(info.st_mode):
        return None
    end = info.st_size
    count = min((end - start) // _PART_BYTES, _usable_cpus())
    if count < 2:
        return None
    weight = _FIRST_PART_SHARE + count - 1
    cuts = [start]
    for k in range(count - 1):
        target = start + int((end - start) * (_FIRST_PART_SHARE + k) / weight)
        if target >= cuts[-1] and (cut := _line_cut(fd, target, end)) < end:
            cuts.append(cut)
    if len(cuts) < 2:
        return None
    return list(zip(cuts, [*cuts[1:], end]))


def _fork_part(layout: _Layout, pieces, at_cut: bool, children: Children):
    """The pipe of a child process, one of ``children``, that parses the part
    ``pieces`` of a file, its first line numbered 1, as :func:`_byte_blocks`
    reads it with ``at_cut`` (None where no process is to be had).  It sends
    its row count, the count of rows its filter wants, its diagnostics,
    country names, the line after its last and its runs of rows, pickled,
    then the bytes of each column in order: the keys of every row and the
    shares of the rows wanted."""

    def send(pipe) -> None:
        part = _read_part(_byte_blocks(pieces, head=False, at_cut=at_cut), 1, layout)
        runs = part.starts[: part.runs], part.offsets[: part.runs]
        pickle.dump((part.rows, part.matched, part.skipped, list(part.codes), part.line, *runs), pipe)
        for name, column in part.columns.items():
            pipe.write(column[: part.rows if name in _KEYS else part.matched])

    return children.start(send)


def _receive(pipe, part: _Part) -> None:
    """Append the rows a child process sends down ``pipe`` (see
    :func:`_fork_part`) to ``part``: its columns grow in place, to the rows
    held, and take the bytes as they are read.  The child's country codes
    become the part's, and its runs of rows move on by the part's rows and
    lines.  The child sends only the rows that passed every check, and the
    shares only of those its filter wants, which may be none.  Raises where
    the pipe ends early or holds no pickle."""
    rows, matched, skipped, names, line, starts, offsets = pickle.load(pipe)
    done, shift = part.rows, part.line - 1
    for name, column in part.columns.items():
        start, count = (done, rows) if name in _KEYS else (part.matched, matched)
        column.resize(start + count, refcheck=False)
        # A buffered pipe fills the view but at the pipe's end.
        if pipe.readinto(memoryview(column[start : start + count]).cast("B")) < count * column.itemsize:
            raise EOFError("a part's rows end early")
    _append(part.starts, part.runs, starts + done)
    part.runs = _append(part.offsets, part.runs, offsets + (shift - done))
    codes = part.codes
    table = np.array([codes.setdefault(name, len(codes)) for name in names], dtype=np.intp)
    _remap(part.columns["country"][done : done + rows], table)
    part.skipped += [(at + shift, reason) for at, reason in skipped]
    part.rows += rows
    part.matched += matched
    part.line += line - 1


def _read_parts(blocks, line: int, layout: _Layout, later=()) -> _Part:
    """The rows of every part of the input in order: part 0 read from
    ``blocks`` here, the first row on line ``line``, and each part of
    ``later``, pieces as :func:`_file_chunks` reads them, in a child process
    forked for it.  Raises :class:`_SplitFailed` where a child failed or a
    part ended inside a quoted field.  No child outlives the call (see
    :class:`Children`)."""
    with Children() as children:
        pipes = [_fork_part(layout, pieces, pieces is not later[-1], children) for pieces in later]
        if None in pipes:
            raise _SplitFailed("no process to be had")
        part = _read_part(blocks, line, layout)
        for pipe in pipes:
            try:
                _receive(pipe, part)
            except Exception as exc:  # a short read or a bad pickle
                raise _SplitFailed("a part failed") from exc
            if not children.reap(pipe):
                raise _SplitFailed("a part failed")
        return part


def _parse(blocks, schema: SchemaConfig, label: str, wanted: _Filter, sliced: bool, later=()):
    """:func:`parse_panel` of ``blocks``, as :func:`_byte_blocks` yields
    them: of all the input, or of part 0 of a file whose ``later`` parts
    child processes parse (see :func:`_read_parts`), keeping the shares of
    the rows ``wanted``.  The header is the first row of the first block,
    blank or not: a blank one names no column.  The key columns hold only
    the rows that passed every check; of those, the rows that repeat an
    earlier key are diagnosed on the lines their runs give after the key
    sort.  They are then compacted out in file order, or, where the panel
    is ``sliced``, the order itself is cut to the rows wanted that repeat
    no key, the shares are gathered by it and the key columns decoded from
    it: packed keys sorted in the year column's place, or the lexsort order
    of keys too wide to pack, which gathers them."""
    first, plain, lines, rows = next(blocks, (b"", True, 0, None))
    if not first:
        raise SchemaError("input has no header row")
    row = 0 if first[0] == ord("\n") else int(rows[0])  # the header ends on line row + 1
    head = b"".join(itertools.islice(io.BytesIO(first), row + 1))
    header = [h.strip() for h in _csv_rows(head.decode("utf-8", _ERRORS), 1)[0]]
    rest = (first[len(head) :], plain, lines - row - 1, rows[rows > row] - row - 1)
    blocks = itertools.chain([rest] if rest[0] else [], blocks)
    del first, rest  # the rest of the first block is held only by ``blocks``
    positions = {name: i for i, name in enumerate(header)}

    declared = [schema.country, schema.year, schema.gini, schema.top10, schema.bottom10]
    missing = [col for col in declared if col not in positions]
    if schema.source is not None and schema.source not in positions:
        missing.append(schema.source)
    if missing:
        raise SchemaError(f"missing declared column(s): {', '.join(missing)}")
    source_col = schema.source
    if source_col is None and "source" in positions:
        source_col = "source"
    if source_col is not None:
        declared.append(source_col)
    units = (schema.gini_unit, schema.share_unit, schema.share_unit)
    layout = _Layout(
        tuple(declared),
        tuple(positions[col] for col in declared),
        tuple(100.0 if unit == "percent" else 1.0 for unit in units),
        schema.default_source,
        wanted,
    )
    part = _read_parts(blocks, row + 2, layout, later)

    columns, skipped, codes, done = part.columns, part.skipped, part.codes, part.rows
    if len(codes) > (limit := np.iinfo(_COLUMNS["country"]).max + 1):
        raise ValueError(f"more than {limit} country names")
    for name in columns:
        columns[name].resize(done if name in _KEYS else part.matched, refcheck=False)
    country, year, source = (columns[name] for name in _KEYS)
    # The names used, marked a slice at a time: np.bincount copies the column to intp.
    used = np.zeros(len(codes), dtype=bool)
    for rows in _slices(country):
        used[country[rows]] = True
    names = sorted(name for name, code in codes.items() if used[code])
    rank = np.zeros(len(codes), dtype=_COLUMNS["country"])
    rank[[codes[name] for name in names]] = np.arange(len(names))
    _remap(country, rank)

    # One key sort of the rows serves the duplicate check and the key order;
    # a sliced parse sorts packed keys in the year column's own buffer.
    packing = _Packing.of(country, year) if sliced and done else None
    if packing:
        del columns["country"], columns["source"]
        order, repeat, unpack = year, packing.sort(country, year, source, year), packing.unpack
        del country, year, source
    else:
        order, repeat = _key_sort(country, year, source)

        def unpack(at):
            return country[at], year[at], source[at], at

    *key, repeats = unpack(order[repeat])
    lines = repeats + part.offsets[np.searchsorted(part.starts[: part.runs], repeats, "right") - 1]
    for line, c, y, s in zip(lines.tolist(), *(column.tolist() for column in key)):
        skipped.append((line, f"duplicate record {(names[c], y, SOURCES[s].value)}"))
    if repeats.size:
        skipped.sort(key=lambda diagnostic: diagnostic[0])
    if sliced:
        code, chosen = wanted.code(names), [np.empty(0, np.int64)]

        def keep(rows):
            kept = ~repeat[rows]
            if wanted:
                *key, at = unpack(order[rows])
                match = wanted.mask(*key, code)
                chosen.append(at[match])
                kept &= match
            return kept

        _compact(order, keep)
        del repeat, keep
        # The shares of a row wanted are at its index among the rows wanted.
        chosen = np.sort(np.concatenate(chosen))
        # A column at a time, each old one dropped as its copy takes its place.
        for name in ("gini", "top10", "bottom10"):
            shares, columns[name] = columns[name], np.empty(len(order), _COLUMNS[name])
            for rows in _slices(order):
                at = unpack(order[rows])[3]
                columns[name][rows] = shares[np.searchsorted(chosen, at) if wanted else at]
            del shares
        if packing:
            # The year is decoded in place, the other key columns into new ones.
            country, source = (np.empty(len(order), _COLUMNS[name]) for name in ("country", "source"))
            for rows in _slices(order):
                country[rows], order[rows], source[rows], _ = packing.unpack(order[rows])
            columns.update(country=country, source=source)
        else:
            del country, year, source, unpack
            for name in _KEYS:
                columns[name] = columns[name][order]
        order = range(len(order))
    elif repeats.size:
        del country, year, source, unpack
        _compact(order, lambda rows: ~repeat[rows])
        del repeat
        kept = np.ones(done, dtype=bool)
        kept[repeats] = False
        for column in columns.values():
            _compact(column, kept.__getitem__)
        # A row left is numbered by the rows kept before it, counted in bits.
        bits = np.packbits(kept, bitorder="little")
        del kept
        ones = np.array([bin(v).count("1") for v in range(256)])
        through = np.cumsum(ones[bits])
        for rows in _slices(order):
            at = order[rows]
            order[rows] = through[at >> 3] - ones[bits[at >> 3] >> (at & 7)]
    panel = Panel.__new__(Panel)._set(label, names, order, **columns)
    return panel, [RowDiagnostic(line, reason) for line, reason in skipped]


def parse_panel(
    data,
    schema: SchemaConfig = SchemaConfig(),
    label: str = "",
    *,
    year: int | None = None,
    source: Source | None = None,
    country: str | None = None,
    sliced: bool = False,
) -> tuple[Panel, list[RowDiagnostic]]:
    """Parse CSV into a panel plus per-row diagnostics.

    ``data`` is the CSV text, or a binary or text stream of it, read a
    block of whole rows at a time: the whole input is never held (a quoted
    field is refused once it passes csv's field limit), and the panel's
    columns grow in place as the blocks are read.  A leading byte-order
    mark is dropped, and lines end at "\\n", "\\r\\n" or a lone "\\r", as
    with universal newlines.  Bytes that are not UTF-8, or a cell past
    csv's field limit, raise ValueError.

    A binary file of at least 2 * ``_PART_BYTES`` bytes, on a machine with
    more than one usable CPU, is read in parts, one per CPU, each cut just
    after a line end: this process parses the first and a forked child
    process each other, and the rows are joined in file order.  Where a
    child fails, or a part but the last ends inside a quoted field, this
    process parses the whole input again, so every result and error reads
    as it always does.  The stream is left at the end of the file.

    Every non-empty data row either becomes a row of the panel, in file
    order, or produces exactly one diagnostic; there is no silent coercion.
    A row gets the reason of the first check it fails: its cells in the
    order country, year, gini, top10, bottom10, source, then the record's
    range and ordering rules, then a repeat of an earlier kept row's key.
    The panel also keeps the stable (country, year, source) order that the
    duplicate check sorted, which :func:`slice_panel` reuses.  Percent-mode
    columns are divided by 100 on the way in.

    The filters ``year``, ``source`` and ``country`` mean what they mean to
    :func:`slice_panel`.  Given one, or ``sliced``, the panel is the one
    ``slice_panel(whole, year, source, country)`` gives of the whole parse
    ``whole``, with the same names and diagnostics: the rows the filters
    keep, in key order, which ``slice_panel`` then returns as they are.
    Every row is still read and checked, and each valid row keeps its
    13 bytes of key columns until the key sort has found the repeats; only
    the rows the filters keep hold their 24 bytes of shares.  The keys are
    packed into the year column's own buffer, the other key columns dropped,
    and the repeats, the filters' rows and the panel's key columns decoded
    from the sorted keys; only the shares are gathered.  A filtered parse
    peaks at about 15 bytes a row (while it reads), an unfiltered sliced one
    at about 38 (while it gathers a share column) and a whole one at 45.
    """
    wanted = _Filter(year, source, country)
    sliced = sliced or bool(wanted)
    plan = _split_plan(data)
    if plan is not None:
        parts = [_file_chunks(data.fileno(), lo, hi) for lo, hi in plan]
        try:
            parsed = _parse(_byte_blocks(parts[0], at_cut=True), schema, label, wanted, sliced, parts[1:])
            data.seek(0, io.SEEK_END)
            return parsed
        except _SplitFailed:  # parsed whole below
            pass
    return _parse(_byte_blocks(_chunks(data)), schema, label, wanted, sliced)


def _share_ratio(rows, numerator, denominator, zero_bottom: float):
    """numerator / denominator, or ``zero_bottom`` where the bottom share is 0."""
    out = np.full(np.shape(rows.bottom10), zero_bottom)
    with np.errstate(over="ignore"):  # a subnormal bottom share's T/B is +inf
        np.divide(numerator, denominator, out=out, where=np.asarray(rows.bottom10) != 0.0)
    return float(out) if out.ndim == 0 else out


def ratio_of(rows):
    """Canonical B/T share ratio of a record, or of every row of a panel;
    0 where the bottom share is 0."""
    return _share_ratio(rows, rows.bottom10, rows.top10, 0.0)


def t_over_b_of(rows):
    """Printed-style T/B ratio of a record, or of every row of a panel;
    +infinity where the bottom share is 0."""
    return _share_ratio(rows, rows.top10, rows.bottom10, np.inf)


def slice_panel(
    panel: Panel,
    year: int | None = None,
    source: Source | None = None,
    country: str | None = None,
) -> Panel:
    """Rows matching the filters, in ascending (country, year, source) order:
    the panel's key order, filtered, with no sort of its own.  Only the rows
    kept are copied, and an unfiltered panel in key order is returned itself."""
    rows = panel._key_order(year, source, country)
    return panel if isinstance(rows, range) else panel.take(rows)


CANONICAL_COLUMNS = ("country", "year", "source", "gini", "top10", "bottom10")


def serialize_panel(panel: Panel) -> str:
    """Canonical CSV (decimal units, fixed column order, full float precision)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CANONICAL_COLUMNS)
    for r in panel.records:
        writer.writerow(
            [r.country, r.year, r.source.value, repr(r.gini), repr(r.top10), repr(r.bottom10)]
        )
    return out.getvalue()
