"""The CSV dialect of every table the pipeline reads or writes: ``CsvRecords`` reads an input file, and
``csv_text`` and ``csv_chunks`` write a table given column by column, through the vectorized cell kernels below.
"""

from __future__ import annotations

import csv
import io
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from datetime import datetime
from functools import partial

import numpy as np

from .errors import SchemaError

CSV_CHUNK_ROWS = 512


def format_cell(value) -> str:
    """One CSV cell: None is empty, any float its shortest round-trip repr, anything else str."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # float(): numpy 2 reprs np.float64 as 'np.float64(x)'
    return str(value)


class CsvRecords:
    """An input CSV's header index and data rows, read by the rules of every input table.

    ``data`` is the file's bytes (a str is encoded as UTF-8). Header cells are stripped of
    whitespace, and ``col[name]`` is the first column so named. Iterating yields each data
    row's physical line (a quoted cell may span lines) and cells; rows whose cells are all
    blank are skipped. An empty file, a header without one of ``required`` and a row shorter
    than the header raise SchemaError, naming the file by ``what``; so does text the csv
    module cannot read (an unclosed quote, a carriage return inside an unquoted cell),
    naming the line its record starts on.

    ``read`` and ``table`` type a column by its dtype's kind: ``O`` text, ``i`` an integer
    within int64, ``f`` a finite number, ``u`` a count (integral, 0 to 2**53), ``M`` an
    ISO-8601 timestamp in its own clock. A blank cell of an ``f`` or ``u`` column not in
    ``required`` is absent (nan, or a count of 0).
    """

    def __init__(self, data: bytes | str, required: Sequence[str], what: str):
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")
        self._data, self._stream, self._required = data, io.BytesIO(data), set(required)
        self._reader = csv.reader(map(partial(bytes.decode, encoding="utf-8", errors="surrogatepass"), self._stream))
        header = self._next()
        if header is None:
            raise SchemaError(f"{what} file is empty (header required)")
        header = [h.strip() for h in header]
        self.col = {name: header.index(name) for name in header}
        missing = [c for c in required if c not in self.col]
        if missing:
            raise SchemaError(f"{what} header missing required columns: {missing}")
        self._width = len(header)

    def read(self, dtype: np.dtype) -> tuple[dict[str, np.ndarray], list[int], SchemaError | None]:
        """The columns named by ``dtype``'s fields, and each row's line, up to the first refused cell, short row
        or unreadable text, returned with its SchemaError (or None) so that a caller's row checks come first.

        The first cell refused, in row order and then field order, gives ``line N: column 'c' is not <what>:
        '<cell>'``.
        """
        rows, error = [], None
        try:
            rows.extend(self)
        except SchemaError as exc:
            error = exc
        lines, columns = [line for line, _ in rows], list(zip(*(cells for _, cells in rows))) or [()] * self._width
        end, values = len(rows), {}
        for name in dtype.names:
            cells = columns[self.col[name]]
            values[name], first, what = _typed(dtype[name], cells, name not in self._required)
            if first < end:
                end, error = first, SchemaError(f"line {lines[first]}: column {name!r} is not {what}: {cells[first]!r}")
        return {name: column[:end] for name, column in values.items()}, lines[:end], error

    def table(self, dtype: np.dtype) -> np.ndarray:
        """``read(dtype)``'s columns, of fields of kind O, i or f, as one array read in one C-level np.loadtxt pass.

        loadtxt reads this dialect (a ``#`` is no comment, a quoted cell may span lines), but
        it raises ValueError on a blank row other than an empty line, on a short row and on
        a cell ``dtype`` cannot take; so does a non-finite number, which loadtxt takes. The
        rows are then still there to read. On ASCII text without the separators \\x1c-\\x1f
        it reads numbers as int()/float() do. Other text raises ValueError before loadtxt
        runs, for the row reader to take: loadtxt takes the separators for whitespace, which
        int()/float() refuse, and reads bytes as latin-1, not UTF-8.
        """
        if not self._data.isascii() or any(bytes([c]) in self._data for c in range(0x1C, 0x20)):
            raise ValueError("text np.loadtxt reads differently from the row reader")
        names = list(dtype.names)
        usecols = [self.col[name] for name in names]
        if self._width - 1 not in usecols:  # so that loadtxt refuses a row shorter than the header
            usecols.append(self._width - 1)
            dtype = np.dtype([*((name, dtype[name]) for name in names), ("_last_column", object)])
        start = self._stream.tell()
        if not _NOT_BLANK.search(self._data, start):
            return np.empty(0, dtype)  # header only: loadtxt would warn "input contained no data"
        try:
            table = np.loadtxt(self._stream, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                               usecols=usecols, ndmin=1)
        finally:
            self._stream.seek(start)
        if not all(np.isfinite(table[name]).all() for name in names if dtype[name].kind == "f"):
            raise ValueError("a number that is not finite")
        return table

    def _next(self) -> list[str] | None:
        """The next record's cells, None after the last."""
        start = self._reader.line_num + 1
        try:
            return next(self._reader, None)
        except csv.Error as exc:
            raise SchemaError(f"line {start}: {exc}") from exc

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        reader, width = self._reader, self._width
        while (row := self._next()) is not None:
            # Blankness is tested only on a short row or one whose first cell is blank.
            if len(row) < width or not row[0].strip():
                if not any(c.strip() for c in row):
                    continue
                if len(row) < width:
                    raise SchemaError(f"line {reader.line_num}: expected {width} fields, got {len(row)}")
            yield reader.line_num, row


def _minutes(cell: str) -> int:
    """An ISO-8601 timestamp's minutes since 1970-01-01T00:00 in its own clock."""
    stamp = datetime.fromisoformat(cell.strip().replace("Z", "+00:00"))
    return (stamp.toordinal() - 719163) * 1440 + stamp.hour * 60 + stamp.minute  # 719163: 1970-01-01's ordinal


# dtype kind: what a cell must be, its parse (ValueError if none) and the parsed dtype (an int outside int64
# is an OverflowError), a check of the values with what a value failing it is not, and a blank optional cell
_CELL_RULES = {
    "O": ("text", str, object, None, None),
    "i": ("an integer", int, np.int64, None, None),
    "f": ("a number", float, np.float64, (np.isfinite, "finite"), "nan"),
    "u": ("a count", float, np.float64, (lambda v: (0 <= v) & (v <= 2**53) & (v % 1 == 0), "a count"), "0"),
    "M": ("an ISO-8601 timestamp", _minutes, np.int64, None, None),
}


def _typed(dtype: np.dtype, cells: Sequence[str], optional: bool) -> tuple[np.ndarray, int, str]:
    """``cells`` converted whole by the rule of ``dtype``'s kind, and one at a time only to find the first refused:
    the values before it, its index (len(cells) if none is) and what it is not."""
    what, parse, parsed, check, blank = _CELL_RULES[dtype.kind]
    absent = np.array(cells, dtype=object) == "" if optional and blank else np.zeros(len(cells), dtype=bool)
    if absent.any():
        parse = lambda cell, parse=parse: parse(cell or blank)  # noqa: E731
    values = []
    try:
        values = np.fromiter(map(parse, cells), parsed, len(cells))
    except (ValueError, OverflowError):
        for cell in cells:
            try:
                values.append(np.fromiter(map(parse, [cell]), parsed, 1)[0])
            except (ValueError, OverflowError):
                break
        values = np.array(values, dtype=parsed)
    first = len(values)
    if check is not None and not (ok := check[0](values) | absent[:first]).all():
        first, what = int(np.argmin(ok)), check[1]
    return values[:first].astype(dtype), first, what


@dataclass(frozen=True)
class CodedColumn:
    """A column for csv_text whose cell i is ``labels[codes[i]]``: each label is formatted once."""

    labels: Sequence
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> "CodedColumn":
        return CodedColumn(self.labels, self.codes[rows])


_NOT_BLANK = re.compile(rb"\S")
_CSV_QUOTED = re.compile('[,"\n\r]')  # a cell holding one of these is quoted


def _csv_cells(column) -> list[str]:
    """One column's cells as text, by format_cell, each quoted that holds a comma, quote, newline or CR."""
    cells = list(map(format_cell, column))
    if _CSV_QUOTED.search("".join(cells)):
        cells = ['"' + c.replace('"', '""') + '"' if _CSV_QUOTED.search(c) else c for c in cells]
    return cells


# Cell bytes. csv_chunks builds each chunk as one uint8 array: every cell of a column is a fixed-width row of
# bytes with a mask of the bytes it keeps, so a cell holding a NUL keeps it. Number cells are laid out in words
# of four bytes, so that whole groups of four digits are copied at once.
_GROUPS = np.arange(10_000, dtype=np.uint16)
_DIGITS4 = np.stack([(_GROUPS // 10**k % 10 + ord("0")).astype(np.uint8) for k in (3, 2, 1, 0)], axis=1)
_DIGITS4 = _DIGITS4.view(np.uint32)[:, 0]  # the four ASCII digits of 0..9999, as one word each
_TRAILING_ZEROS4 = sum((_GROUPS % 10**k == 0).view(np.int8) for k in range(1, 5))  # 4 for 0
_MINUS, _DOT = (np.frombuffer(word, np.uint32)[0] for word in (b"   -", b".   "))
_POW10_INT = 10 ** np.arange(1, 20, dtype=np.uint64)
_INT_CELL_WIDTH = 24  # three unused bytes, '-', then 20 digits
_INT_KEEP = np.zeros((2, 20, _INT_CELL_WIDTH), bool)  # [negative, digits - 1]
_INT_KEEP[1, :, 3] = True
_INT_KEEP[:, :, 4:] = np.arange(20) >= 19 - np.arange(20)[:, None]
_INT_KEEP = _INT_KEEP.reshape(40, _INT_CELL_WIDTH)


def _digit_words(values: np.ndarray) -> np.ndarray:
    """(n, 5) words of the 20 ASCII digits of nonnegative integers below 10**20, leading zeros included."""
    groups = np.empty((values.size, 5), values.dtype)
    for i in range(4, 0, -1):
        quotient = values // 10_000
        groups[:, i] = values - quotient * 10_000
        values = quotient
    groups[:, 0] = values
    return _DIGITS4[groups]


def _int_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The str of each integer of ``values`` (of numpy's int or uint dtypes) as (n, _INT_CELL_WIDTH) bytes and the
    mask of the bytes each cell keeps."""
    negative = values < 0
    magnitude = values.astype(np.uint64)
    magnitude = np.where(negative, ~magnitude + np.uint64(1), magnitude)  # two's complement, so -2**63 holds
    words = np.empty((values.size, _INT_CELL_WIDTH // 4), np.uint32)
    words[:, 0] = _MINUS
    words[:, 1:] = _digit_words(magnitude)
    keep = np.take(_INT_KEEP, negative * 20 + np.searchsorted(_POW10_INT, magnitude, side="right"), axis=0)
    return words.view(np.uint8), keep


def _text_cells(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Text cells as UTF-8 (lone surrogates passed through) in (n, longest) bytes and the kept mask."""
    encoded = [cell.encode("utf-8", "surrogatepass") for cell in cells]
    sizes = np.fromiter(map(len, encoded), np.intp, len(encoded))
    width = max(1, int(sizes.max(initial=0)))
    rows = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)
    return rows, np.arange(width) < sizes[:, None]


# Float cells: repr's digits for a whole column at once. repr writes the shortest digits that round-trip
# (Steele & White 1990, "How to print floating-point numbers accurately"; Adams 2018, "Ryu: fast float-to-string
# conversion"), positionally for 1e-4 <= |x| < 1e16. Such an x, scaled by 10**(16 - floor(log10|x|)), is an S in
# [1e16, 1e17). The multiplier is an exact double, so Dekker's two-product gives S exactly as a double-double,
# and the ends of x's rounding interval (x minus or plus half the gap to its neighbour, a power of two) scale
# exactly too. The interval is then 1.1 to 22.3 wide: it holds an integer and at most one multiple of 100.
_FLOAT_CELL_WIDTH = 48  # three unused bytes, '-', 20 digits, '.', three unused bytes, the 20 digits again
_FLOAT_RANGE = (1e-4, 1e16)
_NEAR = 1e-9  # an interval end or tie this close to an integer takes repr, which knows the exact rule
_POW10 = np.array([float(10**k) for k in range(21)])  # 10**0 .. 10**20, each an exact double
_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a double into two halves of 26 bits
_EXPONENT_BITS = np.uint64(0x7FF0000000000000)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = high + low exactly, each of at most 26 significant bits, so their products are exact."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _float_keep() -> np.ndarray:
    """[negative, exponent + 4, last nonzero digit]: the bytes a decided cell keeps, as rows of one array.

    The 20 digits are those of the digit integer M < 10**17, so the first three are 0, and the cell's value is
    M * 10**(exponent - 16). Its integer part is digits 3 .. 3 + exponent (digit 2, a 0, for a negative
    exponent); its fraction runs from digit 4 + exponent to the last nonzero digit, and is one 0 if none is.
    """
    exponent, last, place = np.arange(-4, 16)[:, None, None], np.arange(20)[None, :, None], np.arange(20)
    keep = np.zeros((2, 20, 20, _FLOAT_CELL_WIDTH), bool)
    keep[1, ..., 3] = True
    keep[..., 4:24] = np.where(exponent >= 0, (place >= 3) & (place <= 3 + exponent), place == 2)
    keep[..., 24] = True
    keep[..., 28:] = (place >= 4 + exponent) & (place <= np.maximum(last, 4 + exponent))
    return keep.reshape(800, _FLOAT_CELL_WIDTH)


_FLOAT_KEEP = _float_keep()


def _scaled(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each x (positive and finite) scaled by 10**(16 - exponent), exponent about floor(log10(x)): the exponent,
    the scaled value as integer n plus frac in [0, 1), and the half gaps to x's neighbours below and above, each
    scaled alike. All but the exponent's choice are exact."""
    exponent = np.clip(np.floor(np.log10(x)), -4, 15).astype(np.intp)  # log10 may be off: the caller checks n
    scale = _POW10[16 - exponent]
    s = x * scale
    x_high, x_low = _split(x)
    high, low = _POW10_HIGH[16 - exponent], _POW10_LOW[16 - exponent]
    s_err = ((x_high * high - s) + x_high * low + x_low * high) + x_low * low  # x * scale = s + s_err exactly
    floor_err = np.floor(s_err)
    power = (x.view(np.uint64) & _EXPONENT_BITS).view(np.float64)  # the power of two at or below x
    up = power * 2.0**-53 * scale
    return (exponent, s.astype(np.int64) + floor_err.astype(np.int64), s_err - floor_err,
            np.where(x == power, up / 2, up), up)  # below a power of two the gap halves


def _nearest_multiple(n, rest, step, low, high):
    """The multiple of ``step`` nearest to n + rest of those in (low, high], whether one is there, and whether two
    are, equally near to within _NEAR. ``n`` is a multiple of ``step``, ``rest`` is in [0, step), and all are
    floats holding small integers but ``rest``."""
    below, above = n > low, n + step <= high
    both = below & above
    return (n + step * (~below | both & (rest > step / 2)), below | above,
            both & (np.abs(rest - step / 2) < _NEAR))


def _shortest(n: np.ndarray, frac: np.ndarray, down: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The multiple of the largest power of ten strictly inside (S - down, S + up), S = n + frac in [1e16, 1e17),
    the one nearest to S, and whether it is decided: no end of the interval, and no tie between two nearest
    multiples, within _NEAR of an integer.

    The interval is 1.1 to 22.3 wide: it holds an integer, and at most one multiple of 100. So S is taken as
    base + t, base a multiple of 100 and t in [0, 100), and the candidates are small integers, exact as floats.
    """
    base = n // 100 * 100
    r = (n - base).astype(np.float64)
    t = r + frac
    lower, upper = t - down, t + up
    decided = (np.abs(lower - np.rint(lower)) >= _NEAR) & (np.abs(upper - np.rint(upper)) >= _NEAR)
    low, high = np.floor(lower), np.floor(upper)  # the integers inside are low + 1 .. high
    ten_below = np.floor(r / 10) * 10
    ten, has_ten, tie_ten = _nearest_multiple(ten_below, t - ten_below, 10, low, high)
    one, _, tie_one = _nearest_multiple(r, frac, 1, low, high)
    has_hundred = (low < 0) | (high >= 100)
    decided &= has_hundred | ~np.where(has_ten, tie_ten, tie_one)
    nearest = np.where(has_hundred, np.where(low < 0, 0, 100), np.where(has_ten, ten, one))
    return base + nearest.astype(np.int64), decided


def float_cells(values: np.ndarray, absent: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The repr of each float of ``values`` as (n, _FLOAT_CELL_WIDTH) bytes, the mask of the bytes each cell keeps,
    and how many cells repr formatted. An ``absent`` cell keeps no byte and is not formatted.

    0.0, -0.0 and every x with 1e-4 <= |x| < 1e16 are decided here: the digits are those of the multiple of
    the largest power of ten that lies strictly inside x's rounding interval, the one nearest to x, laid out
    positionally. repr formats every other cell: NaN, an infinity, |x| outside that range, and a cell whose
    interval end or tie between two nearest multiples lies within 1e-9 of an integer. There the answer hangs
    on whether an end is inside, which repr's exact rule settles (inside when x's significand is even).
    """
    v = np.asarray(values, dtype=np.float64)
    size = np.abs(v)
    zero, decided = size == 0, (size >= _FLOAT_RANGE[0]) & (size < _FLOAT_RANGE[1])
    exponent, n, frac, down, up = _scaled(np.where(decided, size, 1.0))
    del size  # each chunk's temporaries are the writer's peak: free them as they are used
    decided &= (n >= 10**16) & (n < 10**17)
    digits, shortest = _shortest(n, frac, down, up)
    del n, frac, down, up
    decided &= shortest & (digits < 10**17)  # 10**17 would be the next exponent's: no double in range rounds there
    digits, exponent = np.where(decided, digits, 0), np.where(decided, exponent, 0)  # zero is 0 * 10**-16

    words = np.empty((v.size, _FLOAT_CELL_WIDTH // 4), np.uint32)
    words[:, 0], words[:, 6] = _MINUS, _DOT
    words[:, 1:6] = words[:, 7:] = _digit_words(digits)
    trailing = _TRAILING_ZEROS4[digits % 10_000].astype(np.intp)
    for i in range(1, 5):  # past a group of four zeros, the next group's zeros count too
        more = np.flatnonzero(trailing == 4 * i)
        if not more.size:
            break
        trailing[more] += _TRAILING_ZEROS4[digits[more] // 10 ** (4 * i) % 10_000]
    keep = np.take(_FLOAT_KEEP, (np.signbit(v) * 20 + exponent + 4) * 20 + np.maximum(19 - trailing, 0), axis=0)
    keep[absent] = False
    cells = words.view(np.uint8)
    fallback = np.flatnonzero(~(decided | zero | absent))
    if fallback.size:
        text, text_keep = _text_cells(list(map(repr, v[fallback].tolist())))  # at most 24 bytes
        cells[fallback, : text.shape[1]] = text
        keep[fallback] = np.arange(_FLOAT_CELL_WIDTH) < text_keep.sum(axis=1)[:, None]
    return cells, keep, int(fallback.size)


def _cell_blocks(columns: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each column's cells as (rows, width) bytes and the mask of the bytes each cell keeps, by column kind.

    The float arrays, masked ones too, go through one float_cells call together. A masked cell is empty. A
    CodedColumn's labels are cell blocks already, as csv_chunks passes it; int arrays are their str; any other
    column goes through _csv_cells.
    """
    floats = [c for c in columns if isinstance(c, np.ndarray) and c.dtype.kind == "f"]
    if floats:
        cells, keep, _ = float_cells(np.concatenate([np.ma.getdata(c) for c in floats]),
                                     np.concatenate([np.ma.getmaskarray(c) for c in floats]))
        starts = np.cumsum([0] + [c.size for c in floats])
        float_blocks = iter([(cells[a:b], keep[a:b]) for a, b in zip(starts[:-1], starts[1:])])
    blocks = []
    for column in columns:
        if isinstance(column, CodedColumn):
            rows, keep = column.labels
            blocks.append((rows[column.codes], keep[column.codes]))
        elif isinstance(column, np.ndarray) and column.dtype.kind == "f":
            blocks.append(next(float_blocks))
        elif isinstance(column, np.ndarray) and column.dtype.kind in "iu":
            rows, keep = _int_cells(np.ma.getdata(column))
            keep[np.ma.getmaskarray(column)] = False
            blocks.append((rows, keep))
        else:
            blocks.append(_text_cells(_csv_cells(column)))
    return blocks


def csv_chunks(header: Sequence[str], columns: Iterable) -> Iterator[str]:
    """The text of csv_text(header, columns): the header line, then CSV_CHUNK_ROWS rows at a time.

    Each chunk is one uint8 array of the rows' cell bytes, the commas and the newlines, cut to the bytes each
    cell keeps; the float columns of a chunk are formatted by one float_cells call.
    """
    columns = [CodedColumn(_cell_blocks([c.labels])[0], c.codes) if isinstance(c, CodedColumn) else c
               for c in columns]
    if header:
        yield ",".join(_csv_cells(header)) + "\n"
    rows = min(map(len, columns), default=0)  # cut at the shortest
    for lo in range(0, rows, CSV_CHUNK_ROWS):
        n = min(CSV_CHUNK_ROWS, rows - lo)
        cells, keep = zip(*_cell_blocks([column[lo : lo + n] for column in columns]))
        comma, newline = np.full((n, 1), ord(","), np.uint8), np.full((n, 1), ord("\n"), np.uint8)
        separator = np.ones((n, 1), bool)  # each comma and the newline is kept
        # Each name's blocks are freed as it is rebound, so the blocks and both concatenations are never all held.
        cells = np.concatenate([part for block in cells for part in (block, comma)][:-1] + [newline], axis=1)
        keep = np.concatenate([part for block in keep for part in (block, separator)], axis=1)
        yield cells[keep].tobytes().decode("utf-8", "surrogatepass")


def csv_text(header: Sequence[str], columns: Iterable) -> str:
    """The CSV text of a table given column by column, in the dialect of every file written.

    Lines end in LF. A cell is quoted, inner quotes doubled, only when it holds a comma,
    a quote, a newline or a carriage return, as csv.writer(lineterminator="\\r\\n") quotes
    it. Floats are their shortest round-trip repr, and None and the masked cells of an
    np.ma array are empty; a CodedColumn formats each label once. An empty header writes
    the data lines alone, for text built in chunks. Float array cells come from float_cells.
    """
    return "".join(csv_chunks(header, columns))
