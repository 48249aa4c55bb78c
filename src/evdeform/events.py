"""Event data model and bit-exact file I/O for multi-camera recordings.

Streams hold column arrays (timestamp, x, y, polarity). Two on-disk
formats: a CSV with header ``t_us,x,y,polarity`` and a little-endian binary
format with a 16-byte header carrying magic, version and the declared
sensor size, at most 65535 pixels a side.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BoundsError, ParseError

BINARY_MAGIC = b"EVDSTRM\x00"
BINARY_VERSION = 1
CSV_HEADER = "t_us,x,y,polarity"

_RECORD_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])

# The CSV reader reads and parses blocks of about this many bytes, cut at
# newlines, straight into the stream's columns. A block's rows are found from
# the positions of its non-digit bytes, four to a row, so its temporaries are
# the block's bytes, those positions (8 bytes each) and a few arrays of one
# entry per row. The reader thus holds the stream's columns plus a few blocks
# of temporaries; blocks this small keep those cache-sized, and read a 1M-row
# file as fast as 1 MB blocks do, at a lower peak.
_CSV_BLOCK_BYTES = 1 << 18
_CSV_MAX_DIGITS = 18  # every such integer fits int64
# The CSV writers format and write this many rows at a time, so their
# buffers and temporaries stay cache-sized rather than the file's.
CSV_BLOCK_ROWS = 1 << 15
# The binary reader reads this many records (832 KB) at a time straight into
# the stream's columns: no copy of the file, and no temporary beyond a block.
_BINARY_BLOCK_RECORDS = 1 << 16
_INT32_MAX = np.iinfo(np.int32).max
_UINT16_MAX = np.iinfo(np.uint16).max  # the binary header's sensor size and x, y
_LF, _CR, _COMMA, _ZERO = (np.uint8(ord(c)) for c in "\n\r,0")
# a row's delimiters, ", , , \n", as one word in memory order
_ROW_KINDS = np.frombuffer(b",,,\n", "<u4")[0]
_VALID_ROW = re.compile(rb"(?:[0-9]{1,%d},){3}[01]" % _CSV_MAX_DIGITS)
_POWERS_OF_TEN = 10 ** np.arange(1, _CSV_MAX_DIGITS + 1, dtype=np.int64)
# The four ASCII digits of 0000 ... 9999, each as one word in memory order.
_DIGIT_GROUPS = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)), "<u4")


@dataclass(frozen=True)
class EventStream:
    """Time-ordered events of one camera. Immutable after construction."""

    camera_id: int
    width: int
    height: int
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    polarity: np.ndarray

    def __post_init__(self):
        if max(self.width, self.height) > _INT32_MAX:
            raise BoundsError(f"sensor {self.width}x{self.height} does not fit int32")
        # pixels are checked against the sensor before the int32 cast, which wraps
        x, y = np.asarray(self.x), np.asarray(self.y)
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.int64))
        object.__setattr__(self, "polarity", np.asarray(self.polarity, dtype=bool))
        n = len(self.t)
        if not (len(x) == len(y) == len(self.polarity) == n):
            raise ValueError("event columns differ in length")
        if n:
            if self.t.min() < 0:
                raise ValueError("negative timestamp")
            if np.any(self.t[1:] < self.t[:-1]):
                raise ValueError("timestamps must be non-decreasing")
            if x.min() < 0 or x.max() >= self.width or y.min() < 0 or y.max() >= self.height:
                raise BoundsError(
                    f"event pixel outside sensor {self.width}x{self.height}"
                )
        object.__setattr__(self, "x", x.astype(np.int32, copy=False))
        object.__setattr__(self, "y", y.astype(np.int32, copy=False))

    def __len__(self) -> int:
        return len(self.t)

    @property
    def sensor(self) -> tuple[int, int]:
        return (self.width, self.height)


def make_stream(camera_id, width, height, t, x, y, polarity) -> tuple[EventStream, int]:
    """Build a stream, repairing out-of-order input.

    The warning count is the number of events whose timestamp precedes
    their predecessor's; whenever it is nonzero the records are stably
    re-sorted by (t, x, y, polarity). Already-ordered input is preserved
    exactly.
    """
    t = np.asarray(t, dtype=np.int64)
    x = np.asarray(x)
    y = np.asarray(y)
    p = np.asarray(polarity, dtype=bool)
    warnings = np.count_nonzero(t[1:] < t[:-1])
    if warnings:
        order = np.lexsort((p, y, x, t))
        t, x, y, p = t[order], x[order], y[order], p[order]
    return EventStream(camera_id, width, height, t, x, y, p), warnings


def read_stream(
    path,
    format: str = "csv",
    sensor: tuple[int, int] | None = None,
    camera_id: int = 0,
) -> tuple[EventStream, int]:
    """Load a stream; returns (stream, out_of_order_warning_count).

    CSV needs an explicit sensor size; binary carries it in the header.
    """
    path = Path(path)
    if format == "csv":
        if sensor is None:
            raise ValueError("CSV streams need an explicit sensor size")
        width, height = sensor
        t, x, y, p = _read_csv(path)
    elif format == "binary":
        width, height, t, x, y, p = _read_binary(path)
        if sensor is not None and (width, height) != tuple(sensor):
            raise BoundsError(
                f"declared sensor {sensor} does not match file header "
                f"({width}, {height})"
            )
    else:
        raise ValueError(f"unknown format {format!r}")
    if len(x) and (x.min() < 0 or x.max() >= width or y.min() < 0 or y.max() >= height):
        raise BoundsError(f"event pixel outside declared sensor {width}x{height}")
    return make_stream(camera_id, width, height, t, x, y, p)


def write_stream(stream: EventStream, path, format: str = "csv") -> None:
    path = Path(path)
    if format == "csv":
        columns = (stream.t, stream.x, stream.y)
        if max(v.max(initial=0) for v in columns) >= 10**_CSV_MAX_DIGITS:
            raise ValueError(f"a value has more than the {_CSV_MAX_DIGITS} digits a CSV allows")
        with open(path, "wb") as fh:
            fh.write((CSV_HEADER + "\n").encode())
            for lo in range(0, len(stream), CSV_BLOCK_ROWS):
                block = slice(lo, lo + CSV_BLOCK_ROWS)
                fh.write(_format_csv(*(v[block] for v in columns), stream.polarity[block])[3:])
    elif format == "binary":
        if max(stream.width, stream.height) > _UINT16_MAX:
            raise BoundsError(f"sensor {stream.width}x{stream.height} does not fit the binary "
                              f"format, whose width and height are at most {_UINT16_MAX}")
        header = bytearray(16)
        header[0:8] = BINARY_MAGIC
        header[8:10] = BINARY_VERSION.to_bytes(2, "little")
        header[10:12] = int(stream.width).to_bytes(2, "little")
        header[12:14] = int(stream.height).to_bytes(2, "little")
        records = np.empty(len(stream), dtype=_RECORD_DTYPE)
        records["t"] = stream.t
        records["x"] = stream.x
        records["y"] = stream.y
        records["p"] = stream.polarity
        with open(path, "wb") as fh:
            fh.write(bytes(header))
            records.tofile(fh)
    else:
        raise ValueError(f"unknown format {format!r}")


def digit_counts(values: np.ndarray) -> np.ndarray:
    """Decimal digits of each non-negative integer: one plus the number of
    powers of ten it reaches, compared up to the largest value's."""
    counts = np.ones(len(values), dtype=np.uint8)  # at most 19
    for power in _POWERS_OF_TEN[_POWERS_OF_TEN <= values.max(initial=0)].tolist():
        counts += values >= power
    return counts.astype(np.intp)


def scatter_digits(out: np.ndarray, last: np.ndarray, values: np.ndarray) -> None:
    """Write each non-negative integer's decimal digits into the byte buffer
    out, its last digit at the matching index of last.

    Digits go four at a time, so a value's leading group also writes up to
    three '0's into the bytes left of its first digit. The caller leaves
    three spare bytes before the first field of out, formats fields right
    to left, and writes its separators after all digits.
    """
    words = np.ndarray((len(out) - 3,), "<u4", out, strides=(1,))  # unaligned
    at, rest = last - 3, values
    while len(rest):  # one group of four places per turn, least significant first
        high = rest // 10_000
        words[at] = _DIGIT_GROUPS[rest - high * 10_000]
        more = high > 0
        rest, at = (high, at) if more.all() else (high[more], at[more])
        at = at - 4


def _format_csv(t, x, y, polarity) -> np.ndarray:
    """Three spare bytes, then the rows ``t,x,y,polarity`` and newline of a
    non-empty block."""
    widths = [digit_counts(v) for v in (t, x, y)]
    row_end = 3 + np.cumsum(widths[0] + widths[1] + widths[2] + 5)  # 3 commas, polarity, LF
    out = np.empty(int(row_end[-1]), dtype=np.uint8)
    field_end = row_end - 3  # the comma after y
    commas = []
    for value, width in zip((y, x, t), widths[::-1]):
        scatter_digits(out, field_end - 1, value)
        commas.append(field_end)
        field_end = field_end - width - 1
    for comma in commas:
        out[comma] = _COMMA
    out[row_end - 2] = _ZERO + polarity
    out[row_end - 1] = _LF
    return out


def _read_csv(path: Path):
    """Parse an event CSV with numpy, block by block, cut at newlines,
    straight into the stream's columns: t int64, x and y int32, polarity bool.

    The grammar: an optional line-1 header whose first field is ``t_us``;
    LF or CRLF line endings; blank lines skipped; the last line may lack
    its newline. Every other line is exactly four non-negative decimal
    integers of at most 18 digits, the last one 0 or 1. Anything else is a
    ParseError naming ``path:line``. A pixel above 2**31 - 1 fits no int32
    column and is a BoundsError naming its line, raised once the whole file
    has parsed, so a bad line anywhere is still the ParseError.

    A first pass of block reads counts the line ends; one more than that
    bounds the rows, so the four columns are allocated once and each block's
    rows are written into the next slice of them. The reader thus holds the
    stream's columns (17 bytes a row) plus a few blocks of temporaries.

    A block is parsed as the fixed layout a valid file has: once the header,
    the CR of each CRLF and the blank lines are set aside, every non-digit
    byte is a comma or a line end, ``, , , \\n`` row after row. A block that
    breaks the layout, or a field width or polarity, is then read line by
    line for the first bad line; valid blocks never are.
    """
    lines = _line_number(path)  # the file's last line: no more rows than that
    columns = [np.empty(lines, dtype) for dtype in (np.int64, np.int32, np.int32, bool)]
    with open(path, "rb") as fh:
        rows, wide, rest, offset = 0, None, b"", 0
        while True:
            chunk = fh.read(_CSV_BLOCK_BYTES)
            data = rest + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            if cut:
                rows, block_wide = _parse_csv_block(data, cut, offset, path, columns, rows)
                wide = wide or block_wide
            elif len(data) >= _CSV_BLOCK_BYTES:  # far beyond any row or header
                line = _line_number(path, offset)
                raise ParseError(f"{path}:{line}: line longer than {_CSV_BLOCK_BYTES} bytes")
            rest, offset = data[cut:], offset + cut
            if not chunk:
                break
    if wide:
        at, x, y = wide
        raise BoundsError(f"{path}:{_line_number(path, at)}: pixel ({x}, {y}) does not fit int32")
    return tuple(column[:rows] for column in columns)


def _parse_csv_block(data: bytes, size: int, offset: int, path: Path, columns, row: int):
    """Parse the lines in data[:size], which starts at file offset ``offset``
    and ends just past a newline or at the end of the file, into columns
    from index row on.

    Returns the index past the block's last row, and the file offset, x and
    y of its first row whose pixel does not fit int32 (None if none)."""
    buf = np.frombuffer(data, np.uint8, size)
    digits = buf - _ZERO
    delim = np.flatnonzero(digits > 9)  # every byte but a digit
    start = 0
    if offset == 0 and data.startswith(b"t_us") and data[4:5] in (b"", b",", b"\r", b"\n"):
        start = data.find(b"\n", 0, size) + 1 or size  # past the header
        delim = delim[np.searchsorted(delim, start):]
    kinds = buf[delim]
    if size > start and buf[-1] != _LF:  # the last line of a file without a final newline
        delim, kinds = np.append(delim, size), np.append(kinds, _LF)
    found = _row_delimiters(delim, kinds, start, size)
    if found is None:
        _raise_first_bad_line(data, start, size, offset, path)
    line_start, (t_end, x_end, y_end, newline) = found
    if not len(newline):
        return row, None
    end = row + len(newline)
    if end > len(columns[0]):
        raise ParseError(f"{path}: more rows than line ends; the file changed while it was read")
    widths = [t_end - line_start, x_end - t_end - 1, y_end - x_end - 1]
    spans = [(int(w.min()), int(w.max())) for w in widths]
    polarity = digits[newline - 1]
    if (any(lo < 1 or hi > _CSV_MAX_DIGITS for lo, hi in spans)
            or (newline - y_end != 2).any() or polarity.max() > 1):
        _raise_first_bad_line(data, start, size, offset, path)
    t, x, y = (_parse_field(digits, field_end, w, *span)
               for field_end, w, span in zip((t_end, x_end, y_end), widths, spans))
    wide = None
    if max(spans[1][1], spans[2][1]) > 9:  # only then can a pixel exceed int32
        beyond = np.flatnonzero((x > _INT32_MAX) | (y > _INT32_MAX))
        if len(beyond):
            i = beyond[0]
            wide = offset + int(line_start[i]), int(x[i]), int(y[i])
    for column, values in zip(columns, (t, x, y, polarity.view(bool))):
        column[row:end] = values
    return end, wide


def _row_delimiters(delim, kinds, start: int, size: int):
    """Where each row's line starts, and its three commas and line end, as
    columns; None unless the delimiters are ``, , , \\n`` row after row.

    The CR of a CRLF stands for its line's end and the LF after it is
    dropped, as is the end of every blank line, before the layout is
    checked; a file with neither keeps every delimiter.
    """
    kept = None
    if len(kinds) % 4 or not (kinds.view("<u4") == _ROW_KINDS).all():
        crlf = np.flatnonzero((kinds[:-1] == _CR) & (kinds[1:] == _LF)
                              & (np.diff(delim) == 1) & (delim[1:] < size))
        kinds[crlf] = _LF
        line_end = kinds == _LF
        previous = np.concatenate(([start - 1], delim[:-1]))
        # a line end right after another, or at the block's start, ends a blank line
        keep = ~(line_end & np.concatenate(([True], line_end[:-1])) & (delim == previous + 1))
        keep[crlf + 1] = False
        kept = np.flatnonzero(keep)
        delim, kinds = delim[kept], kinds[kept]
        if len(kinds) % 4 or not (kinds.view("<u4") == _ROW_KINDS).all():
            return None
    fields = delim.reshape(-1, 4).T
    if kept is None:  # each row's line starts just past the previous row's
        line_start = np.concatenate(([start], fields[3][:-1] + 1))
    else:  # and here just past the newline before its first field
        line_start = previous[kept[::4]] + 1
    return line_start, fields


def _parse_field(digits, end, width, least: int, span: int):
    """The integer of each field of at most span digits, ending just
    before end: right-aligned Horner steps in place, the leading places
    masked for fields shorter than span. Up to 9 digits add up in int32,
    more in int64."""
    at = end - span
    lead = (span - width).astype(np.uint8)
    digit = np.empty(len(end), dtype=np.uint8)
    value = np.zeros(len(end), dtype=np.int32 if span <= 9 else np.int64)
    for i in range(span):
        digits.take(at, out=digit, mode="clip")
        if i < span - least:
            digit *= lead <= i
        value *= 10
        value += digit
        at += 1
    return value


def _raise_first_bad_line(data: bytes, start: int, size: int, offset: int, path: Path):
    """Raise the ParseError of the first line of data[start:size] that is
    neither blank nor a valid row: only a rejected block is read line by
    line."""
    lines = data[start:size].split(b"\n")
    lo = start
    for i, line in enumerate(lines):
        content = line[:-1] if line.endswith(b"\r") and i < len(lines) - 1 else line
        if content and not _VALID_ROW.fullmatch(content):
            raise ParseError(f"{path}:{_line_number(path, offset + lo)}: {_row_error(content)}")
        lo += len(line) + 1
    raise AssertionError(f"{path}: a block at byte {offset} was rejected, but no line is bad")


def _row_error(content: bytes) -> str:
    """What is wrong with a rejected line (given without its line ending)."""
    fields = content.split(b",")
    if len(fields) != 4:
        return f"expected 4 fields, got {len(fields)}"
    for name, field in zip(CSV_HEADER.split(","), fields):
        if not field.isdigit():
            return f"{name} {field.decode(errors='replace')!r} is not a decimal integer"
        if len(field) > _CSV_MAX_DIGITS:
            return f"{name} has {len(field)} digits, at most {_CSV_MAX_DIGITS} allowed"
    return f"polarity must be 0 or 1, got {fields[3].decode()!r}"


def _line_number(path: Path, offset: float = np.inf) -> int:
    """1-based line of the byte at ``offset``, by default the file's last
    line, counted a block at a time."""
    line = 1
    with open(path, "rb") as fh:
        while offset > 0 and (chunk := fh.read(min(offset, _CSV_BLOCK_BYTES))):
            line += np.count_nonzero(np.frombuffer(chunk, np.uint8) == _LF)
            offset -= len(chunk)
    return line


def _read_binary(path: Path):
    with open(path, "rb") as fh:
        raw = fh.read(16)
        if len(raw) < 16:
            raise ParseError(f"{path}: truncated header ({len(raw)} bytes)")
        if raw[0:8] != BINARY_MAGIC:
            raise ParseError(f"{path}: bad magic {raw[0:8]!r}")
        version = int.from_bytes(raw[8:10], "little")
        if version != BINARY_VERSION:
            raise ParseError(f"{path}: unsupported version {version}")
        width = int.from_bytes(raw[10:12], "little")
        height = int.from_bytes(raw[12:14], "little")
        size = os.fstat(fh.fileno()).st_size - 16
        if size % _RECORD_DTYPE.itemsize:
            raise ParseError(
                f"{path}: body size {size} not a multiple of record size "
                f"{_RECORD_DTYPE.itemsize}"
            )
        n = size // _RECORD_DTYPE.itemsize
        t, x, y, p = (np.empty(n, dtype) for dtype in (np.int64, np.int32, np.int32, bool))
        for lo in range(0, n, _BINARY_BLOCK_RECORDS):
            records = np.fromfile(fh, _RECORD_DTYPE, min(_BINARY_BLOCK_RECORDS, n - lo))
            too_late = np.flatnonzero(records["t"] > np.iinfo(np.int64).max)
            if len(too_late):
                i = int(too_late[0])
                raise ParseError(
                    f"{path}: record {lo + i}: timestamp {records['t'][i]} does not fit int64"
                )
            block = slice(lo, lo + _BINARY_BLOCK_RECORDS)
            t[block], x[block], y[block], p[block] = (records[k] for k in "txyp")
    return width, height, t, x, y, p

