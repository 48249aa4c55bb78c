"""Event data model and bit-exact file I/O for multi-camera recordings.

Streams hold column arrays (timestamp, x, y, polarity). Two on-disk
formats: a CSV with header ``t_us,x,y,polarity`` and a little-endian binary
format with a 16-byte header carrying magic, version and the declared
sensor size.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BoundsError, ParseError

BINARY_MAGIC = b"EVDSTRM\x00"
BINARY_VERSION = 1
CSV_HEADER = "t_us,x,y,polarity"

_RECORD_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])

# The CSV reader reads and parses blocks of about this many bytes, cut at
# newlines, so its buffers and temporaries stay a few times the block in size
# rather than the file's: each is kept below the 4 MB from which numpy asks
# for huge pages.
_CSV_BLOCK_BYTES = 1 << 20
_CSV_MAX_DIGITS = 18  # every such integer fits int64
_INT32_MAX = np.iinfo(np.int32).max
_LF, _CR, _COMMA, _ZERO = (np.uint8(ord(c)) for c in "\n\r,0")
_POWERS_OF_TEN = 10 ** np.arange(1, _CSV_MAX_DIGITS + 1, dtype=np.int64)


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
            if np.any(np.diff(self.t) < 0):
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

    @property
    def duration_us(self) -> int:
        return int(self.t[-1] - self.t[0]) if len(self) else 0


def make_stream(camera_id, width, height, t, x, y, polarity) -> tuple[EventStream, int]:
    """Build a stream, repairing out-of-order input.

    The warning count is the number of events whose timestamp precedes
    their predecessor's; whenever it is nonzero the records are stably
    re-sorted by (t, x, y, polarity). Already-ordered input is preserved
    exactly.
    """
    t = np.asarray(t, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    p = np.asarray(polarity, dtype=bool)
    warnings = int(np.sum(np.diff(t) < 0)) if len(t) > 1 else 0
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
        body = _format_csv(stream)
        with open(path, "wb") as fh:
            fh.write((CSV_HEADER + "\n").encode())
            fh.write(body)
    elif format == "binary":
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
    """Decimal digits of each non-negative integer."""
    return np.searchsorted(_POWERS_OF_TEN, values, side="right") + 1


def scatter_digits(out: np.ndarray, last: np.ndarray, values: np.ndarray) -> None:
    """Write each non-negative integer's decimal digits into the byte buffer
    out, its last digit at the matching index of last."""
    at, rest = last, values
    while len(rest):  # one decimal place per turn, least significant first
        rest, digit = np.divmod(rest, 10)
        out[at] = _ZERO + digit
        more = rest > 0
        if not more.all():
            rest, at = rest[more], at[more]
        at = at - 1


def _format_csv(stream: EventStream) -> np.ndarray:
    """The rows ``t,x,y,polarity`` and newline as one buffer, digits scattered in."""
    columns = (stream.t, stream.x, stream.y)
    widths = [digit_counts(v) for v in columns]
    if any(w.max(initial=0) > _CSV_MAX_DIGITS for w in widths):
        raise ValueError(f"a value has more than the {_CSV_MAX_DIGITS} digits a CSV allows")
    row_end = np.cumsum(widths[0] + widths[1] + widths[2] + 5)  # 3 commas, polarity, LF
    out = np.empty(int(row_end[-1]) if len(stream) else 0, dtype=np.uint8)
    out[row_end - 1] = _LF
    out[row_end - 2] = _ZERO + stream.polarity
    field_end = row_end - 3  # the comma after y
    for value, width in zip(columns[::-1], widths[::-1]):
        out[field_end] = _COMMA
        scatter_digits(out, field_end - 1, value)
        field_end = field_end - width - 1
    return out


def _read_csv(path: Path):
    """Parse an event CSV with numpy, block by block, cut at newlines.

    The grammar: an optional line-1 header whose first field is ``t_us``;
    LF or CRLF line endings; blank lines skipped; the last line may lack
    its newline. Every other line is exactly four non-negative decimal
    integers of at most 18 digits, the last one 0 or 1. Anything else is a
    ParseError naming ``path:line``.
    """
    blocks, rest, offset = [], b"", 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CSV_BLOCK_BYTES)
            data = rest + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            if cut:
                blocks.append(_parse_csv_block(data, cut, offset, path))
            elif len(data) >= _CSV_BLOCK_BYTES:  # far beyond any row or header
                line = _line_number(path, offset)
                raise ParseError(f"{path}:{line}: line longer than {_CSV_BLOCK_BYTES} bytes")
            rest, offset = data[cut:], offset + cut
            if not chunk:
                break
    if not blocks:
        return (np.zeros(0, np.int64),) * 3 + (np.zeros(0, bool),)
    return tuple(np.concatenate(cols) for cols in zip(*blocks))


def _parse_csv_block(data: bytes, size: int, offset: int, path: Path):
    """Columns of the lines in data[:size], which starts at file offset
    ``offset`` and ends just past a newline or at the end of the file."""
    buf = np.frombuffer(data, np.uint8, size)
    is_newline = buf == _LF
    is_comma = buf == _COMMA
    delim = np.flatnonzero(is_newline | is_comma)  # where each field ends
    line_end = np.flatnonzero(is_newline[delim])  # each line's newline, in delim
    if buf[-1] != _LF:  # the last line of a file without a final newline
        delim = np.append(delim, size)
        line_end = np.append(line_end, len(delim) - 1)
    newline = delim[line_end]
    first = np.concatenate(([0], newline[:-1] + 1))
    crlf = (newline > first) & (buf[newline - 1] == _CR) & (newline < size)
    last = newline - crlf  # one past each line's content
    digits = buf - _ZERO
    # any byte but a digit, comma or newline is bad unless it is a CRLF's CR
    bad_byte = np.flatnonzero(~((digits < 10) | is_comma | is_newline))
    bad_byte = np.setdiff1d(bad_byte, last[crlf], assume_unique=True)
    bad = np.zeros(len(newline), dtype=bool)
    bad[np.searchsorted(newline, bad_byte)] = True
    rows = last > first
    bad |= rows & (np.diff(line_end, prepend=-1) != 4)  # fields per line
    if offset == 0 and data.startswith(b"t_us") and data[4:5] in (b"", b",", b"\r", b"\n"):
        bad[0] = rows[0] = False  # the header
    rows &= ~bad
    row_end = line_end[rows]
    ends = [delim[row_end - 3], delim[row_end - 2], delim[row_end - 1], last[rows]]
    starts = [first[rows]] + [e + 1 for e in ends[:3]]
    widths = [e - s for s, e in zip(starts, ends)]
    polarity = digits[np.minimum(starts[3], size - 1)]  # clipped for a row ending in ","
    row_bad = (widths[3] != 1) | (polarity > 1)
    for w in widths[:3]:
        row_bad |= (w < 1) | (w > _CSV_MAX_DIGITS)
    bad[rows] = row_bad
    if bad.any():
        line = int(np.flatnonzero(bad)[0])
        lo = int(first[line])
        reason = _row_error(data[lo:last[line]])
        raise ParseError(f"{path}:{_line_number(path, offset + lo)}: {reason}")
    columns = []
    for end, w in zip(ends[:3], widths[:3]):
        # right-aligned digit accumulation; only the leading places need a mask
        span = int(w.max(initial=0))
        short = span - int(w.min(initial=span))
        value = np.zeros(len(end), dtype=np.int64)
        for i in range(span):
            digit = digits.take(end - span + i, mode="clip")
            if i < short:
                digit = np.where(w >= span - i, digit, 0)
            value = value * 10 + digit
        columns.append(value)
    return columns[0], columns[1], columns[2], polarity == 1


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


def _line_number(path: Path, offset: int) -> int:
    """1-based line of the byte at ``offset``; only error paths need it."""
    with open(path, "rb") as fh:
        return fh.read(offset).count(b"\n") + 1


def _read_binary(path: Path):
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ParseError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[0:8] != BINARY_MAGIC:
        raise ParseError(f"{path}: bad magic {raw[0:8]!r}")
    version = int.from_bytes(raw[8:10], "little")
    if version != BINARY_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    width = int.from_bytes(raw[10:12], "little")
    height = int.from_bytes(raw[12:14], "little")
    body = raw[16:]
    if len(body) % _RECORD_DTYPE.itemsize:
        raise ParseError(
            f"{path}: body size {len(body)} not a multiple of record size "
            f"{_RECORD_DTYPE.itemsize}"
        )
    records = np.frombuffer(body, dtype=_RECORD_DTYPE)
    too_late = np.flatnonzero(records["t"] > np.iinfo(np.int64).max)
    if len(too_late):
        i = int(too_late[0])
        raise ParseError(f"{path}: record {i}: timestamp {records['t'][i]} does not fit int64")
    return (
        width,
        height,
        records["t"].astype(np.int64),
        records["x"].astype(np.int64),
        records["y"].astype(np.int64),
        records["p"].astype(bool),
    )

