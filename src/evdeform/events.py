"""Event data model and bit-exact file I/O for multi-camera recordings.

Streams hold column arrays (timestamp, x, y, polarity). Two on-disk
formats: a CSV with header ``t_us,x,y,polarity`` and a little-endian binary
format with a 16-byte header carrying magic, version and the declared
sensor size.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BoundsError, ParseError

BINARY_MAGIC = b"EVDSTRM\x00"
BINARY_VERSION = 1
CSV_HEADER = "t_us,x,y,polarity"

_RECORD_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])


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
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.int64))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.int32))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.int32))
        object.__setattr__(self, "polarity", np.asarray(self.polarity, dtype=bool))
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.polarity) == n):
            raise ValueError("event columns differ in length")
        if n:
            if self.t.min() < 0:
                raise ValueError("negative timestamp")
            if np.any(np.diff(self.t) < 0):
                raise ValueError("timestamps must be non-decreasing")
            if (
                self.x.min() < 0
                or self.x.max() >= self.width
                or self.y.min() < 0
                or self.y.max() >= self.height
            ):
                raise BoundsError(
                    f"event pixel outside sensor {self.width}x{self.height}"
                )

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
        pol = stream.polarity.astype(np.uint8)
        rows = zip(stream.t.tolist(), stream.x.tolist(), stream.y.tolist(), pol.tolist())
        body = "\n".join(f"{t},{x},{y},{p}" for t, x, y, p in rows)
        path.write_text(CSV_HEADER + "\n" + body + ("\n" if body else ""))
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


def _read_csv(path: Path):
    t, x, y, p = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (lineno == 1 and row[0].strip() == "t_us"):
                continue
            if len(row) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                t.append(int(row[0]))
                x.append(int(row[1]))
                y.append(int(row[2]))
                pol = int(row[3])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if pol not in (0, 1):
                raise ParseError(f"{path}:{lineno}: polarity must be 0 or 1, got {pol}")
            p.append(bool(pol))
    return (
        np.array(t, dtype=np.int64),
        np.array(x, dtype=np.int64),
        np.array(y, dtype=np.int64),
        np.array(p, dtype=bool),
    )


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
    return (
        width,
        height,
        records["t"].astype(np.int64),
        records["x"].astype(np.int64),
        records["y"].astype(np.int64),
        records["p"].astype(bool),
    )


def slice_by_time(stream: EventStream, t0: int, t1: int) -> EventStream:
    """Events with t0 <= t < t1, order preserved."""
    if t0 > t1:
        raise ValueError(f"t0 ({t0}) must not exceed t1 ({t1})")
    lo = int(np.searchsorted(stream.t, t0, side="left"))
    hi = int(np.searchsorted(stream.t, t1, side="left"))
    return EventStream(
        stream.camera_id,
        stream.width,
        stream.height,
        stream.t[lo:hi],
        stream.x[lo:hi],
        stream.y[lo:hi],
        stream.polarity[lo:hi],
    )


def concat_streams(parts: list[EventStream]) -> EventStream:
    """Concatenate consecutive slices of one camera back into a stream."""
    if not parts:
        raise ValueError("nothing to concatenate")
    first = parts[0]
    for p in parts[1:]:
        if p.camera_id != first.camera_id or p.sensor != first.sensor:
            raise ValueError("streams belong to different cameras")
    return EventStream(
        first.camera_id,
        first.width,
        first.height,
        np.concatenate([p.t for p in parts]),
        np.concatenate([p.x for p in parts]),
        np.concatenate([p.y for p in parts]),
        np.concatenate([p.polarity for p in parts]),
    )
