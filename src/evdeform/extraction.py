"""Marker-center extraction from event streams and multi-camera matching.

Each blink burst of a camera's events gives one centroid, event count and
mean timestamp: one row of the camera's Centers table.
match_corresponding groups rows of different cameras by timestamp
proximity into one Correspondences table, whose pixel and visibility
arrays calibration and triangulation read directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, ParseError, StreamTooShort
from .events import EventStream, reprs, write_rows


@dataclass(frozen=True)
class CenterObservation:
    """One marker center in one camera: a read-only row of Centers."""

    camera_id: int
    pixel: np.ndarray
    t_c: float


@dataclass(frozen=True)
class Centers:
    """The marker centers of one camera, one row per burst, in time order.

    t_c (k,) holds the burst mean times, pixel (k, 2) the centroids, count
    (k,) the events per burst and t_min, t_max (k,) the first and last
    event times.
    """

    camera_id: int
    t_c: np.ndarray
    pixel: np.ndarray
    count: np.ndarray
    t_min: np.ndarray
    t_max: np.ndarray

    def __len__(self) -> int:
        return len(self.t_c)

    def __getitem__(self, i: int) -> CenterObservation:
        return CenterObservation(self.camera_id, self.pixel[i], float(self.t_c[i]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class CorrespondingPoint:
    """One matched group: a read-only column of Correspondences."""

    observations: tuple[CenterObservation, ...]
    match_time_spread: float


@dataclass(frozen=True)
class Correspondences:
    """Centers of the same blinks matched across m cameras, one column per group.

    Row i belongs to camera camera_ids[i]. index (m, n) holds each member's
    row in its camera's Centers, -1 where the camera does not see the group;
    pixels (m, n, 2) and t_c (m, n) hold the members' centroids and times,
    zero where unseen. mean_t (n,) is the mean of each group's member times,
    summed in row order, and spread (n,) their range.
    """

    camera_ids: tuple[int, ...]
    index: np.ndarray
    pixels: np.ndarray
    t_c: np.ndarray
    mean_t: np.ndarray
    spread: np.ndarray

    @classmethod
    def from_members(cls, camera_ids, index, pixels, t_c) -> Correspondences:
        """Groups from their members' rows, pixels and times; entries where
        index is -1 are ignored."""
        index = np.asarray(index, dtype=np.int64)
        seen = index >= 0
        pixels = np.where(seen[..., None], pixels, 0.0)
        t_c = np.where(seen, t_c, 0.0)
        total = np.zeros(index.shape[1])
        for row in t_c:
            total += row
        first = np.where(seen, t_c, np.inf).min(axis=0, initial=np.inf)
        last = np.where(seen, t_c, -np.inf).max(axis=0, initial=-np.inf)
        return cls(tuple(camera_ids), index, pixels, t_c, total / seen.sum(axis=0), last - first)

    @property
    def visibility(self) -> np.ndarray:
        return self.index >= 0

    def __len__(self) -> int:
        return self.index.shape[1]

    def take(self, columns) -> Correspondences:
        """The groups at the given columns, in that order."""
        return Correspondences(
            self.camera_ids, self.index[:, columns], self.pixels[:, columns],
            self.t_c[:, columns], self.mean_t[columns], self.spread[columns],
        )

    def __getitem__(self, j: int) -> CorrespondingPoint:
        return CorrespondingPoint(
            tuple(
                CenterObservation(self.camera_ids[i], self.pixels[i, j], float(self.t_c[i, j]))
                for i in np.flatnonzero(self.index[:, j] >= 0)
            ),
            float(self.spread[j]),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


# A run of accepted events shorter than this is not a burst.
_MIN_BURST = 20
# Most events extract_center_sequence gates at once, unless one run is longer.
_BLOCK_CAP = 8192


def _finite_positive(value) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class ExtractionConfig:
    """Spatial gate and burst-ending pause of extract_center_sequence.

    Invalid values raise ConfigError.
    """

    gate_radius: float
    reset_gap_us: float

    def __post_init__(self):
        if not _finite_positive(self.gate_radius):
            raise ConfigError(f"gate_radius must be finite and positive, got {self.gate_radius}")
        if not _finite_positive(self.reset_gap_us):
            raise ConfigError(f"reset_gap_us must be finite and positive, got {self.reset_gap_us}")


def _reset_gap_us(blink_freq: float) -> float:
    """A twentieth of the blink period."""
    if not _finite_positive(blink_freq):
        raise ConfigError(f"blink frequency must be finite and positive, got {blink_freq} Hz")
    return 0.05e6 / blink_freq


def calibration_profile(blink_freq: float) -> ExtractionConfig:
    """Preset for calibration sweeps: wide gate."""
    return ExtractionConfig(gate_radius=30.0, reset_gap_us=_reset_gap_us(blink_freq))


def measurement_profile(blink_freq: float) -> ExtractionConfig:
    """Preset for deformation tracking: a tight gate, which favors centroid
    precision over robustness to marker jumps."""
    return ExtractionConfig(gate_radius=15.0, reset_gap_us=_reset_gap_us(blink_freq))


@dataclass(frozen=True)
class ExtractionResult:
    observations: Centers
    noise_count: int
    partial_discards: int


def extraction_diagnostics(result: ExtractionResult, sensor: tuple[int, int]) -> dict:
    """Burst time spread (t_max - t_min) and the share of the sensor area
    the bounding box of the centers covers."""
    centers = result.observations
    spread = centers.t_max - centers.t_min
    width, height = centers.pixel.max(axis=0) - centers.pixel.min(axis=0)
    return {
        "window_spread_us_median": float(np.median(spread)),
        "window_spread_us_max": int(spread.max()),
        "center_bbox_sensor_share": float(width * height / (sensor[0] * sensor[1])),
    }


def extract_center_sequence(stream: EventStream, config: ExtractionConfig) -> ExtractionResult:
    """One center per blink burst.

    A burst is the run of events within gate_radius of the previous burst's
    centroid; the first gate is centered on the median of the stream's
    first _MIN_BURST events. The run ends at the first event, accepted or
    not, that comes more than reset_gap_us after its last accepted event.
    A run of fewer than _MIN_BURST events counts as a partial discard and
    leaves the gate where it was. Gated-out events count as noise.

    The stream is read a block at a time. The block is gated on the current
    center and its accepted events split into runs at the pauses. Each run
    closes at the first event more than reset_gap_us after its last one,
    and the events from the previous close to its own are gated again on
    that run's true center, the centroid of the last burst before it. The
    runs before the first whose decisions change are the rule's runs; the
    first run always is. The block doubles after a round that kept every
    closed run and shrinks to twice the kept events after one that did
    not, up to _BLOCK_CAP events; it doubles without a cap while its first
    run is still open at its end.

    Each center is an exact integer sum over the burst's events divided by
    its count, so it does not depend on the order of addition.
    """
    total = len(stream)
    if total < _MIN_BURST:
        raise StreamTooShort(f"{total} events, a burst needs {_MIN_BURST}")
    t, x, y = stream.t, stream.x, stream.y
    duration = int(t[-1] - t[0])
    if total * max(stream.width, stream.height, duration) >= 2**63:
        raise ConfigError(f"{total} events on a {stream.width}x{stream.height} sensor over "
                          f"{duration} us are too many for exact sums")
    cx, cy = float(np.median(x[:_MIN_BURST])), float(np.median(y[:_MIN_BURST]))
    gate2 = config.gate_radius * config.gate_radius
    # For integer times d > reset_gap_us exactly when d > gap; an integer
    # key keeps searchsorted from converting t to float on every call.
    gap = min(math.floor(config.reset_gap_us), duration)
    key_max = t[-1] - gap  # a larger search key finds the stream's end too
    t0 = t[0]
    # per round, each kept run's summed t - t0, mean x and y, count, t_min and
    # t_max; the empty first round lets a stream without runs concatenate too
    runs_kept = [(np.zeros(0, np.int64),) * 6]
    lo, size = 0, 4 * _MIN_BURST
    while lo < total:
        hi = min(lo + size, total)
        dx, dy = x[lo:hi] - cx, y[lo:hi] - cy
        inside = dx * dx + dy * dy <= gate2
        accepted = inside.nonzero()[0] + lo
        if not len(accepted):
            lo, size = hi, min(2 * size, _BLOCK_CAP)
            continue
        ta = t[accepted]
        # run r holds accepted[bounds[r]:bounds[r + 1]]; event ends[r] closes it
        bounds = np.concatenate(([0], (ta[1:] - ta[:-1] > gap).nonzero()[0] + 1, [len(ta)]))
        ends = t.searchsorted(np.minimum(ta[bounds[1:] - 1], key_max) + gap, "right")
        runs = int(ends.searchsorted(hi, "right"))
        if not runs:
            size *= 2  # the first run may go on past the block
            continue
        count = bounds[1:runs + 1] - bounds[:runs]
        run = accepted[:bounds[runs]]
        mx = np.add.reduceat(x[run], bounds[:runs], dtype=np.int64) / count
        my = np.add.reduceat(y[run], bounds[:runs], dtype=np.int64) / count
        big = count >= _MIN_BURST
        kept = runs
        if big[:-1].any():  # the runs after the first burst gate on the last burst before them
            first = int(big.argmax())
            prior = np.maximum.accumulate(np.where(big, np.arange(runs), 0))[first:-1]
            span = ends[first + 1:runs] - ends[first:runs - 1]
            a, b = ends[first], ends[runs - 1]
            dx = x[a:b] - np.repeat(mx[prior], span)
            dy = y[a:b] - np.repeat(my[prior], span)
            moved = ((dx * dx + dy * dy <= gate2) != inside[a - lo:b - lo]).nonzero()[0]
            if len(moved):
                kept = int(ends.searchsorted(a + moved[0], "right"))
        starts = bounds[:kept]
        runs_kept.append((np.add.reduceat(ta[:bounds[kept]] - t0, starts), mx[:kept], my[:kept],
                          count[:kept], ta[starts], ta[bounds[1:kept + 1] - 1]))
        keep = big[:kept]
        if keep.any():
            cx, cy = mx[:kept][keep][-1], my[:kept][keep][-1]
        size = min(2 * (size if kept == runs else int(ends[kept - 1] - lo)), _BLOCK_CAP)
        lo = int(ends[kept - 1])
    st, mx, my, count, t_min, t_max = (np.concatenate(col) for col in zip(*runs_kept))
    big = count >= _MIN_BURST
    noise = total - int(count.sum())  # the events in no run
    partial = int(count[~big].sum())
    if not big.any():
        raise StreamTooShort(f"no run of {_MIN_BURST} events passed the spatial gate "
                             f"({partial} of {total} events did)")
    count = count[big]
    centers = Centers(stream.camera_id, t0 + st[big] / count, np.stack([mx[big], my[big]], axis=1),
                      count, t_min[big], t_max[big])
    return ExtractionResult(centers, noise, partial)


def match_corresponding(sequences: Sequence[Centers], t_th: float) -> Correspondences:
    """Greedy chronological grouping of centers within t_th of each other.

    The earliest center not yet used anchors a group, the lowest camera id
    first on a tie. Every other camera adds the unused center closest to
    the anchor within t_th; while the members' time spread exceeds t_th the
    one farthest from the anchor (the lowest camera id on a tie) leaves the
    group and stays unused. The anchor and the remaining members are then
    used, and a group of fewer than two cameras is dropped. Groups come out
    sorted by mean_t, and the result does not depend on the order in which
    the camera tables are passed. Center times must be finite.

    Every center earlier than the anchor has been an anchor itself, so each
    camera's used centers are a prefix of its table, and the unused center
    closest to the anchor is the first unused one: one read position per
    camera stands in for a search.
    """
    if not t_th > 0:
        raise ValueError(f"t_th must be positive, got {t_th}")
    tables = sorted((s for s in sequences if len(s)), key=lambda s: s.camera_id)
    ids = [s.camera_id for s in tables]
    if len(set(ids)) < len(ids):
        raise ValueError(f"more than one center table per camera among {ids}")
    if any(np.any(np.diff(s.t_c) < 0) for s in tables):
        raise ValueError("observation sequences must be sorted by t_c")
    times = [s.t_c.tolist() + [np.inf] for s in tables]  # past the last center: inf
    cameras = range(len(tables))
    head = [0] * len(tables)  # each camera's first unused center
    cam, col, row = [], [], []  # one entry per group member
    groups = 0
    while tables:
        anchor = min(cameras, key=lambda c: times[c][head[c]])
        t = times[anchor][head[anchor]]
        if t == np.inf:
            break
        near = [c for c in cameras if c != anchor and times[c][head[c]] <= t + t_th]
        gaps = [times[c][head[c]] - t for c in near]
        while gaps and max(gaps) > t_th:
            worst = gaps.index(max(gaps))
            del near[worst], gaps[worst]
        members = [anchor, *near]
        if near:
            cam += members
            col += [groups] * len(members)
            row += [head[c] for c in members]
            groups += 1
        for c in members:
            head[c] += 1
    index = np.full((len(tables), groups), -1, dtype=np.int64)
    index[cam, col] = row
    pixels = np.zeros((len(tables), groups, 2))
    t_c = np.zeros((len(tables), groups))
    for c, table in enumerate(tables):
        seen = index[c] >= 0
        pixels[c, seen] = table.pixel[index[c, seen]]
        t_c[c, seen] = table.t_c[index[c, seen]]
    found = Correspondences.from_members(ids, index, pixels, t_c)
    return found.take(np.argsort(found.mean_t, kind="stable"))


# ---------------------------------------------------------------------------
# observation CSV
# ---------------------------------------------------------------------------

OBSERVATION_HEADER = "camera_id,t_us,x,y,n"
_INTEGER_FIELDS = ("camera_id", "n")


def write_observations(path, centers: Centers) -> None:
    write_rows(
        path, OBSERVATION_HEADER, [str(centers.camera_id)] * len(centers),
        reprs(centers.t_c), *map(reprs, centers.pixel.T),
        map(str, centers.count.tolist()),
    )


def read_observations(path) -> Centers:
    """One camera's centers from an observation CSV.

    Line 1 may be a header whose first field is camera_id, and blank lines
    are skipped. Every other line holds the five fields of the header:
    integers camera_id and n, and finite numbers t_us, x and y. Each row
    must name the first row's camera, t_us must not decrease and n must be
    at least 1. Anything else raises ParseError naming path:line. A file
    holds no event bounds: t_min and t_max are t_us rounded to a whole
    microsecond.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    numbers, rows = [], []
    for number, line in enumerate(lines, start=1):
        fields = line.split(",")
        if line.strip() and not (number == 1 and fields[0] == "camera_id"):
            numbers.append(number)
            rows.append(fields)
    if not rows:
        raise ParseError(f"{path}: no observations")

    def reject(bad, reason):
        if len(bad):
            raise ParseError(f"{path}:{numbers[bad[0]]}: {reason(bad[0])}")

    names = OBSERVATION_HEADER.split(",")
    widths = np.array([len(r) for r in rows])
    reject(np.flatnonzero(widths != len(names)),
           lambda i: f"expected {len(names)} fields, got {widths[i]}")
    text = np.array(rows, dtype=str)
    columns = {}
    for k, name in enumerate(names):
        dtype = np.int64 if name in _INTEGER_FIELDS else np.float64
        try:
            columns[name] = text[:, k].astype(dtype)
        except (ValueError, OverflowError):
            kind = "an integer" if dtype is np.int64 else "a number"
            reject([next(i for i, v in enumerate(text[:, k]) if not _parses(v, dtype))],
                   lambda i: f"{name} {rows[i][k]!r} is not {kind}")
        reject(np.flatnonzero(~np.isfinite(columns[name])),
               lambda i: f"{name} {rows[i][k]!r} is not finite")
    camera, t_us, n = columns["camera_id"], columns["t_us"], columns["n"]
    reject(np.flatnonzero(camera != camera[0]),
           lambda i: f"camera_id {camera[i]} differs from the first row's {camera[0]}")
    reject(np.flatnonzero(np.diff(t_us) < 0) + 1,
           lambda i: f"t_us {rows[i][1]} is earlier than the previous row's {rows[i - 1][1]}")
    reject(np.flatnonzero(n < 1), lambda i: f"n {n[i]} is below 1")
    bounds = np.rint(t_us).astype(np.int64)
    return Centers(
        int(camera[0]), t_us, np.stack([columns["x"], columns["y"]], axis=1), n, bounds, bounds,
    )


def _parses(text: str, dtype) -> bool:
    try:
        np.array([text]).astype(dtype)
    except (ValueError, OverflowError):
        return False
    return True
