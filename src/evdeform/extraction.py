"""Marker-center extraction from event streams and multi-camera matching.

Events are accumulated in fixed-count windows; each window's centroid,
covariance and mean timestamp form one row of the camera's Centers table.
match_corresponding groups rows of different cameras by timestamp
proximity into one Correspondences table, whose pixel and visibility
arrays calibration and triangulation read directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError, StreamTooShort
from .events import EventStream

# A window of at least this many events gates on its own running mean.
_MEAN_GATE_COUNT = 8
# A window time that does not exceed the last emitted one moves this far
# past it, far below any matching threshold.
_TIE_NUDGE_US = 1e-3
# each window time, given the (already moved) one emitted before it
_NUDGE_TIES = np.frompyfunc(lambda last, t: t if t > last else last + _TIE_NUDGE_US, 2, 1)
# Gating solves chunks of at most this many events at a time; a chunk whose
# decisions still change after this many rounds keeps only its settled part.
_CHUNK_EVENTS = 4096
_CHUNK_ROUNDS = 4


def _non_psd(covariances: np.ndarray) -> np.ndarray:
    """Positions in the stack of the 2x2 covariances that are not PSD."""
    eigs = np.linalg.eigvalsh(covariances)  # ascending
    return np.flatnonzero(eigs[:, 0] < -1e-9 * np.maximum(eigs[:, -1], 1.0))


@dataclass(frozen=True)
class CenterObservation:
    """One marker center in one camera: a read-only row of Centers."""

    camera_id: int
    pixel: np.ndarray
    t_c: float


@dataclass(frozen=True)
class Centers:
    """The marker centers of one camera, one row per window, in time order.

    t_c (k,) holds the window mean times, pixel (k, 2) the centroids,
    covariance (k, 2, 2) the population covariances of the event
    coordinates, count (k,) the events per window and t_min, t_max (k,) the
    first and last event times.
    """

    camera_id: int
    t_c: np.ndarray
    pixel: np.ndarray
    covariance: np.ndarray
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


@dataclass(frozen=True)
class ExtractionConfig:
    """Parameters driving window accumulation and spatial gating.

    n, when None, comes from the measured burst sizes (n_burst_fraction set)
    or from choose_accumulation_count over (blink_freq, marker_speed,
    event_rate); a missing event_rate falls back to the stream's estimated
    marker rate with uniform background noise excluded.
    """

    n: int | None = None
    blink_freq: float | None = None
    marker_speed: float = 0.0
    event_rate: float | None = None
    duty_window: float = 0.5
    blur_budget: float = 0.5
    n_min: int = 10
    n_max: int = 2000
    polarity: str = "both"  # "both" | "on" | "off"
    gate_radius: float = 30.0
    reset_gap_us: float | None = None
    # when set, n = fraction of the measured 5th-percentile burst size,
    # still capped by the motion-blur budget
    n_burst_fraction: float | None = None


def calibration_profile(blink_freq: float) -> ExtractionConfig:
    """Preset for calibration sweeps: near-full bursts, wide gate."""
    return ExtractionConfig(
        blink_freq=blink_freq,
        duty_window=0.45,
        gate_radius=30.0,
        reset_gap_us=0.05e6 / blink_freq,
        n_burst_fraction=0.9,
    )


def measurement_profile(blink_freq: float, marker_speed: float = 0.0) -> ExtractionConfig:
    """Preset for deformation tracking: tighter gate, near-full windows.

    Measurement runs assume a faster blink, so the per-burst yield (and with
    it n) comes out smaller than in the calibration profile; a nonzero
    marker_speed shrinks the window further through the blur budget. The
    tight gate and high burst fraction favor centroid precision over
    robustness to marker jumps.
    """
    return ExtractionConfig(
        blink_freq=blink_freq,
        marker_speed=marker_speed,
        duty_window=0.45,
        gate_radius=15.0,
        reset_gap_us=0.05e6 / blink_freq,
        n_burst_fraction=0.95,
    )


def estimate_marker_event_rate(
    stream: EventStream, bin_px: int = 40, factor: float = 5.0
) -> float:
    """Marker event rate (events/s) with uniform background noise excluded.

    Marker events pile up in a few spatial bins; bins far above the median
    occupancy are counted as marker territory.
    """
    if len(stream) < 2 or stream.duration_us <= 0:
        raise StreamTooShort("cannot estimate an event rate from this stream")
    bx = stream.x // bin_px
    by = stream.y // bin_px
    counts = np.bincount(bx.astype(np.int64) * (stream.height // bin_px + 1) + by)
    counts = counts[counts > 0]
    level = np.median(counts)
    marker = counts[counts > factor * level].sum()
    if marker == 0:
        marker = len(stream)  # noise-free or non-concentrated stream
    return float(marker) / (stream.duration_us * 1e-6)


def estimate_burst_size(
    stream: EventStream,
    gap_us: float = 200.0,
    bin_px: int = 40,
    factor: float = 5.0,
) -> float:
    """5th-percentile event count of the marker's transition bursts.

    Events are first restricted to high-occupancy spatial bins (the marker's
    territory), then segmented wherever the time sequence pauses by more
    than gap_us.
    """
    if len(stream) < 2:
        raise StreamTooShort("cannot estimate burst sizes from this stream")
    bx = stream.x // bin_px
    by = stream.y // bin_px
    ny = stream.height // bin_px + 1
    flat = bx.astype(np.int64) * ny + by
    counts = np.bincount(flat)
    occupied = counts[counts > 0]
    level = np.median(occupied)
    hot = np.flatnonzero(counts > factor * level)
    sel = np.isin(flat, hot) if len(hot) else np.ones(len(stream), dtype=bool)
    t = stream.t[sel]
    if len(t) < 8:
        raise StreamTooShort("no marker bursts found")
    cuts = np.flatnonzero(np.diff(t) > gap_us)
    sizes = np.diff(np.concatenate([[0], cuts + 1, [len(t)]]))
    sizes = sizes[sizes >= 8]
    if not len(sizes):
        raise StreamTooShort("no marker bursts found")
    return float(np.percentile(sizes, 5))


@dataclass(frozen=True)
class ExtractionResult:
    observations: Centers
    noise_count: int
    partial_discards: int
    n: int


def extraction_diagnostics(result: ExtractionResult, sensor: tuple[int, int]) -> dict:
    """Window time spread (t_max - t_min) and the share of the sensor area
    the bounding box of the centers covers."""
    centers = result.observations
    spread = centers.t_max - centers.t_min
    width, height = centers.pixel.max(axis=0) - centers.pixel.min(axis=0)
    return {
        "window_spread_us_median": float(np.median(spread)),
        "window_spread_us_max": int(spread.max()),
        "center_bbox_sensor_share": float(width * height / (sensor[0] * sensor[1])),
    }


def choose_accumulation_count(
    blink_freq: float,
    marker_speed: float,
    event_rate: float,
    duty_window: float = 1.0,
    blur_budget: float = 0.5,
    n_min: int = 10,
    n_max: int = 2000,
) -> int:
    """Window size: per-cycle yield capped by a motion-blur pixel budget.

    Non-decreasing in the per-cycle event yield, non-increasing in the
    marker speed; degenerate inputs clamp to n_min.
    """
    if blink_freq <= 0 or event_rate <= 0:
        raise ValueError("blink_freq and event_rate must be positive")
    if marker_speed < 0:
        raise ValueError("marker_speed must be non-negative")
    per_cycle = event_rate / blink_freq * duty_window
    n = int(round(per_cycle))
    blur_cap = event_rate * blur_budget / max(marker_speed, 1e-12)
    n = min(n, int(blur_cap))
    return int(np.clip(n, n_min, n_max))


def _resolve_n(stream: EventStream, config: ExtractionConfig) -> int:
    if config.n is not None:
        return int(config.n)
    if config.n_burst_fraction is not None:
        gap = config.reset_gap_us if config.reset_gap_us is not None else 200.0
        n = int(round(config.n_burst_fraction * estimate_burst_size(stream, gap)))
        if config.marker_speed > 0:
            rate = config.event_rate or estimate_marker_event_rate(stream)
            n = min(n, int(rate * config.blur_budget / config.marker_speed))
        return int(np.clip(n, config.n_min, config.n_max))
    if config.blink_freq is None:
        raise ValueError("config needs n, n_burst_fraction or blink_freq")
    rate = config.event_rate
    if rate is None:
        # noise-robust: bins of uniform background are excluded from the rate
        rate = estimate_marker_event_rate(stream)
    return choose_accumulation_count(
        config.blink_freq,
        config.marker_speed,
        rate,
        duty_window=config.duty_window,
        blur_budget=config.blur_budget,
        n_min=config.n_min,
        n_max=config.n_max,
    )


def extract_center_sequence(stream: EventStream, config: ExtractionConfig) -> ExtractionResult:
    """Slide non-overlapping windows of n gated events over the stream.

    Events join the current window only within gate_radius of its gate
    center; gated-out events count as noise. The gate center is the window's
    running mean once it holds _MEAN_GATE_COUNT events, and otherwise a
    reference: the median of the first n events at the start, then the mean
    of the last emitted window. An optional reset gap discards a partial
    window as soon as any event comes more than reset_gap_us after its last
    accepted event, which keeps windows aligned to blink bursts; a discarded
    window of at least _MEAN_GATE_COUNT events moves the reference to its
    mean.
    """
    n = _resolve_n(stream, config)
    if n * max(stream.width, stream.height) >= 2**53:
        raise ValueError(f"window n={n} too large for exact sums over a {stream.width}x"
                         f"{stream.height} sensor")
    if config.polarity == "on":
        sel = stream.polarity
    elif config.polarity == "off":
        sel = ~stream.polarity
    elif config.polarity == "both":
        sel = slice(None)
    else:
        raise ValueError(f"unknown polarity selection {config.polarity!r}")
    ts = stream.t[sel].astype(np.float64)
    xs = stream.x[sel].astype(np.float64)
    ys = stream.y[sel].astype(np.float64)
    total = len(ts)
    if total < n:
        raise StreamTooShort(f"{total} events of requested polarity, window needs {n}")
    start = _Carry(ref_x=float(np.median(xs[:n])), ref_y=float(np.median(ys[:n])))
    gate2 = config.gate_radius * config.gate_radius
    accepted, firsts, partial = _gate(ts, xs, ys, start, n, gate2, config.reset_gap_us)
    if not len(firsts):
        raise StreamTooShort(
            f"only {len(accepted)} events passed the spatial gate, window needs {n}"
        )
    members = accepted[firsts[:, None] + np.arange(n)]  # each window's event indices
    centers = _centers(stream.camera_id, ts, xs, ys, members)
    return ExtractionResult(centers, total - len(accepted), partial, n)


@dataclass(frozen=True)
class _Carry:
    """Gating state between two events: the open window and the reference.

    sx and sy sum the open window's coordinates. Coordinates are integers
    and n * sensor size stays below 2**53, so every such sum is exact and the
    same in any order of addition.
    """

    count: int = 0
    sx: float = 0.0
    sy: float = 0.0
    t_last: float = 0.0
    ref_x: float = 0.0
    ref_y: float = 0.0

    def center(self) -> tuple[float, float]:
        if self.count >= _MEAN_GATE_COUNT:
            return self.sx / self.count, self.sy / self.count
        return self.ref_x, self.ref_y


def _gate(ts, xs, ys, start: _Carry, n: int, gate2: float, gap: float | None):
    """Gating decisions of the whole stream, solved chunk by chunk.

    Returns the indices of the accepted events, the position among them of
    each emitted window's first event, and the number of accepted events
    that pauses discarded. A chunk's decisions start as a guess (every event
    gated on the center the chunk starts with) and are re-derived from
    themselves until they repeat. Each round is right at least up to its
    first change, so a chunk still changing after _CHUNK_ROUNDS rounds keeps
    only that prefix and the next chunk is sized to it.
    """
    carry, size, lo = start, _CHUNK_EVENTS, 0
    accepted, firsts, partial, n_accepted = [], [], 0, 0
    while lo < len(ts):
        t, x, y = ts[lo:lo + size], xs[lo:lo + size], ys[lo:lo + size]
        cx, cy = carry.center()
        guess = (x - cx) ** 2 + (y - cy) ** 2 <= gate2
        for _ in range(_CHUNK_ROUNDS):
            decided, *state = _gate_chunk(t, x, y, guess, carry, n, gate2, gap)
            change = np.flatnonzero(decided != guess)
            if not len(change):
                size = min(2 * size, _CHUNK_EVENTS)
                break
            guess = decided
        else:
            size = int(change[0]) + 1
            t, x, y, guess = t[:size], x[:size], y[:size], decided[:size]
            decided, *state = _gate_chunk(t, x, y, guess, carry, n, gate2, gap)
        carry, closes, discarded = state
        accepted.append(lo + np.flatnonzero(decided))
        firsts.append(n_accepted + closes - (n - 1))
        n_accepted += len(accepted[-1])
        partial += discarded
        lo += len(t)
    if gap is not None and carry.count and ts[-1] - carry.t_last > gap:
        partial += carry.count
    return np.concatenate(accepted), np.concatenate(firsts), partial


def _gate_chunk(ts, xs, ys, guess, carry: _Carry, n: int, gate2: float, gap: float | None):
    """Decide a chunk's events from a guess of which ones it accepts.

    The guess fixes the windows (their counts, running sums and pauses) and
    with them each event's gate center. Returns the decisions those centers
    give, the state after the chunk, the positions among the accepted
    events where windows are emitted and the number of accepted events
    pauses discard. A decision depends only on the decisions before it, so
    where they agree with the guess up to some event they are the
    sequential ones, and so is the first that does not.
    """
    acc = np.flatnonzero(guess)
    k = len(acc)
    ta = ts[acc]
    if gap is None:
        pause = np.zeros(k, dtype=bool)
    else:
        pause = np.diff(ta, prepend=carry.t_last) > gap
    # window count after each accepted event: a pause starts over from 0,
    # and the chunk's first run goes on from the carried count
    index = np.arange(k)
    run_first = np.maximum.accumulate(np.where(pause, index, 0))
    carried = np.where(np.logical_or.accumulate(pause), 0, carry.count)
    count = (carried + index - run_first) % n + 1
    # running sums: totals since the chunk began (entry 1 holds the carried
    # window's) less those before each window's first event
    base = np.maximum.accumulate(np.where(count == 1, index + 1, 0))
    totals = [
        np.cumsum(np.concatenate(([0.0, s0], v[acc])))
        for v, s0 in ((xs, carry.sx), (ys, carry.sy))
    ]
    means = [(total[2:] - total[base]) / count for total in totals]
    # the reference moves to every emitted window's mean, and to the mean of
    # every window of _MEAN_GATE_COUNT or more events a pause discards
    moves = count == n
    moves[:-1] |= pause[1:] & (count[:-1] >= _MEAN_GATE_COUNT)
    ref = carry.center() if k and pause[0] else (carry.ref_x, carry.ref_y)
    # slot j: after the chunk's first j accepted events
    latest = np.maximum.accumulate(np.where(np.concatenate(([True], moves)), np.arange(k + 1), 0))
    refs = [np.concatenate(([r], m))[latest] for r, m in zip(ref, means)]
    # gate center of each slot: the window's own mean or the reference
    own = (count >= _MEAN_GATE_COUNT) | (count == n)
    slot = np.cumsum(guess) - guess  # of each event
    dx, dy = (
        v - np.concatenate(([c], np.where(own, m, r[1:])))[slot]
        for v, c, m, r in zip((xs, ys), carry.center(), means, refs)
    )
    decided = dx * dx + dy * dy <= gate2
    end = carry
    if k:
        left = int(count[-1]) % n
        sx, sy = (float(t[-1] - t[base[-1]]) if left else 0.0 for t in totals)
        end = _Carry(left, sx, sy, float(ta[-1]), float(refs[0][-1]), float(refs[1][-1]))
    at = np.flatnonzero(pause)
    discarded = np.where(at > 0, count[at - 1] % n, carry.count)  # open window before each pause
    return decided, end, np.flatnonzero(count == n), int(discarded.sum())


def _centers(camera_id: int, ts, xs, ys, members) -> Centers:
    """One row per window; row i of members holds window i's event indices.

    Sums run along each row in event order, as the windows were filled, so
    they round as sequential sums do.
    """
    n = members.shape[1]

    def mean(values):
        return np.cumsum(values, axis=1)[:, -1] / n

    wx, wy = xs[members], ys[members]
    mx, my = mean(wx), mean(wy)
    cov = np.empty((len(members), 2, 2))
    cov[:, 0, 0] = mean(wx * wx) - mx * mx
    cov[:, 1, 1] = mean(wy * wy) - my * my
    cov[:, 0, 1] = cov[:, 1, 0] = mean(wx * wy) - mx * my
    del wx, wy
    for i in (0, 1):
        cov[:, i, i] = np.where(cov[:, i, i] < 0.0, 0.0, cov[:, i, i])
    if len(_non_psd(cov)):
        raise ValueError("covariance is not positive semidefinite")
    t_c = _NUDGE_TIES.accumulate(mean(ts[members]), dtype=object).astype(np.float64)
    return Centers(
        camera_id, t_c, np.stack([mx, my], axis=1), cov, np.full(len(members), n),
        ts[members[:, 0]].astype(np.int64), ts[members[:, -1]].astype(np.int64),
    )


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
    if t_th <= 0:
        raise ValueError("t_th must be positive")
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

OBSERVATION_HEADER = "camera_id,t_us,x,y,n,sxx,syy,sxy"
_INTEGER_FIELDS = ("camera_id", "t_us", "n")


def write_observations(path, centers: Centers) -> None:
    rows = zip(
        np.rint(centers.t_c).astype(np.int64).tolist(),
        centers.pixel.tolist(),
        centers.count.tolist(),
        centers.covariance.tolist(),
    )
    lines = [OBSERVATION_HEADER] + [
        f"{centers.camera_id},{t},{x!r},{y!r},{n},{cov[0][0]!r},{cov[1][1]!r},{cov[0][1]!r}"
        for t, (x, y), n, cov in rows
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_observations(path) -> Centers:
    """One camera's centers from an observation CSV.

    Line 1 may be a header whose first field is camera_id, and blank lines
    are skipped. Every other line holds the eight fields of the header:
    integers camera_id, t_us and n, and finite numbers x, y, sxx, syy and
    sxy. Each row must name the first row's camera, t_us must not decrease,
    n must be at least 1 and the covariance positive semidefinite. Anything
    else raises ParseError naming path:line.
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
           lambda i: f"t_us {t_us[i]} is earlier than the previous row's {t_us[i - 1]}")
    reject(np.flatnonzero(n < 1), lambda i: f"n {n[i]} is below 1")
    cov = np.stack(
        [columns["sxx"], columns["sxy"], columns["sxy"], columns["syy"]], axis=1
    ).reshape(-1, 2, 2)
    reject(_non_psd(cov), lambda i: "covariance (sxx, syy, sxy) is not positive semidefinite")
    return Centers(
        int(camera[0]), t_us.astype(np.float64), np.stack([columns["x"], columns["y"]], axis=1),
        cov, n, t_us, t_us,
    )


def _parses(text: str, dtype) -> bool:
    try:
        np.array([text]).astype(dtype)
    except (ValueError, OverflowError):
        return False
    return True
