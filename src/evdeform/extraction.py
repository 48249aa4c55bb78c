"""Marker-center extraction from event streams and multi-camera matching.

Events are accumulated in fixed-count windows; each window's centroid,
covariance and mean timestamp form one center observation. Observations
from different cameras are grouped into corresponding points by timestamp
proximity, and correspondence_arrays lays the groups out as the pixel and
visibility arrays that calibration and triangulation work on.
"""
from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyCluster, StreamTooShort
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


@dataclass(frozen=True)
class EventCluster:
    """Accumulated event group: Gaussian mean, covariance, count, mean time."""

    centroid: np.ndarray
    covariance: np.ndarray
    count: int
    t_c: float
    t_min: int = 0
    t_max: int = 0

    def __post_init__(self):
        object.__setattr__(self, "centroid", np.asarray(self.centroid, dtype=float).reshape(2))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float).reshape(2, 2))
        if self.count < 1:
            raise EmptyCluster("cluster must hold at least one event")
        _require_psd(self.covariance[None])

    @classmethod
    def _trusted(cls, **fields) -> EventCluster:
        """A cluster from fields already of the right types, shapes and checks."""
        cluster = object.__new__(cls)
        cluster.__dict__.update(fields)
        return cluster


def _require_psd(covariances: np.ndarray) -> None:
    """Raise ValueError unless every 2x2 covariance in the stack is PSD."""
    eigs = np.linalg.eigvalsh(covariances)  # ascending
    if np.any(eigs[:, 0] < -1e-9 * np.maximum(eigs[:, -1], 1.0)):
        raise ValueError("covariance is not positive semidefinite")


@dataclass(frozen=True)
class CenterObservation:
    """One extracted marker center in one camera."""

    camera_id: int
    pixel: np.ndarray
    t_c: float
    cluster: EventCluster

    def __post_init__(self):
        object.__setattr__(self, "pixel", np.asarray(self.pixel, dtype=float).reshape(2))


@dataclass(frozen=True)
class CorrespondingPoint:
    """Center observations of the same blink matched across cameras."""

    observations: tuple[CenterObservation, ...]
    match_time_spread: float

    @property
    def camera_ids(self) -> tuple[int, ...]:
        return tuple(o.camera_id for o in self.observations)

    @cached_property
    def mean_t(self) -> float:
        return float(np.mean([o.t_c for o in self.observations]))

    def pixel(self, camera_id: int) -> np.ndarray:
        for o in self.observations:
            if o.camera_id == camera_id:
                return o.pixel
        raise KeyError(f"camera {camera_id} not in this corresponding point")


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
    observations: tuple[CenterObservation, ...]
    noise_count: int
    partial_discards: int
    n: int

    def __iter__(self):
        return iter(self.observations)

    def __len__(self):
        return len(self.observations)


def extraction_diagnostics(result: ExtractionResult, sensor: tuple[int, int]) -> dict:
    """Window time spread (t_max - t_min) and the share of the sensor area
    the bounding box of the centers covers."""
    spread = np.array([o.cluster.t_max - o.cluster.t_min for o in result.observations])
    pixels = np.array([o.pixel for o in result.observations])
    width, height = pixels.max(axis=0) - pixels.min(axis=0)
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


def accumulate_cluster(events: EventStream) -> EventCluster:
    """Centroid, population covariance and mean timestamp of an event group."""
    if len(events) == 0:
        raise EmptyCluster("no events to accumulate")
    xs = events.x.astype(float)
    ys = events.y.astype(float)
    ts = events.t
    n = len(xs)
    mx, my = xs.mean(), ys.mean()
    cov = np.array(
        [
            [np.mean((xs - mx) ** 2), np.mean((xs - mx) * (ys - my))],
            [np.mean((xs - mx) * (ys - my)), np.mean((ys - my) ** 2)],
        ]
    )
    return EventCluster(
        centroid=np.array([mx, my]),
        covariance=cov,
        count=n,
        t_c=float(ts.mean(dtype=np.float64)),
        t_min=int(ts.min()),
        t_max=int(ts.max()),
    )


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
    observations = _observations(stream.camera_id, ts, xs, ys, members)
    return ExtractionResult(observations, total - len(accepted), partial, n)


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


def _observations(camera_id: int, ts, xs, ys, members) -> tuple[CenterObservation, ...]:
    """One observation per window; row i of members holds window i's event indices.

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
    _require_psd(cov)
    t_c = _NUDGE_TIES.accumulate(mean(ts[members]), dtype=object)
    t_min = ts[members[:, 0]].astype(np.int64)
    t_max = ts[members[:, -1]].astype(np.int64)
    centroids = np.stack([mx, my], axis=1)
    return tuple(
        CenterObservation(
            camera_id,
            c,
            float(t),
            EventCluster._trusted(
                centroid=c, covariance=v, count=n, t_c=float(t), t_min=int(lo), t_max=int(hi)
            ),
        )
        for c, v, t, lo, hi in zip(centroids, cov, t_c, t_min, t_max)
    )


def match_corresponding(
    sequences: Sequence[Sequence[CenterObservation]], t_th: float
) -> list[CorrespondingPoint]:
    """Greedy chronological grouping of observations within t_th of each other.

    Each observation is used at most once; groups keep only members whose
    pairwise time spread is within t_th; groups spanning fewer than two
    cameras are dropped. The result does not depend on the order in which
    the camera sequences are passed.
    """
    if t_th <= 0:
        raise ValueError("t_th must be positive")
    cams: list[tuple[int, list[CenterObservation], list[float]]] = []
    for seq in sequences:
        seq = list(seq)
        if not seq:
            continue
        tcs = [o.t_c for o in seq]
        if any(b < a for a, b in zip(tcs, tcs[1:])):
            raise ValueError("observation sequences must be sorted by t_c")
        cams.append((seq[0].camera_id, seq, tcs))
    cams.sort(key=lambda c: c[0])

    used = [np.zeros(len(seq), dtype=bool) for _, seq, _ in cams]
    order = sorted(
        (obs.t_c, cam_pos, idx)
        for cam_pos, (_, seq, _) in enumerate(cams)
        for idx, obs in enumerate(seq)
    )

    groups: list[CorrespondingPoint] = []
    for t_anchor, cam_pos, idx in order:
        if used[cam_pos][idx]:
            continue
        members = [(cam_pos, idx)]
        for other_pos, (_, seq, tcs) in enumerate(cams):
            if other_pos == cam_pos:
                continue
            j = _closest_unused(tcs, used[other_pos], t_anchor, t_th)
            if j is not None:
                members.append((other_pos, j))
        # enforce the pairwise spread, never dropping the anchor
        while len(members) > 1:
            times = [cams[cp][2][i] for cp, i in members]
            spread = max(times) - min(times)
            if spread <= t_th:
                break
            worst = max(
                (m for m in members if m != (cam_pos, idx)),
                key=lambda m: abs(cams[m[0]][2][m[1]] - t_anchor),
            )
            members.remove(worst)
        for cp, i in members:
            used[cp][i] = True
        if len(members) >= 2:
            obs = tuple(
                sorted((cams[cp][1][i] for cp, i in members), key=lambda o: o.camera_id)
            )
            times = [o.t_c for o in obs]
            groups.append(CorrespondingPoint(obs, max(times) - min(times)))
    groups.sort(key=lambda g: g.mean_t)
    return groups


def correspondence_arrays(
    points: Sequence[CorrespondingPoint], camera_ids: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (m, n, 2) and visibility (m, n) of n groups over m cameras.

    Row i holds camera camera_ids[i]; pixels a camera does not see are zero,
    and observations from cameras outside camera_ids are ignored.
    """
    row = {cid: i for i, cid in enumerate(camera_ids)}
    pixels = np.zeros((len(camera_ids), len(points), 2))
    visibility = np.zeros((len(camera_ids), len(points)), dtype=bool)
    for j, cp in enumerate(points):
        for obs in cp.observations:
            i = row.get(obs.camera_id)
            if i is not None:
                pixels[i, j] = obs.pixel
                visibility[i, j] = True
    return pixels, visibility


def _closest_unused(tcs: list[float], used: np.ndarray, t: float, t_th: float) -> int | None:
    lo = bisect_left(tcs, t - t_th)
    best = None
    best_d = None
    j = lo
    while j < len(tcs) and tcs[j] <= t + t_th:
        if not used[j]:
            d = abs(tcs[j] - t)
            if best_d is None or d < best_d:
                best, best_d = j, d
        j += 1
    return best


# ---------------------------------------------------------------------------
# observation CSV
# ---------------------------------------------------------------------------

OBSERVATION_HEADER = "camera_id,t_us,x,y,n,sxx,syy,sxy"


def write_observations(path, observations: Sequence[CenterObservation]) -> None:
    lines = [OBSERVATION_HEADER]
    for o in observations:
        c = o.cluster
        lines.append(
            f"{o.camera_id},{int(round(o.t_c))},{float(o.pixel[0])!r},{float(o.pixel[1])!r},"
            f"{c.count},{float(c.covariance[0, 0])!r},{float(c.covariance[1, 1])!r},"
            f"{float(c.covariance[0, 1])!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_observations(path) -> list[CenterObservation]:
    out: list[CenterObservation] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0] == "camera_id":
                continue
            cid, t_us, x, y, n, sxx, syy, sxy = row
            cov = np.array([[float(sxx), float(sxy)], [float(sxy), float(syy)]])
            cluster = EventCluster(
                centroid=np.array([float(x), float(y)]),
                covariance=cov,
                count=int(n),
                t_c=float(t_us),
                t_min=int(t_us),
                t_max=int(t_us),
            )
            out.append(
                CenterObservation(int(cid), cluster.centroid, float(t_us), cluster)
            )
    return out
