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
        eigs = np.linalg.eigvalsh(self.covariance)
        if eigs.min() < -1e-9 * max(eigs.max(), 1.0):
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

    Events join the current window only within gate_radius of the running
    centroid (bootstrapped from the median of the first n events); gated-out
    events count as noise. An optional reset gap discards a partial window
    whenever the accepted-event stream pauses, which keeps windows aligned
    to blink bursts.
    """
    n = _resolve_n(stream, config)
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

    boot = min(n, total)
    ref_x = float(np.median(xs[:boot]))
    ref_y = float(np.median(ys[:boot]))
    gate2 = config.gate_radius * config.gate_radius
    reset_gap = config.reset_gap_us

    observations: list[CenterObservation] = []
    noise = 0
    partial = 0
    sx = sy = st = sxx = syy = sxy = 0.0
    count = 0
    t_first = t_last = 0.0
    last_emit_t: float | None = None

    t_list = ts.tolist()
    x_list = xs.tolist()
    y_list = ys.tolist()

    for i in range(total):
        t = t_list[i]
        if reset_gap is not None and count and t - t_last > reset_gap:
            if count >= 8:
                # keep tracking the marker across bursts too small to fill
                # a window; tiny partials (stray noise) never move the gate
                ref_x, ref_y = sx / count, sy / count
            partial += count
            sx = sy = st = sxx = syy = sxy = 0.0
            count = 0
        x = x_list[i]
        y = y_list[i]
        if count >= 8:
            cx, cy = sx / count, sy / count
        else:
            cx, cy = ref_x, ref_y
        dx, dy = x - cx, y - cy
        if dx * dx + dy * dy > gate2:
            noise += 1
            continue
        if count == 0:
            t_first = t
        sx += x
        sy += y
        st += t
        sxx += x * x
        syy += y * y
        sxy += x * y
        t_last = t
        count += 1
        if count == n:
            mx, my, mt = sx / n, sy / n, st / n
            cov = np.array(
                [
                    [max(sxx / n - mx * mx, 0.0), sxy / n - mx * my],
                    [sxy / n - mx * my, max(syy / n - my * my, 0.0)],
                ]
            )
            # equal-timestamp windows would tie; nudge far below any t_th
            if last_emit_t is not None and mt <= last_emit_t:
                mt = last_emit_t + 1e-3
            cluster = EventCluster(
                centroid=np.array([mx, my]),
                covariance=cov,
                count=n,
                t_c=mt,
                t_min=int(t_first),
                t_max=int(t_last),
            )
            observations.append(
                CenterObservation(stream.camera_id, cluster.centroid, mt, cluster)
            )
            last_emit_t = mt
            ref_x, ref_y = mx, my
            sx = sy = st = sxx = syy = sxy = 0.0
            count = 0

    if not observations:
        raise StreamTooShort(
            f"only {total - noise} events passed the spatial gate, window needs {n}"
        )
    return ExtractionResult(tuple(observations), noise, partial, n)


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
