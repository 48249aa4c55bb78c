"""Synthetic multi-camera event streams of a blinking spherical LED marker.

At every LED transition each pixel inside the projected marker disk whose
radial-cosine log-intensity step clears the contrast threshold emits one
event (ON polarity at turn-on, OFF at turn-off), with optional per-pixel
latency jitter. Background noise is Poisson-uniform over the sensor and the
recording. Identical configs (including the seed) produce byte-identical
streams; every event carries a marker/noise provenance label.

Each camera is simulated in batches, not transition by transition: the
trajectory is sampled at every transition in one call, the whole track is
projected in one call, each row of each burst fires an interval of
columns found by a square root and settled by exact comparisons, and the
latency jitter of all marker events is one normal draw.
The streams are bitwise those of a per-transition loop drawing the jitter
burst by burst. The refractory filter sorts the values of a packed
(pixel, time) int64 key and the final event order is the argsort of a
packed (t, x, y) one; each needs (last event time + 1) * width * height to
fit int64.
"""
from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import ClassVar, Protocol

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    ConfigError,
    FieldOfViewWarning,
    document_fields,
    read_document,
)
from .events import (
    EventStream,
    check_sensor,
    digit_counts,
    reprs,
    scatter_digits,
    worker_pool,
    write_blocks,
    write_rows,
)
from .extraction import Correspondences
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    camera_from_record,
    camera_record,
    project_points,
)

Array = np.ndarray

REFRACTORY_US = 50.0
# A camera's marker disks may cover at most this many pixels of their
# bounding boxes, summed over the recording: each pixel that fires costs
# about 60 bytes of memory while its camera is simulated.
_MAX_BURST_CELLS = 2**25

MARKER_LABEL = 0
NOISE_LABEL = 1
# The labels file's words "noise" and "marker": the first four letters, and
# the last three with the newline, each as one word in memory order.
_LABEL_HEADS = np.frombuffer(b"noismark", "<u4")
_LABEL_TAILS = np.frombuffer(b"ise\nker\n", "<u4")


class Trajectory(Protocol):
    """A marker path in world millimetres over time in seconds: positions
    gives the (T, 3) points at T times in one call, and position the point
    at one time as positions of a one-element array, so each path has one
    formula.

    A path's file form is an object whose "type" is the class's kind and
    whose other keys are its fields. shapes gives each field's array shape,
    n standing for any length; a field of another shape, or not finite,
    raises ConfigError naming it.
    """

    kind: ClassVar[str]
    shapes: ClassVar[dict[str, tuple]]

    def positions(self, times: Array) -> Array: ...

    def position(self, t: float) -> Array:
        return self.positions(np.array([t], dtype=float))[0]

    def __post_init__(self):
        for f in fields(self):
            value, shape = getattr(self, f.name), self.shapes[f.name]
            try:  # text, or rows of unequal length, raise here
                array = np.asarray(value, dtype=float)
                fits = array.ndim == len(shape) and all(
                    d in ("n", k) for d, k in zip(shape, array.shape))
            except (TypeError, ValueError):
                fits = False
            if not fits:
                raise ConfigError(f"{type(self).__name__} {f.name} must be numbers of shape "
                                  f"({', '.join(map(str, shape))}), got {value!r}")
            if not np.isfinite(array).all():
                raise ConfigError(f"{type(self).__name__} {f.name} must be finite")


@dataclass(frozen=True)
class Sinusoid3DTrajectory(Trajectory):
    """Per-axis sinusoid around a center, optionally ramped in after a rest.
    A zero amplitude holds the marker still at the center."""

    kind: ClassVar[str] = "sinusoid-3d"
    shapes: ClassVar[dict[str, tuple]] = {
        "center": (3,), "amplitude": (3,), "frequency_hz": (3,), "phase": (3,),
        "start_time": (), "ramp": (),
    }
    center: tuple[float, float, float]
    amplitude: tuple[float, float, float]
    frequency_hz: tuple[float, float, float]
    phase: tuple[float, float, float] = (0.0, 0.0, 0.0)
    start_time: float = 0.0
    ramp: float = 0.0

    def positions(self, times: Array) -> Array:
        c = np.asarray(self.center, dtype=float)
        a = np.asarray(self.amplitude, dtype=float)
        f = np.asarray(self.frequency_hz, dtype=float)
        ph = np.asarray(self.phase, dtype=float)
        tt = np.asarray(times, dtype=float)[:, None] - self.start_time
        if self.ramp > 0:
            env = np.minimum(1.0, np.maximum(tt, 0.0) / self.ramp)
        else:
            env = 1.0
        out = c + env * a * np.sin(2.0 * np.pi * f * tt + ph)
        if self.start_time > 0:
            out[tt[:, 0] <= 0] = c  # at rest until start_time
        return out


@dataclass(frozen=True)
class WaypointSplineTrajectory(Trajectory):
    """A cubic spline through the waypoints, held at its ends outside them.
    Two waypoints give the straight line between them."""

    kind: ClassVar[str] = "waypoint-spline"
    shapes: ClassVar[dict[str, tuple]] = {"times": ("n",), "points": ("n", 3)}
    times: tuple[float, ...]
    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.times) != len(self.points) or len(self.times) < 2:
            raise ConfigError("waypoint trajectory needs matching times and points")
        object.__setattr__(
            self,
            "_spline",
            CubicSpline(np.asarray(self.times), np.asarray(self.points), axis=0),
        )

    def positions(self, times: Array) -> Array:
        t = np.clip(np.asarray(times, dtype=float), self.times[0], self.times[-1])
        return self._spline(t)


_TRAJECTORIES = {cls.kind: cls for cls in (Sinusoid3DTrajectory, WaypointSplineTrajectory)}


@dataclass(frozen=True)
class ScenarioConfig:
    cameras: tuple[tuple[CameraIntrinsics, CameraPose], ...]
    trajectory: Trajectory
    marker_radius_mm: float = 25.0
    blink_freq_hz: float = 250.0
    duty_cycle: float = 0.4
    contrast_threshold: float = 0.25
    led_log_amplitude: float = 1.0
    noise_rate: float = 0.0  # background events per pixel per second
    latency_jitter_std_us: float = 0.0
    duration_s: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if not self.cameras:
            raise ConfigError("scenario needs at least one camera")
        for intr, _ in self.cameras:  # before any pixel is cast to the streams' uint16
            check_sensor(intr.width, intr.height)
        if not 0.0 < self.duty_cycle < 1.0:
            raise ConfigError(f"duty cycle must be in (0, 1), got {self.duty_cycle}")
        # written so that NaN fails each comparison
        for name in ("blink_freq_hz", "duration_s", "marker_radius_mm"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("noise_rate", "latency_jitter_std_us"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be non-negative and finite, got {getattr(self, name)}")
        if not 0.0 <= self.contrast_threshold < np.inf or not np.isfinite(self.led_log_amplitude):
            raise ConfigError("contrast threshold must be finite and non-negative, LED amplitude "
                              f"finite, got {self.contrast_threshold} and {self.led_log_amplitude}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class GroundTruth:
    """Everything the scenario knows: transition schedule, true 3D positions,
    exact projected center tracks, and per-event provenance labels."""

    transition_t_us: Array  # (T,)
    transition_polarity: Array  # (T,) bool, True = LED turned on
    trajectory_mm: Array  # (T, 3)
    tracks_px: Array  # (m, T, 2), NaN when behind a camera
    radius_px: Array  # (m, T)
    in_view: Array  # (m, T) bool
    labels: list[Array]  # per camera, aligned with the stream events


@dataclass
class SimulationResult:
    streams: list[EventStream]
    truth: GroundTruth


def blink_schedule(config: ScenarioConfig) -> tuple[Array, Array]:
    """Transition times (µs) and polarities over the scenario duration."""
    period = 1.0 / config.blink_freq_hz
    n_cycles = int(np.floor(config.duration_s * config.blink_freq_hz))
    times = []
    pols = []
    for k in range(n_cycles + 1):
        on = k * period
        off = (k + config.duty_cycle) * period
        if on < config.duration_s:
            times.append(on * 1e6)
            pols.append(True)
        if off < config.duration_s:
            times.append(off * 1e6)
            pols.append(False)
    return np.array(times), np.array(pols, dtype=bool)


def _refractory_filter(t: Array, x: Array, y: Array, keep_window_us: float) -> Array:
    """Keep mask dropping events within the window after a kept same-pixel event.

    In (x, y, t) order, with ties kept in input order, a pixel's first event
    and every event at least the window after its same-pixel predecessor are
    kept outright. Only the runs of shorter gaps are walked in sequence,
    each starting from the kept event before it. That order sorts the key
    (x * (y_max + 1) + y) * span + t, span = t_max + 1, so coordinates and
    integer times must be non-negative and the key must fit int64.

    The walk reads only the sorted key values: a close pair is two keys less
    than the window apart whose pixels, key // span, are equal (keys of two
    pixels can be that close too), and its times are key % span. The
    permutation is computed only when an event is dropped, to map it back to
    the input: the argsort of the key with each run of equal keys put back
    in input order, which is the stable sort's.
    """
    span = int(t.max(initial=0)) + 1
    key = np.array(x, dtype=np.int64)  # the key, built in place
    key *= int(np.max(y, initial=0)) + 1
    key += y
    key *= span
    key += t
    sorted_key = np.sort(key)
    near = np.flatnonzero(np.diff(sorted_key) < keep_window_us) + 1
    idx = near[sorted_key[near] // span == sorted_key[near - 1] // span]
    dropped = []
    prev, last = -1, None
    for i, ti, before in zip(idx.tolist(), (sorted_key[idx] % span).tolist(),
                             (sorted_key[idx - 1] % span).tolist()):
        if i != prev + 1:  # a run starts: the event before it was kept
            last = before
        if ti - last < keep_window_us:
            dropped.append(i)
        else:
            last = ti
        prev = i
    keep = np.ones(len(t), dtype=bool)
    if dropped:
        order = np.argsort(key)
        tie = np.diff(key[order]) == 0
        run = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])
        order[run] = order[run][np.lexsort((order[run], key[order[run]]))]
        keep[order[np.array(dropped, dtype=np.intp)]] = False
    return keep


def marker_tracks(
    intr: CameraIntrinsics, pose: CameraPose, positions: Array, radius_mm: float
) -> tuple[Array, Array, Array]:
    """Exact projected centers (T, 2), disk radii in pixels (T,) and in-view
    flags (T,) of the marker at positions (T, 3); a position behind the
    camera gets a NaN center, radius 0 and in-view False.

    The points go through the stacked (T, 1, 3) transform, which gives each
    point bitwise the value a (1, 3) call gives it alone.
    """
    center, depth = (a[:, 0] for a in project_points(intr, pose, positions[:, None, :]))
    ahead = depth > 0
    center[~ahead] = np.nan
    radius = np.zeros(len(positions))
    radius[ahead] = 0.5 * (intr.fx + intr.fy) * radius_mm / depth[ahead]
    u, v = center[:, 0], center[:, 1]
    in_view = (
        (radius <= u) & (u <= intr.width - 1 - radius)
        & (radius <= v) & (v <= intr.height - 1 - radius)
    )
    return center, radius, in_view


def _bursts(
    center: Array, radius: Array, width: int, height: int, amplitude: float, threshold: float
) -> tuple[Array, Array, Array]:
    """Transition index, x and y of every firing pixel as int32, transition
    by transition and in row-major (y, x) order within each burst.

    A pixel fires when its step amplitude * cos(pi/2 * rho), rho = distance /
    radius < 1, clears the threshold >= 0: a disk, tested by squared distance
    d2 = (x - cx)**2 + (y - cy)**2. A burst covers the disk's bounding box,
    widened by a pixel and clipped to the sensor, row by row: in each row,
    the cells with d2 < lo2 fire, and the few with lo2 <= d2 < hi2, within
    the cosine step's rounding of the circle, fire as the step decides.
    Only the rows with (y - cy)**2 < hi2 hold such cells. Boxes whose cells
    sum past _MAX_BURST_CELLS raise ConfigError before any is expanded.
    """
    none = np.empty(0, dtype=np.int32)
    k = np.flatnonzero(np.isfinite(center).all(axis=1) & (radius > 0))
    if amplitude <= 0 or not len(k):
        return none, none, none
    cx, cy, r = center[k, 0], center[k, 1], radius[k]
    # clipped before any cast, which would wrap a bound far off the sensor
    x0 = np.clip(np.floor(cx - r) - 1, 0, width)
    x1 = np.clip(np.ceil(cx + r) + 1, -1, width - 1)
    y0 = np.clip(np.floor(cy - r) - 1, 0, height)
    y1 = np.clip(np.ceil(cy + r) + 1, -1, height - 1)
    cells = float(np.sum(np.fmax(x1 - x0 + 1, 0) * np.fmax(y1 - y0 + 1, 0)))
    if cells > _MAX_BURST_CELLS:
        raise ConfigError(f"the marker disks' boxes cover {cells:.0f} pixels of a {width}x{height}"
                          f" sensor, more than the {_MAX_BURST_CELLS} one camera may fire")
    reach = 2.0 / np.pi * np.arccos(min(threshold / amplitude, 1.0))
    band = 1e-13 / max(reach * np.sin(0.5 * np.pi * reach), 1e-150)  # the step's rounding
    lo2, hi2 = (max(1.0 - band, 0.0) * reach * r) ** 2, ((1.0 + band) * reach * r) ** 2

    ya, ye = _interval(cy, np.zeros(len(k)), hi2, y0, y1)
    ny = np.where((x0 <= x1) & (y0 <= y1), ye - ya, 0).astype(np.int32)
    y = _ranges(ya.astype(np.int32), ny)
    k, cx, cy, r, x0, x1, lo2, hi2 = (
        np.repeat(v, ny) for v in (k.astype(np.int32), cx, cy, r, x0, x1, lo2, hi2)
    )
    ey2 = (y - cy) ** 2
    a, e = _interval(cx, ey2, lo2, x0, x1)
    ha, he = _interval(cx, ey2, hi2, x0, x1)

    # the cells between the intervals, each row's left ones then its right ones
    j = np.flatnonzero((ha < a) | (e < he))
    ends = np.stack([ha[j], a[j], e[j], he[j]], axis=1).reshape(-1, 2).astype(np.int32)
    counts = ends[:, 1] - ends[:, 0]
    row = np.repeat(np.repeat(j, 2), counts)
    ex = _ranges(ends[:, 0], counts)
    rho = np.hypot(ex - cx[row], y[row] - cy[row]) / r[row]
    fire = (rho < 1.0) & (amplitude * np.cos(0.5 * np.pi * rho) > threshold)
    row, ex = row[fire], ex[fire]

    # one run per row's lo2 interval, a run per firing cell beside it
    at = row + (ex >= a[row])
    n = np.insert((e - a).astype(np.int32), at, 1)
    return (np.repeat(np.insert(k, at, k[row]), n),
            _ranges(np.insert(a.astype(np.int32), at, ex), n),
            np.repeat(np.insert(y, at, y[row]), n))


def _interval(c: Array, q2: Array, bound: Array, lo: Array, hi: Array) -> tuple[Array, Array]:
    """Per row i, the [a, e) of the integers p in [lo, hi] with
    (p - c)**2 + q2 < bound, all floats; a = e = m + 1 when there are none,
    m = the p nearest c.

    Each float operation is correctly rounded, so the sum falls to m and
    rises after it, and the p under a bound are one interval. A square root
    estimates its ends and exact comparisons of the sum walk them into
    place, so no rounding of the root decides a p.
    """
    m = np.clip(np.rint(c), lo, hi)
    w = np.sqrt(np.fmax(bound - q2, 0.0))
    a = np.maximum(np.minimum(np.ceil(c - w), m), lo)
    e = np.minimum(np.maximum(np.floor(c + w) + 1, m + 1), hi + 1)

    def below(p, i):
        return (p - c[i]) ** 2 + q2[i] < bound[i]

    _walk(a, 1, lambda p, i: (p <= m[i]) & ~below(p, i))
    _walk(a, -1, lambda p, i: (p > lo[i]) & below(p - 1, i))
    _walk(e, -1, lambda p, i: (p > m[i] + 1) & ~below(p - 1, i))
    _walk(e, 1, lambda p, i: (p <= hi[i]) & below(p, i))
    return a, e


def _walk(pos: Array, step: int, moves) -> None:
    """Add step to each pos[i] while moves(pos[i], i) holds; moves takes the
    whole array with i = Ellipsis first."""
    i = np.flatnonzero(moves(pos, ...))
    while len(i):
        pos[i] += step
        i = i[moves(pos[i], i)]


def _ranges(start: Array, count: Array) -> Array:
    """start[i], start[i] + 1, ..., start[i] + count[i] - 1 for each i in
    turn, as int32; counts are non-negative and the values fit int32. The
    offsets may wrap, their sums do not."""
    end = np.cumsum(count)
    out = np.repeat((start - end + count).astype(np.int32), count)
    out += np.arange(len(out), dtype=np.int32)
    return out


def simulate(config: ScenarioConfig) -> SimulationResult:
    """Generate per-camera streams plus ground truth for the scenario.

    Each camera has its own generator, seeded seed ^ camera index, so the
    cameras are simulated on the worker pool and collected in camera order;
    the first camera to fail raises its error."""
    config.validate()
    t_us, pols = blink_schedule(config)
    T = len(t_us)
    positions = config.trajectory.positions(t_us * 1e-6)

    m = len(config.cameras)
    tracks = np.full((m, T, 2), np.nan)
    radii = np.zeros((m, T))
    in_view = np.zeros((m, T), dtype=bool)

    def camera(ci: int) -> tuple[EventStream, Array]:
        """Camera ci's stream and labels; fills its rows of the tracks."""
        intr, pose = config.cameras[ci]
        rng = np.random.default_rng(config.seed ^ ci)
        tracks[ci], radii[ci], in_view[ci] = marker_tracks(
            intr, pose, positions, config.marker_radius_mm
        )
        k, mx, my = _bursts(
            tracks[ci], radii[ci], intr.width, intr.height,
            config.led_log_amplitude, config.contrast_threshold,
        )
        jitter = None
        if config.latency_jitter_std_us > 0 and len(k):
            # one draw in burst order is the sequence of per-burst draws
            jitter = rng.normal(0.0, config.latency_jitter_std_us, len(k))

        n_noise = rng.poisson(config.noise_rate * intr.width * intr.height * config.duration_s)
        # the marker times, then the noise times, in one buffer: the jitter,
        # the clamp at 0 and the rounding are done in place
        t = np.empty(len(k) + n_noise)
        marker = np.take(t_us, k, out=t[:len(k)])
        if jitter is not None:
            marker += jitter
        np.maximum(marker, 0.0, out=marker)
        t[len(k):] = rng.uniform(0.0, config.duration_s * 1e6, n_noise)
        t = np.rint(t, out=t).astype(np.int64)
        nx = rng.integers(0, intr.width, n_noise)
        ny = rng.integers(0, intr.height, n_noise)
        npol = rng.random(n_noise) < 0.5

        x, y = (np.concatenate(v, dtype=np.uint16, casting="unsafe") for v in ((mx, nx), (my, ny)))
        p = np.concatenate([pols[k], npol])
        lbl = np.concatenate([
            np.full(len(k), MARKER_LABEL, dtype=np.uint8),
            np.full(n_noise, NOISE_LABEL, dtype=np.uint8),
        ])
        del k, mx, my, jitter, marker  # copied into the columns: free them before the sorts

        if len(t) and (int(t.max()) + 1) * intr.width * intr.height > 2**63 - 1:
            raise ConfigError(f"camera {ci}: a {config.duration_s:g} s recording on a {intr.width}"
                              f"x{intr.height} sensor overflows the int64 event sort key")
        keep = _refractory_filter(t, x, y, REFRACTORY_US)
        if not keep.all():
            t, x, y, p, lbl = t[keep], x[keep], y[keep], p[keep], lbl[keep]
        # no pixel keeps two events at one time, so (t, x, y) is unique and
        # any sort of this key is the permutation of lexsort((p, y, x, t))
        order = np.argsort((t * intr.width + x) * intr.height + y)
        stream = EventStream(ci, intr.width, intr.height, t[order], x[order], y[order], p[order])
        return stream, lbl[order]

    with worker_pool() as pool:
        streams, labels = (list(v) for v in zip(*pool.map(camera, range(m))))

    if T:
        worst = in_view.mean(axis=1).min()
        if worst < 0.9:
            warnings.warn(
                f"marker in view for only {worst:.0%} of transitions in the "
                "worst camera",
                FieldOfViewWarning,
            )

    truth = GroundTruth(t_us, pols, positions, tracks, radii, in_view, labels)
    return SimulationResult(streams, truth)


# ---------------------------------------------------------------------------
# canonical desk-scale rig
# ---------------------------------------------------------------------------

def look_at_pose(center: Array, target: Array) -> CameraPose:
    """World-to-camera pose for a camera at center aimed at target, with
    world +y up."""
    center = np.asarray(center, dtype=float)
    target = np.asarray(target, dtype=float)
    z = target - center
    z = z / np.linalg.norm(z)
    x = np.cross(np.array([0.0, 1.0, 0.0]), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.stack([x, y, z])
    return CameraPose(R, -R @ center)


PAPER_RIG_FOCAL_PX = 1800.0
PAPER_RIG_SENSOR = (1280, 720)
PAPER_RIG_BASELINES_MM = (4640.0, 4540.0)
_PAPER_TARGET = np.array([0.0, 0.0, 5200.0])


def paper_rig_cameras() -> tuple[tuple[CameraIntrinsics, CameraPose], ...]:
    """Three convergent 1280x720 cameras, f = 1800 px, 4.64 m / 4.54 m
    adjacent baselines, aimed near a common target 5.2 m out."""
    w, h = PAPER_RIG_SENSOR
    intr = CameraIntrinsics(
        PAPER_RIG_FOCAL_PX, PAPER_RIG_FOCAL_PX, (w - 1) / 2.0, (h - 1) / 2.0,
        width=w, height=h,
    )
    u01 = np.array([-0.970, 0.160, 0.183])
    u01 = u01 / np.linalg.norm(u01)
    u12 = np.array([0.975, 0.140, 0.172])
    u12 = u12 / np.linalg.norm(u12)
    c1 = np.zeros(3)
    c0 = c1 + PAPER_RIG_BASELINES_MM[0] * u01
    c2 = c1 + PAPER_RIG_BASELINES_MM[1] * u12
    # skew aim offsets keep the optical axes from meeting in a single point
    aims = [
        _PAPER_TARGET + np.array([180.0, -90.0, 0.0]),
        _PAPER_TARGET + np.array([-60.0, 140.0, 0.0]),
        _PAPER_TARGET + np.array([40.0, 110.0, 0.0]),
    ]
    return tuple(
        (intr, look_at_pose(c, aim)) for c, aim in zip([c0, c1, c2], aims)
    )


def preset_paper_rig() -> ScenarioConfig:
    """Desk-scale replica of the field rig: 250 Hz blink at 40% duty, 5 cm
    marker swept through the common field of view for two seconds."""
    return ScenarioConfig(
        cameras=paper_rig_cameras(),
        trajectory=Sinusoid3DTrajectory(
            center=(0.0, 0.0, 5200.0),
            amplitude=(500.0, 700.0, 300.0),
            frequency_hz=(1.35, 1.05, 1.65),
            phase=(0.0, 1.3, 2.2),
        ),
        marker_radius_mm=25.0,
        blink_freq_hz=250.0,
        duty_cycle=0.4,
        contrast_threshold=0.25,
        led_log_amplitude=1.0,
        noise_rate=0.02,
        latency_jitter_std_us=20.0,
        duration_s=2.0,
        seed=7,
    )


# ---------------------------------------------------------------------------
# scene catalogue: the preset rig's measurement scenes and truth
# ---------------------------------------------------------------------------

def _desk_scene(trajectory: Trajectory, duration_s: float, seed: int) -> ScenarioConfig:
    """A measurement scene on the preset rig: 5 cm marker, 250 Hz blink at
    40% duty, light background noise and 20 us latency jitter."""
    return ScenarioConfig(
        cameras=paper_rig_cameras(), trajectory=trajectory, noise_rate=0.005,
        latency_jitter_std_us=20.0, duration_s=duration_s, seed=seed,
    )


def pole_scenes(duration_s: float, seed: int) -> tuple[ScenarioConfig, ScenarioConfig]:
    """The two markers of a rigid 1000 mm pole, one scene each at seeds seed
    and seed + 11: waypoint trajectories exactly 1000 mm apart at every
    blink transition."""
    t_us, _ = blink_schedule(replace(preset_paper_rig(), duration_s=duration_s))
    tt = t_us * 1e-6
    base = np.stack(
        [
            25.0 * np.sin(2 * np.pi * 0.9 * tt),
            -480.0 + 18.0 * np.sin(2 * np.pi * 0.7 * tt + 1.0),
            4300.0 + 20.0 * np.sin(2 * np.pi * 0.5 * tt + 2.0),
        ],
        axis=1,
    )
    axis = np.stack(
        [
            0.05 * np.sin(2 * np.pi * 0.4 * tt),
            np.ones_like(tt),
            0.04 * np.cos(2 * np.pi * 0.3 * tt),
        ],
        axis=1,
    )
    axis = axis / np.linalg.norm(axis, axis=1, keepdims=True)
    times = tuple(float(v) for v in tt)
    return tuple(
        _desk_scene(WaypointSplineTrajectory(times, tuple(map(tuple, ends))), duration_s, s)
        for ends, s in ((base, seed), (base + 1000.0 * axis, seed + 11))
    )


def sway_scene(seed: int, amplitude_mm: float = 18.2) -> ScenarioConfig:
    """A 1.9 s structure sway: one 1.8 Hz sinusoid of peak amplitude_mm
    along a fixed 3D direction about (0, 0, 4300) mm, at rest for 0.4 s
    and ramped in over 0.3 s."""
    amp = amplitude_mm * np.array([0.8, 0.45, 0.4])
    amp = amp / np.linalg.norm(amp) * amplitude_mm
    trajectory = Sinusoid3DTrajectory(
        center=(0.0, 0.0, 4300.0),
        amplitude=tuple(float(v) for v in amp),
        frequency_hz=(1.8, 1.8, 1.8),
        start_time=0.4,
        ramp=0.3,
    )
    return _desk_scene(trajectory, 1.9, seed)


def truth_correspondences(
    config: ScenarioConfig, n_points: int, noise_px: float, seed: int
) -> Correspondences:
    """Groups built from exact full-model projections of the scenario's
    trajectory at blink transitions, with optional Gaussian pixel noise
    drawn point by point, camera by camera."""
    t_us, _ = blink_schedule(config)
    step = max(1, len(t_us) // n_points)
    t_sel = t_us[::step][:n_points]
    # stacked (k, 1, 3): each point projects bitwise as it would alone
    positions = config.trajectory.positions(t_sel * 1e-6)[:, None, :]
    pixels = np.stack([project_points(i, p, positions)[0][:, 0] for i, p in config.cameras])
    if noise_px > 0:
        rng = np.random.default_rng(seed)
        pixels += rng.normal(0.0, noise_px, (len(t_sel), len(pixels), 2)).transpose(1, 0, 2)
    index = np.broadcast_to(np.arange(len(t_sel)), pixels.shape[:2])
    return Correspondences.from_members(
        range(len(config.cameras)), index, pixels, np.broadcast_to(t_sel, index.shape)
    )


# ---------------------------------------------------------------------------
# scenario files and ground-truth export
# ---------------------------------------------------------------------------

SCENARIO_FORMAT = "evdeform-scenario"


def _tuples(value):
    """JSON lists, nested too, as tuples."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _trajectory_from_json(doc: dict) -> Trajectory:
    """The trajectory of a file form: a field the document lacks takes its
    default, and one without a default must be there."""
    cls = _TRAJECTORIES.get(doc.get("type"))
    if cls is None:
        raise ConfigError(f"unknown trajectory type {doc.get('type')!r}")
    return cls(**{f.name: _tuples(doc[f.name]) for f in fields(cls)
                  if f.name in doc or f.default is MISSING})


def save_scenario(path, config: ScenarioConfig) -> None:
    doc = {
        "format": SCENARIO_FORMAT,
        "version": 1,
        "cameras": [camera_record(intr, pose) for intr, pose in config.cameras],
        "trajectory": {"type": config.trajectory.kind,
                       **{f.name: getattr(config.trajectory, f.name)
                          for f in fields(config.trajectory)}},
        "marker_radius_mm": config.marker_radius_mm,
        "blink_freq_hz": config.blink_freq_hz,
        "duty_cycle": config.duty_cycle,
        "contrast_threshold": config.contrast_threshold,
        "led_log_amplitude": config.led_log_amplitude,
        "noise_rate": config.noise_rate,
        "latency_jitter_std_us": config.latency_jitter_std_us,
        "duration_s": config.duration_s,
        "seed": config.seed,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario written by save_scenario; a file of another format or
    with a missing or malformed field raises ConfigError. An old file's
    edge_band is accepted only when it is 0, the deterministic threshold."""
    doc = read_document(path, ConfigError, SCENARIO_FORMAT)
    if doc.get("edge_band", 0) != 0:
        raise ConfigError(
            f"{path}: field 'edge_band' is {doc['edge_band']!r}, expected 0: "
            "a pixel fires when its step clears the contrast threshold"
        )
    with document_fields(path, ConfigError):
        return ScenarioConfig(
            cameras=tuple(map(camera_from_record, doc["cameras"])),
            trajectory=_trajectory_from_json(doc["trajectory"]),
            marker_radius_mm=doc["marker_radius_mm"],
            blink_freq_hz=doc["blink_freq_hz"],
            duty_cycle=doc["duty_cycle"],
            contrast_threshold=doc["contrast_threshold"],
            led_log_amplitude=doc["led_log_amplitude"],
            noise_rate=doc["noise_rate"],
            latency_jitter_std_us=doc["latency_jitter_std_us"],
            duration_s=doc["duration_s"],
            seed=doc["seed"],
        )


def _format_labels(labels: Array, first: int) -> Array:
    """Three spare bytes, then the rows ``index,noise`` or ``index,marker``
    and newline of a non-empty block whose first row has index first,
    digits scattered in as the event CSV writer does, and each label word
    and newline as two unaligned four-byte stores: its first four letters,
    then its last three and the newline."""
    index = np.arange(first, first + len(labels))
    noise = labels == NOISE_LABEL
    word = np.where(noise, len(b"noise"), len(b"marker"))
    row_end = 3 + np.cumsum(digit_counts(index) + word + 2)  # comma, LF
    out = np.empty(int(row_end[-1]), dtype=np.uint8)
    comma = row_end - 2 - word
    scatter_digits(out, comma - 1, index)
    out[comma] = ord(",")
    words = np.ndarray((len(out) - 3,), "<u4", out, strides=(1,))  # unaligned
    words[comma + 1] = np.where(noise, *_LABEL_HEADS)
    words[row_end - 4] = np.where(noise, *_LABEL_TAILS)
    return out


def export_ground_truth(out_dir, truth: GroundTruth) -> list[Path]:
    """Write transition schedule, 3D trajectory, per-camera tracks and labels."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    t = reprs(truth.transition_t_us)
    p = out_dir / "transitions.csv"
    polarity = map(str, np.asarray(truth.transition_polarity, dtype=int).tolist())
    write_rows(p, "t_us,polarity", t, polarity)
    written.append(p)

    p = out_dir / "trajectory.csv"
    write_rows(p, "t_us,X,Y,Z", t, *map(reprs, np.asarray(truth.trajectory_mm).T))
    written.append(p)

    for ci in range(truth.tracks_px.shape[0]):
        p = out_dir / f"track_cam{ci}.csv"
        write_rows(p, "t_us,u,v", t, *map(reprs, truth.tracks_px[ci].T))
        written.append(p)

        p = out_dir / f"labels_cam{ci}.csv"
        labels = truth.labels[ci]
        with open(p, "wb") as fh:
            fh.write(b"event_index,label\n")
            write_blocks(fh, lambda rows: _format_labels(labels[rows], rows.start), len(labels))
        written.append(p)
    return written
