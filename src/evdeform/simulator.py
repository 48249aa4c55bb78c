"""Synthetic multi-camera event streams of a blinking spherical LED marker.

At every LED transition each pixel inside the projected marker disk whose
radial-cosine log-intensity step clears the contrast threshold emits one
event (ON polarity at turn-on, OFF at turn-off), with optional per-pixel
latency jitter. Background noise is Poisson-uniform over the sensor and the
recording. Identical configs (including the seed) produce byte-identical
streams; every event carries a marker/noise provenance label.

Each camera is simulated in batches, not transition by transition: the
whole track is projected in one call, every burst is read from one stencil
of pixel offsets, and the latency jitter of all marker events is one normal
draw. The streams are bitwise those of a per-transition loop drawing the
jitter burst by burst.
"""
from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    ConfigError,
    FieldOfViewWarning,
    document_fields,
    read_document,
)
from .events import EventStream, digit_counts, scatter_digits
from .geometry import CameraIntrinsics, CameraPose, project_points

Array = np.ndarray

REFRACTORY_US = 50.0
# Stencil cells evaluated per chunk of bursts: each float temporary of a
# chunk stays at 512 KB.
_STENCIL_CELLS = 1 << 16

MARKER_LABEL = 0
NOISE_LABEL = 1


class Trajectory(Protocol):
    def position(self, t: float) -> Array: ...


@dataclass(frozen=True)
class StaticTrajectory:
    point: tuple[float, float, float]

    def position(self, t: float) -> Array:
        return np.asarray(self.point, dtype=float)


@dataclass(frozen=True)
class LinearTrajectory:
    start: tuple[float, float, float]
    velocity: tuple[float, float, float]  # units per second

    def position(self, t: float) -> Array:
        return np.asarray(self.start, dtype=float) + t * np.asarray(self.velocity, dtype=float)


@dataclass(frozen=True)
class Sinusoid3DTrajectory:
    """Per-axis sinusoid around a center, optionally ramped in after a rest."""

    center: tuple[float, float, float]
    amplitude: tuple[float, float, float]
    frequency_hz: tuple[float, float, float]
    phase: tuple[float, float, float] = (0.0, 0.0, 0.0)
    start_time: float = 0.0
    ramp: float = 0.0

    def position(self, t: float) -> Array:
        c = np.asarray(self.center, dtype=float)
        a = np.asarray(self.amplitude, dtype=float)
        f = np.asarray(self.frequency_hz, dtype=float)
        ph = np.asarray(self.phase, dtype=float)
        tt = t - self.start_time
        if self.start_time > 0 and tt <= 0:
            return c
        if self.ramp > 0:
            env = min(1.0, max(tt, 0.0) / self.ramp)
        else:
            env = 1.0
        return c + env * a * np.sin(2.0 * np.pi * f * tt + ph)


@dataclass(frozen=True)
class WaypointSplineTrajectory:
    times: tuple[float, ...]
    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if len(self.times) != len(self.points) or len(self.times) < 2:
            raise ConfigError("waypoint trajectory needs matching times and points")
        object.__setattr__(
            self,
            "_spline",
            CubicSpline(np.asarray(self.times), np.asarray(self.points), axis=0),
        )

    def position(self, t: float) -> Array:
        t = float(np.clip(t, self.times[0], self.times[-1]))
        return np.asarray(self._spline(t), dtype=float)


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
        if not 0.0 < self.duty_cycle < 1.0:
            raise ConfigError(f"duty cycle must be in (0, 1), got {self.duty_cycle}")
        if self.blink_freq_hz <= 0:
            raise ConfigError(f"blink frequency must be positive, got {self.blink_freq_hz}")
        if self.duration_s <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration_s}")
        if self.marker_radius_mm <= 0:
            raise ConfigError("marker radius must be positive")
        if self.noise_rate < 0 or self.latency_jitter_std_us < 0:
            raise ConfigError("noise rate and jitter must be non-negative")
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
    each starting from the kept event before it. Pixel coordinates must lie
    in the int32 range, as an EventStream's do.
    """
    pixel = (np.asarray(x, dtype=np.int64) << 32) + (np.asarray(y, dtype=np.int64) + 2**31)
    order = np.lexsort((t, pixel))
    ts, pixel = t[order], pixel[order]
    close = (pixel[1:] == pixel[:-1]) & (np.diff(ts) < keep_window_us)
    idx = np.flatnonzero(close) + 1
    dropped = []
    prev, last = -1, None
    for i, ti, before in zip(idx.tolist(), ts[idx].tolist(), ts[idx - 1].tolist()):
        if i != prev + 1:  # a run starts: the event before it was kept
            last = before
        if ti - last < keep_window_us:
            dropped.append(i)
        else:
            last = ti
        prev = i
    keep = np.ones(len(t), dtype=bool)
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
    T = len(positions)
    center = np.full((T, 2), np.nan)
    radius = np.zeros(T)
    depth = pose.transform(positions[:, None, :])[:, 0, 2]
    ahead = depth > 0
    center[ahead] = project_points(intr, pose, positions[ahead][:, None, :])[:, 0]
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
    """Transition index, x and y of every firing pixel, transition by
    transition and in row-major (y, x) order within each burst.

    A burst covers the disk's bounding box, widened by a pixel and clipped to
    the sensor. Every box is read from one stencil of the largest box's size,
    offset to the box's corner and masked to its extent, a bounded chunk of
    transitions at a time.
    """
    none = np.empty(0, dtype=np.int64)
    k = np.flatnonzero(np.isfinite(center).all(axis=1) & (radius > 0))
    if amplitude <= 0 or not len(k):
        return none, none, none
    cx, cy, r = center[k, 0], center[k, 1], radius[k]
    # clipped before the cast, which would wrap a bound far off the sensor
    x0 = np.clip(np.floor(cx - r) - 1, 0, width).astype(np.int64)
    x1 = np.clip(np.ceil(cx + r) + 1, -1, width - 1).astype(np.int64)
    y0 = np.clip(np.floor(cy - r) - 1, 0, height).astype(np.int64)
    y1 = np.clip(np.ceil(cy + r) + 1, -1, height - 1).astype(np.int64)
    nx, ny = x1 - x0 + 1, y1 - y0 + 1
    W, H = max(int(nx.max()), 1), max(int(ny.max()), 1)  # boxes may all be empty
    dx, dy = np.arange(W), np.arange(H)[:, None]
    per = max(1, _STENCIL_CELLS // (W * H))
    hits = []
    for lo in range(0, len(k), per):
        s = slice(lo, lo + per)
        gx = x0[s, None, None] + dx  # (chunk, 1, W)
        gy = y0[s, None, None] + dy  # (chunk, H, 1)
        rho = np.hypot(gx - cx[s, None, None], gy - cy[s, None, None]) / r[s, None, None]
        step = np.where(rho < 1.0, amplitude * np.cos(0.5 * np.pi * rho), 0.0)
        fire = (step > threshold) & (dx < nx[s, None, None]) & (dy < ny[s, None, None])
        i, iy, ix = np.nonzero(fire)
        hits.append((i + lo, ix, iy))
    i, ix, iy = (np.concatenate(c) for c in zip(*hits))
    return k[i], x0[i] + ix, y0[i] + iy


def simulate(config: ScenarioConfig) -> SimulationResult:
    """Generate per-camera streams plus ground truth for the scenario."""
    config.validate()
    t_us, pols = blink_schedule(config)
    T = len(t_us)
    positions = np.stack([config.trajectory.position(t * 1e-6) for t in t_us]) if T else np.zeros((0, 3))

    m = len(config.cameras)
    tracks = np.full((m, T, 2), np.nan)
    radii = np.zeros((m, T))
    in_view = np.zeros((m, T), dtype=bool)
    streams = []
    labels = []

    for ci, (intr, pose) in enumerate(config.cameras):
        rng = np.random.default_rng(config.seed ^ ci)
        tracks[ci], radii[ci], in_view[ci] = marker_tracks(
            intr, pose, positions, config.marker_radius_mm
        )
        k, mx, my = _bursts(
            tracks[ci], radii[ci], intr.width, intr.height,
            config.led_log_amplitude, config.contrast_threshold,
        )
        mt = t_us[k]
        if config.latency_jitter_std_us > 0 and len(k):
            # one draw in burst order is the sequence of per-burst draws
            mt = mt + rng.normal(0.0, config.latency_jitter_std_us, len(k))

        n_noise = rng.poisson(config.noise_rate * intr.width * intr.height * config.duration_s)
        nt = rng.uniform(0.0, config.duration_s * 1e6, n_noise)
        nx = rng.integers(0, intr.width, n_noise)
        ny = rng.integers(0, intr.height, n_noise)
        npol = rng.random(n_noise) < 0.5

        t = np.rint(np.concatenate([np.maximum(mt, 0.0), nt])).astype(np.int64)
        x, y = np.concatenate([mx, nx]), np.concatenate([my, ny])
        p = np.concatenate([pols[k], npol])
        lbl = np.concatenate([
            np.full(len(k), MARKER_LABEL, dtype=np.uint8),
            np.full(n_noise, NOISE_LABEL, dtype=np.uint8),
        ])

        keep = _refractory_filter(t, x, y, REFRACTORY_US)
        t, x, y, p, lbl = t[keep], x[keep], y[keep], p[keep], lbl[keep]
        order = np.lexsort((p, y, x, t))
        streams.append(
            EventStream(ci, intr.width, intr.height, t[order], x[order], y[order], p[order])
        )
        labels.append(lbl[order])

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

def look_at_pose(center: Array, target: Array, up=(0.0, 1.0, 0.0)) -> CameraPose:
    """World-to-camera pose for a camera at center aimed at target."""
    center = np.asarray(center, dtype=float)
    target = np.asarray(target, dtype=float)
    z = target - center
    z = z / np.linalg.norm(z)
    x = np.cross(np.asarray(up, dtype=float), z)
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
# scenario files and ground-truth export
# ---------------------------------------------------------------------------

SCENARIO_FORMAT = "evdeform-scenario"


def _trajectory_to_json(traj: Trajectory) -> dict:
    if isinstance(traj, StaticTrajectory):
        return {"type": "static", "point": list(traj.point)}
    if isinstance(traj, LinearTrajectory):
        return {"type": "linear", "start": list(traj.start), "velocity": list(traj.velocity)}
    if isinstance(traj, Sinusoid3DTrajectory):
        return {
            "type": "sinusoid-3d",
            "center": list(traj.center),
            "amplitude": list(traj.amplitude),
            "frequency_hz": list(traj.frequency_hz),
            "phase": list(traj.phase),
            "start_time": traj.start_time,
            "ramp": traj.ramp,
        }
    if isinstance(traj, WaypointSplineTrajectory):
        return {
            "type": "waypoint-spline",
            "times": list(traj.times),
            "points": [list(p) for p in traj.points],
        }
    raise ConfigError(f"trajectory {type(traj).__name__} has no file form")


def _trajectory_from_json(doc: dict) -> Trajectory:
    kind = doc.get("type")
    if kind == "static":
        return StaticTrajectory(tuple(doc["point"]))
    if kind == "linear":
        return LinearTrajectory(tuple(doc["start"]), tuple(doc["velocity"]))
    if kind == "sinusoid-3d":
        return Sinusoid3DTrajectory(
            tuple(doc["center"]),
            tuple(doc["amplitude"]),
            tuple(doc["frequency_hz"]),
            tuple(doc.get("phase", (0.0, 0.0, 0.0))),
            doc.get("start_time", 0.0),
            doc.get("ramp", 0.0),
        )
    if kind == "waypoint-spline":
        return WaypointSplineTrajectory(
            tuple(doc["times"]), tuple(tuple(p) for p in doc["points"])
        )
    raise ConfigError(f"unknown trajectory type {kind!r}")


def save_scenario(path, config: ScenarioConfig) -> None:
    doc = {
        "format": SCENARIO_FORMAT,
        "version": 1,
        "cameras": [
            {
                "fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
                "k1": intr.k1, "k2": intr.k2, "p1": intr.p1, "p2": intr.p2,
                "width": intr.width, "height": intr.height,
                "R": [[float(v) for v in row] for row in pose.rotation],
                "T": [float(v) for v in pose.translation],
            }
            for intr, pose in config.cameras
        ],
        "trajectory": _trajectory_to_json(config.trajectory),
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
        cameras = []
        for cam in doc["cameras"]:
            intr = CameraIntrinsics(
                fx=cam["fx"], fy=cam["fy"], cx=cam["cx"], cy=cam["cy"],
                k1=cam.get("k1", 0.0), k2=cam.get("k2", 0.0),
                p1=cam.get("p1", 0.0), p2=cam.get("p2", 0.0),
                width=cam["width"], height=cam["height"],
            )
            pose = CameraPose(np.array(cam["R"], dtype=float), np.array(cam["T"], dtype=float))
            cameras.append((intr, pose))
        return ScenarioConfig(
            cameras=tuple(cameras),
            trajectory=_trajectory_from_json(doc["trajectory"]),
            marker_radius_mm=doc["marker_radius_mm"],
            blink_freq_hz=doc["blink_freq_hz"],
            duty_cycle=doc["duty_cycle"],
            contrast_threshold=doc["contrast_threshold"],
            led_log_amplitude=doc.get("led_log_amplitude", 1.0),
            noise_rate=doc.get("noise_rate", 0.0),
            latency_jitter_std_us=doc.get("latency_jitter_std_us", 0.0),
            duration_s=doc["duration_s"],
            seed=doc.get("seed", 0),
        )


def _format_labels(labels: Array) -> Array:
    """The rows ``index,noise`` or ``index,marker`` and newline as one
    buffer, digits scattered in as the event CSV writer does."""
    index = np.arange(len(labels))
    noise = labels == NOISE_LABEL
    word = np.where(noise, len(b"noise"), len(b"marker"))
    row_end = np.cumsum(digit_counts(index) + word + 2)  # comma, LF
    out = np.empty(int(row_end[-1]) if len(labels) else 0, dtype=np.uint8)
    out[row_end - 1] = ord("\n")
    for name, rows in ((b"noise", noise), (b"marker", ~noise)):
        start = row_end[rows] - 1 - len(name)
        for j, char in enumerate(name):
            out[start + j] = char
    comma = row_end - 2 - word
    out[comma] = ord(",")
    scatter_digits(out, comma - 1, index)
    return out


def export_ground_truth(out_dir, truth: GroundTruth) -> list[Path]:
    """Write transition schedule, 3D trajectory, per-camera tracks and labels."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    p = out_dir / "transitions.csv"
    lines = ["t_us,polarity"]
    for t, pol in zip(truth.transition_t_us, truth.transition_polarity):
        lines.append(f"{float(t)!r},{int(pol)}")
    p.write_text("\n".join(lines) + "\n")
    written.append(p)

    p = out_dir / "trajectory.csv"
    lines = ["t_us,X,Y,Z"]
    for t, pos in zip(truth.transition_t_us, truth.trajectory_mm):
        lines.append(f"{float(t)!r},{float(pos[0])!r},{float(pos[1])!r},{float(pos[2])!r}")
    p.write_text("\n".join(lines) + "\n")
    written.append(p)

    for ci in range(truth.tracks_px.shape[0]):
        p = out_dir / f"track_cam{ci}.csv"
        lines = ["t_us,u,v"]
        for t, uv in zip(truth.transition_t_us, truth.tracks_px[ci]):
            lines.append(f"{float(t)!r},{float(uv[0])!r},{float(uv[1])!r}")
        p.write_text("\n".join(lines) + "\n")
        written.append(p)

        p = out_dir / f"labels_cam{ci}.csv"
        with open(p, "wb") as fh:
            fh.write(b"event_index,label\n")
            fh.write(_format_labels(truth.labels[ci]))
        written.append(p)
    return written
