"""Synthetic multi-camera event streams of a blinking spherical LED marker.

At every LED transition each pixel inside the projected marker disk whose
radial-cosine log-intensity step clears the contrast threshold emits one
event (ON polarity at turn-on, OFF at turn-off), with optional per-pixel
latency jitter. Background noise is Poisson-uniform over the sensor and the
recording. Identical configs (including the seed) produce byte-identical
streams; every event carries a marker/noise provenance label.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    ConfigError,
    FieldOfViewWarning,
    PointBehindCamera,
    document_fields,
    read_document,
)
from .events import EventStream
from .geometry import CameraIntrinsics, CameraPose, project_points

Array = np.ndarray

REFRACTORY_US = 50.0

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
    edge_band: float = 0.0  # optional Bernoulli band above the threshold

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


def _disk_pixels(
    center: Array,
    radius_px: float,
    width: int,
    height: int,
    amplitude: float,
    threshold: float,
    edge_band: float,
    rng: np.random.Generator,
) -> tuple[Array, Array]:
    """Pixel coordinates firing for one transition burst."""
    if radius_px <= 0 or amplitude <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    x0 = max(int(np.floor(center[0] - radius_px)) - 1, 0)
    x1 = min(int(np.ceil(center[0] + radius_px)) + 1, width - 1)
    y0 = max(int(np.floor(center[1] - radius_px)) - 1, 0)
    y1 = min(int(np.ceil(center[1] + radius_px)) + 1, height - 1)
    if x1 < x0 or y1 < y0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    xs = np.arange(x0, x1 + 1)
    ys = np.arange(y0, y1 + 1)
    gx, gy = np.meshgrid(xs, ys)
    rho = np.hypot(gx - center[0], gy - center[1]) / radius_px
    step = np.where(rho < 1.0, amplitude * np.cos(0.5 * np.pi * rho), 0.0)
    if edge_band > 0:
        prob = np.clip((step - threshold) / (edge_band * amplitude), 0.0, 1.0)
        fire = rng.random(prob.shape) < prob
    else:
        fire = step > threshold
    return gx[fire].ravel(), gy[fire].ravel()


def projected_marker(
    intr: CameraIntrinsics, pose: CameraPose, point_mm: Array, radius_mm: float
) -> tuple[Array, float, bool]:
    """Exact projected center, disk radius in pixels, and in-view flag."""
    try:
        center = project_points(intr, pose, point_mm.reshape(1, 3))[0]
    except PointBehindCamera:
        return np.array([np.nan, np.nan]), 0.0, False
    depth = float(pose.transform(point_mm.reshape(1, 3))[0, 2])
    radius_px = 0.5 * (intr.fx + intr.fy) * radius_mm / depth
    in_view = bool(
        radius_px <= center[0] <= intr.width - 1 - radius_px
        and radius_px <= center[1] <= intr.height - 1 - radius_px
    )
    return center, radius_px, in_view


def _refractory_filter(t: Array, x: Array, y: Array, keep_window_us: float) -> Array:
    """Keep mask dropping events within the window after a kept same-pixel event."""
    keep = np.ones(len(t), dtype=bool)
    order = np.lexsort((t, y, x))
    last_t: dict[tuple[int, int], float] = {}
    for i in order:
        key = (int(x[i]), int(y[i]))
        prev = last_t.get(key)
        if prev is not None and t[i] - prev < keep_window_us:
            keep[i] = False
        else:
            last_t[key] = t[i]
    return keep


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
        ev_t, ev_x, ev_y, ev_p, ev_lbl = [], [], [], [], []
        for k in range(T):
            center, radius_px, ok = projected_marker(
                intr, pose, positions[k], config.marker_radius_mm
            )
            tracks[ci, k] = center
            radii[ci, k] = radius_px
            in_view[ci, k] = ok
            if not np.isfinite(center).all():
                continue
            px, py = _disk_pixels(
                center,
                radius_px,
                intr.width,
                intr.height,
                config.led_log_amplitude,
                config.contrast_threshold,
                config.edge_band,
                rng,
            )
            if not len(px):
                continue
            if config.latency_jitter_std_us > 0:
                ts = t_us[k] + rng.normal(0.0, config.latency_jitter_std_us, len(px))
            else:
                ts = np.full(len(px), t_us[k])
            ev_t.append(np.maximum(ts, 0.0))
            ev_x.append(px)
            ev_y.append(py)
            ev_p.append(np.full(len(px), pols[k], dtype=bool))
            ev_lbl.append(np.full(len(px), MARKER_LABEL, dtype=np.uint8))

        n_noise = rng.poisson(config.noise_rate * intr.width * intr.height * config.duration_s)
        if n_noise:
            ev_t.append(rng.uniform(0.0, config.duration_s * 1e6, n_noise))
            ev_x.append(rng.integers(0, intr.width, n_noise))
            ev_y.append(rng.integers(0, intr.height, n_noise))
            ev_p.append(rng.random(n_noise) < 0.5)
            ev_lbl.append(np.full(n_noise, NOISE_LABEL, dtype=np.uint8))

        if ev_t:
            t = np.rint(np.concatenate(ev_t)).astype(np.int64)
            x = np.concatenate(ev_x).astype(np.int64)
            y = np.concatenate(ev_y).astype(np.int64)
            p = np.concatenate(ev_p)
            lbl = np.concatenate(ev_lbl)
        else:
            t = np.zeros(0, dtype=np.int64)
            x = np.zeros(0, dtype=np.int64)
            y = np.zeros(0, dtype=np.int64)
            p = np.zeros(0, dtype=bool)
            lbl = np.zeros(0, dtype=np.uint8)

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
        "edge_band": config.edge_band,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario written by save_scenario; a file of another format or
    with a missing or malformed field raises ConfigError."""
    doc = read_document(path, ConfigError, SCENARIO_FORMAT)
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
            edge_band=doc.get("edge_band", 0.0),
        )


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
        lines = ["event_index,label"]
        for i, lbl in enumerate(truth.labels[ci]):
            lines.append(f"{i},{'noise' if lbl == NOISE_LABEL else 'marker'}")
        p.write_text("\n".join(lines) + "\n")
        written.append(p)
    return written
