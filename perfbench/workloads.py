"""The benchmark's two workloads over evdeform's public functions.

Each workload builds its inputs in ``setup`` (timed as ``setup_s``), runs
one pass of its operations in ``run_pass`` (timed as ``wall_s``) and checks
that pass in ``check`` (never timed). ``check_recording`` checks the
recording a setup wrote. Checks compare against references the
benchmark computes itself from the scenario: the marker track is projected
here with numpy, not read from the simulator's ground-truth arrays.
"""
from __future__ import annotations

import shutil
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from evdeform.calibration import CalibrationConfig, calibrate
from evdeform.deformation import (
    MeasureConfig,
    anchor_scale,
    camera_centers,
    measure_deformation,
    rebase_extrinsics,
    rig_from_calibration,
)
from evdeform.errors import EvdeformError
from evdeform.events import read_stream, write_stream
from evdeform.extraction import (
    calibration_profile,
    extract_center_sequence,
    match_corresponding,
    measurement_profile,
)
from evdeform.simulator import (
    NOISE_LABEL,
    PAPER_RIG_BASELINES_MM,
    ScenarioConfig,
    Sinusoid3DTrajectory,
    WaypointSplineTrajectory,
    export_ground_truth,
    paper_rig_cameras,
    preset_paper_rig,
    save_scenario,
    simulate,
)

import checks

BLINK_HZ = 250.0
MATCH_T_TH_US = 0.25e6 / BLINK_HZ  # quarter period, as the CLI and scripts use
BASELINE_MM = PAPER_RIG_BASELINES_MM[0]  # cameras 0-1, anchors the metric scale
POLE_LENGTH_MM = 1000.0
# sweep_calibration does not depend on --seed: its pole operation is the one
# kept failure, and a kept failure must fail on the same inputs every run
SWEEP_CALIBRATION_SEED = 3
POLE_SCENE_SEEDS = (7, 18)


def derive_seed(seed: int, tag: str) -> int:
    """Scenario seed for one workload, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]).generate_state(1)[0])


@dataclass
class Outcome:
    """What the checks found in one pass."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # wrong outputs
    failures: list[str] = field(default_factory=list)  # failed operations
    figures: dict[str, float] = field(default_factory=dict)


@dataclass
class Reference:
    """Marker track projected with numpy from the scenario definition."""

    transition_t_us: np.ndarray  # (T,)
    track_px: np.ndarray  # (m, T, 2)
    radius_px: np.ndarray  # (m, T)


def transition_times(blink_hz: float, duty: float, duration_s: float) -> np.ndarray:
    """LED on/off transition times (us) in recording order."""
    period = 1.0 / blink_hz
    times = [
        (k + frac) * period * 1e6
        for k in range(int(np.floor(duration_s * blink_hz)) + 1)
        for frac in (0.0, duty)
        if (k + frac) * period < duration_s
    ]
    return np.array(times)


def reference_tracks(config: ScenarioConfig) -> Reference:
    t_us = transition_times(config.blink_freq_hz, config.duty_cycle, config.duration_s)
    pos = np.stack([config.trajectory.position(t * 1e-6) for t in t_us])
    tracks, radii = [], []
    for intr, pose in config.cameras:
        dist = (intr.k1, intr.k2, intr.p1, intr.p2)
        tracks.append(checks.project(
            intr.fx, intr.fy, intr.cx, intr.cy, dist, pose.rotation, pose.translation, pos
        ))
        depth = (pos @ pose.rotation.T + pose.translation)[:, 2]
        radii.append(0.5 * (intr.fx + intr.fy) * config.marker_radius_mm / depth)
    return Reference(t_us, np.stack(tracks), np.stack(radii))


def pole_trajectories(duration_s: float) -> tuple[WaypointSplineTrajectory, WaypointSplineTrajectory]:
    """Two markers on a rigid pole: exactly POLE_LENGTH_MM apart at every
    blink transition, the pole drifting and tilting slowly."""
    tt = transition_times(BLINK_HZ, 0.4, duration_s) * 1e-6
    base = np.stack([
        25.0 * np.sin(2 * np.pi * 0.9 * tt),
        -480.0 + 18.0 * np.sin(2 * np.pi * 0.7 * tt + 1.0),
        4300.0 + 20.0 * np.sin(2 * np.pi * 0.5 * tt + 2.0),
    ], axis=1)
    axis = np.stack([
        0.05 * np.sin(2 * np.pi * 0.4 * tt),
        np.ones_like(tt),
        0.04 * np.cos(2 * np.pi * 0.3 * tt),
    ], axis=1)
    top = base + POLE_LENGTH_MM * axis / np.linalg.norm(axis, axis=1, keepdims=True)
    times = tuple(float(v) for v in tt)
    return (
        WaypointSplineTrajectory(times, tuple(map(tuple, base))),
        WaypointSplineTrajectory(times, tuple(map(tuple, top))),
    )


def desk_scene(trajectory, duration_s: float, seed: int) -> ScenarioConfig:
    """The acceptance suite's measurement scenes: preset rig, lighter noise."""
    return ScenarioConfig(
        cameras=paper_rig_cameras(),
        trajectory=trajectory,
        marker_radius_mm=25.0,
        blink_freq_hz=BLINK_HZ,
        duty_cycle=0.4,
        contrast_threshold=0.25,
        noise_rate=0.005,
        latency_jitter_std_us=20.0,
        duration_s=duration_s,
        seed=seed,
    )


def sway_trajectory() -> Sinusoid3DTrajectory:
    """18.2 mm 3D sway at 1.8 Hz after 0.4 s of rest and a 0.3 s ramp."""
    amp = 18.2 * np.array([0.8, 0.45, 0.4])
    amp = amp / np.linalg.norm(amp) * 18.2
    return Sinusoid3DTrajectory(
        center=(0.0, 0.0, 4300.0),
        amplitude=tuple(float(a) for a in amp),
        frequency_hz=(1.8, 1.8, 1.8),
        start_time=0.4,
        ramp=0.3,
    )


def true_rig():
    """The simulator's cameras relative to camera 0, anchored on the baseline."""
    cams = paper_rig_cameras()
    rig = rebase_extrinsics([p for _, p in cams], 0, [i for i, _ in cams])
    return _anchored(rig)


def _anchored(rig):
    centers = camera_centers(rig)
    return anchor_scale(rig, BASELINE_MM, (centers[0], centers[1]))


def _center_errors(sequences, ref: Reference):
    errs, radii = [], []
    for seq in sequences:
        if not seq:
            continue
        cid = seq[0].camera_id
        e, r = checks.center_errors(
            [o.pixel for o in seq], [o.t_c for o in seq],
            ref.transition_t_us, ref.track_px[cid], ref.radius_px[cid],
        )
        errs.append(e)
        radii.append(r)
    if not errs:
        return np.array([np.inf]), np.array([0.0])
    return np.concatenate(errs), np.concatenate(radii)


class Workload:
    name = ""
    recording_s = 0.0  # seconds of recording one pass consumes or produces
    seeds: dict = {}  # scenario and calibration seeds, for the record

    def __init__(self, seed: int, work_dir: Path, tracer):
        self.dir = work_dir
        self.tracer = tracer
        self._ref = None
        self._sim = None  # the last setup's simulator output, until checked

    def reference(self) -> Reference:
        if self._ref is None:
            self._ref = reference_tracks(self.config)
        return self._ref

    def check_recording(self) -> Outcome:
        """Check the recording the latest setup wrote against the scenario:
        CSV files equal the streams bit for bit, no pixel fires twice within
        the refractory period, marker events lie on the projected track, and
        the noise count fits its Poisson expectation. The simulator output
        kept for this is dropped afterwards."""
        sim, self._sim = self._sim, None
        cfg, ref = self.config, self.reference()
        res = Outcome()
        for ci, (stream, path) in enumerate(zip(sim.streams, self.files)):
            name = f"camera {ci}"
            labels = sim.truth.labels[ci]
            if path.suffix == ".csv":
                res.problems += checks.check_csv_matches(
                    path, stream.t, stream.x, stream.y, stream.polarity
                )
            res.problems += checks.check_refractory(name, stream.t, stream.x, stream.y)
            res.problems += checks.check_marker_footprint(
                name, stream.t, stream.x, stream.y, labels != NOISE_LABEL,
                ref.transition_t_us, ref.track_px[ci], ref.radius_px[ci],
                cfg.contrast_threshold, cfg.led_log_amplitude,
            )
            expected = cfg.noise_rate * stream.width * stream.height * cfg.duration_s
            res.problems += checks.check_noise_count(name, int(np.sum(labels == NOISE_LABEL)), expected)
        return res

    def _fresh_dir(self, name: str) -> Path:
        path = self.dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def _simulate(self, config: ScenarioConfig):
        with self.tracer.span("simulator.simulate"):
            sim = simulate(config)
        self.tracer.count("simulator.events", sum(len(s) for s in sim.streams))
        return sim

    def _record(self, sim, config, out: Path, fmt: str) -> list[Path]:
        """Write streams, ground truth and scenario as `evdeform simulate` does."""
        paths = []
        for stream in sim.streams:
            path = out / f"events_cam{stream.camera_id}.{'csv' if fmt == 'csv' else 'bin'}"
            with self.tracer.span(f"events.write_stream.{fmt}"):
                write_stream(stream, path, fmt)
            if fmt == "csv":
                self.tracer.count("events.csv_bytes", path.stat().st_size)
            paths.append(path)
        with self.tracer.span("simulator.export_ground_truth"):
            export_ground_truth(out / "ground_truth", sim.truth)
        save_scenario(out / "scenario.json", config)
        return paths

    def _read(self, paths, fmt: str, sensor):
        streams = []
        for cid, path in enumerate(paths):
            with self.tracer.span(f"events.read_stream.{fmt}"):
                stream, _ = read_stream(path, fmt, sensor if fmt == "csv" else None, cid)
            streams.append(stream)
        return streams

    def _extract_match(self, streams, profile):
        sequences = []
        for stream in streams:
            with self.tracer.span("extraction.extract_center_sequence"):
                sequences.append(extract_center_sequence(stream, profile).observations)
            self.tracer.count("extraction.events", len(stream))
        with self.tracer.span("extraction.match_corresponding"):
            groups = match_corresponding(sequences, MATCH_T_TH_US)
        return sequences, groups

    def _measure(self, rig, groups, threshold_px: float):
        with self.tracer.span("deformation.measure_deformation"):
            series = measure_deformation(rig, groups, MeasureConfig(residual_threshold_px=threshold_px))
        self.tracer.count("deformation.samples", len(series) + series.dropped)
        return series


# ---------------------------------------------------------------------------

@dataclass
class SweepOutput:
    sequences: list
    calibration: object = None
    pole_series: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


class SweepCalibration(Workload):
    """Events in, self-calibration, then measurement: the paper's chain.

    Setup simulates the preset 2 s sweep (stored as binary event files, the
    CLI default) and two pole-marker scenes. A pass has two operations:
    ``calibrate`` (read, extract, match, calibrate) and ``pole`` (measure
    both pole markers with the calibrated rig anchored on the baseline).
    """

    name = "sweep_calibration"

    def __init__(self, seed, work_dir, tracer, sweep_s: float = 2.0, pole_s: float = 1.2):
        super().__init__(seed, work_dir, tracer)
        self.config = replace(preset_paper_rig(), duration_s=sweep_s)
        self.pole_configs = [
            desk_scene(traj, pole_s, s) for traj, s in zip(pole_trajectories(pole_s), POLE_SCENE_SEEDS)
        ]
        self.recording_s = sweep_s + 2 * pole_s
        self.seeds = {"sweep": self.config.seed, "poles": list(POLE_SCENE_SEEDS),
                      "calibration": SWEEP_CALIBRATION_SEED}

    def setup(self) -> None:
        out = self._fresh_dir("sweep")
        sim = self._simulate(self.config)
        self.files = self._record(sim, self.config, out, "binary")
        self.sensor = (sim.streams[0].width, sim.streams[0].height)
        self._sim = sim
        self.pole_streams = [self._simulate(cfg).streams for cfg in self.pole_configs]

    def run_pass(self) -> SweepOutput:
        streams = self._read(self.files, "binary", self.sensor)
        sequences, groups = self._extract_match(streams, calibration_profile(BLINK_HZ))
        out = SweepOutput(sequences)
        try:
            with self.tracer.span("calibration.calibrate"):
                out.calibration = calibrate(
                    groups, CalibrationConfig(sensor=self.sensor, seed=SWEEP_CALIBRATION_SEED)
                )
        except EvdeformError as exc:
            out.errors.append(f"calibrate: {exc!r}")
            return out
        self.tracer.count("calibration.outer_iterations", len(out.calibration.iterations))
        rig = _anchored(rig_from_calibration(out.calibration))
        try:
            for streams in self.pole_streams:
                _, groups = self._extract_match(streams, measurement_profile(BLINK_HZ))
                out.pole_series.append(self._measure(rig, groups, 0.8))
        except EvdeformError as exc:
            out.errors.append(f"pole: {exc!r}")
        return out

    def check(self, out: SweepOutput) -> Outcome:
        res = Outcome(attempted=2)
        errors, radii = _center_errors(out.sequences, self.reference())
        res.figures["extraction.center_err_px"] = float(np.median(errors))
        if out.calibration is None:
            res.failed = 2
            res.failures += out.errors + ["pole: no calibrated rig"]
            return res
        res.problems += checks.check_centers_in_disk("sweep", errors, radii)
        res.problems += checks.check_center_error("sweep", errors)
        reproj = checks.reprojection_per_camera(out.calibration)
        res.problems += checks.check_reprojection(reproj)
        focal, rotation = checks.calibration_truth_errors(out.calibration, self.config.cameras)
        res.figures.update({
            "calibration.reproj_px": max(reproj.values()),
            "calibration.focal_rel_err": focal,
            "calibration.rotation_err_deg": rotation,
        })
        if len(out.pole_series) < 2:
            res.failed = 1
            res.failures += out.errors
            return res
        a, b = out.pole_series
        rel = checks.pole_relative_error(a.t_us, a.positions, b.t_us, b.positions, POLE_LENGTH_MM)
        res.figures["deformation.pole_rel_err"] = rel
        pole = checks.check_pole(rel)
        res.failed = 1 if pole else 0
        res.failures += pole
        return res


# ---------------------------------------------------------------------------

@dataclass
class SwayOutput:
    sequences: list
    series: object = None
    groups: int = 0
    errors: list[str] = field(default_factory=list)


class SwayRecording(Workload):
    """A long 18.2 mm sway stored as event CSV, measured with the true rig.

    Setup does the work of ``evdeform simulate --format csv`` on the sway
    scene: simulate, write each camera's CSV, export the ground truth, save
    the scenario. A pass reads the CSV files, extracts with the measurement
    profile, matches and triangulates every sample; each sample is one
    operation.
    """

    name = "sway_recording"

    def __init__(self, seed, work_dir, tracer, duration_s: float = 5.0):
        super().__init__(seed, work_dir, tracer)
        self.config = desk_scene(sway_trajectory(), duration_s, derive_seed(seed, self.name))
        self.seeds = {"scene": self.config.seed}
        self.recording_s = duration_s

    def setup(self) -> None:
        out = self._fresh_dir("sway")
        sim = self._simulate(self.config)
        self.files = self._record(sim, self.config, out, "csv")
        self.sensor = (sim.streams[0].width, sim.streams[0].height)
        self.rig = true_rig()
        self._sim = sim

    def run_pass(self) -> SwayOutput:
        streams = self._read(self.files, "csv", self.sensor)
        sequences, groups = self._extract_match(streams, measurement_profile(BLINK_HZ))
        out = SwayOutput(sequences, groups=len(groups))
        try:
            out.series = self._measure(self.rig, groups, 1.0)
        except EvdeformError as exc:
            out.errors.append(f"measure: {exc!r}")
        return out

    def check(self, out: SwayOutput) -> Outcome:
        res = Outcome(attempted=out.groups)
        errors, _ = _center_errors(out.sequences, self.reference())
        res.figures["extraction.center_err_px"] = float(np.median(errors))
        series = out.series
        if series is None:
            res.failed = out.groups
            res.failures += out.errors
            res.problems.append("no deformation series")
            return res
        res.failed = series.dropped
        if series.dropped:
            res.failures.append(f"{series.dropped} samples dropped")
        traj = self.config.trajectory
        center = np.asarray(traj.center)
        truth = np.stack([traj.position(t * 1e-6) for t in series.t_us])
        # true displacement in the reference camera's axes
        truth_disp = (truth - center) @ self.config.cameras[0][1].rotation.T
        rmse = checks.sway_rmse(series.displacements, truth_disp)
        res.problems += checks.check_sway(rmse, len(series), out.groups)
        true_amp = float(np.linalg.norm(truth - center, axis=1).max())
        res.figures.update({
            "deformation.rmse_mm": float(rmse.max()),
            "deformation.amplitude_rel_err": abs(series.max_amplitude - true_amp) / true_amp,
        })
        return res


WORKLOADS = {w.name: w for w in (SweepCalibration, SwayRecording)}
