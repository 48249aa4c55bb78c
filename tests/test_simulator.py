"""Synthetic event generation: counting oracles, determinism, provenance."""
import hashlib
import json
import re
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from evdeform import events, simulator
from evdeform.errors import ConfigError, FieldOfViewWarning
from evdeform.events import CSV_BLOCK_ROWS as B, EventStream, write_stream
from evdeform.geometry import CameraIntrinsics, CameraPose, project_points
from evdeform.simulator import (
    MARKER_LABEL,
    NOISE_LABEL,
    REFRACTORY_US,
    GroundTruth,
    ScenarioConfig,
    SimulationResult,
    Sinusoid3DTrajectory,
    WaypointSplineTrajectory,
    blink_schedule,
    export_ground_truth,
    load_scenario,
    marker_tracks,
    paper_rig_cameras,
    pole_scenes,
    preset_paper_rig,
    save_scenario,
    simulate,
    sway_scene,
    truth_correspondences,
)


def reference_refractory_filter(t, x, y, keep_window_us):
    """Per-event loop in (x, y, t) order: the reference for _refractory_filter."""
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


def still(point):
    """A marker held at point: a sinusoid of zero amplitude."""
    return Sinusoid3DTrajectory(point, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def line(start, velocity, duration_s):
    """A marker moving from start at constant velocity (mm/s) for
    duration_s: a spline through its two ends."""
    end = tuple(float(a + duration_s * v) for a, v in zip(start, velocity))
    return WaypointSplineTrajectory((0.0, duration_s), (start, end))


def reference_position(trajectory, t):
    """One time at a time, with scalar arithmetic: the reference for each
    trajectory's positions."""
    if isinstance(trajectory, Sinusoid3DTrajectory):
        c, a, f, ph = (np.asarray(v, dtype=float) for v in (
            trajectory.center, trajectory.amplitude, trajectory.frequency_hz, trajectory.phase))
        tt = t - trajectory.start_time
        if trajectory.start_time > 0 and tt <= 0:
            return c
        env = min(1.0, max(tt, 0.0) / trajectory.ramp) if trajectory.ramp > 0 else 1.0
        return c + env * a * np.sin(2.0 * np.pi * f * tt + ph)
    spline = CubicSpline(np.asarray(trajectory.times), np.asarray(trajectory.points), axis=0)
    return spline(float(np.clip(t, trajectory.times[0], trajectory.times[-1])))


def reference_projected_marker(intr, pose, point_mm, radius_mm):
    """One point at a time: the reference for marker_tracks."""
    center, depth = project_points(intr, pose, point_mm)
    if depth <= 0:
        return np.array([np.nan, np.nan]), 0.0, False
    radius_px = 0.5 * (intr.fx + intr.fy) * radius_mm / depth
    in_view = bool(
        radius_px <= center[0] <= intr.width - 1 - radius_px
        and radius_px <= center[1] <= intr.height - 1 - radius_px
    )
    return center, radius_px, in_view


def reference_disk_pixels(center, radius_px, width, height, amplitude, threshold):
    """One meshgrid per burst: the reference for the simulator's stencil."""
    empty = np.empty(0, dtype=np.int64)
    if radius_px <= 0 or amplitude <= 0:
        return empty, empty
    x0 = max(int(np.floor(center[0] - radius_px)) - 1, 0)
    x1 = min(int(np.ceil(center[0] + radius_px)) + 1, width - 1)
    y0 = max(int(np.floor(center[1] - radius_px)) - 1, 0)
    y1 = min(int(np.ceil(center[1] + radius_px)) + 1, height - 1)
    if x1 < x0 or y1 < y0:
        return empty, empty
    gx, gy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
    rho = np.hypot(gx - center[0], gy - center[1]) / radius_px
    step = np.where(rho < 1.0, amplitude * np.cos(0.5 * np.pi * rho), 0.0)
    fire = step > threshold
    return gx[fire].ravel(), gy[fire].ravel()


def reference_simulate(config):
    """Per-transition loop with a jitter draw per burst: the reference for
    simulate's batched projection, stencil and single jitter draw."""
    t_us, pols = blink_schedule(config)
    positions = np.stack([config.trajectory.position(t * 1e-6) for t in t_us])
    m, T = len(config.cameras), len(t_us)
    tracks = np.full((m, T, 2), np.nan)
    radii = np.zeros((m, T))
    in_view = np.zeros((m, T), dtype=bool)
    streams, labels = [], []
    for ci, (intr, pose) in enumerate(config.cameras):
        rng = np.random.default_rng(config.seed ^ ci)
        ev_t, ev_x, ev_y = [np.zeros(0)], [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        ev_p, ev_lbl = [np.zeros(0, bool)], [np.zeros(0, np.uint8)]
        for k in range(T):
            center, radius_px, ok = reference_projected_marker(
                intr, pose, positions[k], config.marker_radius_mm
            )
            tracks[ci, k], radii[ci, k], in_view[ci, k] = center, radius_px, ok
            if not np.isfinite(center).all():
                continue
            px, py = reference_disk_pixels(
                center, radius_px, intr.width, intr.height,
                config.led_log_amplitude, config.contrast_threshold,
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
        t = np.rint(np.concatenate(ev_t)).astype(np.int64)
        x, y = np.concatenate(ev_x), np.concatenate(ev_y)
        p, lbl = np.concatenate(ev_p), np.concatenate(ev_lbl)
        keep = simulator._refractory_filter(t, x, y, REFRACTORY_US)
        t, x, y, p, lbl = t[keep], x[keep], y[keep], p[keep], lbl[keep]
        order = np.lexsort((p, y, x, t))
        streams.append(
            EventStream(ci, intr.width, intr.height, t[order], x[order], y[order], p[order])
        )
        labels.append(lbl[order])
    truth = GroundTruth(t_us, pols, positions, tracks, radii, in_view, labels)
    return SimulationResult(streams, truth)


def assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_simulation(a, b):
    for sa, sb in zip(a.streams, b.streams, strict=True):
        for name in ("t", "x", "y", "polarity"):
            assert_bitwise_equal(getattr(sa, name), getattr(sb, name))
    for la, lb in zip(a.truth.labels, b.truth.labels, strict=True):
        assert_bitwise_equal(la, lb)
    for name in ("transition_t_us", "transition_polarity", "trajectory_mm",
                 "tracks_px", "radius_px", "in_view"):
        assert_bitwise_equal(getattr(a.truth, name), getattr(b.truth, name))


def reference_labels_csv(labels):
    """Row by row: the reference for export_ground_truth's labels writer."""
    lines = ["event_index,label"]
    for i, lbl in enumerate(labels):
        lines.append(f"{i},{'noise' if lbl == NOISE_LABEL else 'marker'}")
    return ("\n".join(lines) + "\n").encode()


@st.composite
def refractory_inputs(draw):
    """Events on 1-4 pixels with int64 times spread over 0-3 windows, so
    times and pixels tie often; empty and single-event streams included."""
    pixels = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           min_size=1, max_size=4, unique=True))
    spread = draw(st.integers(0, 3)) * int(REFRACTORY_US)
    events = draw(st.lists(st.tuples(st.integers(0, spread), st.sampled_from(pixels)),
                           max_size=40))
    t = np.array([e[0] for e in events], dtype=np.int64)
    x = np.array([e[1][0] for e in events], dtype=np.int64)
    y = np.array([e[1][1] for e in events], dtype=np.int64)
    return t, x, y


@st.composite
def sensor_refractory_inputs(draw):
    """Up to 40 events over a 1280x720 sensor with times up to 1e7 us. Each
    event after the first may take an earlier event's time (an exact tie on
    another pixel), its pixel and time (a tie within one pixel), or its pixel
    and a time up to three windows later."""
    t, x, y = [], [], []
    for i in range(draw(st.integers(0, 40))):
        ti = draw(st.integers(0, 10**7))
        xi, yi = draw(st.integers(0, 1279)), draw(st.integers(0, 719))
        kind = draw(st.sampled_from(["fresh", "same_time", "same_event", "same_pixel"]))
        if i and kind != "fresh":
            j = draw(st.integers(0, i - 1))
            ti = t[j] + (draw(st.integers(0, 3 * int(REFRACTORY_US)))
                         if kind == "same_pixel" else 0)
            if kind != "same_time":
                xi, yi = x[j], y[j]
        t.append(ti)
        x.append(xi)
        y.append(yi)
    return (np.array(t, dtype=np.int64), np.array(x, dtype=np.int64),
            np.array(y, dtype=np.int64))


@st.composite
def sampled_trajectories(draw):
    """A trajectory of each type with times over -10 to 10 s, plus the
    sinusoid's start time, a time inside its ramp and its ramp's end, and
    the spline's end knots and times past both ends."""
    coord = st.floats(-1e4, 1e4)
    point = st.tuples(coord, coord, coord)
    times = draw(st.lists(st.floats(-10.0, 10.0), max_size=12))
    kind = draw(st.sampled_from(["sinusoid", "spline"]))
    if kind == "sinusoid":
        start = draw(st.just(0.0) | st.floats(0.0, 5.0))
        ramp = draw(st.just(0.0) | st.floats(1e-3, 3.0))
        frequency = st.floats(0.0, 50.0)
        trajectory = Sinusoid3DTrajectory(
            draw(point), draw(st.just((0.0, 0.0, 0.0)) | point),
            draw(st.tuples(frequency, frequency, frequency)),
            draw(st.tuples(*[st.floats(-np.pi, np.pi)] * 3)), start, ramp,
        )
        times += [start, start + draw(st.floats(0.0, 1.0)) * ramp, start + ramp]
    else:
        steps = draw(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=5))
        knots = tuple(np.cumsum([draw(st.floats(-5.0, 5.0)), *steps]).tolist())
        trajectory = WaypointSplineTrajectory(
            knots, tuple(draw(point) for _ in knots)
        )
        times += [knots[0], knots[-1], knots[0] - draw(st.floats(0.0, 3.0)),
                  knots[-1] + draw(st.floats(0.0, 3.0))]
    return trajectory, np.array(draw(st.permutations(times)), dtype=float)


def static_scenario(**overrides):
    defaults = dict(
        cameras=paper_rig_cameras()[:1],
        trajectory=still((0.0, 0.0, 4500.0)),
        marker_radius_mm=25.0,
        blink_freq_hz=250.0,
        duty_cycle=0.4,
        contrast_threshold=0.0,
        noise_rate=0.0,
        latency_jitter_std_us=0.0,
        duration_s=1.0,
        seed=5,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def small_camera_scenario(trajectory, **overrides):
    """One 64x48 camera at the origin looking down +z, f = 60 px: the 25 mm
    marker spans about 4 px at 400 mm and fills the sensor near the camera."""
    intr = CameraIntrinsics(60.0, 60.0, 31.5, 23.5, width=64, height=48)
    defaults = dict(
        cameras=((intr, CameraPose(np.eye(3), np.zeros(3))),),
        trajectory=trajectory,
        contrast_threshold=0.25,
        latency_jitter_std_us=20.0,
        noise_rate=5.0,
        duration_s=0.2,
    )
    defaults.update(overrides)
    return static_scenario(**defaults)


def _passes_behind(res):
    behind = np.isnan(res.truth.tracks_px[0, :, 0])
    assert behind.any() and not behind.all()
    np.testing.assert_array_equal(res.truth.radius_px[0, behind], 0.0)
    # just in front of the camera the disk covers the whole sensor
    assert res.truth.radius_px.max() > 64


def _clipped_at_edges(res):
    stream, marker = res.streams[0], res.truth.labels[0] == MARKER_LABEL
    assert not res.truth.in_view.any()
    # the disk runs along the top row, entering on the left and leaving on the right
    for edge in (stream.x == 0, stream.x == 63, stream.y == 0):
        assert np.any(edge & marker)


def _fires_nothing(res):
    assert np.isfinite(res.truth.tracks_px).all() and len(res.streams[0]) == 0


def _fills_sensor_from_far_off(res):
    # the disk's bounds lie beyond the int64 range, its center too
    assert np.abs(res.truth.tracks_px).min() > 2.0**63
    transitions = len(res.truth.transition_t_us)
    assert np.sum(res.truth.labels[0] == MARKER_LABEL) == 64 * 48 * transitions


def _without_jitter(res):
    marker_t = res.streams[0].t[res.truth.labels[0] == MARKER_LABEL]
    assert set(np.unique(marker_t)) <= set(np.rint(res.truth.transition_t_us))


def _noise_only(res):
    for stream, labels in zip(res.streams, res.truth.labels):
        assert len(stream) and np.all(labels == NOISE_LABEL)


def _one_run_per_row(res):
    # every burst of 1,000 per camera fires one run of consecutive columns
    # per row, on consecutive rows, each run centred on the track
    t_us = res.truth.transition_t_us
    assert res.truth.in_view.all() and len(t_us) == 1000
    for track, stream, labels in zip(res.truth.tracks_px, res.streams, res.truth.labels):
        marker = labels == MARKER_LABEL
        burst = np.searchsorted(0.5 * (t_us[1:] + t_us[:-1]), stream.t[marker])
        x, y = stream.x[marker].astype(np.int64), stream.y[marker].astype(np.int64)
        order = np.lexsort((x, y, burst))
        burst, x, y = burst[order], x[order], y[order]
        first = np.flatnonzero(np.r_[True, (np.diff(burst) != 0) | (np.diff(y) != 0)])
        last = np.r_[first[1:], len(x)] - 1
        assert np.all(np.delete(np.diff(x), first[1:] - 1) == 1)
        b = burst[first]
        assert np.array_equal(np.unique(b), np.arange(len(t_us)))
        assert np.all(np.diff(y[first])[np.diff(b) == 0] == 1)
        assert np.all(np.abs(0.5 * (x[first] + x[last]) - track[b, 0]) <= 0.5)


def _records_nothing(res):
    assert np.isnan(res.truth.tracks_px).all() and len(res.streams[0]) == 0


def _noise_on_marker_pixels(res):
    for stream, labels in zip(res.streams, res.truth.labels):
        pixel = stream.x.astype(np.int64) * stream.height + stream.y
        marker = labels == MARKER_LABEL
        assert len(np.intersect1d(pixel[marker], pixel[~marker])) > 1000
        # what lets the final sort ignore polarity: (t, x, y) is unique
        assert len(np.unique(stream.t * (stream.width * stream.height) + pixel)) == len(stream)


def _preset(res):
    assert res.truth.in_view.all() and sum(len(s) for s in res.streams) > 400_000


REFERENCE_SCENES = {
    "preset_sweep": (preset_paper_rig, _preset),
    "passes_behind_camera": (
        lambda: small_camera_scenario(line((5.0, 3.0, 300.0), (0.0, 0.0, -3000.0), 0.2)),
        _passes_behind,
    ),
    "clipped_at_sensor_edge": (
        lambda: small_camera_scenario(
            line((-250.0, -155.0, 400.0), (2500.0, 0.0, 0.0), 0.2)
        ),
        _clipped_at_edges,
    ),
    "beside_the_sensor": (
        lambda: small_camera_scenario(still((400.0, 0.0, 400.0)), noise_rate=0.0),
        _fires_nothing,
    ),
    "grazing_the_camera": (
        lambda: small_camera_scenario(still((5.0, 3.0, 1e-17)), duration_s=0.02,
                                      noise_rate=0.0),
        _fills_sensor_from_far_off,
    ),
    "behind_the_camera": (
        lambda: small_camera_scenario(still((0.0, 0.0, -400.0)), noise_rate=0.0),
        _records_nothing,
    ),
    "preset_in_dense_noise": (
        lambda: replace(preset_paper_rig(), duration_s=1.0, noise_rate=1.0),
        _noise_on_marker_pixels,
    ),
    "zero_jitter": (
        lambda: replace(preset_paper_rig(), duration_s=0.2, latency_jitter_std_us=0.0),
        _without_jitter,
    ),
    "noise_only": (
        lambda: replace(preset_paper_rig(), duration_s=0.2, led_log_amplitude=0.0,
                        noise_rate=0.05),
        _noise_only,
    ),
    "several_stencil_chunks": (
        lambda: replace(preset_paper_rig(), blink_freq_hz=1000.0, duration_s=0.5),
        _one_run_per_row,
    ),
}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("duty_cycle", 0.0),
            ("duty_cycle", 1.0),
            ("blink_freq_hz", 0.0),
            ("duration_s", 0.0),
            ("marker_radius_mm", -1.0),
            ("noise_rate", -0.1),
            ("seed", -1),
            ("seed", 1.5),
            ("contrast_threshold", -0.1),
            ("contrast_threshold", float("nan")),
            ("contrast_threshold", float("inf")),
            ("led_log_amplitude", float("nan")),
            ("led_log_amplitude", float("-inf")),
            *((field, value) for field in ("blink_freq_hz", "duration_s", "marker_radius_mm",
                                           "noise_rate", "latency_jitter_std_us")
              for value in (float("nan"), float("inf"))),
        ],
    )
    def test_invariants(self, field, value):
        with pytest.raises(ConfigError):
            simulate(replace(static_scenario(), **{field: value}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["center", "amplitude", "frequency_hz", "phase", "start_time", "ramp"]
    )
    def test_trajectory_numbers_must_be_finite(self, tmp_path, field, value):
        """A NaN or infinite sinusoid parameter raises, built directly or
        read from a scenario file."""
        config = sway_scene(seed=0)
        old = getattr(config.trajectory, field)
        new = (value, *old[1:]) if isinstance(old, tuple) else value
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            replace(config.trajectory, **{field: new})
        path = tmp_path / "scenario.json"
        save_scenario(path, config)
        doc = json.loads(path.read_text())
        doc["trajectory"][field] = list(new) if isinstance(new, tuple) else new
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            load_scenario(path)

    @pytest.mark.parametrize("make,named", [
        (lambda: Sinusoid3DTrajectory((0.0, 0.0, 4300.0), (1.0, 2.0), (1.0, 1.0, 1.0)),
         "amplitude must be numbers of shape (3), got (1.0, 2.0)"),
        (lambda: Sinusoid3DTrajectory((0.0, 0.0, 4300.0), (1.0, 2.0, 3.0), 1.8),
         "frequency_hz must be numbers of shape (3), got 1.8"),
        (lambda: Sinusoid3DTrajectory((0.0, 0.0, 4300.0), (1.0, 2.0, 3.0), (1.0,) * 3, ramp=(0.3,)),
         "ramp must be numbers of shape (), got (0.3,)"),
        (lambda: Sinusoid3DTrajectory(("a", 0.0, 1.0), (1.0, 2.0, 3.0), (1.0,) * 3),
         "center must be numbers of shape (3)"),
        (lambda: WaypointSplineTrajectory((0.0, 1.0), ((0.0, 0.0), (1.0, 1.0))),
         "points must be numbers of shape (n, 3), got ((0.0, 0.0), (1.0, 1.0))"),
        (lambda: WaypointSplineTrajectory((0.0, 1.0), ((0.0, 0.0, 1.0), (1.0, 1.0))),
         "points must be numbers of shape (n, 3)"),
        (lambda: WaypointSplineTrajectory(((0.0, 1.0),), ((0.0, 0.0, 1.0), (1.0, 1.0, 1.0))),
         "times must be numbers of shape (n)"),
    ], ids=["short-vector", "scalar-vector", "vector-scalar", "not-numbers", "two-columns",
            "ragged-rows", "nested-times"])
    def test_trajectory_shapes_are_checked(self, make, named):
        """A field of the wrong shape is refused at construction, naming
        it, before any formula broadcasts it."""
        with pytest.raises(ConfigError, match=re.escape(named)):
            make()

    def test_sort_key_must_fit_int64(self):
        """(t + 1) * width * height bounds both sort keys: the widest
        sensor, 65535 x 65535, fits a burst at t = 0 and at
        t = 2_147_549_183 us, and raises for one a microsecond later. A
        blink period of that many microseconds puts the last burst there."""
        (intr, pose), = paper_rig_cameras()[:1]
        huge = ((replace(intr, width=65535, height=65535), pose),)
        one_burst = static_scenario(cameras=huge, duration_s=1e-6)
        res = simulate(one_burst)
        assert len(res.streams[0]) > 100 and not res.streams[0].t.any()
        assert_same_simulation(res, reference_simulate(one_burst))
        last = (2**63 - 1) // 65535**2 - 1
        assert (last + 1) * 65535**2 <= 2**63 - 1 < (last + 2) * 65535**2
        latest = static_scenario(cameras=huge, duration_s=2148.0, blink_freq_hz=1e6 / last)
        stream = simulate(latest).streams[0]
        assert stream.t[0] == 0 and stream.t[-1] == last
        with pytest.raises(ConfigError, match="a 2148 s recording on a 65535x65535 sensor "
                                              "overflows the int64 event sort key"):
            simulate(replace(latest, blink_freq_hz=1e6 / (last + 1)))

    def test_oversized_marker_is_refused(self):
        """A huge finite marker covers the whole sensor at every burst."""
        with pytest.raises(ConfigError, match="cover 460800000 pixels of a 1280x720 sensor"):
            simulate(static_scenario(marker_radius_mm=1e300))

    def test_burst_cell_limit_bounds_the_summed_boxes(self, monkeypatch):
        """The limit is on the cells of every burst's box, widened by a
        pixel and clipped to the sensor, summed over the recording: a scene
        of exactly that many runs and one more cell is refused."""
        config = replace(preset_paper_rig(), duration_s=0.1, cameras=paper_rig_cameras()[:1])
        truth = simulate(config).truth
        (intr, _), = config.cameras
        cells = 0
        for (cx, cy), r in zip(truth.tracks_px[0], truth.radius_px[0]):
            x0, x1 = max(np.floor(cx - r) - 1, 0), min(np.ceil(cx + r) + 1, intr.width - 1)
            y0, y1 = max(np.floor(cy - r) - 1, 0), min(np.ceil(cy + r) + 1, intr.height - 1)
            cells += int(x1 - x0 + 1) * int(y1 - y0 + 1)
        monkeypatch.setattr(simulator, "_MAX_BURST_CELLS", cells)
        simulate(config)
        monkeypatch.setattr(simulator, "_MAX_BURST_CELLS", cells - 1)
        with pytest.raises(ConfigError, match=f"cover {cells} pixels"):
            simulate(config)

    def test_first_failing_camera_raises(self, monkeypatch):
        """Cameras 1 and 2 both overflow the sort key. Camera 1's bursts are
        slowed so that camera 2 fails first, yet camera 1's error is the one
        raised."""
        bursts = simulator._bursts

        def slow_for_camera_1(center, radius, width, *rest):
            if width == 65535:
                time.sleep(0.2)
            return bursts(center, radius, width, *rest)

        monkeypatch.setattr(simulator, "_bursts", slow_for_camera_1)
        intr, pose = paper_rig_cameras()[0]
        huge = tuple((replace(intr, width=w, height=65535), pose) for w in (65535, 65534))
        config = static_scenario(cameras=((intr, pose), *huge), duration_s=2201.0,
                                 blink_freq_hz=1 / 2200)
        with pytest.raises(ConfigError, match="^camera 1: a 2201 s recording on a 65535x"):
            simulate(config)

class TestEventModel:
    def test_zero_amplitude_only_noise(self):
        cfg = static_scenario(led_log_amplitude=0.0, contrast_threshold=0.25,
                              noise_rate=0.001)
        res = simulate(cfg)
        assert np.all(res.truth.labels[0] == 1)  # every event is noise
        silent = simulate(replace(cfg, noise_rate=0.0))
        assert len(silent.streams[0]) == 0

    def test_exact_event_count_oracle(self):
        cfg = static_scenario()
        res = simulate(cfg)
        # counting oracle: transitions x disk pixel count, recomputed directly
        intr, pose = cfg.cameras[0]
        (center,), (radius,), _ = marker_tracks(
            intr, pose, np.array([cfg.trajectory.center]), cfg.marker_radius_mm
        )
        x0, x1 = int(np.floor(center[0] - radius)) - 1, int(np.ceil(center[0] + radius)) + 1
        y0, y1 = int(np.floor(center[1] - radius)) - 1, int(np.ceil(center[1] + radius)) + 1
        gx, gy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
        rho = np.hypot(gx - center[0], gy - center[1]) / radius
        step = np.where(rho < 1.0, np.cos(0.5 * np.pi * rho), 0.0)
        disk_pixels = int(np.sum(step > cfg.contrast_threshold))
        assert len(res.streams[0]) == 2 * 250 * 1 * disk_pixels

    def test_alternating_polarity_blocks(self):
        res = simulate(static_scenario(duration_s=0.05))
        t = res.streams[0].t
        p = res.streams[0].polarity
        # each burst shares one timestamp and one polarity
        for burst_t in np.unique(t):
            vals = p[t == burst_t]
            assert vals.all() or not vals.any()

    def test_projected_radius_matches_pinhole_prediction(self):
        cfg = preset_paper_rig()
        res = simulate(replace(cfg, duration_s=0.05))
        for ci, (intr, pose) in enumerate(cfg.cameras):
            stream = res.streams[ci]
            labels = res.truth.labels[ci]
            t0 = res.truth.transition_t_us[0]
            sel = (labels == 0) & (np.abs(stream.t - t0) < 200)
            if sel.sum() < 10:
                continue
            xs, ys = stream.x[sel], stream.y[sel]
            center = res.truth.tracks_px[ci, 0]
            measured_radius = np.hypot(xs - center[0], ys - center[1]).max()
            predicted = res.truth.radius_px[ci, 0]
            # firing cutoff sits at cos(pi rho / 2) = threshold
            cutoff = predicted * 2.0 / np.pi * np.arccos(cfg.contrast_threshold)
            assert abs(measured_radius - cutoff) < 0.5

    def test_refractory_suppresses_rapid_double_fires(self):
        # 25 kHz blink: transitions 16/24 us apart, inside the 50 us window
        cfg = static_scenario(blink_freq_hz=25000.0, duration_s=0.002)
        res = simulate(cfg)
        stream = res.streams[0]
        order = np.lexsort((stream.t, stream.y, stream.x))
        t, x, y = stream.t[order], stream.x[order], stream.y[order]
        same_pixel = (np.diff(x) == 0) & (np.diff(y) == 0)
        dt = np.diff(t)
        assert not np.any(same_pixel & (dt < 50))

    def test_refractory_chain_keeps_events_a_window_after_the_last_kept(self):
        """30 us steps: 30 falls in the window of 0, 60 does not; 90 falls in
        the window of 60 and 140 does not. Dropping every event within the
        window of its predecessor would keep only 0."""
        t = np.array([0, 30, 60, 90, 140], dtype=np.int64)
        x = y = np.zeros(5, dtype=np.int64)
        for flt in (simulator._refractory_filter, reference_refractory_filter):
            np.testing.assert_array_equal(flt(t, x, y, 50.0), [1, 0, 1, 0, 1])
            # the mask follows the input order
            np.testing.assert_array_equal(flt(t[[2, 0, 4, 1, 3]], x, y, 50.0), [1, 1, 1, 0, 0])

    def test_refractory_keys_of_two_pixels_closer_than_the_window(self):
        """Pixel (0, 0) at 100 us and pixel (0, 1) at 10 us pack to keys 100
        and 101 + 10, 11 apart: both are kept. Pixel (0, 1) again at 40 us
        comes 30 us after its first event and is dropped."""
        t = np.array([100, 10, 40], dtype=np.int64)
        x, y = np.zeros(3, dtype=np.int64), np.array([0, 1, 1])
        for flt in (simulator._refractory_filter, reference_refractory_filter):
            np.testing.assert_array_equal(flt(t, x, y, 50.0), [1, 1, 0])
            np.testing.assert_array_equal(flt(t[:2], x[:2], y[:2], 50.0), [1, 1])

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(refractory_inputs(), sensor_refractory_inputs()))
    def test_refractory_filter_equals_reference_loop(self, events):
        t, x, y = events
        np.testing.assert_array_equal(
            simulator._refractory_filter(t, x, y, REFRACTORY_US),
            reference_refractory_filter(t, x, y, REFRACTORY_US),
        )

    def test_refractory_ties_keep_input_order(self):
        """4,000 events on 9 pixels at 100 times 30 us apart: about four
        share each (pixel, time), and which of them is kept follows their
        order. The default argsort puts some tie out of input order, so the
        filter must put it back."""
        rng = np.random.default_rng(3)
        t = 30 * rng.integers(0, 100, 4000)
        x, y = rng.integers(0, 3, 4000), rng.integers(0, 3, 4000)
        key = (x * 3 + y) * (int(t.max()) + 1) + t
        assert not np.array_equal(np.argsort(key), np.argsort(key, kind="stable"))
        np.testing.assert_array_equal(
            simulator._refractory_filter(t, x, y, REFRACTORY_US),
            reference_refractory_filter(t, x, y, REFRACTORY_US),
        )

    def test_simulation_equals_reference_loop_where_events_are_dropped(self, monkeypatch):
        """Jitter and noise put same-pixel events inside the refractory
        window; the streams and labels are bitwise the reference loop's."""
        cfg = replace(preset_paper_rig(), duration_s=0.2, latency_jitter_std_us=600.0,
                      noise_rate=2.0)
        fast = simulate(cfg)
        dropped = []

        def reference(t, x, y, keep_window_us):
            keep = reference_refractory_filter(t, x, y, keep_window_us)
            dropped.append(int(np.sum(~keep)))
            return keep

        monkeypatch.setattr(simulator, "_refractory_filter", reference)
        slow = simulate(cfg)
        assert len(dropped) == len(cfg.cameras) and min(dropped) > 0
        for a, b in zip(fast.streams, slow.streams):
            for name in ("t", "x", "y", "polarity"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        for a, b in zip(fast.truth.labels, slow.truth.labels):
            np.testing.assert_array_equal(a, b)


class TestBatchedSimulation:
    @pytest.mark.filterwarnings("ignore::evdeform.errors.FieldOfViewWarning")
    @pytest.mark.parametrize("scene", sorted(REFERENCE_SCENES))
    def test_equals_per_transition_loop(self, scene):
        """Streams, labels, tracks, radii and in-view flags are bitwise the
        per-transition loop's, one jitter draw per burst included."""
        make, reaches_its_case = REFERENCE_SCENES[scene]
        cfg = make()
        res = simulate(cfg)
        reaches_its_case(res)
        assert_same_simulation(res, reference_simulate(cfg))


@st.composite
def burst_inputs(draw):
    """One to four bursts on a sensor of 1-80 x 1-60 px: centers up to a
    radius and 3 px past every edge, subpixel or on the half-pixel grid,
    radii of 1e-3 to 40 px, whole ones among them, and a threshold in
    [0, amplitude), 0 included. Half-pixel centers and whole radii put
    pixels on the firing circle; under 0.5 px no pixel may clear the
    rounding band around it."""
    width, height = draw(st.integers(1, 80)), draw(st.integers(1, 60))
    radii = st.floats(1e-3, 0.5) | st.floats(0.5, 40.0) | st.integers(1, 40).map(float)
    radius = np.array(draw(st.lists(radii, min_size=1, max_size=4)))

    def coordinate(r, size):
        lo, hi = -r - 3.0, size + r + 3.0
        return draw(st.floats(lo, hi) | st.integers(int(np.ceil(2 * lo)), int(2 * hi)).map(
            lambda v: v / 2))

    center = np.array([(coordinate(r, width), coordinate(r, height)) for r in radius])
    amplitude = draw(st.floats(0.01, 5.0))
    threshold = draw(st.one_of(st.just(0.0), st.floats(0.0, amplitude, exclude_max=True)))
    return center, radius, width, height, amplitude, threshold


class TestFiringRule:
    @settings(max_examples=400, deadline=None)
    @given(burst_inputs())
    def test_disk_equals_cosine_step(self, burst):
        """The disk of radius (2/pi) acos(threshold / amplitude) * r fires
        exactly the pixels whose cosine step clears the threshold."""
        center, radius = burst[:2]
        k, x, y = simulator._bursts(*burst)
        for i in range(len(radius)):
            px, py = reference_disk_pixels(center[i], radius[i], *burst[2:])
            np.testing.assert_array_equal(x[k == i], px)
            np.testing.assert_array_equal(y[k == i], py)

    @pytest.mark.parametrize("threshold,radius,center", [
        (0.5, 1.5, (20.0, 20.0)),
        (0.5, 12.0, (20.0, 20.0)),
        (np.cos(np.pi / 8), 2.0, (20.0, 20.5)),
        (np.cos(np.pi / 8), 8.0, (20.0, 20.0)),
        (1.0, 10.0, (20.3, 20.7)),
        (2.5, 10.0, (20.3, 20.7)),
    ])
    def test_pixels_on_the_firing_circle(self, threshold, radius, center):
        """Pixels exactly on the circle where the step equals the threshold:
        the squared distance alone puts some of them on the other side of
        the rounding from the cosine step (at threshold 0.5 and radius 1.5,
        the four pixels 1 px from the center fire under the cosine step).
        A threshold at or above the amplitude fires nothing."""
        k, x, y = simulator._bursts(np.array([center]), np.array([radius]), 64, 48, 1.0,
                                    threshold)
        px, py = reference_disk_pixels(center, radius, 64, 48, 1.0, threshold)
        np.testing.assert_array_equal(x, px)
        np.testing.assert_array_equal(y, py)

    @pytest.mark.parametrize("center,radius", [
        ((1.152921504606847e+18, -25769803771.0), 1.7293822569105705e+18),
        ((-1.152921504606847e+18, 17179869194.0), 1.7293822569105705e+18),
        ((-1.1529215046068475e+18, 25769803782.0), 1.7293822569105718e+18),
    ])
    def test_centers_far_off_the_sensor(self, center, radius):
        """Beyond 2**53 px, x - cx and d2 round to grids coarser than a
        pixel, and a row's square-root estimate lands columns inside or
        outside its interval; on these rows the exact comparisons walk each
        end of it, up and down, to the cosine step's pixels."""
        k, x, y = simulator._bursts(np.array([center]), np.array([radius]), 256, 12, 1.0, 0.5)
        px, py = reference_disk_pixels(center, radius, 256, 12, 1.0, 0.5)
        assert len(px)
        np.testing.assert_array_equal(x, px)
        np.testing.assert_array_equal(y, py)


# The pinned stream digests hash t, x, y and polarity in the dtypes the
# columns had when they were recorded: x and y as little-endian int32.
PINNED_DTYPES = ("<i8", "<i4", "<i4", "?")


class TestDeterminismAndProvenance:
    def test_identical_seed_identical_streams(self):
        cfg = replace(preset_paper_rig(), duration_s=0.2)
        a = simulate(cfg)
        b = simulate(cfg)
        for sa, sb in zip(a.streams, b.streams):
            np.testing.assert_array_equal(sa.t, sb.t)
            np.testing.assert_array_equal(sa.x, sb.x)
            np.testing.assert_array_equal(sa.y, sb.y)
            np.testing.assert_array_equal(sa.polarity, sb.polarity)
        for la, lb in zip(a.truth.labels, b.truth.labels):
            np.testing.assert_array_equal(la, lb)

    def test_preset_digest_is_pinned(self):
        """SHA-256 of the 0.5 s preset's streams and labels, recorded before
        the event sorts became packed-key argsorts. Any change to the
        simulator's bits fails here; a deliberate one (a new seeding scheme)
        replaces the value in the same change and says so."""
        res = simulate(replace(preset_paper_rig(), duration_s=0.5))
        digest = hashlib.sha256()
        for stream, labels in zip(res.streams, res.truth.labels):
            for a, dtype in zip((stream.t, stream.x, stream.y, stream.polarity, labels),
                                PINNED_DTYPES + ("u1",)):
                digest.update(a.astype(dtype).tobytes())
        assert digest.hexdigest() == (
            "1783b1156c2f4006e0a79ea4856e48002f352bfe03c0367019b3f11acf10f4a5"
        )

    def test_verify_scenes_are_pinned(self):
        """SHA-256 of the (t, x, y, polarity) arrays of verify's two 1.2 s
        pole scenes (seed 0), of its sway scene (seed 101), and of the
        noiseless truth pixels that verify calibrates from. Recorded while
        verify still wrote these scenes out itself: any change to how a
        scene is built changes a digest here."""
        pole_a, pole_b = pole_scenes(1.2, 0)
        scenes = {"pole_a": pole_a, "pole_b": pole_b, "sway": sway_scene(101)}
        truth = truth_correspondences(preset_paper_rig(), 400, 0.0, 0).pixels

        digests = {}
        for name, config in scenes.items():
            digest = hashlib.sha256()
            for stream in simulate(config).streams:
                for a, dtype in zip((stream.t, stream.x, stream.y, stream.polarity), PINNED_DTYPES):
                    digest.update(a.astype(dtype).tobytes())
            digests[name] = digest.hexdigest()
        digests["truth_pixels"] = hashlib.sha256(
            np.ascontiguousarray(truth, dtype="<f8").tobytes()
        ).hexdigest()
        assert digests == {
            "pole_a": "b33a8bc93480ee3d274f405f79fa028ee931d5f1a96bec69005ac9044fc13767",
            "pole_b": "7497295910e5eb1d945ba7be748927d3213bbae46c3df72a38f7be55688d00b3",
            "sway": "d5d5f754ab491a8b48a431b3077631ae84ff1084799a582f7bf5fd3d02674c16",
            "truth_pixels": "408ff26b3879c4f2937d88761d3d0b9ea3c6d6c47732c13fef1a52789b9620f2",
        }

    def test_written_files_are_pinned(self, tmp_path):
        """SHA-256 of every file that the CSV writer and the ground-truth
        export write for the 0.5 s preset, recorded before the integer
        formatter was blocked. Each stream is over one block of rows long
        and its label indices cross 10**4. A change to any written byte
        fails here."""
        res = simulate(replace(preset_paper_rig(), duration_s=0.5))
        for stream in res.streams:
            write_stream(stream, tmp_path / f"events_cam{stream.camera_id}.csv", "csv")
        export_ground_truth(tmp_path / "ground_truth", res.truth)
        digests = {
            p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.rglob("*") if p.is_file()
        }
        assert digests == {
            "events_cam0.csv": "71f0ddd12384d35d2631bee5f2f6b3551657288fb0e8e6d567674f2eaef2e491",
            "events_cam1.csv": "44cc6065ad7c4975c1dbdd57e13a7a73b7444c4adebb428f237ba422413fffbf",
            "events_cam2.csv": "4348c42df7fa2aaa102b94cc3395e0e96d59fbb2ce052ec240cb4f9afd8d1690",
            "ground_truth/labels_cam0.csv":
                "aa5d049da9a38ec0ad106edc86f195db8ed0207956cffff2a78e574781977ca2",
            "ground_truth/labels_cam1.csv":
                "11d4370f6f9a6a1905a99733e2fb9f68541249f645da0098be5816e001a39dfb",
            "ground_truth/labels_cam2.csv":
                "88ad037f8c32a36694d8534d63cbbab66dde9d80c2edac95c54d3e0898cbd416",
            "ground_truth/track_cam0.csv":
                "6df687ff29214abb8517f43689670de79e781e63361adff8b5c15c6dafc63263",
            "ground_truth/track_cam1.csv":
                "69ae34a8ba05f0a18bb17b967d3ded5d35ef51c7b2322d32cbc93de74031ec00",
            "ground_truth/track_cam2.csv":
                "5934b7816968b8004764376f2afa8fd3548a2d36dfc933be53ad508711211f56",
            "ground_truth/trajectory.csv":
                "26873bb4c5908ca44e4cc4d8bf1c229f654e2ca1e267b92983bd6a790e2f685f",
            "ground_truth/transitions.csv":
                "015518da7b69d1e96f8fd836d3e0c818d36dc102c9f9d607e86bd1fd736aba70",
        }

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_changes_no_output(self, tmp_path, monkeypatch, workers):
        """Streams, labels, truth arrays, event CSVs and ground-truth files
        are the same bytes on one worker, or on more than there are
        cameras and cores, as on the default pool. Each stream is over one
        CSV block, and the forced run switches threads every 10 us."""
        config = replace(preset_paper_rig(), duration_s=0.5)

        def record(out):
            out.mkdir()
            res = simulate(config)
            for stream in res.streams:
                write_stream(stream, out / f"events_cam{stream.camera_id}.csv", "csv")
            export_ground_truth(out / "ground_truth", res.truth)
            files = {p.relative_to(out).as_posix(): p.read_bytes()
                     for p in out.rglob("*") if p.is_file()}
            return res, files

        default, default_files = record(tmp_path / "default")
        monkeypatch.setattr(events, "WORKERS", workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            res, files = record(tmp_path / "forced")
        finally:
            sys.setswitchinterval(interval)
        assert min(len(s) for s in res.streams) > B
        assert files == default_files and len(files) == 11
        pairs = [(getattr(a, name), getattr(b, name))
                 for a, b in zip(default.streams, res.streams) for name in ("t", "x", "y", "polarity")]
        pairs += list(zip(default.truth.labels, res.truth.labels))
        pairs += [(getattr(default.truth, name), getattr(res.truth, name))
                  for name in ("transition_t_us", "transition_polarity", "trajectory_mm",
                               "tracks_px", "radius_px", "in_view")]
        for a, b in pairs:
            np.testing.assert_array_equal(a, b, strict=True)

    def test_different_seed_differs(self):
        cfg = replace(preset_paper_rig(), duration_s=0.2)
        a = simulate(cfg)
        b = simulate(replace(cfg, seed=cfg.seed + 1))
        assert not np.array_equal(a.streams[0].t, b.streams[0].t)

    def test_provenance_labels_cover_stream(self):
        cfg = replace(preset_paper_rig(), duration_s=0.2)
        res = simulate(cfg)
        for stream, labels in zip(res.streams, res.truth.labels):
            assert len(labels) == len(stream)
            assert set(np.unique(labels)) <= {0, 1}

    def test_burst_centroid_near_true_center(self):
        cfg = static_scenario(contrast_threshold=0.25)
        res = simulate(cfg)
        stream = res.streams[0]
        center = res.truth.tracks_px[0, 0]
        t0 = res.truth.transition_t_us[0]
        sel = np.abs(stream.t - t0) < 200
        cx = stream.x[sel].mean()
        cy = stream.y[sel].mean()
        n = sel.sum()
        sigma = np.hypot(stream.x[sel] - cx, stream.y[sel] - cy).std()
        bound = 3 * sigma / np.sqrt(n)
        assert np.hypot(cx - center[0], cy - center[1]) < max(bound, 0.25)

    def test_tracks_consistent_with_trajectory(self):
        cfg = replace(preset_paper_rig(), duration_s=0.1)
        res = simulate(cfg)
        for ci, (intr, pose) in enumerate(cfg.cameras):
            expected, _ = project_points(intr, pose, res.truth.trajectory_mm)
            np.testing.assert_allclose(
                res.truth.tracks_px[ci], expected, atol=1e-9
            )

    def test_fov_warning_when_marker_leaves(self):
        cfg = static_scenario(
            trajectory=line((0.0, 0.0, 4500.0), (6000.0, 0.0, 0.0), 1.0),
            duration_s=1.0,
            contrast_threshold=0.25,
        )
        with pytest.warns(FieldOfViewWarning):
            simulate(cfg)


class TestGroundTruthExport:
    @pytest.mark.parametrize("n", [0, 1, 10, 1001, B - 1, B, B + 1, 100_001])
    def test_labels_equal_row_loop(self, tmp_path, n):
        """Empty labels write the header alone; 1001 rows cross the 9/10,
        99/100 and 999/1000 index digit boundaries; the longer ones the
        writer's block edges and 10**4, and 100,001 rows 10**5 too."""
        rng = np.random.default_rng(n)
        labels = [
            rng.integers(0, 2, n).astype(np.uint8),
            np.full(n, MARKER_LABEL, dtype=np.uint8),
            np.full(n, NOISE_LABEL, dtype=np.uint8),
        ]
        m = len(labels)
        truth = GroundTruth(np.zeros(0), np.zeros(0, dtype=bool), np.zeros((0, 3)),
                            np.zeros((m, 0, 2)), np.zeros((m, 0)),
                            np.zeros((m, 0), dtype=bool), labels)
        export_ground_truth(tmp_path, truth)
        for ci, lbl in enumerate(labels):
            assert (tmp_path / f"labels_cam{ci}.csv").read_bytes() == reference_labels_csv(lbl)

    @pytest.mark.parametrize("first", [0, 9_995, 99_995, 10**6 - 1, 10**8 - 3])
    def test_block_from_first_index(self, first):
        """A block's rows are numbered from its first index across the digit
        count and four-digit group edges."""
        labels = np.array([MARKER_LABEL, NOISE_LABEL, NOISE_LABEL] * 4, dtype=np.uint8)
        rows = "".join(f"{first + i},{'noise' if lbl == NOISE_LABEL else 'marker'}\n"
                       for i, lbl in enumerate(labels))
        assert simulator._format_labels(labels, first)[3:].tobytes() == rows.encode()

    def test_simulated_labels_equal_row_loop(self, tmp_path):
        res = simulate(replace(preset_paper_rig(), duration_s=0.1))
        written = export_ground_truth(tmp_path, res.truth)
        assert len(written) == 2 + 2 * len(res.streams)
        for ci, lbl in enumerate(res.truth.labels):
            assert set(np.unique(lbl)) == {MARKER_LABEL, NOISE_LABEL}
            assert (tmp_path / f"labels_cam{ci}.csv").read_bytes() == reference_labels_csv(lbl)


class TestBlinkSchedule:
    def test_transition_spacing(self):
        cfg = static_scenario(duration_s=0.02)
        t, pol = blink_schedule(cfg)
        assert pol[0] and not pol[1]
        # ON -> OFF is duty/nu, OFF -> ON the rest of the cycle
        np.testing.assert_allclose(t[1] - t[0], 0.4 / 250.0 * 1e6)
        np.testing.assert_allclose(t[2] - t[1], 0.6 / 250.0 * 1e6)

    def test_all_transitions_inside_duration(self):
        cfg = static_scenario(duration_s=0.1)
        t, _ = blink_schedule(cfg)
        assert t.max() < 0.1e6


class TestTrajectorySampling:
    @settings(max_examples=400, deadline=None)
    @given(sampled_trajectories())
    def test_positions_equal_scalar_reference(self, case):
        """positions samples every time in one call, bitwise as the scalar
        formula samples each alone, and position(t) is its row."""
        trajectory, times = case
        expected = np.array([reference_position(trajectory, t) for t in times]).reshape(-1, 3)
        assert_bitwise_equal(trajectory.positions(times), expected)
        for t, row in zip(times, expected):
            assert_bitwise_equal(trajectory.position(t), row)

    @pytest.mark.parametrize("start,velocity,duration_s", [
        ((5.0, 3.0, 300.0), (0.0, 0.0, -3000.0), 0.2),
        ((-250.0, -155.0, 400.0), (2500.0, 0.0, 0.0), 0.2),
        ((0.0, 0.0, 4500.0), (6000.0, 0.0, 0.0), 1.0),
    ])
    def test_still_and_line_are_the_plain_paths(self, start, velocity, duration_s):
        """The zero-amplitude sinusoid holds its center and the two-waypoint
        spline is start + t * velocity, exactly, at the blink transitions
        of the scenes that use them."""
        t_us, _ = blink_schedule(static_scenario(duration_s=duration_s))
        t = t_us * 1e-6
        np.testing.assert_array_equal(still(start).positions(t), np.tile(start, (len(t), 1)))
        np.testing.assert_array_equal(line(start, velocity, duration_s).positions(t),
                                      np.asarray(start) + t[:, None] * np.asarray(velocity))

    @pytest.mark.parametrize("trajectory", [
        still((1.0, 2.0, 3.0)),
        line((0.0, 0.0, 4000.0), (10.0, -5.0, 0.0), 1.0),
        Sinusoid3DTrajectory((0.0, 0.0, 4300.0), (5.0, 6.0, 7.0), (1.0, 2.0, 3.0),
                             start_time=0.4, ramp=0.3),
        WaypointSplineTrajectory((0.0, 1.0), ((0.0, 0.0, 4000.0), (10.0, 5.0, 4100.0))),
    ])
    def test_no_times_give_no_positions(self, trajectory):
        assert_bitwise_equal(trajectory.positions(np.zeros(0)), np.zeros((0, 3)))


class TestScenarioFiles:
    @pytest.mark.parametrize(
        "trajectory",
        [
            still((1.0, 2.0, 3.0)),
            line((0.0, 0.0, 4000.0), (10.0, -5.0, 0.0), 1.0),
            Sinusoid3DTrajectory(
                (0.0, 0.0, 4300.0), (5.0, 6.0, 7.0), (1.0, 2.0, 3.0),
                (0.1, 0.2, 0.3), 0.5, 0.25,
            ),
            WaypointSplineTrajectory(
                (0.0, 0.5, 1.0),
                ((0.0, 0.0, 4000.0), (10.0, 5.0, 4100.0), (0.0, -5.0, 4050.0)),
            ),
        ],
    )
    def test_round_trip(self, tmp_path, trajectory):
        cfg = replace(preset_paper_rig(), trajectory=trajectory, duration_s=0.5)
        path = tmp_path / "scenario.json"
        save_scenario(path, cfg)
        loaded = load_scenario(path)
        assert type(loaded.trajectory) is type(trajectory)
        assert loaded.trajectory == trajectory
        times = np.array([0.0, 0.21, 0.49])
        assert_bitwise_equal(loaded.trajectory.positions(times), trajectory.positions(times))
        assert loaded.blink_freq_hz == cfg.blink_freq_hz
        assert loaded.seed == cfg.seed
        for (ia, pa), (ib, pb) in zip(cfg.cameras, loaded.cameras):
            assert ia.fx == ib.fx
            np.testing.assert_array_equal(pa.rotation, pb.rotation)

    def test_trajectory_defaults_are_honoured(self, tmp_path):
        """A sinusoid file without phase, start_time or ramp reads them as
        the class's defaults."""
        path = tmp_path / "scenario.json"
        save_scenario(path, preset_paper_rig())
        doc = json.loads(path.read_text())
        doc["trajectory"] = {"type": "sinusoid-3d", "center": [0, 0, 5000],
                             "amplitude": [1, 2, 3], "frequency_hz": [1, 1, 1]}
        path.write_text(json.dumps(doc))
        assert load_scenario(path).trajectory == Sinusoid3DTrajectory((0, 0, 5000), (1, 2, 3),
                                                                       (1, 1, 1))

    @pytest.mark.parametrize("kind", [None, "static", "linear"])
    def test_unknown_trajectory_type_raises(self, tmp_path, kind):
        path = tmp_path / "scenario.json"
        save_scenario(path, preset_paper_rig())
        doc = json.loads(path.read_text())
        doc["trajectory"]["type"] = kind
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"unknown trajectory type {kind!r}"):
            load_scenario(path)

    @pytest.mark.parametrize("key", ["fx", "k1", "k2", "p1", "p2", "width", "R", "T"])
    def test_every_camera_key_is_required(self, tmp_path, key):
        """Scenario cameras are the calibration document's records: a
        missing key is refused, distortion coefficients too."""
        path = tmp_path / "scenario.json"
        save_scenario(path, preset_paper_rig())
        doc = json.loads(path.read_text())
        del doc["cameras"][2][key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"missing field '{key}'"):
            load_scenario(path)

    @pytest.mark.parametrize("key", ["seed", "noise_rate", "latency_jitter_std_us",
                                     "led_log_amplitude", "duration_s", "contrast_threshold"])
    def test_every_scenario_field_is_required(self, tmp_path, key):
        """No scenario field has a default: a file without one is refused,
        naming it, rather than read as a quieter scene."""
        path = tmp_path / "scenario.json"
        save_scenario(path, preset_paper_rig())
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"missing field '{key}'"):
            load_scenario(path)

    def test_scenario_files_are_pinned(self, tmp_path):
        """SHA-256 of scenario.json for the preset sweep and for verify's
        first pole scene (seed 0), a waypoint spline of 600 knots, recorded
        before the camera record and the trajectory file form were shared.
        A change to any byte fails here."""
        digests = {}
        for name, config in (("preset", preset_paper_rig()), ("pole_a", pole_scenes(1.2, 0)[0])):
            save_scenario(tmp_path / f"{name}.json", config)
            digests[name] = hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
        assert digests == {
            "preset": "7415aaeadc390ff86d9412365da5176250f6fd2ebac3267b5b458e95c176d5d6",
            "pole_a": "a3923e17a59e05e2b5ef02d46a0de3ada83d8d0b506b21cc3dc3aa5ed4956fb4",
        }

    def test_edge_band_absent_or_zero_loads(self, tmp_path):
        cfg = replace(preset_paper_rig(), duration_s=0.5)
        path = tmp_path / "scenario.json"
        save_scenario(path, cfg)
        doc = json.loads(path.read_text())
        assert "edge_band" not in doc
        assert load_scenario(path) == replace(cfg, cameras=load_scenario(path).cameras)
        doc["edge_band"] = 0.0
        path.write_text(json.dumps(doc))
        assert load_scenario(path).duration_s == 0.5

    def test_nonzero_edge_band_raises(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(path, preset_paper_rig())
        doc = json.loads(path.read_text())
        doc["edge_band"] = 0.1
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="field 'edge_band' is 0.1"):
            load_scenario(path)

    def test_preset_is_valid_and_stable(self):
        a = preset_paper_rig()
        b = preset_paper_rig()
        a.validate()
        assert a == b
        assert len(a.cameras) == 3
        assert a.blink_freq_hz == 250.0
        assert a.duty_cycle == 0.4
        # adjacent baselines match the field rig
        c = [pose.center for _, pose in a.cameras]
        assert np.linalg.norm(c[0] - c[1]) == pytest.approx(4640.0)
        assert np.linalg.norm(c[1] - c[2]) == pytest.approx(4540.0)
