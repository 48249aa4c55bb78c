"""Synthetic event generation: counting oracles, determinism, provenance."""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evdeform import simulator
from evdeform.errors import ConfigError, FieldOfViewWarning, PointBehindCamera
from evdeform.events import EventStream
from evdeform.geometry import CameraIntrinsics, CameraPose, project_points
from evdeform.simulator import (
    MARKER_LABEL,
    NOISE_LABEL,
    REFRACTORY_US,
    GroundTruth,
    LinearTrajectory,
    ScenarioConfig,
    SimulationResult,
    Sinusoid3DTrajectory,
    StaticTrajectory,
    WaypointSplineTrajectory,
    blink_schedule,
    export_ground_truth,
    load_scenario,
    marker_tracks,
    paper_rig_cameras,
    preset_paper_rig,
    save_scenario,
    simulate,
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


def reference_projected_marker(intr, pose, point_mm, radius_mm):
    """One point at a time: the reference for marker_tracks."""
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


def static_scenario(**overrides):
    defaults = dict(
        cameras=paper_rig_cameras()[:1],
        trajectory=StaticTrajectory((0.0, 0.0, 4500.0)),
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


def _spans_several_chunks(res):
    # an unclipped box holds at least (2 r)^2 cells, so a chunk holds at most
    # _STENCIL_CELLS / (2 r)^2 transitions
    cells = len(res.truth.transition_t_us) * (2.0 * res.truth.radius_px.max()) ** 2
    assert res.truth.in_view.all() and cells > 2 * simulator._STENCIL_CELLS


def _preset(res):
    assert res.truth.in_view.all() and sum(len(s) for s in res.streams) > 400_000


REFERENCE_SCENES = {
    "preset_sweep": (preset_paper_rig, _preset),
    "passes_behind_camera": (
        lambda: small_camera_scenario(LinearTrajectory((5.0, 3.0, 300.0), (0.0, 0.0, -3000.0))),
        _passes_behind,
    ),
    "clipped_at_sensor_edge": (
        lambda: small_camera_scenario(
            LinearTrajectory((-250.0, -155.0, 400.0), (2500.0, 0.0, 0.0))
        ),
        _clipped_at_edges,
    ),
    "beside_the_sensor": (
        lambda: small_camera_scenario(StaticTrajectory((400.0, 0.0, 400.0)), noise_rate=0.0),
        _fires_nothing,
    ),
    "grazing_the_camera": (
        lambda: small_camera_scenario(StaticTrajectory((5.0, 3.0, 1e-17)), duration_s=0.02,
                                      noise_rate=0.0),
        _fills_sensor_from_far_off,
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
        _spans_several_chunks,
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
        ],
    )
    def test_invariants(self, field, value):
        with pytest.raises(ConfigError):
            simulate(replace(static_scenario(), **{field: value}))


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
            intr, pose, np.array([cfg.trajectory.point]), cfg.marker_radius_mm
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

    @settings(max_examples=300, deadline=None)
    @given(refractory_inputs())
    def test_refractory_filter_equals_reference_loop(self, events):
        t, x, y = events
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
        from evdeform.geometry import project_points

        for ci, (intr, pose) in enumerate(cfg.cameras):
            expected = project_points(intr, pose, res.truth.trajectory_mm)
            np.testing.assert_allclose(
                res.truth.tracks_px[ci], expected, atol=1e-9
            )

    def test_fov_warning_when_marker_leaves(self):
        cfg = static_scenario(
            trajectory=LinearTrajectory((0.0, 0.0, 4500.0), (6000.0, 0.0, 0.0)),
            duration_s=1.0,
            contrast_threshold=0.25,
        )
        with pytest.warns(FieldOfViewWarning):
            simulate(cfg)


class TestGroundTruthExport:
    @pytest.mark.parametrize("n", [0, 1, 10, 1001])
    def test_labels_equal_row_loop(self, tmp_path, n):
        """Empty labels write the header alone; 1001 rows cross the 9/10,
        99/100 and 999/1000 index digit boundaries."""
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


class TestScenarioFiles:
    @pytest.mark.parametrize(
        "trajectory",
        [
            StaticTrajectory((1.0, 2.0, 3.0)),
            LinearTrajectory((0.0, 0.0, 4000.0), (10.0, -5.0, 0.0)),
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
        for t in (0.0, 0.21, 0.49):
            np.testing.assert_allclose(
                loaded.trajectory.position(t), cfg.trajectory.position(t), atol=1e-12
            )
        assert loaded.blink_freq_hz == cfg.blink_freq_hz
        assert loaded.seed == cfg.seed
        for (ia, pa), (ib, pb) in zip(cfg.cameras, loaded.cameras):
            assert ia.fx == ib.fx
            np.testing.assert_array_equal(pa.rotation, pb.rotation)

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
