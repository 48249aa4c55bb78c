"""Synthetic event generation: counting oracles, determinism, provenance."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evdeform import simulator
from evdeform.errors import ConfigError, FieldOfViewWarning
from evdeform.simulator import (
    REFRACTORY_US,
    LinearTrajectory,
    ScenarioConfig,
    Sinusoid3DTrajectory,
    StaticTrajectory,
    WaypointSplineTrajectory,
    blink_schedule,
    load_scenario,
    paper_rig_cameras,
    preset_paper_rig,
    projected_marker,
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
        center, radius, _ = projected_marker(
            intr, pose, np.array(cfg.trajectory.point), cfg.marker_radius_mm
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
