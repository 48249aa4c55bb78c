"""Window accumulation, cluster statistics and temporal matching."""
from dataclasses import replace

import numpy as np
import pytest

from evdeform import extraction
from evdeform.errors import EmptyCluster, StreamTooShort
from evdeform.events import EventStream
from evdeform.extraction import (
    CenterObservation,
    EventCluster,
    ExtractionConfig,
    ExtractionResult,
    _resolve_n,
    accumulate_cluster,
    calibration_profile,
    choose_accumulation_count,
    extract_center_sequence,
    extraction_diagnostics,
    measurement_profile,
    match_corresponding,
    read_observations,
    write_observations,
)
from evdeform.simulator import (
    ScenarioConfig,
    StaticTrajectory,
    paper_rig_cameras,
    preset_paper_rig,
    projected_marker,
    simulate,
)

from conftest import synthetic_observation


def reference_extract_center_sequence(stream, config):
    """Per-event loop over the stream: the reference for extract_center_sequence."""
    n = _resolve_n(stream, config)
    sel = {"on": stream.polarity, "off": ~stream.polarity, "both": slice(None)}[config.polarity]
    ts = stream.t[sel].astype(np.float64)
    xs = stream.x[sel].astype(np.float64)
    ys = stream.y[sel].astype(np.float64)
    total = len(ts)
    if total < n:
        raise StreamTooShort(f"{total} events of requested polarity, window needs {n}")
    ref_x = float(np.median(xs[:n]))
    ref_y = float(np.median(ys[:n]))
    gate2 = config.gate_radius * config.gate_radius
    reset_gap = config.reset_gap_us
    observations = []
    noise = partial = count = 0
    sx = sy = st = sxx = syy = sxy = 0.0
    t_first = t_last = 0.0
    last_emit_t = None
    for t, x, y in zip(ts.tolist(), xs.tolist(), ys.tolist()):
        if reset_gap is not None and count and t - t_last > reset_gap:
            if count >= 8:
                ref_x, ref_y = sx / count, sy / count
            partial += count
            sx = sy = st = sxx = syy = sxy = 0.0
            count = 0
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
            if last_emit_t is not None and mt <= last_emit_t:
                mt = last_emit_t + 1e-3
            cluster = EventCluster(np.array([mx, my]), cov, n, mt, int(t_first), int(t_last))
            observations.append(CenterObservation(stream.camera_id, cluster.centroid, mt, cluster))
            last_emit_t = mt
            ref_x, ref_y = mx, my
            sx = sy = st = sxx = syy = sxy = 0.0
            count = 0
    if not observations:
        raise StreamTooShort(
            f"only {total - noise} events passed the spatial gate, window needs {n}"
        )
    return ExtractionResult(tuple(observations), noise, partial, n)


def assert_same_extraction(got, want):
    """Bitwise equality of two extraction results, field by field."""
    assert (got.noise_count, got.partial_discards, got.n) == (
        want.noise_count, want.partial_discards, want.n
    )
    assert len(got.observations) == len(want.observations)
    for a, b in zip(got.observations, want.observations):
        ca, cb = a.cluster, b.cluster
        assert a.camera_id == b.camera_id
        assert type(a.t_c) is type(b.t_c) is float and a.t_c.hex() == b.t_c.hex()
        assert ca.t_c.hex() == cb.t_c.hex()
        assert (ca.count, ca.t_min, ca.t_max) == (cb.count, cb.t_min, cb.t_max)
        assert type(ca.t_min) is type(ca.t_max) is int
        for u, v in ((a.pixel, b.pixel), (ca.centroid, cb.centroid), (ca.covariance, cb.covariance)):
            assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


class TestChooseAccumulationCount:
    def test_static_marker_caps_at_per_cycle_yield(self):
        n = choose_accumulation_count(250.0, 0.0, 125_000.0, duty_window=1.0, n_max=1000)
        assert n == 500

    def test_per_cycle_yield_from_rates(self):
        # half-cycle window of a 100 kHz event stream at 500 Hz blink
        n = choose_accumulation_count(500.0, 0.0, 100_000.0, duty_window=0.5)
        assert n == 100

    def test_blur_budget_caps_fast_markers(self):
        slow = choose_accumulation_count(250.0, 10.0, 125_000.0, duty_window=1.0)
        fast = choose_accumulation_count(250.0, 5000.0, 125_000.0, duty_window=1.0)
        assert fast < slow
        assert fast == int(125_000.0 * 0.5 / 5000.0)

    def test_doubling_speed_never_increases_n(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            blink = rng.uniform(10, 2000)
            rate = rng.uniform(1e3, 1e6)
            speed = rng.uniform(0, 5000)
            duty = rng.uniform(0.1, 1.0)
            n1 = choose_accumulation_count(blink, speed, rate, duty_window=duty)
            n2 = choose_accumulation_count(blink, 2 * speed, rate, duty_window=duty)
            assert n2 <= n1

    def test_degenerate_inputs_clamp_to_minimum(self):
        assert choose_accumulation_count(250.0, 0.0, 10.0, n_min=10) == 10

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            choose_accumulation_count(0.0, 0.0, 1000.0)
        with pytest.raises(ValueError):
            choose_accumulation_count(250.0, -1.0, 1000.0)


def _stream(t, x, y):
    """ON events of camera 0 on a 1280x720 sensor from column lists."""
    return EventStream(0, 1280, 720, t, x, y, np.ones(len(t), dtype=bool))


class TestAccumulateCluster:
    def test_single_event(self):
        c = accumulate_cluster(_stream([5], [100], [200]))
        np.testing.assert_array_equal(c.centroid, [100.0, 200.0])
        np.testing.assert_array_equal(c.covariance, np.zeros((2, 2)))
        assert c.t_c == 5.0
        assert c.count == 1

    def test_symmetric_square(self):
        c = accumulate_cluster(_stream([10, 20, 30, 40], [0, 0, 2, 2], [0, 2, 0, 2]))
        np.testing.assert_allclose(c.centroid, [1.0, 1.0])
        assert c.t_c == 25.0
        np.testing.assert_allclose(c.covariance, [[1.0, 0.0], [0.0, 1.0]])

    def test_gaussian_sample_matches_direct_mean(self):
        rng = np.random.default_rng(12)
        xs = np.clip(np.round(rng.normal(640, 2.0, 500)), 0, 1279).astype(int)
        ys = np.clip(np.round(rng.normal(360, 2.0, 500)), 0, 719).astype(int)
        ts = np.sort(rng.integers(0, 1000, 500))
        stream = EventStream(0, 1280, 720, ts, xs, ys, np.ones(500, dtype=bool))
        c = accumulate_cluster(stream)
        # oracle: direct mean of the drawn sample
        np.testing.assert_allclose(c.centroid, [xs.mean(), ys.mean()], atol=1e-12)
        bound = 3.0 * 2.0 / np.sqrt(500)
        assert abs(c.centroid[0] - 640) < bound + 0.5
        assert abs(c.centroid[1] - 360) < bound + 0.5

    def test_empty_cluster(self):
        with pytest.raises(EmptyCluster):
            accumulate_cluster(_stream([], [], []))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        xs = rng.integers(10, 50, 60)
        ys = rng.integers(10, 50, 60)
        ts = np.sort(rng.integers(0, 100, 60))
        base = accumulate_cluster(
            EventStream(0, 200, 200, ts, xs, ys, np.ones(60, dtype=bool))
        )
        moved = accumulate_cluster(
            EventStream(0, 200, 200, ts, xs + 7, ys + 13, np.ones(60, dtype=bool))
        )
        np.testing.assert_allclose(moved.centroid, base.centroid + [7, 13], atol=1e-12)
        np.testing.assert_allclose(moved.covariance, base.covariance, atol=1e-12)


def static_scenario(**overrides):
    defaults = dict(
        cameras=paper_rig_cameras()[:1],
        trajectory=StaticTrajectory((0.0, 0.0, 4500.0)),
        marker_radius_mm=25.0,
        blink_freq_hz=250.0,
        duty_cycle=0.4,
        contrast_threshold=0.25,
        noise_rate=0.0,
        latency_jitter_std_us=0.0,
        duration_s=0.5,
        seed=3,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def burst_size(result, camera=0):
    labels = result.truth.labels[camera]
    return int(np.sum(labels == 0)) // len(result.truth.transition_t_us)


class TestExtractCenterSequence:
    def test_static_marker_noiseless(self):
        res = simulate(static_scenario())
        n = burst_size(res)
        out = extract_center_sequence(res.streams[0], ExtractionConfig(n=n))
        transitions = len(res.truth.transition_t_us)
        assert len(out.observations) == transitions
        intr, pose = paper_rig_cameras()[0]
        center, _, _ = projected_marker(
            intr, pose, np.array([0.0, 0.0, 4500.0]), 25.0
        )
        for obs in out.observations:
            assert np.linalg.norm(obs.pixel - center) < 0.1

    def test_background_noise_rejected(self):
        clean = simulate(static_scenario())
        n = burst_size(clean)
        marker_rate = n * 2 * 250
        noise_rate = 0.1 * marker_rate / (1280 * 720)  # ~10% of marker events
        noisy = simulate(static_scenario(noise_rate=noise_rate))
        planted = int(np.sum(noisy.truth.labels[0] == 1))
        out = extract_center_sequence(
            noisy.streams[0], ExtractionConfig(n=n, gate_radius=30.0, reset_gap_us=200.0)
        )
        intr, pose = paper_rig_cameras()[0]
        center, _, _ = projected_marker(intr, pose, np.array([0.0, 0.0, 4500.0]), 25.0)
        errs = [np.linalg.norm(o.pixel - center) for o in out.observations]
        assert max(errs) < 0.3
        assert abs(out.noise_count - planted) <= 0.2 * planted

    def test_stream_too_short(self):
        res = simulate(static_scenario(duration_s=0.01))
        n = len(res.streams[0]) + 1
        with pytest.raises(StreamTooShort):
            extract_center_sequence(res.streams[0], ExtractionConfig(n=n))

    def test_polarity_selection(self):
        res = simulate(static_scenario())
        n = burst_size(res)
        both = extract_center_sequence(res.streams[0], ExtractionConfig(n=n))
        on_only = extract_center_sequence(
            res.streams[0], ExtractionConfig(n=n, polarity="on")
        )
        # ON bursts are half of all transitions
        assert abs(len(on_only.observations) - len(both.observations) / 2) <= 1

    def test_time_of_cluster_inside_window(self):
        res = simulate(static_scenario(latency_jitter_std_us=20.0))
        n = burst_size(res) - 2
        out = extract_center_sequence(
            res.streams[0], ExtractionConfig(n=n, reset_gap_us=200.0)
        )
        for obs in out.observations:
            assert obs.cluster.t_min <= obs.t_c <= obs.cluster.t_max

    def test_output_times_strictly_increasing(self):
        res = simulate(static_scenario())
        n = max(burst_size(res) // 3, 10)
        out = extract_center_sequence(res.streams[0], ExtractionConfig(n=n))
        ts = [o.t_c for o in out.observations]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_disk_covariance_nearly_isotropic(self):
        res = simulate(static_scenario())
        n = burst_size(res)
        out = extract_center_sequence(res.streams[0], ExtractionConfig(n=n))
        for obs in out.observations[:20]:
            cov = obs.cluster.covariance
            assert abs(cov[0, 1]) <= 0.1 * max(cov[0, 0], cov[1, 1])


def _blob_stream(t, centers, rng, spread=2, width=1280, height=720):
    """Events scattered around one center per event, clipped to the sensor."""
    centers = np.asarray(centers)
    x = np.clip(np.round(centers[:, 0] + rng.normal(0, spread, len(t))), 0, width - 1)
    y = np.clip(np.round(centers[:, 1] + rng.normal(0, spread, len(t))), 0, height - 1)
    return EventStream(0, width, height, t, x.astype(int), y.astype(int), rng.random(len(t)) < 0.5)


def _moving_marker(seconds=0.5, noise_rate=0.02):
    """Camera 0 of the preset sweep: a moving, blinking marker with noise."""
    config = replace(preset_paper_rig(), duration_s=seconds, noise_rate=noise_rate)
    config = replace(config, cameras=config.cameras[:1])
    return simulate(config).streams[0]


def _noise_only(events=20_000, seed=5):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, 1_000_000, events))
    return EventStream(0, 1280, 720, t, rng.integers(0, 1280, events),
                       rng.integers(0, 720, events), rng.random(events) < 0.5)


def _marker_jump(jump_px):
    """A blob that jumps by jump_px halfway through, in bursts 1 ms apart."""
    rng = np.random.default_rng(8)
    t = np.repeat(np.arange(200) * 1000, 60) + np.tile(np.arange(60), 200)
    centers = np.where((t < 100_000)[:, None], [300.0, 300.0], [300.0 + jump_px, 300.0])
    return _blob_stream(t, centers, rng)


def _tied_times():
    """Bursts of 40 events sharing one timestamp, so window times tie."""
    rng = np.random.default_rng(9)
    t = np.repeat(np.arange(50) * 7, 40)
    return _blob_stream(t, np.full((len(t), 2), 500.0), rng)


EQUALITY_CASES = {
    "polarity-both": (lambda: _moving_marker(), calibration_profile(250.0)),
    "polarity-on": (lambda: _moving_marker(), replace(calibration_profile(250.0), polarity="on")),
    "polarity-off": (lambda: _moving_marker(), replace(measurement_profile(250.0), polarity="off")),
    "n-below-8": (lambda: _moving_marker(), ExtractionConfig(n=5, gate_radius=15.0, reset_gap_us=200.0)),
    "n-below-8-no-gap": (lambda: _moving_marker(), ExtractionConfig(n=5, gate_radius=15.0)),
    "no-reset-gap": (lambda: _moving_marker(), replace(calibration_profile(250.0), reset_gap_us=None)),
    "noise-only": (_noise_only, ExtractionConfig(n=20, gate_radius=100.0, reset_gap_us=5000.0)),
    "noise-only-wide-gate": (_noise_only, ExtractionConfig(n=50, gate_radius=300.0)),
    "jump-beyond-gate": (lambda: _marker_jump(80.0), ExtractionConfig(n=50, gate_radius=30.0, reset_gap_us=200.0)),
    "jump-within-gate": (lambda: _marker_jump(20.0), ExtractionConfig(n=50, gate_radius=30.0)),
    "tied-times": (_tied_times, ExtractionConfig(n=10, gate_radius=30.0)),
    "many-chunks": (lambda: _moving_marker(1.0), measurement_profile(250.0)),
}


class TestMatchesReference:
    """The array solver is bitwise the per-event reference loop."""

    @pytest.mark.parametrize("case", EQUALITY_CASES, ids=list(EQUALITY_CASES))
    def test_bitwise_equal(self, case):
        make, config = EQUALITY_CASES[case]
        stream = make()
        assert_same_extraction(
            extract_center_sequence(stream, config),
            reference_extract_center_sequence(stream, config),
        )

    def test_cases_reach_their_paths(self):
        tied = extract_center_sequence(_tied_times(), EQUALITY_CASES["tied-times"][1])
        assert [o.t_c for o in tied.observations[:4]] == [0.0, 0.001, 0.002, 0.003]
        stream, config = _moving_marker(1.0), measurement_profile(250.0)
        assert len(stream) > 10 * extraction._CHUNK_EVENTS
        out = extract_center_sequence(stream, config)
        assert out.partial_discards > 0 and out.noise_count > 0
        lost = extract_center_sequence(_marker_jump(80.0), EQUALITY_CASES["jump-beyond-gate"][1])
        assert lost.noise_count >= 100 * 60  # every event after the jump

    def test_stream_too_short_message(self):
        config = ExtractionConfig(n=30, gate_radius=1.0)
        stream = _noise_only(200)
        with pytest.raises(StreamTooShort) as want:
            reference_extract_center_sequence(stream, config)
        with pytest.raises(StreamTooShort, match=str(want.value)):
            extract_center_sequence(stream, config)

    def test_window_too_large_for_exact_sums(self):
        stream = EventStream(0, 2**31 - 1, 8, [0], [0], [0], [True])
        with pytest.raises(ValueError, match="exact sums"):
            extract_center_sequence(stream, ExtractionConfig(n=2**23))

    def test_non_psd_covariance_raises_like_the_cluster(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            EventCluster(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 3, 0.0)
        with pytest.raises(ValueError, match="positive semidefinite"):
            extraction._require_psd(np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]]))


class TestExtractionDiagnostics:
    def test_spread_and_coverage(self):
        obs = []
        for k, (px, lo, hi) in enumerate([((10, 20), 0, 40), ((110, 70), 100, 110), ((60, 20), 200, 290)]):
            cluster = EventCluster(np.array(px, float), np.eye(2), 10, float(lo), lo, hi)
            obs.append(CenterObservation(0, cluster.centroid, float(lo), cluster))
        result = ExtractionResult(tuple(obs), 0, 0, 10)
        diag = extraction_diagnostics(result, (200, 100))
        assert diag == {
            "window_spread_us_median": 40.0,
            "window_spread_us_max": 90,
            "center_bbox_sensor_share": 100 * 50 / (200 * 100),
        }


class TestMatchCorresponding:
    def test_exact_coincidence(self):
        a = [synthetic_observation(0, [10, 10], 1000.0)]
        b = [synthetic_observation(1, [20, 20], 1000.0)]
        groups = match_corresponding([a, b], t_th=100.0)
        assert len(groups) == 1
        assert groups[0].match_time_spread == 0.0
        assert groups[0].camera_ids == (0, 1)

    def test_beyond_threshold_not_matched(self):
        a = [synthetic_observation(0, [10, 10], 1000.0)]
        b = [synthetic_observation(1, [20, 20], 1500.0)]
        assert match_corresponding([a, b], t_th=100.0) == []

    def test_simulated_blink_schedule_triples(self):
        rng = np.random.default_rng(21)
        times = np.arange(200) * 4000.0
        seqs = []
        for cam in range(3):
            obs = [
                synthetic_observation(cam, [100 + cam, 50], t + rng.normal(0, 5.0))
                for t in times
            ]
            obs.sort(key=lambda o: o.t_c)
            seqs.append(obs)
        groups = match_corresponding(seqs, t_th=1000.0)
        assert len(groups) == 200
        assert all(len(g.observations) == 3 for g in groups)
        for g, t in zip(groups, times):
            assert abs(g.mean_t - t) < 100

    def test_each_observation_used_once(self):
        a = [synthetic_observation(0, [1, 1], 0.0), synthetic_observation(0, [2, 2], 50.0)]
        b = [synthetic_observation(1, [3, 3], 10.0)]
        groups = match_corresponding([a, b], t_th=100.0)
        assert len(groups) == 1
        assert groups[0].observations[0].t_c == 0.0  # earliest anchor wins

    def test_permuting_camera_order_gives_same_groups(self):
        rng = np.random.default_rng(5)
        seqs = []
        for cam in range(3):
            obs = [
                synthetic_observation(cam, [cam, cam], 4000.0 * k + rng.normal(0, 10))
                for k in range(40)
            ]
            obs.sort(key=lambda o: o.t_c)
            seqs.append(obs)
        g1 = match_corresponding(seqs, t_th=800.0)
        g2 = match_corresponding([seqs[2], seqs[0], seqs[1]], t_th=800.0)
        assert len(g1) == len(g2)
        for a, b in zip(g1, g2):
            assert a.camera_ids == b.camera_ids
            assert a.mean_t == b.mean_t

    def test_groups_of_one_camera_discarded(self):
        a = [synthetic_observation(0, [1, 1], 0.0)]
        b = [synthetic_observation(1, [2, 2], 5000.0)]
        assert match_corresponding([a, b], t_th=100.0) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            match_corresponding([], t_th=0.0)


class TestObservationCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        obs = []
        for k in range(25):
            px = rng.uniform(0, 1000, 2)
            cov = np.diag(rng.uniform(0.5, 3.0, 2))
            cluster = EventCluster(px, cov, 120, 4000.0 * k)
            obs.append(CenterObservation(3, px, 4000.0 * k, cluster))
        path = tmp_path / "observations_cam3.csv"
        write_observations(path, obs)
        assert path.read_text().splitlines()[0] == "camera_id,t_us,x,y,n,sxx,syy,sxy"
        loaded = read_observations(path)
        assert len(loaded) == 25
        for a, b in zip(obs, loaded):
            assert b.camera_id == 3
            np.testing.assert_array_equal(a.pixel, b.pixel)
            assert b.cluster.count == 120
            np.testing.assert_array_equal(a.cluster.covariance, b.cluster.covariance)


class TestAccumulationCountSimulatorOracle:
    def test_count_matches_simulated_per_cycle_yield(self):
        """The formula's per-cycle yield equals the counted events per cycle."""
        res = simulate(static_scenario(duration_s=1.0))
        stream = res.streams[0]
        cycles = 250.0 * 1.0
        events_per_cycle = len(stream) / cycles
        rate = len(stream) / 1.0
        n = choose_accumulation_count(250.0, 0.0, rate, duty_window=1.0, n_max=5000)
        assert n == round(events_per_cycle)
