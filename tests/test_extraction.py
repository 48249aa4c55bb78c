"""Window accumulation, cluster statistics and temporal matching."""
from dataclasses import replace

import numpy as np
import pytest

from evdeform import extraction
from evdeform.errors import ConfigError, StreamTooShort
from evdeform.events import EventStream
from evdeform.extraction import (
    Centers,
    ExtractionConfig,
    ExtractionResult,
    _resolve_n,
    calibration_profile,
    estimate_burst_size,
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
    marker_tracks,
    preset_paper_rig,
    simulate,
)

from conftest import centers_table


def reference_extract_center_sequence(stream, config):
    """Per-event loop over the stream: the reference for extract_center_sequence."""
    n = _resolve_n(stream, config)
    ts = stream.t.astype(np.float64)
    xs = stream.x.astype(np.float64)
    ys = stream.y.astype(np.float64)
    total = len(ts)
    if total < n:
        raise StreamTooShort(f"{total} events, window needs {n}")
    ref_x = float(np.median(xs[:n]))
    ref_y = float(np.median(ys[:n]))
    gate2 = config.gate_radius * config.gate_radius
    reset_gap = config.reset_gap_us
    windows = []
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
            windows.append((mt, (mx, my), cov, n, int(t_first), int(t_last)))
            last_emit_t = mt
            ref_x, ref_y = mx, my
            sx = sy = st = sxx = syy = sxy = 0.0
            count = 0
    if not windows:
        raise StreamTooShort(
            f"only {total - noise} events passed the spatial gate, window needs {n}"
        )
    t_c, pixel, cov, count, t_min, t_max = (np.array(v) for v in zip(*windows))
    centers = Centers(stream.camera_id, t_c, pixel, cov, count, t_min, t_max)
    return ExtractionResult(centers, noise, partial, n)


def assert_same_extraction(got, want):
    """Bitwise equality of two extraction results, column by column."""
    assert (got.noise_count, got.partial_discards, got.n) == (
        want.noise_count, want.partial_discards, want.n
    )
    a, b = got.observations, want.observations
    assert a.camera_id == b.camera_id
    for name in ("t_c", "pixel", "covariance", "count", "t_min", "t_max"):
        u, v = getattr(a, name), getattr(b, name)
        assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes(), name


def reference_match_corresponding(tables, t_th):
    """The greedy matcher over center objects: the reference for
    match_corresponding. Returns one ({camera_id: row}, mean_t, spread) per
    group, sorted by mean_t."""
    cams = sorted(((t.camera_id, list(t)) for t in tables if len(t)), key=lambda c: c[0])
    tcs = [[o.t_c for o in seq] for _, seq in cams]
    used = [np.zeros(len(seq), dtype=bool) for _, seq in cams]
    order = sorted(
        (o.t_c, cam_pos, idx) for cam_pos, (_, seq) in enumerate(cams) for idx, o in enumerate(seq)
    )
    groups = []
    for t_anchor, cam_pos, idx in order:
        if used[cam_pos][idx]:
            continue
        members = [(cam_pos, idx)]
        for other_pos in range(len(cams)):
            if other_pos == cam_pos:
                continue
            near = [
                (abs(t - t_anchor), j) for j, t in enumerate(tcs[other_pos])
                if not used[other_pos][j] and t_anchor - t_th <= t <= t_anchor + t_th
            ]
            if near:
                members.append((other_pos, min(near)[1]))
        while len(members) > 1:
            times = [tcs[cp][i] for cp, i in members]
            if max(times) - min(times) <= t_th:
                break
            worst = max(
                (m for m in members if m != (cam_pos, idx)),
                key=lambda m: abs(tcs[m[0]][m[1]] - t_anchor),
            )
            members.remove(worst)
        for cp, i in members:
            used[cp][i] = True
        if len(members) >= 2:
            obs = [(cams[cp][1][i], i) for cp, i in sorted(members)]  # in camera id order
            times = [o.t_c for o, _ in obs]
            groups.append((
                {o.camera_id: i for o, i in obs},
                float(np.mean(times)),
                max(times) - min(times),
            ))
    groups.sort(key=lambda g: g[1])
    return groups


def assert_same_groups(got, want, tables):
    """The matched table has the reference groups: the same members per
    camera with their pixels, bitwise the same mean_t and spread."""
    by_id = {t.camera_id: t for t in tables}
    assert len(got) == len(want)
    for j, (members, mean_t, spread) in enumerate(want):
        rows = np.flatnonzero(got.index[:, j] >= 0)
        assert {got.camera_ids[i]: int(got.index[i, j]) for i in rows} == members
        for i in rows:
            row = by_id[got.camera_ids[i]][int(got.index[i, j])]
            assert got.pixels[i, j].tobytes() == row.pixel.tobytes()
            assert got.t_c[i, j].hex() == row.t_c.hex()
        assert float(got.mean_t[j]).hex() == mean_t.hex()
        assert float(got.spread[j]).hex() == spread.hex()


def _stream(t, x, y):
    """ON events of camera 0 on a 1280x720 sensor from column lists."""
    return EventStream(0, 1280, 720, t, x, y, np.ones(len(t), dtype=bool))


def _one_window(stream):
    """The centers table of stream accumulated as a single window."""
    config = ExtractionConfig(n=len(stream), gate_radius=1e9)
    return extract_center_sequence(stream, config).observations


class TestAccumulateCluster:
    def test_single_event(self):
        c = _one_window(_stream([5], [100], [200]))
        np.testing.assert_array_equal(c.pixel, [[100.0, 200.0]])
        np.testing.assert_array_equal(c.covariance, np.zeros((1, 2, 2)))
        assert c.t_c.tolist() == [5.0]
        assert c.count.tolist() == [1]

    def test_symmetric_square(self):
        c = _one_window(_stream([10, 20, 30, 40], [0, 0, 2, 2], [0, 2, 0, 2]))
        np.testing.assert_allclose(c.pixel, [[1.0, 1.0]])
        assert c.t_c.tolist() == [25.0]
        assert (c.t_min.tolist(), c.t_max.tolist()) == ([10], [40])
        np.testing.assert_allclose(c.covariance, [[[1.0, 0.0], [0.0, 1.0]]])

    def test_gaussian_sample_matches_direct_mean(self):
        rng = np.random.default_rng(12)
        xs = np.clip(np.round(rng.normal(640, 2.0, 500)), 0, 1279).astype(int)
        ys = np.clip(np.round(rng.normal(360, 2.0, 500)), 0, 719).astype(int)
        ts = np.sort(rng.integers(0, 1000, 500))
        stream = EventStream(0, 1280, 720, ts, xs, ys, np.ones(500, dtype=bool))
        (centroid,) = _one_window(stream).pixel
        # oracle: direct mean and covariance of the drawn sample
        np.testing.assert_allclose(centroid, [xs.mean(), ys.mean()], atol=1e-12)
        np.testing.assert_allclose(
            _one_window(stream).covariance[0], np.cov(xs, ys, bias=True), atol=1e-9
        )
        bound = 3.0 * 2.0 / np.sqrt(500)
        assert abs(centroid[0] - 640) < bound + 0.5
        assert abs(centroid[1] - 360) < bound + 0.5

    def test_empty_cluster(self):
        with pytest.raises(StreamTooShort):
            extract_center_sequence(_stream([], [], []), ExtractionConfig(n=1))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        xs = rng.integers(10, 50, 60)
        ys = rng.integers(10, 50, 60)
        ts = np.sort(rng.integers(0, 100, 60))
        base = _one_window(EventStream(0, 200, 200, ts, xs, ys, np.ones(60, dtype=bool)))
        moved = _one_window(
            EventStream(0, 200, 200, ts, xs + 7, ys + 13, np.ones(60, dtype=bool))
        )
        np.testing.assert_allclose(moved.pixel, base.pixel + [7, 13], atol=1e-12)
        np.testing.assert_allclose(moved.covariance, base.covariance, atol=1e-9)


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
        center = marker_tracks(intr, pose, np.array([[0.0, 0.0, 4500.0]]), 25.0)[0][0]
        assert np.linalg.norm(out.observations.pixel - center, axis=1).max() < 0.1

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
        center = marker_tracks(intr, pose, np.array([[0.0, 0.0, 4500.0]]), 25.0)[0][0]
        assert np.linalg.norm(out.observations.pixel - center, axis=1).max() < 0.3
        assert abs(out.noise_count - planted) <= 0.2 * planted

    def test_stream_too_short(self):
        res = simulate(static_scenario(duration_s=0.01))
        n = len(res.streams[0]) + 1
        with pytest.raises(StreamTooShort):
            extract_center_sequence(res.streams[0], ExtractionConfig(n=n))

    def test_time_of_cluster_inside_window(self):
        res = simulate(static_scenario(latency_jitter_std_us=20.0))
        n = burst_size(res) - 2
        out = extract_center_sequence(
            res.streams[0], ExtractionConfig(n=n, reset_gap_us=200.0)
        )
        c = out.observations
        assert np.all((c.t_min <= c.t_c) & (c.t_c <= c.t_max))

    def test_output_times_strictly_increasing(self):
        res = simulate(static_scenario())
        n = max(burst_size(res) // 3, 10)
        out = extract_center_sequence(res.streams[0], ExtractionConfig(n=n))
        assert np.all(np.diff(out.observations.t_c) > 0)

    def test_disk_covariance_nearly_isotropic(self):
        res = simulate(static_scenario())
        n = burst_size(res)
        out = extract_center_sequence(res.streams[0], ExtractionConfig(n=n))
        for cov in out.observations.covariance[:20]:
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
        assert tied.observations.t_c[:4].tolist() == [0.0, 0.001, 0.002, 0.003]
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
        with pytest.raises(ConfigError, match="exact sums"):
            extract_center_sequence(stream, ExtractionConfig(n=2**23))

    def test_non_psd_covariance_raises_like_the_cluster(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], np.zeros((2, 2))])
        assert extraction._non_psd(stack).tolist() == [1]


class TestExtractionDiagnostics:
    def test_spread_and_coverage(self):
        centers = Centers(
            0, np.array([0.0, 100.0, 200.0]), np.array([[10.0, 20.0], [110.0, 70.0], [60.0, 20.0]]),
            np.tile(np.eye(2), (3, 1, 1)), np.full(3, 10), np.array([0, 100, 200]),
            np.array([40, 110, 290]),
        )
        diag = extraction_diagnostics(ExtractionResult(centers, 0, 0, 10), (200, 100))
        assert diag == {
            "window_spread_us_median": 40.0,
            "window_spread_us_max": 90,
            "center_bbox_sensor_share": 100 * 50 / (200 * 100),
        }


class TestMatchCorresponding:
    def test_exact_coincidence(self):
        a = centers_table(0, [1000.0], [[10, 10]])
        b = centers_table(1, [1000.0], [[20, 20]])
        groups = match_corresponding([a, b], t_th=100.0)
        assert len(groups) == 1
        assert groups[0].match_time_spread == 0.0
        assert [o.camera_id for o in groups[0].observations] == [0, 1]
        np.testing.assert_array_equal(groups.pixels[:, 0], [[10, 10], [20, 20]])

    def test_beyond_threshold_not_matched(self):
        a = centers_table(0, [1000.0])
        b = centers_table(1, [1500.0])
        assert len(match_corresponding([a, b], t_th=100.0)) == 0

    def test_simulated_blink_schedule_triples(self):
        rng = np.random.default_rng(21)
        times = np.arange(200) * 4000.0
        seqs = [centers_table(cam, np.sort(times + rng.normal(0, 5.0, 200))) for cam in range(3)]
        groups = match_corresponding(seqs, t_th=1000.0)
        assert len(groups) == 200
        assert groups.visibility.all()
        assert np.abs(groups.mean_t - times).max() < 100

    def test_each_observation_used_once(self):
        a = centers_table(0, [0.0, 50.0])
        b = centers_table(1, [10.0])
        groups = match_corresponding([a, b], t_th=100.0)
        assert len(groups) == 1
        assert groups.index[:, 0].tolist() == [0, 0]  # earliest anchor wins

    def test_permuting_camera_order_gives_same_groups(self):
        rng = np.random.default_rng(5)
        seqs = [
            centers_table(cam, np.sort(4000.0 * np.arange(40) + rng.normal(0, 10, 40)))
            for cam in range(3)
        ]
        g1 = match_corresponding(seqs, t_th=800.0)
        g2 = match_corresponding([seqs[2], seqs[0], seqs[1]], t_th=800.0)
        assert g1.camera_ids == g2.camera_ids
        np.testing.assert_array_equal(g1.index, g2.index)
        np.testing.assert_array_equal(g1.mean_t, g2.mean_t)

    def test_groups_of_one_camera_discarded(self):
        a = centers_table(0, [0.0])
        b = centers_table(1, [5000.0])
        assert len(match_corresponding([a, b], t_th=100.0)) == 0

    def test_invalid_threshold(self):
        for t_th in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="t_th must be positive"):
                match_corresponding([], t_th=t_th)

    def test_spread_rechecked_after_rounding(self):
        """0.1 + 0.2 rounds up to 0.30000000000000004, so camera 2's center
        passes the window check but its spread from the anchor exceeds 0.2."""
        tables = [centers_table(0, [0.1]), centers_table(1, [0.2]),
                  centers_table(2, [0.1 + 0.2])]
        groups = match_corresponding(tables, t_th=0.2)
        assert groups.index.tolist() == [[0], [0], [-1]]
        assert_same_groups(groups, reference_match_corresponding(tables, 0.2), tables)

    def test_extracted_centers_match_like_the_reference(self):
        config = replace(preset_paper_rig(), duration_s=0.5)
        tables = [
            extract_center_sequence(s, calibration_profile(250.0)).observations
            for s in simulate(config).streams
        ]
        groups = match_corresponding(tables, t_th=1000.0)
        assert len(groups) > 200
        assert_same_groups(groups, reference_match_corresponding(tables, 1000.0), tables)


class TestObservationCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        k = 25
        centers = Centers(
            3, 4000.0 * np.arange(k), rng.uniform(0, 1000, (k, 2)),
            np.eye(2) * rng.uniform(0.5, 3.0, (k, 2))[:, None, :], np.full(k, 120),
            4000 * np.arange(k), 4000 * np.arange(k),
        )
        path = tmp_path / "observations_cam3.csv"
        write_observations(path, centers)
        assert path.read_text().splitlines()[0] == "camera_id,t_us,x,y,n,sxx,syy,sxy"
        loaded = read_observations(path)
        assert loaded.camera_id == 3
        for name in ("t_c", "pixel", "covariance", "count", "t_min", "t_max"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(centers, name))

    def test_integer_times_still_read(self, tmp_path):
        """Files written with t_us rounded to whole microseconds."""
        path = tmp_path / "observations_cam1.csv"
        path.write_text("camera_id,t_us,x,y,n,sxx,syy,sxy\n"
                        "1,4000,10.5,20.25,120,1.0,2.0,0.5\n1,8001,11.0,21.0,118,1.0,2.0,0.5\n")
        loaded = read_observations(path)
        assert loaded.t_c.dtype == np.float64 and loaded.t_c.tolist() == [4000.0, 8001.0]
        assert loaded.t_min.dtype == np.int64 and loaded.t_min.tolist() == [4000, 8001]
        np.testing.assert_array_equal(loaded.t_max, loaded.t_min)
        np.testing.assert_array_equal(loaded.pixel, [[10.5, 20.25], [11.0, 21.0]])

    def test_files_match_like_memory_for_integer_times(self, tmp_path):
        """extract, write, read, match: the groups matching in memory gives,
        for whole-microsecond times and for the extracted times as they are."""
        config = replace(preset_paper_rig(), duration_s=0.5)
        extracted = [
            extract_center_sequence(stream, calibration_profile(250.0)).observations
            for stream in simulate(config).streams
        ]
        assert any(np.any(c.t_c != np.rint(c.t_c)) for c in extracted)
        for tables in ([replace(c, t_c=np.rint(c.t_c)) for c in extracted], extracted):
            loaded = []
            for c in tables:
                write_observations(tmp_path / f"observations_cam{c.camera_id}.csv", c)
                loaded.append(read_observations(tmp_path / f"observations_cam{c.camera_id}.csv"))
                assert loaded[-1].t_c.tobytes() == c.t_c.tobytes()
                np.testing.assert_array_equal(loaded[-1].t_min, np.rint(c.t_c))
            want = match_corresponding(tables, t_th=1000.0)
            got = match_corresponding(loaded, t_th=1000.0)
            assert len(want) > 200
            for name in ("camera_ids", "index", "pixels", "t_c", "mean_t", "spread"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


class TestAccumulationCountSimulatorOracle:
    def test_count_matches_simulated_per_cycle_yield(self):
        """The measured burst size equals the simulated events per transition,
        and each profile's window is its fraction of it."""
        res = simulate(static_scenario(duration_s=1.0))
        stream = res.streams[0]
        per_burst = len(stream) / len(res.truth.transition_t_us)
        assert estimate_burst_size(stream) == per_burst
        for profile, fraction in ((calibration_profile, 0.9), (measurement_profile, 0.95)):
            assert extract_center_sequence(stream, profile(250.0)).n == round(fraction * per_burst)

    def test_window_clipped_to_bounds(self):
        stream = simulate(static_scenario(duration_s=0.2)).streams[0]
        tiny = ExtractionConfig(n_burst_fraction=1e-6)
        assert extract_center_sequence(stream, tiny).n == extraction.N_MIN
        t = np.repeat(np.arange(10) * 10_000, 3000)  # bursts of 3000 events
        bursts = _blob_stream(t, np.full((len(t), 2), 500.0), np.random.default_rng(3))
        full = ExtractionConfig(n_burst_fraction=1.0)
        assert extract_center_sequence(bursts, full).n == extraction.N_MAX


class TestExtractionConfigValidation:
    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"n": 0}, "n must be at least 1, got 0"),
            ({"n": -3}, "n must be at least 1, got -3"),
            ({"n": 10, "gate_radius": 0.0}, "gate_radius"),
            ({"n": 10, "gate_radius": float("nan")}, "gate_radius"),
            ({"n": 10, "reset_gap_us": float("inf")}, "reset_gap_us"),
            ({"n": 10, "reset_gap_us": -1.0}, "reset_gap_us"),
            ({"n_burst_fraction": 0.0}, "n_burst_fraction"),
            ({"n_burst_fraction": 1.5}, "n_burst_fraction"),
            ({"n_burst_fraction": float("nan")}, "n_burst_fraction"),
            ({}, "needs n or n_burst_fraction"),
        ],
    )
    def test_invalid_fields_raise(self, fields, named):
        with pytest.raises(ConfigError, match=named):
            ExtractionConfig(**fields)

    @pytest.mark.parametrize("blink_freq", [0.0, -250.0, float("nan"), float("inf")])
    def test_profiles_refuse_bad_blink_frequency(self, blink_freq):
        for profile in (calibration_profile, measurement_profile):
            with pytest.raises(ConfigError, match="blink frequency"):
                profile(blink_freq)
