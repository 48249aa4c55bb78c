"""Burst extraction, cluster statistics and temporal matching."""
import re
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
    calibration_profile,
    extract_center_sequence,
    extraction_diagnostics,
    measurement_profile,
    match_corresponding,
    read_observations,
    write_observations,
)
from evdeform.simulator import (
    ScenarioConfig,
    Sinusoid3DTrajectory,
    paper_rig_cameras,
    marker_tracks,
    preset_paper_rig,
    simulate,
)

from conftest import centers_table


def reference_extract_center_sequence(stream, config, min_burst=20):
    """Per-event loop of the burst rule: the reference for extract_center_sequence.

    An event joins the open run when it lies within gate_radius of the gate
    center: the median of the first min_burst events, then the centroid of
    the last burst. Any event, accepted or not, that comes more than
    reset_gap_us after the run's last accepted event closes the run first;
    so does the end of the stream. A closed run of min_burst or more events
    is a burst and moves the gate center to its centroid; a shorter one is a
    partial discard. Sums are Python integers, divided as floats.
    """
    ts, xs, ys = stream.t.tolist(), stream.x.tolist(), stream.y.tolist()
    total = len(ts)
    if total < min_burst:
        raise StreamTooShort(f"{total} events, a burst needs {min_burst}")
    center = [float(np.median(xs[:min_burst])), float(np.median(ys[:min_burst]))]
    gate2 = config.gate_radius * config.gate_radius
    rows, run = [], []
    noise = partial = 0

    def close():
        nonlocal partial
        k = len(run)
        if k < min_burst:
            partial += k
            return

        def mean(values):
            return float(sum(values)) / k

        mx, my = mean(x for _, x, _ in run), mean(y for _, _, y in run)
        t_c = ts[0] + mean(t - ts[0] for t, _, _ in run)
        rows.append((t_c, (mx, my), k, run[0][0], run[-1][0]))
        center[:] = mx, my

    for t, x, y in zip(ts, xs, ys):
        if run and t - run[-1][0] > config.reset_gap_us:
            close()
            run = []
        dx, dy = x - center[0], y - center[1]
        if dx * dx + dy * dy <= gate2:
            run.append((t, x, y))
        else:
            noise += 1
    close()
    if not rows:
        raise StreamTooShort(f"no run of {min_burst} events passed the spatial gate "
                             f"({total - noise} of {total} events did)")
    t_c, pixel, count, t_min, t_max = (np.array(v) for v in zip(*rows))
    centers = Centers(stream.camera_id, t_c, pixel, count, t_min, t_max)
    return ExtractionResult(centers, noise, partial)


def assert_same_extraction(got, want):
    """Bitwise equality of two extraction results, column by column."""
    assert (got.noise_count, got.partial_discards) == (want.noise_count, want.partial_discards)
    a, b = got.observations, want.observations
    assert a.camera_id == b.camera_id
    for name in ("t_c", "pixel", "count", "t_min", "t_max"):
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
    """The centers table of stream accumulated as a single burst."""
    config = ExtractionConfig(gate_radius=1e9, reset_gap_us=1e9)
    return extract_center_sequence(stream, config).observations


class TestAccumulateCluster:
    def test_single_event(self):
        """A burst of one event repeated: its pixel and time."""
        c = _one_window(_stream([5] * 20, [100] * 20, [200] * 20))
        np.testing.assert_array_equal(c.pixel, [[100.0, 200.0]])
        assert c.t_c.tolist() == [5.0]
        assert c.count.tolist() == [20]

    def test_symmetric_square(self):
        c = _one_window(_stream(np.repeat([10, 20, 30, 40], 5), np.repeat([0, 0, 2, 2], 5),
                                np.repeat([0, 2, 0, 2], 5)))
        np.testing.assert_allclose(c.pixel, [[1.0, 1.0]])
        assert c.t_c.tolist() == [25.0]
        assert (c.t_min.tolist(), c.t_max.tolist()) == ([10], [40])

    def test_gaussian_sample_matches_direct_mean(self):
        rng = np.random.default_rng(12)
        xs = np.clip(np.round(rng.normal(640, 2.0, 500)), 0, 1279).astype(int)
        ys = np.clip(np.round(rng.normal(360, 2.0, 500)), 0, 719).astype(int)
        ts = np.sort(rng.integers(0, 1000, 500))
        stream = EventStream(0, 1280, 720, ts, xs, ys, np.ones(500, dtype=bool))
        (centroid,) = _one_window(stream).pixel
        # oracle: direct mean of the drawn sample
        np.testing.assert_allclose(centroid, [xs.mean(), ys.mean()], atol=1e-12)
        bound = 3.0 * 2.0 / np.sqrt(500)
        assert abs(centroid[0] - 640) < bound + 0.5
        assert abs(centroid[1] - 360) < bound + 0.5

    def test_empty_cluster(self):
        with pytest.raises(StreamTooShort):
            extract_center_sequence(_stream([], [], []), calibration_profile(250.0))

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


def static_scenario(**overrides):
    defaults = dict(
        cameras=paper_rig_cameras()[:1],
        trajectory=Sinusoid3DTrajectory((0.0, 0.0, 4500.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
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
        out = extract_center_sequence(res.streams[0], calibration_profile(250.0))
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
        out = extract_center_sequence(noisy.streams[0], calibration_profile(250.0))
        intr, pose = paper_rig_cameras()[0]
        center = marker_tracks(intr, pose, np.array([[0.0, 0.0, 4500.0]]), 25.0)[0][0]
        assert np.linalg.norm(out.observations.pixel - center, axis=1).max() < 0.3
        assert abs(out.noise_count - planted) <= 0.2 * planted

    def test_stream_too_short(self):
        """Fewer events than one burst holds."""
        stream = simulate(static_scenario(duration_s=0.01)).streams[0]
        short = EventStream(0, 1280, 720, stream.t[:19], stream.x[:19], stream.y[:19],
                            stream.polarity[:19])
        with pytest.raises(StreamTooShort, match="19 events, a burst needs 20"):
            extract_center_sequence(short, calibration_profile(250.0))

    def test_time_of_cluster_inside_window(self):
        res = simulate(static_scenario(latency_jitter_std_us=20.0))
        c = extract_center_sequence(res.streams[0], calibration_profile(250.0)).observations
        assert len(c) == len(res.truth.transition_t_us)
        assert np.all((c.t_min <= c.t_c) & (c.t_c <= c.t_max))

    def test_output_times_strictly_increasing(self):
        res = simulate(static_scenario(latency_jitter_std_us=20.0))
        out = extract_center_sequence(res.streams[0], calibration_profile(250.0))
        assert np.all(np.diff(out.observations.t_c) > 0)


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
    """Bursts of 40 events sharing one timestamp, 7 us apart."""
    rng = np.random.default_rng(9)
    t = np.repeat(np.arange(50) * 7, 40)
    return _blob_stream(t, np.full((len(t), 2), 500.0), rng)


def _burst_train(centers, sizes=60, period_us=2000, seed=8, extra=()):
    """One burst per period around each of centers, sizes[k] events 1 us
    apart, plus extra (t, x, y) events; events off the sensor are dropped."""
    rng = np.random.default_rng(seed)
    sizes = np.broadcast_to(sizes, len(centers))
    t = np.concatenate([k * period_us + np.arange(size) for k, size in enumerate(sizes)])
    xy = np.repeat(np.asarray(centers, dtype=float), sizes, axis=0)
    xy = np.round(xy + rng.normal(0, 2, xy.shape)).astype(int)
    if len(extra):
        t = np.concatenate([t, np.asarray(extra)[:, 0]])
        xy = np.concatenate([xy, np.asarray(extra)[:, 1:]])
    seen = (xy[:, 0] >= 0) & (xy[:, 0] < 1280) & (xy[:, 1] >= 0) & (xy[:, 1] < 720)
    order = np.argsort(t[seen], kind="stable")
    t, xy = t[seen][order], xy[seen][order]
    return EventStream(0, 1280, 720, t, xy[:, 0], xy[:, 1], np.ones(len(t), dtype=bool))


def _jitter_split():
    """Bursts with late latency stragglers: 25 events 600 us late in burst
    10, which splits it, and 5 in burst 20, a run too short to count; in
    burst 25 the last 20 come a pause of exactly the 200 us gap late, which
    does not split it, and in burst 27 a pause of 201 us, which does."""
    stream = _burst_train(np.full((30, 2), 300.0))
    t = stream.t.copy()
    t[10 * 60 + 35:11 * 60] += 600
    t[20 * 60 + 55:21 * 60] += 600
    t[25 * 60 + 40:26 * 60] += 199
    t[27 * 60 + 40:28 * 60] += 200
    return replace(stream, t=t)


def _leaves_view():
    """A marker that walks 4 px per burst off the left sensor edge and back.

    Exactly the 200 us gap after burst 10 (at x = 80) comes an event at
    x = 52: in the gate around burst 10, not in the one around burst 9.
    """
    x = np.concatenate([120.0 - 4 * np.arange(60), -116.0 + 4 * np.arange(60)])
    return _burst_train(np.stack([x, np.full(120, 300.0)], axis=1),
                        extra=[(10 * 2000 + 59 + 200, 52, 300)])


def _noise_beside_burst():
    """Single events in the 30 px gate 150 us before burst 5 and after
    burst 15, 300 us before burst 10, and one out of the gate 100 us before
    burst 20; exactly the 200 us gap after burst 22, one event out of the
    gate and then one in it."""
    extra = [(5 * 2000 - 150, 320, 300), (15 * 2000 + 59 + 150, 280, 310),
             (10 * 2000 - 300, 310, 290), (20 * 2000 - 100, 400, 300),
             (22 * 2000 + 59 + 200, 400, 300), (22 * 2000 + 59 + 200, 300, 300)]
    return _burst_train(np.full((25, 2), 300.0), extra=extra)


def _short_run(size):
    """Ten bursts at x = 300, one run of size events at 320, ten bursts at 340."""
    x = np.repeat([300.0, 320.0, 340.0], [10, 1, 10])
    sizes = np.where(x == 320.0, size, 60)
    return _burst_train(np.stack([x, np.full(21, 300.0)], axis=1), sizes)


def _long_burst():
    """Bursts of 60 events 1 us apart, the second three block caps long,
    each period four block caps of microseconds, so the long burst ends
    before the next begins."""
    sizes = [60, 3 * extraction._BLOCK_CAP, 60, 60, 60]
    return _burst_train(np.full((5, 2), 300.0), sizes, period_us=4 * extraction._BLOCK_CAP)


def _fast_marker():
    """A marker moving 15 px, half the 30 px gate, per burst, with single
    events 30 px off the last burst 100 us after each burst and 30 px off
    the next one 100 us before it: each run's gate decides them by its own
    center, so a block gated on an older center is wrong after its first run."""
    x = 100.0 + 15.0 * np.arange(60)
    extra = [(k * 2000 + 159, round(x[k]) + d, 300) for k in range(60) for d in (-30, 30)]
    extra += [(k * 2000 - 100, round(x[k]) + d, 300) for k in range(1, 60) for d in (-30, 30)]
    return _burst_train(np.stack([x, np.full(60, 300.0)], axis=1), extra=extra)


WIDE = ExtractionConfig(gate_radius=30.0, reset_gap_us=200.0)

EQUALITY_CASES = {
    "polarity-both": (lambda: _moving_marker(), calibration_profile(250.0)),
    "harsh-light": (lambda: _moving_marker(0.3, noise_rate=1.0), calibration_profile(250.0)),
    "noise-only": (_noise_only, ExtractionConfig(gate_radius=100.0, reset_gap_us=5000.0)),
    "noise-only-wide-gate": (_noise_only, ExtractionConfig(gate_radius=300.0, reset_gap_us=1e9)),
    "jump-beyond-gate": (lambda: _marker_jump(80.0), WIDE),
    "jump-within-gate": (lambda: _marker_jump(20.0), WIDE),
    "tied-times": (_tied_times, ExtractionConfig(gate_radius=30.0, reset_gap_us=3.0)),
    "many-chunks": (lambda: _moving_marker(1.0), measurement_profile(250.0)),
    "jitter-split": (_jitter_split, WIDE),
    "leaves-view": (_leaves_view, WIDE),
    "noise-beside-burst": (_noise_beside_burst, WIDE),
    "short-run": (lambda: _short_run(19), WIDE),
    "burst-longer-than-block": (_long_burst, WIDE),
    "gap-between-integers": (_jitter_split, replace(WIDE, reset_gap_us=200.5)),
    "gap-beyond-stream": (_moving_marker, replace(WIDE, reset_gap_us=1e300)),
    "marker-outruns-block-gate": (_fast_marker, WIDE),
    "preset-sweep": (lambda: _moving_marker(2.0), calibration_profile(250.0)),
    "harsh-light-tight-gate": (lambda: _moving_marker(1.0, noise_rate=1.0),
                               measurement_profile(250.0)),
}


class TestMatchesReference:
    """The burst loop is bitwise the per-event reference loop."""

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
        assert tied.observations.t_c[:4].tolist() == [0.0, 7.0, 14.0, 21.0]
        assert set(tied.observations.count.tolist()) == {40}
        out = extract_center_sequence(_moving_marker(1.0), measurement_profile(250.0))
        assert len(out.observations) == 500  # one per transition
        assert out.partial_discards > 0 and out.noise_count > 0
        lost = extract_center_sequence(_marker_jump(80.0), WIDE)
        assert lost.noise_count >= 100 * 60  # every event after the jump
        long = extract_center_sequence(_long_burst(), WIDE)
        assert long.observations.count.tolist() == [60, 3 * extraction._BLOCK_CAP, 60, 60, 60]
        whole = extract_center_sequence(_moving_marker(), EQUALITY_CASES["gap-beyond-stream"][1])
        assert len(whole.observations) == 1

    def test_latency_jitter_splits_a_burst_at_the_gap(self):
        for gap in (200.0, 200.5):  # pauses of 200 and 201 us fall on either side of both
            out = extract_center_sequence(_jitter_split(), replace(WIDE, reset_gap_us=gap))
            assert out.observations.count.tolist() == (
                [60] * 10 + [35, 25] + [60] * 9 + [55] + [60] * 6 + [40, 20] + [60] * 2)
            assert (out.partial_discards, out.noise_count) == (5, 0)

    def test_marker_leaving_view_is_found_again(self):
        stream = _leaves_view()
        out = extract_center_sequence(stream, WIDE)
        per_burst = np.bincount(stream.t // 2000, minlength=120)
        assert len(out.observations) == np.sum(per_burst >= 20)
        assert out.partial_discards == np.sum(per_burst[per_burst < 20])
        assert out.observations.count[10] == 60  # the late event is noise
        back = out.observations.t_c > 60 * 2000
        assert back.any() and out.observations.pixel[back, 0].max() > 110

    def test_noise_in_the_gate_next_to_a_burst_joins_it(self):
        out = extract_center_sequence(_noise_beside_burst(), WIDE)
        counts = out.observations.count
        assert len(counts) == 25 and counts[[5, 15, 22]].tolist() == [61, 61, 61]
        assert (out.partial_discards, out.noise_count) == (1, 2)
        assert out.observations.t_min[5] == 5 * 2000 - 150

    def test_run_shorter_than_a_burst_leaves_the_gate(self):
        short = extract_center_sequence(_short_run(19), WIDE)
        assert len(short.observations) == 10
        assert (short.partial_discards, short.noise_count) == (19, 600)
        full = extract_center_sequence(_short_run(20), WIDE)
        assert len(full.observations) == 21 and full.partial_discards == 0

    def test_stream_too_short_message(self):
        config = ExtractionConfig(gate_radius=1.0, reset_gap_us=200.0)
        stream = _noise_only(200)
        with pytest.raises(StreamTooShort) as want:
            reference_extract_center_sequence(stream, config)
        with pytest.raises(StreamTooShort, match=re.escape(str(want.value))):
            extract_center_sequence(stream, config)

    def test_window_too_large_for_exact_sums(self):
        """20 times summed from the first over 2**59 us may pass 2**63."""
        stream = EventStream(0, 8, 8, [0] * 19 + [2**59], [0] * 20, [0] * 20, [True] * 20)
        with pytest.raises(ConfigError, match="exact sums"):
            extract_center_sequence(stream, calibration_profile(250.0))


class TestHarshLight:
    """The 1 s preset sweep at 10 and 50 times its background event rate.

    Bounds: 1.4 times the median errors first measured (0.084 and 0.173 px
    over the three cameras; simulator seeds 0-3 gave 0.082-0.086 and
    0.163-0.169 px); fixed-size windows read 1.2 px on both streams.
    """

    @pytest.mark.parametrize("noise_rate, bound_px", [(0.2, 0.12), (1.0, 0.25)])
    def test_one_center_per_transition_on_the_track(self, noise_rate, bound_px):
        sim = simulate(replace(preset_paper_rig(), duration_s=1.0, noise_rate=noise_rate))
        t_us = sim.truth.transition_t_us
        errors = []
        for stream, track in zip(sim.streams, sim.truth.tracks_px):  # marker_tracks per camera
            centers = extract_center_sequence(stream, calibration_profile(250.0)).observations
            assert len(centers) == len(t_us) == 500
            nearest = np.abs(centers.t_c[:, None] - t_us).argmin(axis=1)
            errors.append(np.linalg.norm(centers.pixel - track[nearest], axis=1))
        assert np.median(np.concatenate(errors)) < bound_px


class TestExtractionDiagnostics:
    def test_spread_and_coverage(self):
        centers = Centers(
            0, np.array([0.0, 100.0, 200.0]), np.array([[10.0, 20.0], [110.0, 70.0], [60.0, 20.0]]),
            np.full(3, 10), np.array([0, 100, 200]), np.array([40, 110, 290]),
        )
        diag = extraction_diagnostics(ExtractionResult(centers, 0, 0), (200, 100))
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


def reference_observations_csv(centers):
    """The observation CSV written row by row: the reference for
    write_observations."""
    rows = zip(centers.t_c.tolist(), centers.pixel.tolist(), centers.count.tolist())
    lines = ["camera_id,t_us,x,y,n"] + [
        f"{centers.camera_id},{t!r},{x!r},{y!r},{n}" for t, (x, y), n in rows
    ]
    return ("\n".join(lines) + "\n").encode()


class TestObservationCsv:
    @pytest.mark.parametrize("k", [0, 1, 25])
    def test_equals_row_loop(self, tmp_path, k):
        """Float times and pixels of every magnitude, including ones whose
        shortest repr is an exponent, -0.0 and integral floats."""
        rng = np.random.default_rng(k)
        special = [0.0, -0.0, 1e-300, 5e-324, 1e16, 123456789.125, 2.0**53 + 2, 0.1]
        values = np.where(rng.random((k, 3)) < 0.5, rng.choice(special, (k, 3)),
                          rng.uniform(-1e4, 1e4, (k, 3)))
        centers = Centers(np.int64(7), values[:, 0], values[:, 1:], rng.integers(1, 10**6, k),
                          np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64))
        path = tmp_path / "observations_cam7.csv"
        write_observations(path, centers)
        assert path.read_bytes() == reference_observations_csv(centers)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        k = 25
        centers = Centers(
            3, 4000.0 * np.arange(k), rng.uniform(0, 1000, (k, 2)), np.full(k, 120),
            4000 * np.arange(k), 4000 * np.arange(k),
        )
        path = tmp_path / "observations_cam3.csv"
        write_observations(path, centers)
        assert path.read_text().splitlines()[0] == "camera_id,t_us,x,y,n"
        loaded = read_observations(path)
        assert loaded.camera_id == 3
        for name in ("t_c", "pixel", "count", "t_min", "t_max"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(centers, name))

    def test_integer_times_still_read(self, tmp_path):
        """Files written with t_us rounded to whole microseconds."""
        path = tmp_path / "observations_cam1.csv"
        path.write_text("camera_id,t_us,x,y,n\n1,4000,10.5,20.25,120\n1,8001,11.0,21.0,118\n")
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
        """Every center of a static, noiseless marker holds all the events
        the simulator drew for its transition."""
        res = simulate(static_scenario(duration_s=1.0))
        per_burst = burst_size(res)
        assert per_burst * len(res.truth.transition_t_us) == len(res.streams[0])
        for profile in (calibration_profile, measurement_profile):
            out = extract_center_sequence(res.streams[0], profile(250.0))
            assert len(out.observations) == len(res.truth.transition_t_us)
            assert set(out.observations.count.tolist()) == {per_burst}


class TestExtractionConfigValidation:
    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"gate_radius": -1.0, "reset_gap_us": 200.0}, "gate_radius"),
            ({"gate_radius": float("inf"), "reset_gap_us": 200.0}, "gate_radius"),
            ({"gate_radius": 0.0, "reset_gap_us": 200.0}, "gate_radius"),
            ({"gate_radius": float("nan"), "reset_gap_us": 200.0}, "gate_radius"),
            ({"gate_radius": 30.0, "reset_gap_us": float("inf")}, "reset_gap_us"),
            ({"gate_radius": 30.0, "reset_gap_us": -1.0}, "reset_gap_us"),
            ({"gate_radius": 30.0, "reset_gap_us": 0.0}, "reset_gap_us"),
            ({"gate_radius": 30.0, "reset_gap_us": float("nan")}, "reset_gap_us"),
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
