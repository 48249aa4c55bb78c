"""Property-based invariants over randomized inputs."""
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evdeform.events import (
    CSV_HEADER,
    EventStream,
    concat_streams,
    read_stream,
    slice_by_time,
    write_stream,
)
from evdeform import extraction
from evdeform.errors import StreamTooShort
from evdeform.extraction import (
    ExtractionConfig,
    accumulate_cluster,
    choose_accumulation_count,
    extract_center_sequence,
)
from evdeform.geometry import (
    CameraIntrinsics,
    distort_normalized,
    rotation_from_axis_angle,
    undistort_pixels,
)
from test_extraction import assert_same_extraction, reference_extract_center_sequence

finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    k1=st.floats(-1.0, 1.0, **finite),
    k2=st.floats(-1.0, 1.0, **finite),
    p1=st.floats(-0.01, 0.01, **finite),
    p2=st.floats(-0.01, 0.01, **finite),
)
def test_undistort_inverts_distort_over_sensor_grid(k1, k2, p1, p2):
    intr = CameraIntrinsics(1800.0, 1800.0, 639.5, 359.5, k1, k2, p1, p2)
    gx, gy = np.meshgrid(np.linspace(0, 1279, 9), np.linspace(0, 719, 5))
    ideal = np.stack([gx.ravel(), gy.ravel()], axis=1)
    distorted = intr.pixel_from_normalized(
        distort_normalized(intr, intr.normalized_from_pixel(ideal))
    )
    recovered = undistort_pixels(intr, distorted)
    roundtrip = intr.pixel_from_normalized(
        distort_normalized(intr, intr.normalized_from_pixel(recovered))
    )
    assert np.abs(roundtrip - distorted).max() < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 400),
    cuts=st.lists(st.integers(0, 10_000), min_size=1, max_size=5),
)
def test_slice_partition_reconstructs_stream(seed, n, cuts):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, 10_000, n))
    stream = EventStream(
        0, 64, 64, t, rng.integers(0, 64, n), rng.integers(0, 64, n), rng.random(n) < 0.5
    )
    lo, hi = int(t[0]), int(t[-1]) + 1
    edges = sorted({lo, hi, *[min(max(c, lo), hi) for c in cuts]})
    parts = [slice_by_time(stream, a, b) for a, b in zip(edges, edges[1:])]
    merged = concat_streams(parts) if parts else stream
    np.testing.assert_array_equal(merged.t, stream.t)
    np.testing.assert_array_equal(merged.x, stream.x)
    np.testing.assert_array_equal(merged.y, stream.y)
    np.testing.assert_array_equal(merged.polarity, stream.polarity)


SENSOR = 2**31 - 1  # EventStream holds pixel coordinates as int32
PIXEL = st.one_of(st.integers(0, 2000), st.integers(0, SENSOR - 1))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.integers(0, 2000), st.integers(0, 10**18 - 1)),
            PIXEL,
            PIXEL,
            st.booleans(),
        ),
        max_size=60,
    ).map(sorted)
)
def test_csv_write_read_round_trip(rows):
    columns = [np.array([r[k] for r in rows], dtype=np.int64) for k in range(3)]
    polarity = np.array([r[3] for r in rows], dtype=bool)
    stream = EventStream(0, SENSOR, SENSOR, *columns, polarity)
    reference = CSV_HEADER + "\n" + "".join(f"{t},{x},{y},{int(p)}\n" for t, x, y, p in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        write_stream(stream, path, "csv")
        assert path.read_bytes() == reference.encode()
        loaded, warnings = read_stream(path, "csv", sensor=(SENSOR, SENSOR))
    assert warnings == 0
    for got, want in zip((loaded.t, loaded.x, loaded.y, loaded.polarity), (*columns, polarity)):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    events=st.integers(1, 400),
    width=st.sampled_from([8, 40, 1280]),
    noise=st.sampled_from([0.0, 0.1, 0.5]),
    n=st.integers(1, 30),
    gate=st.sampled_from([0.5, 2.0, 5.0, 30.0]),
    gap=st.sampled_from([None, 0.5, 3.0, 50.0]),
    polarity=st.sampled_from(["on", "off", "both"]),
    chunk=st.sampled_from([1, 3, 16, 4096]),
    rounds=st.integers(1, 4),
)
def test_extraction_equals_reference_loop(
    seed, events, width, noise, n, gate, gap, polarity, chunk, rounds
):
    """Marker bursts that jump every 30 events, with noise and tied timestamps.

    Small chunks and few rounds drive the solver through chunk boundaries
    and settled-prefix commits, which full-size chunks rarely reach.
    """
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.choice([0, 1, 5, 100, 1000], events, p=[0.3, 0.3, 0.2, 0.15, 0.05]))
    spots = rng.integers(0, width, (events // 30 + 1, 2))[np.arange(events) // 30]
    x = np.clip(spots[:, 0] + rng.integers(-3, 4, events), 0, width - 1)
    y = np.clip(spots[:, 1] % 8 + rng.integers(-3, 4, events), 0, 7)
    lost = rng.random(events) < noise
    x[lost] = rng.integers(0, width, lost.sum())
    stream = EventStream(0, width, 8, t, x, y, rng.random(events) < 0.5)
    config = ExtractionConfig(n=n, gate_radius=gate, reset_gap_us=gap, polarity=polarity)
    with mock.patch.multiple(extraction, _CHUNK_EVENTS=chunk, _CHUNK_ROUNDS=rounds):
        try:
            want = reference_extract_center_sequence(stream, config)
        except StreamTooShort as exc:
            with pytest.raises(StreamTooShort, match=re.escape(str(exc))):
                extract_center_sequence(stream, config)
            return
        assert_same_extraction(extract_center_sequence(stream, config), want)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dx=st.integers(-20, 20),
    dy=st.integers(-20, 20),
)
def test_centroid_translation_equivariance(seed, dx, dy):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 50)
    x = rng.integers(30, 70, n)
    y = rng.integers(30, 70, n)
    t = np.sort(rng.integers(0, 1000, n))
    pol = np.ones(n, dtype=bool)
    base = accumulate_cluster(EventStream(0, 128, 128, t, x, y, pol))
    moved = accumulate_cluster(EventStream(0, 128, 128, t, x + dx, y + dy, pol))
    np.testing.assert_allclose(moved.centroid, base.centroid + [dx, dy], atol=1e-9)
    np.testing.assert_allclose(moved.covariance, base.covariance, atol=1e-9)
    assert moved.t_c == base.t_c


@settings(max_examples=60, deadline=None)
@given(
    blink=st.floats(1.0, 5000.0, **finite),
    rate=st.floats(100.0, 1e6, **finite),
    speed=st.floats(0.0, 1e4, **finite),
    duty=st.floats(0.05, 1.0, **finite),
)
def test_accumulation_count_monotone_in_speed(blink, rate, speed, duty):
    n1 = choose_accumulation_count(blink, speed, rate, duty_window=duty)
    n2 = choose_accumulation_count(blink, 2.0 * speed + 1.0, rate, duty_window=duty)
    assert n2 <= n1
    assert n1 >= 1


@settings(max_examples=60, deadline=None)
@given(w=st.lists(st.floats(-3.0, 3.0, **finite), min_size=3, max_size=3))
def test_axis_angle_rotations_are_orthonormal(w):
    R = rotation_from_axis_angle(np.array(w))
    assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_matching_symmetric_under_camera_permutation(seed):
    from evdeform.extraction import match_corresponding
    from conftest import synthetic_observation

    rng = np.random.default_rng(seed)
    n_cams = int(rng.integers(2, 4))
    sequences = []
    base_times = np.cumsum(rng.integers(2000, 6000, 25)).astype(float)
    for cam in range(n_cams):
        keep = rng.random(len(base_times)) < 0.9
        obs = [
            synthetic_observation(cam, [float(cam), 1.0], float(t + rng.normal(0, 10)))
            for t in base_times[keep]
        ]
        obs.sort(key=lambda o: o.t_c)
        sequences.append(obs)
    forward = match_corresponding(sequences, t_th=900.0)
    perm = rng.permutation(n_cams)
    shuffled = match_corresponding([sequences[i] for i in perm], t_th=900.0)
    assert len(forward) == len(shuffled)
    for a, b in zip(forward, shuffled):
        assert a.camera_ids == b.camera_ids
        assert a.mean_t == b.mean_t


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    alpha=st.floats(0.1, 50.0, **finite),
)
def test_metric_scale_equivariance(seed, alpha):
    import dataclasses

    from conftest import synthetic_observation
    from evdeform.deformation import measure_deformation, rebase_extrinsics, MeasureConfig
    from evdeform.extraction import CorrespondingPoint
    from evdeform.geometry import project_pinhole
    from evdeform.simulator import paper_rig_cameras

    rng = np.random.default_rng(seed)
    cams = paper_rig_cameras()
    rig = rebase_extrinsics([p for _, p in cams], 0, [i for i, _ in cams])
    pts = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (6, 3)) * 300.0
    groups = []
    for j, p in enumerate(pts):
        obs = tuple(
            synthetic_observation(
                ci, project_pinhole(intr, pose, p.reshape(1, 3))[0], 4000.0 * j
            )
            for ci, (intr, pose) in enumerate(cams)
        )
        groups.append(CorrespondingPoint(obs, 0.0))
    base = measure_deformation(rig, groups, MeasureConfig(baseline_window=2))
    scaled_rig = dataclasses.replace(rig, metric_scale=alpha)
    scaled = measure_deformation(scaled_rig, groups, MeasureConfig(baseline_window=2))
    np.testing.assert_allclose(scaled.positions, base.positions * alpha, rtol=1e-12)
