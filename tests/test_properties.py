"""Property-based invariants over randomized inputs."""
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evdeform.events import CSV_HEADER, EventStream, read_stream, write_stream
from evdeform import extraction
from evdeform.errors import StreamTooShort
from evdeform.extraction import (
    ExtractionConfig,
    choose_accumulation_count,
    extract_center_sequence,
    match_corresponding,
)
from evdeform.geometry import (
    CameraIntrinsics,
    distort_normalized,
    rotation_from_axis_angle,
    undistort_pixels,
)
from conftest import centers_table, correspondences
from test_extraction import (
    assert_same_extraction,
    assert_same_groups,
    reference_extract_center_sequence,
    reference_match_corresponding,
)

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
    config = ExtractionConfig(n=int(n), gate_radius=1e9)  # one window of every event
    base = extract_center_sequence(EventStream(0, 128, 128, t, x, y, pol), config).observations
    moved = extract_center_sequence(
        EventStream(0, 128, 128, t, x + dx, y + dy, pol), config
    ).observations
    np.testing.assert_allclose(moved.pixel, base.pixel + [dx, dy], atol=1e-9)
    np.testing.assert_allclose(moved.covariance, base.covariance, atol=1e-9)
    assert moved.t_c.tobytes() == base.t_c.tobytes()


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


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    t_th=st.sampled_from([1.0, 50.0, 900.0, 5000.0]),
    jitter=st.sampled_from([0.0, 10.0, 700.0]),
    whole_us=st.booleans(),
)
def test_matching_symmetric_under_camera_permutation(seed, t_th, jitter, whole_us):
    """Equal to the object-based reference matcher, whatever the order of
    the tables. Zero gaps between blinks and whole-microsecond times give
    ties within and across cameras; a wide jitter or threshold makes groups
    reach over neighbouring blinks."""
    rng = np.random.default_rng(seed)
    n_cams = int(rng.integers(2, 5))
    camera_ids = rng.choice(10, n_cams, replace=False)
    base_times = np.cumsum(rng.choice([0, 300, 2000, 6000], 25)).astype(float)
    tables = []
    for cam in camera_ids:
        keep = rng.random(len(base_times)) < 0.9
        t = base_times[keep] + rng.normal(0, jitter, keep.sum())
        t = np.sort(np.round(t) if whole_us else t)
        tables.append(centers_table(int(cam), t, rng.uniform(0, 1000, (len(t), 2))))
    forward = match_corresponding(tables, t_th=t_th)
    assert_same_groups(forward, reference_match_corresponding(tables, t_th), tables)
    shuffled = match_corresponding([tables[i] for i in rng.permutation(n_cams)], t_th=t_th)
    for name in ("camera_ids", "index", "pixels", "t_c", "mean_t", "spread"):
        a, b = getattr(forward, name), getattr(shuffled, name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    alpha=st.floats(0.1, 50.0, **finite),
)
def test_metric_scale_equivariance(seed, alpha):
    import dataclasses

    from evdeform.deformation import measure_deformation, rebase_extrinsics, MeasureConfig
    from evdeform.geometry import project_pinhole
    from evdeform.simulator import paper_rig_cameras

    rng = np.random.default_rng(seed)
    cams = paper_rig_cameras()
    rig = rebase_extrinsics([p for _, p in cams], 0, [i for i, _ in cams])
    pts = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (6, 3)) * 300.0
    pixels = np.stack([project_pinhole(intr, pose, pts) for intr, pose in cams])
    groups = correspondences(pixels, 4000.0 * np.arange(len(pts)))
    base = measure_deformation(rig, groups, MeasureConfig(baseline_window=2))
    scaled_rig = dataclasses.replace(rig, metric_scale=alpha)
    scaled = measure_deformation(scaled_rig, groups, MeasureConfig(baseline_window=2))
    np.testing.assert_allclose(scaled.positions, base.positions * alpha, rtol=1e-12)
