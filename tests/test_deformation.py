"""Reference rebasing, linear intersection and deformation series."""
import dataclasses
import itertools
import json

import numpy as np
import pytest

from evdeform.deformation import (
    MeasureConfig,
    anchor_scale,
    load_rig,
    measure_deformation,
    rebase_extrinsics,
    save_rig,
    triangulate,
    write_series,
    write_summary,
)
from evdeform.errors import (
    EmptySeries,
    UnknownCamera,
    ZeroObservedDistance,
)
from evdeform.geometry import (
    CameraPose,
    project_points,
    rotation_from_axis_angle,
)
from evdeform.simulator import look_at_pose, paper_rig_cameras

from conftest import correspondences, correspondences_from_points


def make_rig(cameras=None):
    cameras = cameras if cameras is not None else paper_rig_cameras()
    intr = [i for i, _ in cameras]
    poses = [p for _, p in cameras]
    return rebase_extrinsics(poses, 0, intr)


class TestRebaseExtrinsics:
    def test_identity_world_poses(self, intrinsics_1800):
        poses = [CameraPose.identity() for _ in range(3)]
        rig = rebase_extrinsics(poses, 0, [intrinsics_1800] * 3)
        for pose in rig.poses:
            np.testing.assert_array_equal(pose.rotation, np.eye(3))
            np.testing.assert_array_equal(pose.translation, np.zeros(3))

    def test_direct_translation_substitution(self, intrinsics_1800):
        p1 = CameraPose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        p2 = CameraPose(np.eye(3), np.zeros(3))
        rig = rebase_extrinsics([p1, p2], 0, [intrinsics_1800] * 2)
        rel = rig.poses[1]
        np.testing.assert_allclose(rel.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(rel.translation, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_two_path_composition_oracle(self, intrinsics_1800):
        rng = np.random.default_rng(3)
        poses = [
            CameraPose(rotation_from_axis_angle(rng.normal(0, 0.5, 3)), rng.normal(0, 2, 3))
            for _ in range(3)
        ]
        rig = rebase_extrinsics(poses, 0, [intrinsics_1800] * 3)
        for _ in range(20):
            p = rng.normal(0, 5, 3)
            via_reference = rig.poses[2].transform(poses[0].transform(p))
            direct = poses[2].transform(p)
            np.testing.assert_allclose(via_reference, direct, atol=1e-12)

    def test_unknown_reference(self, intrinsics_1800):
        with pytest.raises(UnknownCamera):
            rebase_extrinsics([CameraPose.identity()], 5, [intrinsics_1800])

    def test_rebase_consistency_roundtrip(self, intrinsics_1800):
        rng = np.random.default_rng(8)
        poses = [
            CameraPose(rotation_from_axis_angle(rng.normal(0, 0.4, 3)), rng.normal(0, 3, 3))
            for _ in range(3)
        ]
        rig = rebase_extrinsics(poses, 1, [intrinsics_1800] * 3)
        ref = poses[1]
        for original, rel in zip(poses, rig.poses):
            recomposed_R = rel.rotation @ ref.rotation
            recomposed_t = rel.rotation @ ref.translation + rel.translation
            np.testing.assert_allclose(recomposed_R, original.rotation, atol=1e-12)
            np.testing.assert_allclose(recomposed_t, original.translation, atol=1e-12)


def _triangulate_groups(rig, groups):
    return triangulate(rig, groups.pixels, groups.visibility)


class TestTriangulate:
    def test_axis_point_noiseless(self, intrinsics_1800):
        p1 = CameraPose.identity()
        p2 = look_at_pose(np.array([800.0, 0.0, 0.0]), np.array([0.0, 0.0, 1000.0]))
        rig = rebase_extrinsics([p1, p2], 0, [intrinsics_1800] * 2)
        point = np.array([0.0, 0.0, 1000.0])
        pixels = [project_points(intrinsics_1800, pose, point[None])[0] for pose in (p1, p2)]
        pos, res, counts, ok = _triangulate_groups(rig, correspondences(pixels, [0.0]))
        np.testing.assert_allclose(pos[0], point, atol=1e-9)
        assert res[0] < 1e-9
        assert counts[0] == 2
        assert ok[0]

    def test_monte_carlo_error_ball(self, rig_cameras):
        """0.2 px noise at rig geometry keeps 3D errors in a small ball."""
        rig = make_rig(rig_cameras)
        rng = np.random.default_rng(14)
        point = np.array([50.0, -80.0, 5300.0])
        ref_pose = rig_cameras[0][1]
        truth_in_ref = ref_pose.transform(point.reshape(1, 3))[0]
        groups = correspondences_from_points(
            rig_cameras, np.tile(point, (200, 1)), noise_px=0.2, rng=rng
        )
        pos, _, _, ok = _triangulate_groups(rig, groups)
        assert ok.all()
        errors = np.linalg.norm(pos - truth_in_ref, axis=1)
        assert errors.mean() < 1.5  # mm at ~5 m depth with metre baselines
        assert errors.max() < 5.0

    def test_single_camera_rank_deficient(self, intrinsics_1800):
        rig = make_rig()
        seen = [[True], [False], [False]]
        group = correspondences(np.full((3, 1, 2), [640.0, 360.0]), [0.0], seen)
        pos, res, counts, ok = _triangulate_groups(rig, group)
        assert not ok[0]
        assert counts[0] == 1
        assert np.isnan(pos[0]).all() and res[0] == np.inf

    def test_near_parallel_rays_rejected(self, intrinsics_1800):
        # two cameras almost on top of each other
        p1 = CameraPose.identity()
        p2 = CameraPose(np.eye(3), np.array([1e-7, 0.0, 0.0]))
        rig = rebase_extrinsics([p1, p2], 0, [intrinsics_1800] * 2)
        point = np.array([100.0, 50.0, 5000.0])
        pixels = [project_points(intrinsics_1800, pose, point[None])[0] for pose in (p1, p2)]
        _, _, counts, ok = _triangulate_groups(rig, correspondences(pixels, [0.0]))
        assert counts[0] == 2
        assert not ok[0]

    def test_kept_samples_respect_reprojection(self, rig_cameras):
        rig = make_rig(rig_cameras)
        rng = np.random.default_rng(5)
        pts = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (30, 3)) * 400.0
        groups = correspondences_from_points(rig_cameras, pts, noise_px=0.15, rng=rng)
        series = measure_deformation(
            rig, _timestamped(groups), MeasureConfig(residual_threshold_px=1.0)
        )
        assert np.all(series.residuals_px <= 1.0)


def _group(cameras, ids, point):
    """Pixels (m, 2) and visibility (m,) of one point seen noiselessly by the
    given cameras; the pixel is the pinhole image even for a camera the point
    lies behind."""
    pixels = np.zeros((len(cameras), 2))
    for ci in ids:
        intr, pose = cameras[ci]
        cam = pose.transform(point)
        pixels[ci] = intr.pixel_from_normalized(cam[:2] / cam[2])
    return pixels, np.isin(np.arange(len(cameras)), ids)


def _mixed_batch(rig_cameras):
    """The canonical rig plus a camera 3 placed 1e-7 mm from camera 0.

    Six noiseless groups, three seen by cameras 0-2 and one by each pair of
    them, followed by three bad ones: a single camera, near-parallel rays
    (cameras 0 and 3) and a point behind camera 0. Returns the rig cameras,
    the groups and the six true points in camera 0's frame.
    """
    intr0, pose0 = rig_cameras[0]
    twin = CameraPose(pose0.rotation, pose0.translation + np.array([1e-7, 0.0, 0.0]))
    cameras = tuple(rig_cameras) + ((intr0, twin),)
    rng = np.random.default_rng(21)
    points = np.array([0.0, 0.0, 5200.0]) + rng.uniform(-1, 1, (6, 3)) * 400.0
    ids = [(0, 1, 2)] * 3 + list(itertools.combinations(range(3), 2))
    behind = pose0.center - 1000.0 * pose0.rotation[2]
    bad = [((1,), points[0]), ((0, 3), points[1]), ((0, 1, 2), behind)]
    columns = [_group(cameras, c, p) for c, p in zip(ids, points)]
    columns += [_group(cameras, c, p) for c, p in bad]
    pixels, visibility = (np.stack(a, axis=1) for a in zip(*columns))
    groups = correspondences(pixels, 4000.0 * np.arange(len(columns)), visibility)
    return cameras, groups, pose0.transform(points)


class TestMixedVisibilityBatch:
    def test_columns_match_alone_truth_and_masks(self, rig_cameras):
        cameras, groups, truth = _mixed_batch(rig_cameras)
        rig = make_rig(cameras)
        pixels, vis = groups.pixels, groups.visibility
        batch = triangulate(rig, pixels, vis)
        for j in range(len(groups)):
            alone = triangulate(rig, pixels[:, j : j + 1], vis[:, j : j + 1])
            for whole, one in zip(batch, alone):
                assert whole[j : j + 1].tobytes() == one.tobytes(), j
        positions, residuals, counts, ok = batch
        np.testing.assert_allclose(positions[:6], truth, rtol=0, atol=1e-9)
        assert np.all(residuals[:6] < 1e-9)
        np.testing.assert_array_equal(counts, [3, 3, 3, 2, 2, 2, 1, 2, 3])
        np.testing.assert_array_equal(ok, [True] * 6 + [False] * 3)
        assert np.isnan(positions[6:]).all() and np.all(residuals[6:] == np.inf)

    def test_measure_drops_exactly_the_bad_samples(self, rig_cameras):
        cameras, groups, truth = _mixed_batch(rig_cameras)
        rig = make_rig(cameras)
        series = measure_deformation(rig, groups)
        assert series.dropped == 3
        np.testing.assert_array_equal(series.t_us, groups.mean_t[:6])
        np.testing.assert_allclose(series.positions, truth, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(series.camera_counts, [3, 3, 3, 2, 2, 2])


def _timestamped(groups):
    """The groups at strictly increasing times 4 ms apart."""
    return correspondences(groups.pixels, 4000.0 * np.arange(len(groups)), groups.visibility)


class TestMeasureDeformation:
    def test_static_marker_zero_amplitude(self, rig_cameras):
        rig = make_rig(rig_cameras)
        point = np.array([[0.0, 0.0, 5200.0]] * 100)
        groups = _timestamped(correspondences_from_points(rig_cameras, point))
        series = measure_deformation(rig, groups)
        assert len(series) == 100
        assert series.max_amplitude < 1e-9

    def test_residual_filter_drops_bad_samples(self, rig_cameras):
        rig = make_rig(rig_cameras)
        pts = np.array([[0.0, 0.0, 5200.0]] * 20)
        groups = _timestamped(correspondences_from_points(rig_cameras, pts))
        # corrupt one observation far beyond the threshold
        pixels = groups.pixels.copy()
        pixels[1, 7] += 40.0
        groups = correspondences(pixels, groups.mean_t)
        series = measure_deformation(rig, groups, MeasureConfig(residual_threshold_px=1.0))
        assert len(series) == 19
        assert series.dropped == 1

    def test_empty_series(self, rig_cameras):
        rig = make_rig(rig_cameras)
        pts = np.array([[0.0, 0.0, 5200.0]] * 5)
        groups = _timestamped(correspondences_from_points(rig_cameras, pts))
        with pytest.raises(EmptySeries):
            measure_deformation(rig, groups, MeasureConfig(residual_threshold_px=-1.0))

    def test_baseline_is_the_first_50_samples(self, rig_cameras):
        rig = make_rig(rig_cameras)
        rest = np.array([0.0, 0.0, 5200.0])
        step = np.array([12.0, -5.0, 9.0])
        pts = np.array([rest] * 50 + [rest + step] * 10)
        groups = _timestamped(correspondences_from_points(rig_cameras, pts))
        series = measure_deformation(rig, groups)
        assert len(series) == 60
        np.testing.assert_allclose(series.displacements[:50], 0.0, rtol=0, atol=1e-9)
        # displacements are in the reference camera's frame
        moved = rig_cameras[0][1].rotation @ step
        np.testing.assert_allclose(series.displacements[50:], [moved] * 10, rtol=0, atol=1e-9)
        assert series.max_amplitude == pytest.approx(np.linalg.norm(step), rel=0, abs=1e-9)

    def test_summary_axes(self, rig_cameras):
        rig = make_rig(rig_cameras)
        pts = np.stack(
            [np.array([0.0, 0.0, 5200.0]) + [10.0 * np.sin(k / 5), 0, 0] for k in range(60)]
        )
        groups = _timestamped(correspondences_from_points(rig_cameras, pts))
        series = measure_deformation(rig, groups)
        s = series.summary()
        assert set(s["axes"]) == {"X", "Y", "Z"}
        assert s["samples"] == 60
        assert s["max_amplitude"] > 0


class TestAnchorScale:
    def test_ratio(self):
        rig = make_rig()
        out = anchor_scale(rig, 1000.0, (np.zeros(3), np.array([0.5, 0.0, 0.0])))
        assert out.metric_scale == pytest.approx(2000.0)

    def test_anchor_fixed_point(self, rig_cameras):
        rig = make_rig(rig_cameras)
        a, b = np.array([0.0, 0.0, 5000.0]), np.array([100.0, 0.0, 5000.0])
        out = anchor_scale(rig, 250.0, (a, b))
        # re-measuring the anchor pair at the new scale returns the anchor
        scaled_a = a / rig.scale * out.scale
        scaled_b = b / rig.scale * out.scale
        assert np.linalg.norm(scaled_a - scaled_b) == pytest.approx(250.0)

    @pytest.mark.parametrize("distance", [0.0, -5.0, float("nan"), float("inf")])
    def test_known_distance_must_be_finite_positive(self, distance):
        with pytest.raises(ValueError, match="finite and positive"):
            anchor_scale(make_rig(), distance, (np.zeros(3), np.ones(3)))

    def test_zero_distance(self):
        rig = make_rig()
        with pytest.raises(ZeroObservedDistance):
            anchor_scale(rig, 100.0, (np.zeros(3), np.zeros(3)))

    def test_scale_equivariance(self, rig_cameras):
        rig = make_rig(rig_cameras)
        pts = np.array([[0.0, 0.0, 5200.0], [40.0, 10.0, 5100.0]] * 15)
        groups = _timestamped(correspondences_from_points(rig_cameras, pts))
        base = measure_deformation(rig, groups)
        rig2 = dataclasses.replace(rig, metric_scale=3.0)
        scaled = measure_deformation(rig2, groups)
        np.testing.assert_allclose(scaled.positions, base.positions * 3.0, rtol=1e-12)
        assert scaled.max_amplitude == pytest.approx(base.max_amplitude * 3.0, rel=1e-12)


class TestReferenceInvariance:
    def test_distances_invariant_under_reference_change(self, rig_cameras):
        intr = [i for i, _ in rig_cameras]
        poses = [p for _, p in rig_cameras]
        rng = np.random.default_rng(4)
        markers = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (5, 3)) * 400.0
        all_dists = []
        for reference in range(3):
            rig = rebase_extrinsics(poses, reference, intr)
            positions, _, _, ok = _triangulate_groups(
                rig, correspondences_from_points(rig_cameras, markers)
            )
            assert ok.all()
            d = [
                np.linalg.norm(positions[i] - positions[j])
                for i in range(5)
                for j in range(i + 1, 5)
            ]
            all_dists.append(d)
        all_dists = np.array(all_dists)
        spread = (all_dists.max(axis=0) - all_dists.min(axis=0)) / all_dists.mean(axis=0)
        assert spread.max() < 1e-9


class TestSeriesFiles:
    def test_series_csv_and_summary(self, tmp_path, rig_cameras):
        rig = dataclasses.replace(make_rig(rig_cameras), metric_scale=2.0)
        pts = np.array([[0.0, 0.0, 5200.0]] * 10)
        groups = _timestamped(correspondences_from_points(rig_cameras, pts))
        series = measure_deformation(rig, groups)
        write_series(tmp_path / "series.csv", series)
        write_summary(tmp_path / "summary.json", series)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "t_us,X,Y,Z,residual_px,cameras"
        assert len(lines) == 11
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["samples"] == 10
        assert summary["metric_units"] is True

    def test_rig_document_round_trip(self, tmp_path, rig_cameras):
        rig = make_rig(rig_cameras)
        save_rig(tmp_path / "calibration.json", rig)
        loaded = load_rig(tmp_path / "calibration.json")
        assert loaded.reference_camera == rig.reference_camera
        assert loaded.camera_ids == rig.camera_ids
        for a, b in zip(rig.poses, loaded.poses):
            np.testing.assert_array_equal(a.rotation, b.rotation)
            np.testing.assert_array_equal(a.translation, b.translation)
