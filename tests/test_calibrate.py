"""Self-calibration on synthetic correspondences."""
import json

import numpy as np
import pytest

from evdeform.calibration import pipeline
from evdeform.calibration.pipeline import (
    CalibrationConfig,
    calibrate,
    write_iteration_log,
)
from evdeform.deformation import rebase_extrinsics
from evdeform.errors import InsufficientCorrespondences
from evdeform.geometry import (
    distort_normalized,
    fundamental_from_calibrated,
    project_pinhole,
    relative_pose,
    rotation_angle,
)
from evdeform.simulator import look_at_pose
from conftest import correspondences, correspondences_from_points

TABLE_CAM1 = (-0.05359, 0.33899, -0.00157, -0.00479)


def sample_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (n, 3)) * np.array(
        [500.0, 700.0, 300.0]
    )


class TestCalibrate:
    def test_too_few_correspondences(self, rig_cameras):
        groups = correspondences_from_points(rig_cameras, sample_points(10))
        with pytest.raises(InsufficientCorrespondences):
            calibrate(groups, CalibrationConfig())

    def test_noiseless_recovery(self, rig_cameras):
        groups = correspondences_from_points(rig_cameras, sample_points(60))
        result = calibrate(groups, CalibrationConfig(seed=2))
        assert result.converged
        assert max(result.mean_reprojection.values()) < 1e-4
        for intr in result.intrinsics:
            assert abs(intr.fx - 1800.0) / 1800.0 < 0.005
            assert abs(intr.fy - 1800.0) / 1800.0 < 0.005

    def test_noiseless_four_cameras(self, rig_cameras):
        """The factorization reaches cameras 1, 2 and 3 over three (0, i) pairs."""
        fourth = look_at_pose([1500.0, -1800.0, 200.0], [0.0, 50.0, 5200.0])
        cams = [*rig_cameras, (rig_cameras[0][0], fourth)]
        groups = correspondences_from_points(cams, sample_points(60))
        result = calibrate(groups, CalibrationConfig(seed=2))
        assert result.converged
        assert max(result.mean_reprojection.values()) < 1e-4
        for intr in result.intrinsics:
            assert abs(intr.fx - 1800.0) / 1800.0 < 0.005
            assert abs(intr.fy - 1800.0) / 1800.0 < 0.005
        for (_, pose), found in zip(cams[1:], result.poses[1:]):
            truth = relative_pose(cams[0][1], pose)
            assert rotation_angle(truth.rotation @ found.rotation.T) < 1e-6

    def test_noisy_run_converges_under_target(self, rig_cameras):
        rng = np.random.default_rng(1)
        groups = correspondences_from_points(
            rig_cameras, sample_points(250), noise_px=0.2, rng=rng
        )
        result = calibrate(groups, CalibrationConfig(seed=2))
        assert result.converged
        assert all(v < 0.3 for v in result.mean_reprojection.values())
        assert all(v < 0.25 for v in result.std_reprojection.values())

    def test_focal_lands_in_reported_band(self, rig_cameras):
        rng = np.random.default_rng(4)
        groups = correspondences_from_points(
            rig_cameras, sample_points(300), noise_px=0.2, rng=rng
        )
        result = calibrate(groups, CalibrationConfig(seed=2))
        for intr in result.intrinsics:
            assert 1750.0 <= intr.fx <= 1850.0
            assert 1750.0 <= intr.fy <= 1850.0

    def test_reference_camera_is_identity(self, rig_cameras):
        """The lowest camera id is the reference; rebase_extrinsics moves the
        rig onto another camera, which then sits at the identity."""
        groups = correspondences_from_points(rig_cameras, sample_points(40))
        result = calibrate(groups, CalibrationConfig(seed=2))
        assert result.reference_camera == 0
        np.testing.assert_array_equal(result.poses[0].rotation, np.eye(3))
        np.testing.assert_array_equal(result.poses[0].translation, np.zeros(3))
        rig = rebase_extrinsics(result.poses, 1, result.intrinsics, result.camera_ids)
        assert rig.reference_camera == 1
        pose1, pose0 = rig.poses[rig.index(1)], rig.poses[rig.index(0)]
        np.testing.assert_array_equal(pose1.rotation, np.eye(3))
        np.testing.assert_array_equal(pose1.translation, np.zeros(3))
        # camera 0 sits where camera 1 sees it
        np.testing.assert_allclose(
            pose0.rotation, result.poses[1].rotation.T, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            pose0.translation, -result.poses[1].rotation.T @ result.poses[1].translation,
            rtol=0, atol=1e-9,
        )

    def test_deterministic_reruns(self, rig_cameras):
        rng = np.random.default_rng(6)
        pts = sample_points(80)
        groups = correspondences_from_points(rig_cameras, pts, noise_px=0.2, rng=rng)
        r1 = calibrate(groups, CalibrationConfig(seed=9))
        r2 = calibrate(groups, CalibrationConfig(seed=9))
        for a, b in zip(r1.intrinsics, r2.intrinsics):
            assert a.fx == b.fx and a.fy == b.fy
        for a, b in zip(r1.poses, r2.poses):
            np.testing.assert_array_equal(a.rotation, b.rotation)
            np.testing.assert_array_equal(a.translation, b.translation)

    def test_distorted_observations_recovered(self, rig_cameras):
        """Distortion is refined jointly with focal lengths, poses and points."""
        intr_true = [i.with_distortion(*TABLE_CAM1) for i, _ in rig_cameras]
        poses = [p for _, p in rig_cameras]
        rng = np.random.default_rng(8)
        # full-sensor coverage so the distortion fit engages
        pts = []
        ideal = rig_cameras[0][0]
        while len(pts) < 300:
            u, v = rng.uniform(40, 1240), rng.uniform(40, 680)
            depth = rng.uniform(4800, 5600)
            xn = ideal.normalized_from_pixel(np.array([u, v]))
            p = poses[1].inverse_transform(np.array([xn[0], xn[1], 1.0]) * depth)
            cams_see = []
            try:
                for intr, pose in rig_cameras:
                    px = project_pinhole(intr, pose, p.reshape(1, 3))[0]
                    cams_see.append(
                        0 <= px[0] < intr.width and 0 <= px[1] < intr.height
                    )
            except Exception:
                continue
            if all(cams_see):
                pts.append(p)
        pts = np.array(pts)
        pixels = np.zeros((len(poses), len(pts), 2))
        for j, p in enumerate(pts):
            for ci, (intr_t, pose) in enumerate(zip(intr_true, poses)):
                cam = pose.transform(p.reshape(1, 3))[0]
                xy = cam[:2] / cam[2]
                pixels[ci, j] = intr_t.pixel_from_normalized(
                    distort_normalized(intr_t, xy)
                )
        groups = correspondences(pixels, 1000.0 * np.arange(len(pts)))
        result = calibrate(groups, CalibrationConfig(seed=3))
        assert result.converged
        assert max(result.mean_reprojection.values()) < 1e-6
        # full-sensor coverage frees every camera's distortion in the bundle
        # adjustment, which then recovers focal lengths and coefficients
        assert not any("distortion_skipped" in a for a in result.iterations[0].actions)
        for intr in result.intrinsics:
            assert abs(intr.fx - 1800.0) / 1800.0 < 1e-6
            assert abs(intr.fy - 1800.0) / 1800.0 < 1e-6
            np.testing.assert_allclose(intr.distortion, TABLE_CAM1, rtol=0, atol=1e-6)

    def test_rejected_column_is_solved_without(self, rig_cameras, monkeypatch):
        """An outlier RANSAC lets through is rejected after the bundle
        adjustment, which then runs once more on the kept columns."""
        groups = correspondences_from_points(rig_cameras, sample_points(100))
        pixels = groups.pixels.copy()
        pixels[1, 17] += 6.0
        groups = correspondences(pixels, groups.mean_t)
        # a wide RANSAC threshold keeps the outlier in the first solve
        monkeypatch.setattr(pipeline, "RANSAC_THRESHOLD", 50.0)
        result = calibrate(groups, CalibrationConfig(seed=2))
        actions = result.iterations[0].actions
        assert "rejected=1" in actions
        assert sum(a.startswith("ba_steps=") for a in actions) == 2
        assert 17 not in result.inlier_indices
        assert len(result.inlier_indices) == 99
        assert result.converged
        # noiseless once the outlier is out: the re-solve reaches the exact fit
        assert max(result.mean_reprojection.values()) < 1e-6

    def test_epipolar_consistency_of_result(self, rig_cameras):
        """F built from the solved calibration fits the inlier correspondences."""
        rng = np.random.default_rng(11)
        groups = correspondences_from_points(
            rig_cameras, sample_points(150), noise_px=0.1, rng=rng
        )
        result = calibrate(groups, CalibrationConfig(seed=1))
        i, j = 0, 1
        pair = fundamental_from_calibrated(
            result.intrinsics[i],
            result.intrinsics[j],
            relative_pose(result.poses[i], result.poses[j]),
        )
        x1, x2 = result.inliers.pixels[:2]
        h1 = np.hstack([x1, np.ones((len(x1), 1))])
        h2 = np.hstack([x2, np.ones((len(x2), 1))])
        lines = h1 @ pair.fundamental.T
        d = np.abs(np.sum(lines * h2, axis=1)) / np.hypot(lines[:, 0], lines[:, 1])
        assert np.percentile(d, 95) < 1.0

    def test_iteration_log_round_trip(self, tmp_path, rig_cameras):
        groups = correspondences_from_points(rig_cameras, sample_points(40))
        result = calibrate(groups, CalibrationConfig(seed=2))
        path = tmp_path / "iterations.log"
        write_iteration_log(path, result.iterations)
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.iterations)
        first = json.loads(lines[0])
        assert first["iteration"] == 1
        assert set(first["mean_reprojection_px"]) == {"0", "1", "2"}
        assert first["inlier_count"] > 0


class TestDegenerateTrajectory:
    def test_planar_sweep_warns(self, rig_cameras):
        import warnings as warnmod

        from evdeform.errors import DegenerateTrajectoryWarning, EvdeformError

        rng = np.random.default_rng(3)
        pts = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (60, 3)) * np.array(
            [500.0, 700.0, 0.0]
        )
        groups = correspondences_from_points(rig_cameras, pts)
        with warnmod.catch_warnings(record=True) as caught:
            warnmod.simplefilter("always")
            try:
                calibrate(groups, CalibrationConfig(seed=1))
            except EvdeformError:
                pass  # a planar scene may legitimately fail downstream
        assert any(issubclass(w.category, DegenerateTrajectoryWarning) for w in caught)


class TestPartialVisibility:
    def test_two_camera_points_survive_and_refine(self, rig_cameras):
        """Points seen by two of three cameras still enter the refinement."""
        rng = np.random.default_rng(15)
        pts = sample_points(90, seed=15)
        groups = correspondences_from_points(rig_cameras, pts, noise_px=0.1, rng=rng)
        # strip one camera from every third correspondence
        visibility = groups.visibility.copy()
        visibility[2, ::3] = False
        mixed = correspondences(groups.pixels, groups.mean_t, visibility)
        result = calibrate(mixed, CalibrationConfig(seed=4))
        assert result.converged
        assert len(result.inliers) > 80  # partial-visibility points retained
        assert any(len(g.observations) == 2 for g in result.inliers)
        assert max(result.mean_reprojection.values()) < 0.3
