"""Self-calibration on synthetic correspondences."""
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from evdeform import geometry
from evdeform.calibration import pipeline
from evdeform.calibration.pipeline import (
    CalibrationConfig,
    calibrate,
    write_iteration_log,
)
from evdeform.deformation import rebase_extrinsics
from evdeform.extraction import Correspondences
from evdeform.errors import (
    CheiralityFailure,
    DegenerateTrajectoryWarning,
    EvdeformError,
    InsufficientCorrespondences,
    NoModel,
    SingularConfiguration,
)
from evdeform.geometry import (
    CameraPose,
    distort_normalized,
    fundamental_from_calibrated,
    project_points,
    relative_pose,
    rotation_angle,
    rotation_from_axis_angle,
    skew,
)
from evdeform.simulator import look_at_pose, preset_paper_rig, truth_correspondences
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

    def test_too_few_fully_visible_points(self, rig_cameras, monkeypatch):
        """The essential matrices pose the cameras from eight or more points
        every camera sees."""
        groups = correspondences_from_points(rig_cameras, sample_points(5))
        monkeypatch.setattr(pipeline, "MIN_FULL_VISIBILITY", 0)
        with pytest.raises(InsufficientCorrespondences, match="only 5 fully visible"):
            calibrate(groups, CalibrationConfig())

    def test_pair_without_ransac_model_raises(self, rig_cameras, monkeypatch):
        """Camera i is posed only from RANSAC's (0, i) fundamental matrix, so
        a pair without one stops the calibration."""
        ransac = pipeline.estimate_fundamental_ransac

        def no_model_for_pair_0_2(x1, x2, **kwargs):
            if kwargs["seed"] == 2:  # config.seed + 1000 * a + b for (a, b) = (0, 2)
                raise NoModel("no non-degenerate seven-point sample produced a model")
            return ransac(x1, x2, **kwargs)

        monkeypatch.setattr(pipeline, "estimate_fundamental_ransac", no_model_for_pair_0_2)
        groups = correspondences_from_points(rig_cameras, sample_points(60))
        with pytest.raises(SingularConfiguration, match=r"no fundamental .* pair \(0, 2\)"):
            calibrate(groups, CalibrationConfig())

    def test_noiseless_recovery(self, rig_cameras):
        groups = correspondences_from_points(rig_cameras, sample_points(60))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateTrajectoryWarning)
            result = calibrate(groups, CalibrationConfig(seed=2))
        assert result.converged
        assert max(result.mean_reprojection.values()) < 1e-4
        for intr in result.intrinsics:
            assert abs(intr.fx - 1800.0) / 1800.0 < 0.005
            assert abs(intr.fy - 1800.0) / 1800.0 < 0.005
        essential = [a for a in result.iterations[0].actions if a.startswith("essential")]
        assert essential == ["essential_0_1=1.0000", "essential_0_2=1.0000"]

    def test_noiseless_four_cameras(self, rig_cameras):
        """Cameras 1, 2 and 3 are posed from their (0, i) essential matrices
        and put on camera 1's scale by camera 0's depths."""
        fourth = look_at_pose([1500.0, -1800.0, 200.0], [0.0, 50.0, 5200.0])
        cams = [*rig_cameras, (rig_cameras[0][0], fourth)]
        groups = correspondences_from_points(cams, sample_points(60))
        result = calibrate(groups, CalibrationConfig(seed=2))
        assert result.converged
        assert max(result.mean_reprojection.values()) < 1e-4
        for intr in result.intrinsics:
            assert abs(intr.fx - 1800.0) / 1800.0 < 0.005
            assert abs(intr.fy - 1800.0) / 1800.0 < 0.005
        unit = np.linalg.norm(relative_pose(cams[0][1], cams[1][1]).translation)
        for (_, pose), found in zip(cams[1:], result.poses[1:]):
            truth = relative_pose(cams[0][1], pose)
            assert rotation_angle(truth.rotation @ found.rotation.T) < 1e-6
            np.testing.assert_allclose(found.translation, truth.translation / unit, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2)], ids=["cameras_0_1", "cameras_1_2"])
    def test_noiseless_two_cameras(self, rig_cameras, pair):
        """Two cameras alone: the seed is the exact rig, so the bundle
        adjustment keeps the true focal lengths."""
        cams = [rig_cameras[i] for i in pair]
        result = calibrate(correspondences_from_points(cams, sample_points(200)))
        assert result.converged
        for intr in result.intrinsics:
            assert abs(intr.fx - 1800.0) / 1800.0 < 1e-6
            assert abs(intr.fy - 1800.0) / 1800.0 < 1e-6
        truth = relative_pose(cams[0][1], cams[1][1])
        assert rotation_angle(truth.rotation @ result.poses[1].rotation.T) < 1e-6

    def test_seed_focal_far_from_essential_raises(self, rig_cameras, monkeypatch):
        """At half the true focal, K'FK has sigma2/sigma1 = 0.86, under 0.9."""
        monkeypatch.setattr(pipeline, "solve_kruppa_focal", lambda pair, principal: 900.0)
        groups = correspondences_from_points(rig_cameras, sample_points(60))
        with pytest.raises(SingularConfiguration, match=r"pair \(0, 1\) is not essential"):
            calibrate(groups, CalibrationConfig())

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

    def test_kruppa_seed_with_cameras_aimed_at_one_point(self):
        """Every camera of the preset rig re-aimed at (0, 0, 5200) mm: the
        optical axes of each pair meet, and the Kruppa seed is still the
        rig's 1800 px rather than the fallback."""
        config = preset_paper_rig()
        target = np.array([0.0, 0.0, 5200.0])
        config = replace(config, cameras=tuple(
            (intr, look_at_pose(pose.center, target)) for intr, pose in config.cameras
        ))
        result = calibrate(truth_correspondences(config, 400, 0.0, 0), CalibrationConfig())
        seeds = [a for a in result.iterations[0].actions if a.startswith("kruppa")]
        assert len(seeds) == 1 and seeds[0].startswith("kruppa_f=")
        assert abs(float(seeds[0].split("=")[1]) - 1800.0) / 1800.0 < 1e-6

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
        k1, k2, p1, p2 = TABLE_CAM1
        intr_true = [replace(i, k1=k1, k2=k2, p1=p1, p2=p2) for i, _ in rig_cameras]
        poses = [p for _, p in rig_cameras]
        rng = np.random.default_rng(8)
        # full-sensor coverage so the distortion fit engages
        pts = []
        ideal = rig_cameras[0][0]
        while len(pts) < 300:
            u, v = rng.uniform(40, 1240), rng.uniform(40, 680)
            depth = rng.uniform(4800, 5600)
            xn = ideal.normalized_from_pixel(np.array([u, v]))
            p = (np.array([xn[0], xn[1], 1.0]) * depth - poses[1].translation) @ poses[1].rotation
            cams_see = []
            try:
                for intr, pose in rig_cameras:
                    px = project_points(intr, pose, p)[0]
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
        monkeypatch.setattr(geometry, "RANSAC_THRESHOLD", 50.0)
        result = calibrate(groups, CalibrationConfig(seed=2))
        actions = result.iterations[0].actions
        assert "rejected=1" in actions
        assert sum(a.startswith("ba_steps=") for a in actions) == 2
        assert 17 not in result.inlier_indices
        assert len(result.inlier_indices) == 99
        assert result.converged
        # noiseless once the outlier is out: the re-solve reaches the exact fit
        assert max(result.mean_reprojection.values()) < 1e-6

    def test_two_camera_column_off_its_epipolar_line_is_rejected(
        self, rig_cameras, monkeypatch
    ):
        """A group only cameras 0 and 1 see, moved across its epipolar line
        in camera 1: RANSAC lets it through, and its reprojection error
        after the bundle adjustment rejects it."""
        groups = correspondences_from_points(rig_cameras, sample_points(100))
        pixels = groups.pixels.copy()
        visibility = np.ones((3, 100), dtype=bool)
        visibility[2, 17] = False
        (intr0, pose0), (intr1, pose1), _ = rig_cameras
        F = fundamental_from_calibrated(intr0, intr1, relative_pose(pose0, pose1)).fundamental
        line = F @ np.append(pixels[0, 17], 1.0)
        pixels[1, 17] += 6.0 * line[:2] / np.hypot(line[0], line[1])
        groups = correspondences(pixels, groups.mean_t, visibility)
        monkeypatch.setattr(geometry, "RANSAC_THRESHOLD", 50.0)
        result = calibrate(groups, CalibrationConfig(seed=2))
        actions = result.iterations[0].actions
        assert not any(a.startswith("ransac_consensus_dropped") for a in actions)
        assert "rejected=1" in actions
        assert sum(a.startswith("ba_steps=") for a in actions) == 2
        assert 17 not in result.inlier_indices
        assert len(result.inlier_indices) == 99
        assert result.converged
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

    def test_iteration_log_keyed_by_camera_id(self, tmp_path, rig_cameras):
        groups = correspondences_from_points(rig_cameras, sample_points(40))
        groups = Correspondences.from_members((3, 5, 7), groups.index, groups.pixels, groups.t_c)
        result = calibrate(groups, CalibrationConfig(seed=2))
        path = tmp_path / "iterations.log"
        write_iteration_log(path, result.iterations)
        logged = json.loads(path.read_text())
        for name in ("mean_reprojection", "std_reprojection"):
            by_camera = getattr(result, name)
            assert set(by_camera) == {3, 5, 7}
            assert getattr(result.iterations[0], name) == by_camera
            assert logged[f"{name}_px"] == {str(k): v for k, v in by_camera.items()}


def four_placements():
    """The four poses, one per (+-R, +-t) factor of one essential matrix:
    a convergent camera, its center mirrored through camera 0's, and both
    turned half a revolution about the baseline."""
    base = look_at_pose(np.array([1000.0, 0.0, 0.0]), np.array([0.0, 0.0, 5000.0]))
    R, t = base.rotation, base.translation
    turn = rotation_from_axis_angle(np.pi * t / np.linalg.norm(t))
    return [CameraPose(R, t), CameraPose(R, -t), CameraPose(turn @ R, t), CameraPose(turn @ R, -t)]


def rays_in_front(pose, n, seed=0):
    """Normalized rays in camera 0 (the identity) and in pose of n points in
    front of both, with their camera-0 depths."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5000.0, 5000.0, (200 * n, 3))
    Xi = pose.transform(X)
    front = np.flatnonzero((X[:, 2] > 0) & (Xi[:, 2] > 0))[:n]
    assert len(front) == n
    X, Xi = X[front], Xi[front]
    return X / X[:, 2:], Xi / Xi[:, 2:], X[:, 2]


class TestEssentialPose:
    @pytest.mark.parametrize("k", range(4))
    def test_each_decomposition_picked_where_correct(self, k):
        """All four placements share E up to sign; each gets its own (R, t)."""
        pose = four_placements()[k]
        rays0, rays, depth = rays_in_front(pose, 50)
        E = skew(pose.translation) @ pose.rotation
        found, depths = pipeline.essential_pose(E, rays0, rays)
        unit = np.linalg.norm(pose.translation)
        np.testing.assert_allclose(found.rotation, pose.rotation, rtol=0, atol=1e-9)
        np.testing.assert_allclose(found.translation, pose.translation / unit, rtol=0, atol=1e-9)
        np.testing.assert_allclose(depths, depth / unit, rtol=1e-9)

    def test_no_majority_in_front_raises(self):
        """Half the points fit one placement and half another, so no factor
        puts a majority in front of both cameras."""
        first, mirrored = four_placements()[:2]
        a0, a, _ = rays_in_front(first, 30)
        b0, b, _ = rays_in_front(mirrored, 30, seed=1)
        E = skew(first.translation) @ first.rotation
        with pytest.raises(CheiralityFailure):
            pipeline.essential_pose(E, np.vstack([a0, b0]), np.vstack([a, b]))


def planar_points(n, z_spread, seed):
    rng = np.random.default_rng(seed)
    pts = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (n, 3)) * np.array(
        [500.0, 700.0, z_spread]
    )
    return pts, rng


class TestDegenerateTrajectory:
    @pytest.mark.parametrize(
        "noise_px, n, z_spread, seed",
        [(0.0, 60, 0.0, seed) for seed in range(8)]
        + [(0.2, 200, z, seed) for z in (0.0, 1.0) for seed in range(6)],
    )
    def test_planar_sweep_warns(self, rig_cameras, noise_px, n, z_spread, seed):
        """A flat sweep, or one 1 mm deep under 0.2 px noise, pins no
        essential matrix: it warns and gives no rig."""
        pts, rng = planar_points(n, z_spread, seed)
        groups = correspondences_from_points(rig_cameras, pts, noise_px=noise_px, rng=rng)
        with pytest.warns(DegenerateTrajectoryWarning), pytest.raises(EvdeformError):
            calibrate(groups, CalibrationConfig(seed=1))

    @pytest.mark.parametrize("seed", range(8))
    def test_noiseless_millimetre_deep_sweep_warns_and_calibrates(self, rig_cameras, seed):
        """Without noise, 1 mm of depth still fixes the rig exactly; the
        sweep is near-planar all the same."""
        pts, _ = planar_points(60, 1.0, seed)
        groups = correspondences_from_points(rig_cameras, pts)
        with pytest.warns(DegenerateTrajectoryWarning):
            result = calibrate(groups, CalibrationConfig(seed=1))
        for intr in result.intrinsics:
            assert abs(intr.fx - 1800.0) / 1800.0 < 1e-6


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
