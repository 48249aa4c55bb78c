"""Projection, distortion, fundamental matrices and RANSAC estimation."""
import numpy as np
import pytest

from evdeform.errors import (
    DegenerateBaseline,
    InsufficientPoints,
    NoConvergence,
    NoModel,
    ParseError,
)
from evdeform.geometry import (
    RANSAC_THRESHOLD,
    CameraIntrinsics,
    CameraPose,
    _fundamental_design,
    distort_normalized,
    eight_point,
    estimate_fundamental_ransac,
    fundamental_from_calibrated,
    hartley_normalization,
    load_calibration_document,
    project_points,
    relative_pose,
    rotation_from_axis_angle,
    save_calibration_document,
    skew,
    symmetric_epipolar_distance,
    triangulate_linear,
    undistort_pixels,
)
from evdeform.verify import TABLE_DISTORTION
TABLE_CAM1 = (-0.05359, 0.33899, -0.00157, -0.00479)


class TestProject:
    def test_optical_axis_point_hits_principal_point(self):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, width=2, height=2)
        px = project_points(intr, CameraPose.identity(), np.array([0.0, 0.0, 1.0]))[0]
        np.testing.assert_allclose(px, [0.0, 0.0], atol=1e-15)

    def test_offset_point(self):
        intr = CameraIntrinsics(1800.0, 1800.0, 639.5, 359.5)
        px = project_points(intr, CameraPose.identity(), np.array([0.1, 0.0, 1.0]))[0]
        np.testing.assert_allclose(px, [819.5, 359.5], atol=1e-12)

    def test_matches_homogeneous_chain_oracle(self):
        rng = np.random.default_rng(42)
        intr = CameraIntrinsics(1700.0, 1650.0, 600.0, 380.0, 0.02, -0.01, 0.001, -0.002)
        for _ in range(20):
            R = rotation_from_axis_angle(rng.normal(0, 0.4, 3))
            t = rng.normal(0, 2.0, 3)
            pose = CameraPose(R, t)
            in_camera = np.array([rng.uniform(-1, 1), rng.uniform(-0.6, 0.6), rng.uniform(2, 8)])
            point = (in_camera - t) @ R
            # oracle: explicit homogeneous chain computed step by step
            Xc = R @ point + t
            xn = Xc[:2] / Xc[2]
            r2 = xn @ xn
            k1, k2, p1, p2 = intr.k1, intr.k2, intr.p1, intr.p2
            radial = 1 + k1 * r2 + k2 * r2 * r2
            xd = np.array(
                [
                    xn[0] * radial + 2 * p1 * xn[0] * xn[1] + p2 * (r2 + 2 * xn[0] ** 2),
                    xn[1] * radial + p1 * (r2 + 2 * xn[1] ** 2) + 2 * p2 * xn[0] * xn[1],
                ]
            )
            expected = np.array([intr.fx * xd[0] + intr.cx, intr.fy * xd[1] + intr.cy])
            px, depth = project_points(intr, pose, point)
            np.testing.assert_allclose(px, expected, atol=1e-12)
            assert depth == Xc[2]

    def test_point_behind_camera(self):
        intr = CameraIntrinsics(1800.0, 1800.0, 639.5, 359.5)
        _, depth = project_points(intr, CameraPose.identity(), np.array([0.0, 0.0, -1.0]))
        assert depth == -1.0


class TestUndistort:
    def test_identity_without_coefficients(self):
        intr = CameraIntrinsics(1800.0, 1800.0, 639.5, 359.5)
        px = np.array([123.0, 456.0])
        np.testing.assert_array_equal(undistort_pixels(intr, px), px)

    def test_reported_coefficients_round_trip(self):
        intr = CameraIntrinsics(1778.5077, 1772.3397, 639.5, 359.5, *TABLE_CAM1)
        distorted = np.array([100.0, 100.0])
        ideal = undistort_pixels(intr, distorted)
        xy = intr.normalized_from_pixel(ideal)
        roundtrip = intr.pixel_from_normalized(distort_normalized(intr, xy))
        assert np.abs(roundtrip - distorted).max() < 1e-8

    def test_distortion_vanishes_at_principal_point(self):
        intr = CameraIntrinsics(1800.0, 1800.0, 639.5, 359.5, k1=0.1)
        np.testing.assert_allclose(
            undistort_pixels(intr, np.array([639.5, 359.5])), [639.5, 359.5], atol=1e-12
        )

    def test_grid_round_trip(self):
        intr = CameraIntrinsics(1800.0, 1800.0, 639.5, 359.5, *TABLE_CAM1)
        gx, gy = np.meshgrid(np.linspace(0, 1279, 16), np.linspace(0, 719, 9))
        pixels = np.stack([gx.ravel(), gy.ravel()], axis=1)
        ideal = undistort_pixels(intr, pixels)
        xy = intr.normalized_from_pixel(ideal)
        roundtrip = intr.pixel_from_normalized(distort_normalized(intr, xy))
        assert np.abs(roundtrip - pixels).max() < 1e-8
        # a NaN residual has not converged
        pixels[7] = np.nan
        with pytest.raises(NoConvergence):
            undistort_pixels(intr, pixels)


    def test_batch_equals_each_pixel_alone(self):
        intr = CameraIntrinsics(1778.5077, 1772.3397, 639.5, 359.5, *TABLE_DISTORTION)
        pixels = np.random.default_rng(0).uniform([0, 0], [1280, 720], (500, 2))
        alone = np.stack([undistort_pixels(intr, p[None])[0] for p in pixels])
        assert undistort_pixels(intr, pixels).tobytes() == alone.tobytes()


class TestFundamentalFromCalibrated:
    def test_pure_translation_gives_skew_form(self):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, width=2, height=2)
        rel = CameraPose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        pair = fundamental_from_calibrated(intr, intr, rel)
        expected = skew([1.0, 0.0, 0.0])
        expected = expected / np.linalg.norm(expected)
        assert (
            np.abs(pair.fundamental - expected).max() < 1e-12
            or np.abs(pair.fundamental + expected).max() < 1e-12
        )

    def test_epipolar_constraint_on_projected_points(self, small_rig):
        intr, (p1, p2) = small_rig
        rng = np.random.default_rng(0)
        pts = np.array([0, 0, 5000.0]) + rng.uniform(-1, 1, (50, 3)) * 700.0
        x1 = project_points(intr, p1, pts)[0]
        x2 = project_points(intr, p2, pts)[0]
        pair = fundamental_from_calibrated(intr, intr, relative_pose(p1, p2))
        h1 = np.hstack([x1, np.ones((50, 1))])
        h2 = np.hstack([x2, np.ones((50, 1))])
        residual = np.abs(np.sum(h2 * (h1 @ pair.fundamental.T), axis=1))
        assert residual.max() < 1e-10

    def test_swapping_cameras_transposes(self, small_rig):
        intr, (p1, p2) = small_rig
        f12 = fundamental_from_calibrated(intr, intr, relative_pose(p1, p2))
        f21 = fundamental_from_calibrated(intr, intr, relative_pose(p2, p1))
        a = f12.fundamental / np.linalg.norm(f12.fundamental)
        b = f21.fundamental.T / np.linalg.norm(f21.fundamental)
        assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-12

    def test_zero_baseline_rejected(self, intrinsics_1800):
        rel = CameraPose(rotation_from_axis_angle([0.1, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(DegenerateBaseline):
            fundamental_from_calibrated(intrinsics_1800, intrinsics_1800, rel)

    def test_rank_two_and_epipole_nulls(self, small_rig):
        intr, (p1, p2) = small_rig
        pair = fundamental_from_calibrated(intr, intr, relative_pose(p1, p2))
        s = np.linalg.svd(pair.fundamental, compute_uv=False)
        assert s[2] < 1e-9 * s[0]
        assert np.abs(pair.fundamental @ pair.epipole_left).max() < 1e-9
        assert np.abs(pair.epipole_right @ pair.fundamental).max() < 1e-9


class TestRansac:
    def _correspondences(self, small_rig, n, seed=0, noise=0.0):
        intr, (p1, p2) = small_rig
        rng = np.random.default_rng(seed)
        pts = np.array([0, 0, 5000.0]) + rng.uniform(-1, 1, (n, 3)) * 700.0
        x1 = project_points(intr, p1, pts)[0]
        x2 = project_points(intr, p2, pts)[0]
        if noise:
            x1 = x1 + rng.normal(0, noise, x1.shape)
            x2 = x2 + rng.normal(0, noise, x2.shape)
        return x1, x2

    def test_exact_correspondences_all_inliers(self, small_rig):
        x1, x2 = self._correspondences(small_rig, 100)
        pair, mask = estimate_fundamental_ransac(x1, x2, seed=1)
        assert mask.all()
        assert symmetric_epipolar_distance(pair.fundamental, x1, x2).max() < 1e-8

    def test_planted_outliers_rejected(self, small_rig):
        x1, x2 = self._correspondences(small_rig, 100)
        rng = np.random.default_rng(7)
        outliers = rng.choice(100, size=20, replace=False)
        x2 = x2.copy()
        x2[outliers] += rng.uniform(20, 80, (20, 2)) * rng.choice([-1, 1], (20, 2))
        pair, mask = estimate_fundamental_ransac(x1, x2, seed=2)
        assert mask.sum() >= 80
        assert not mask[outliers].any()

    def test_seven_points_exact(self, small_rig):
        x1, x2 = self._correspondences(small_rig, 7)
        try:
            pair, mask = estimate_fundamental_ransac(x1, x2, seed=0)
        except NoModel:
            return  # degenerate sample is an allowed outcome
        d = symmetric_epipolar_distance(pair.fundamental, x1, x2)
        assert mask.all()
        assert d.max() < 1e-6

    def test_too_few_points(self):
        with pytest.raises(InsufficientPoints):
            estimate_fundamental_ransac(np.zeros((5, 2)), np.zeros((5, 2)))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            estimate_fundamental_ransac(np.zeros((9, 2)), np.zeros((8, 2)))

    def test_inlier_mask_matches_threshold_contract(self, small_rig):
        x1, x2 = self._correspondences(small_rig, 120, noise=0.4)
        pair, mask = estimate_fundamental_ransac(x1, x2, seed=3)
        d = symmetric_epipolar_distance(pair.fundamental, x1, x2)
        np.testing.assert_array_equal(mask, d <= RANSAC_THRESHOLD)

    def test_estimated_fundamental_is_rank_two(self, small_rig):
        x1, x2 = self._correspondences(small_rig, 60, noise=0.3)
        pair, _ = estimate_fundamental_ransac(x1, x2, seed=4)
        F = pair.fundamental / np.linalg.norm(pair.fundamental)
        assert abs(np.linalg.det(F)) < 1e-9

    def test_deterministic_for_fixed_seed(self, small_rig):
        x1, x2 = self._correspondences(small_rig, 80, noise=0.5)
        p1, m1 = estimate_fundamental_ransac(x1, x2, seed=11)
        p2, m2 = estimate_fundamental_ransac(x1, x2, seed=11)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(p1.fundamental, p2.fundamental)


class TestEightPoint:
    @pytest.mark.parametrize("n", [8, 9, 50, 1000])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_thin_svd_gives_the_full_svd_result(self, small_rig, n, weighted):
        intr, (p1, p2) = small_rig
        rng = np.random.default_rng(n)
        pts = np.array([0, 0, 5000.0]) + rng.uniform(-800, 800, (n, 3))
        x1 = project_points(intr, p1, pts)[0] + rng.normal(0, 0.3, (n, 2))
        x2 = project_points(intr, p2, pts)[0] + rng.normal(0, 0.3, (n, 2))
        _, h1 = hartley_normalization(x1)
        _, h2 = hartley_normalization(x2)
        w = rng.uniform(0.5, 2.0, n) if weighted else np.ones(n)

        A = _fundamental_design(h1, h2)
        if weighted:
            A = A * w[:, None]
        _, _, Vt = np.linalg.svd(A)  # full factors: Vt is always 9 x 9
        U, s, Vt = np.linalg.svd(Vt[-1].reshape(3, 3))
        reference = U @ np.diag([s[0], s[1], 0.0]) @ Vt

        np.testing.assert_array_equal(eight_point(h1, h2, w), reference)


class TestCalibrationDocument:
    def test_round_trip_lossless(self, tmp_path, rig_cameras):
        path = tmp_path / "calibration.json"
        cameras = [
            (i, CameraIntrinsics(intr.fx, intr.fy, intr.cx, intr.cy, *TABLE_CAM1), pose)
            for i, (intr, pose) in enumerate(rig_cameras)
        ]
        save_calibration_document(path, 1, cameras)
        reference, loaded = load_calibration_document(path)
        assert reference == 1
        for (cid, intr, pose), (cid2, intr2, pose2) in zip(cameras, loaded):
            assert cid == cid2
            for field in ("fx", "fy", "cx", "cy", "k1", "k2", "p1", "p2"):
                assert getattr(intr, field) == getattr(intr2, field)
            np.testing.assert_array_equal(pose.rotation, pose2.rotation)
            np.testing.assert_array_equal(pose.translation, pose2.translation)

    def test_rejects_other_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ParseError, match="field 'format' is 'something-else'"):
            load_calibration_document(path)


class TestPoseValidation:
    def test_rotation_must_be_orthonormal(self):
        with pytest.raises(ValueError):
            CameraPose(np.eye(3) * 1.001, np.zeros(3))
        # non-finite camera values are refused, not carried into the solve
        for bad in (np.nan, np.inf):
            rotation = np.eye(3)
            rotation[1, 2] = bad
            with pytest.raises(ValueError, match="orthonormal"):
                CameraPose(rotation, np.zeros(3))
            with pytest.raises(ValueError, match="translation must be finite"):
                CameraPose(np.eye(3), np.array([0.0, bad, 1.0]))
        with pytest.raises(ValueError, match="must be finite"):
            CameraIntrinsics(1800.0, 1800.0, 639.5, 359.5, k1=np.nan)

    def test_projection_backprojection_consistency(self, small_rig):
        intr, (p1, p2) = small_rig
        rng = np.random.default_rng(3)
        pts = np.array([0, 0, 5000.0]) + rng.uniform(-1, 1, (10, 3)) * 500.0
        for p in pts:
            px = project_points(intr, p1, p)[0]
            xn = intr.normalized_from_pixel(px)
            in_camera = np.array([xn[0], xn[1], 1.0]) * p1.transform(p.reshape(1, 3))[0, 2]
            ray = (in_camera - p1.translation) @ p1.rotation
            np.testing.assert_allclose(ray, p, atol=1e-9)


class TestTriangulateLinear:
    def test_batch_matches_per_column_loop(self):
        """Every visibility pattern, including none and one camera, in one
        batch; each column equals the design-matrix SVD built column by
        column, bit for bit."""
        rng = np.random.default_rng(8)
        m, n = 3, 200
        mats = rng.normal(size=(m, 3, 4))
        points = rng.normal(size=(m, n, 2)) * 300.0
        vis = rng.random((m, n)) < 0.6
        X, s = triangulate_linear(mats, points, vis)
        for j in range(n):
            rows = []
            for P, (u, v) in zip(mats[vis[:, j]], points[vis[:, j], j]):
                rows += [u * P[2] - P[0], v * P[2] - P[1]]
            if not rows:
                assert not X[j].any() and not s[j].any()
                continue
            _, sv, Vt = np.linalg.svd(np.array(rows))
            assert X[j].tobytes() == Vt[-1].tobytes()
            assert s[j, : len(sv)].tobytes() == sv.tobytes() and not s[j, len(sv) :].any()

    def test_noiseless_rays_meet_at_the_point(self, small_rig):
        intr, poses = small_rig
        pts = np.array([[0.0, 0.0, 5000.0], [300.0, -200.0, 4500.0]])
        mats = np.stack([intr.K @ p.matrix for p in poses])
        pix = np.stack([project_points(intr, p, pts)[0] for p in poses])
        X, _ = triangulate_linear(mats, pix, np.ones((2, 2), dtype=bool))
        np.testing.assert_allclose(X[:, :3] / X[:, 3:], pts, atol=1e-6)
