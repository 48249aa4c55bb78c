"""Outlier rejection against a calibration, and distortion estimation."""
import numpy as np
import pytest

from evdeform.calibration.bundle import bundle_adjust
from evdeform.calibration.cleanup import distortion_gate, reject_outliers
from evdeform.errors import AllRejected
from evdeform.geometry import (
    CameraIntrinsics,
    distort_normalized,
    project_points,
)
from evdeform.simulator import paper_rig_cameras

TABLE_CAM1 = (-0.05359, 0.33899, -0.00157, -0.00479)


@pytest.fixture
def clean_scene():
    cams = paper_rig_cameras()
    rng = np.random.default_rng(4)
    pts = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (100, 3)) * np.array(
        [500.0, 700.0, 300.0]
    )
    pix = np.stack([project_points(intr, pose, pts)[0] for intr, pose in cams])
    intr = [i for i, _ in cams]
    poses = [p for _, p in cams]
    return intr, poses, pts, pix


class TestRejectOutliers:
    def test_noiseless_inliers_survive(self, clean_scene):
        intr, poses, pts, pix = clean_scene
        kept = reject_outliers(pix, np.ones((3, 100), dtype=bool), intr, poses, pts.T)
        np.testing.assert_array_equal(kept, np.arange(100))

    def test_planted_offsets_removed_exactly(self, clean_scene):
        intr, poses, pts, pix = clean_scene
        rng = np.random.default_rng(9)
        pix = pix.copy()
        planted = rng.choice(100, size=10, replace=False)
        for idx in planted:
            cam = rng.integers(0, 3)
            direction = rng.normal(0, 1, 2)
            pix[cam, idx] += direction / np.linalg.norm(direction) * 20.0
        kept = reject_outliers(pix, np.ones((3, 100), dtype=bool), intr, poses, pts.T)
        np.testing.assert_array_equal(np.setdiff1d(np.arange(100), kept), np.sort(planted))

    def test_noise_beyond_thresholds_rejects_all(self, clean_scene):
        intr, poses, pts, pix = clean_scene
        rng = np.random.default_rng(2)
        # 20 px noise, twenty times the reprojection threshold
        pix = pix + rng.normal(0, 20.0, pix.shape)
        with pytest.raises(AllRejected):
            reject_outliers(pix, np.ones((3, 100), dtype=bool), intr, poses, pts.T)

    def test_idempotent_for_fixed_calibration(self, clean_scene):
        intr, poses, pts, pix = clean_scene
        rng = np.random.default_rng(3)
        pix = pix.copy()
        pix[1, [5, 6]] += 25.0
        first = reject_outliers(pix, np.ones((3, 100), dtype=bool), intr, poses, pts.T)
        vis2 = np.zeros((3, 100), dtype=bool)
        vis2[:, first] = True
        second = reject_outliers(pix, vis2, intr, poses, pts.T)
        np.testing.assert_array_equal(second, first)

    def test_nan_and_behind_camera_are_outliers(self, clean_scene):
        """A NaN pixel, and a point seen only by camera 0 but mirrored through
        its center (the same pixel, at negative depth), are both rejected."""
        intr, poses, pts, pix = clean_scene
        pix, pts = pix.copy(), pts.copy()
        pix[1, 3] = np.nan
        pts[8] = 2.0 * poses[0].center - pts[8]
        vis = np.ones((3, 100), dtype=bool)
        vis[1:, 8] = False
        np.testing.assert_allclose(project_points(intr[0], poses[0], pts[8])[0], pix[0, 8])
        kept = reject_outliers(pix, vis, intr, poses, pts.T)
        np.testing.assert_array_equal(np.setdiff1d(np.arange(100), kept), [3, 8])


class TestEstimateDistortion:
    """The coverage gate, and bundle adjustment of the three-camera rig with
    free points and poses, where camera 1 sees through distortion and its
    k1 k2 p1 p2 are the only free intrinsics."""

    def _scene(self, coeffs, n=200, seed=1):
        intr_ideal = CameraIntrinsics(1800.0, 1800.0, 639.5, 359.5)
        intr_true = CameraIntrinsics(1800.0, 1800.0, 639.5, 359.5, *coeffs)
        cams = paper_rig_cameras()
        pose = cams[1][1]
        rng = np.random.default_rng(seed)
        # spread across the full sensor: sample in image space and lift to 3D
        pts = []
        while len(pts) < n:
            u = rng.uniform(30, 1250)
            v = rng.uniform(30, 690)
            depth = rng.uniform(4500, 6000)
            xn = intr_ideal.normalized_from_pixel(np.array([u, v]))
            pts.append((np.array([xn[0], xn[1], 1.0]) * depth - pose.translation) @ pose.rotation)
        pts = np.array(pts)
        cam = pose.transform(pts)
        xy = cam[:, :2] / cam[:, 2:3]
        observed = intr_true.pixel_from_normalized(distort_normalized(intr_true, xy))
        return pts, observed, intr_ideal, pose

    def _fit(self, pts, observed, intr, pose):
        assert distortion_gate(observed, intr) is None
        (intr0, pose0), _, (intr2, pose2) = paper_rig_cameras()
        pixels = np.concatenate(
            [project_points(intr0, pose0, pts)[0], observed, project_points(intr2, pose2, pts)[0]]
        )
        res = bundle_adjust(
            [intr0, intr, intr2], [pose0, pose, pose2], pts,
            np.repeat(np.arange(3), len(pts)), np.tile(np.arange(len(pts)), 3), pixels,
            free_distortion=(1,),
        )
        fit = res.intrinsics[1]
        assert (fit.cx, fit.cy) == (intr.cx, intr.cy)
        assert abs(fit.fx - intr.fx) < 1e-12 * intr.fx and abs(fit.fy - intr.fy) < 1e-12 * intr.fy
        return fit.distortion

    def test_zero_distortion_recovered_as_zero(self):
        coefficients = self._fit(*self._scene((0.0, 0.0, 0.0, 0.0)))
        assert np.abs(coefficients).max() < 1e-8

    def test_reported_coefficients_recovered(self):
        coefficients = self._fit(*self._scene(TABLE_CAM1))
        for est, true in zip(coefficients, TABLE_CAM1):
            assert abs(est - true) <= max(0.05 * abs(true), 1e-3)

    def test_one_sided_coverage_skipped(self):
        _, observed, intr, _ = self._scene((0.01, 0.0, 0.0, 0.0))
        left = observed[:, 0] < 320  # left quarter of the sensor only
        assert distortion_gate(observed[left], intr) is not None

    def test_too_few_points_skipped(self):
        _, observed, intr, _ = self._scene((0.01, 0.0, 0.0, 0.0))
        assert distortion_gate(observed[:10], intr) == "only 10 correspondences"
