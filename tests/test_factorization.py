"""Measurement matrix construction and rank-4 projective factorization."""
import numpy as np
import pytest

from evdeform.calibration.factorization import (
    MeasurementMatrix,
    choose_center_camera,
    projective_factorize,
)
from evdeform.calibration.pipeline import CalibrationConfig, calibrate
from evdeform.errors import InsufficientCorrespondences
from evdeform.geometry import project_pinhole
from evdeform.simulator import paper_rig_cameras

from conftest import correspondences, correspondences_from_points


@pytest.fixture
def three_camera_points():
    cams = paper_rig_cameras()
    rng = np.random.default_rng(3)
    pts = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (50, 3)) * np.array(
        [500.0, 700.0, 300.0]
    )
    return cams, pts


class TestBuildMeasurementMatrix:
    def test_construction_shape_and_unit_scales(self, three_camera_points):
        cams, pts = three_camera_points
        groups = correspondences_from_points(cams, pts[:10])
        W = MeasurementMatrix(groups.pixels, np.ones((3, 10)), groups.visibility)
        assert W.pixels.shape == (3, 10, 2)
        assert W.stacked().shape == (9, 10)
        np.testing.assert_array_equal(W.scales, np.ones((3, 10)))
        assert W.visibility.all()

    def test_true_depth_scales_give_rank_four(self, three_camera_points):
        cams, pts = three_camera_points
        pix = np.stack([project_pinhole(intr, pose, pts) for intr, pose in cams])
        depths = np.stack([pose.transform(pts)[:, 2] for _, pose in cams])
        W = MeasurementMatrix(pix, depths, np.ones((3, 50), dtype=bool))
        s = np.linalg.svd(W.stacked(), compute_uv=False)
        assert s[4] / s[0] < 1e-10

    def test_partial_visibility_kept_out_of_factor_subset(self, three_camera_points):
        cams, pts = three_camera_points
        pixels = correspondences_from_points(cams, pts[:12]).pixels
        lone = np.array([[100.0, 100.0], [110.0, 105.0], [0.0, 0.0]])
        visibility = np.ones((3, 13), dtype=bool)
        visibility[2, 12] = False
        groups = correspondences(np.concatenate([pixels, lone[:, None]], axis=1),
                                 np.zeros(13), visibility)
        W = MeasurementMatrix(groups.pixels, np.ones((3, 13)), groups.visibility)
        assert len(W.full_visibility_columns) == 12
        assert W.visibility[:, 12].sum() == 2

    def test_too_few_points(self, three_camera_points):
        """The factored subset needs eight points every camera sees."""
        cams, pts = three_camera_points
        groups = correspondences_from_points(cams, pts[:5])
        with pytest.raises(InsufficientCorrespondences, match="only 5 fully visible"):
            calibrate(groups, CalibrationConfig(min_full_visibility=0))


class TestProjectiveFactorize:
    def test_true_depths_converge_first_iteration(self, three_camera_points):
        cams, pts = three_camera_points
        pix = np.stack([project_pinhole(intr, pose, pts) for intr, pose in cams])
        depths = np.stack([pose.transform(pts)[:, 2] for _, pose in cams])
        W = MeasurementMatrix(pix, depths, np.ones((3, 50), dtype=bool))
        rec = projective_factorize(W)
        assert rec.converged
        assert rec.iterations == 1
        assert rec.residual < 1e-10

    def test_unit_scales_recover_consistent_reconstruction(self, three_camera_points):
        cams, pts = three_camera_points
        pix = np.stack([project_pinhole(intr, pose, pts) for intr, pose in cams])
        W = MeasurementMatrix(pix, np.ones((3, 50)), np.ones((3, 50), dtype=bool))
        rec = projective_factorize(W)
        assert rec.converged
        assert rec.residual < 1e-8
        proj = np.einsum("mij,jn->min", rec.cameras, rec.points)
        uv = proj[:, :2] / proj[:, 2:3]
        err = np.abs(uv.transpose(0, 2, 1) - pix)
        assert err.max() < 1e-6

    def test_noisy_pixels_plateau(self, three_camera_points):
        cams, pts = three_camera_points
        rng = np.random.default_rng(6)
        pix = np.stack([project_pinhole(intr, pose, pts) for intr, pose in cams])
        pix = pix + rng.normal(0, 0.2, pix.shape)
        W = MeasurementMatrix(pix, np.ones((3, 50)), np.ones((3, 50), dtype=bool))
        rec = projective_factorize(W)
        assert rec.converged
        assert rec.residual < 1e-3

    def test_reconstruction_cameras_full_rank(self, three_camera_points):
        cams, pts = three_camera_points
        pix = np.stack([project_pinhole(intr, pose, pts) for intr, pose in cams])
        W = MeasurementMatrix(pix, np.ones((3, 50)), np.ones((3, 50), dtype=bool))
        rec = projective_factorize(W)
        for M in rec.cameras:
            assert np.linalg.matrix_rank(M) == 3

    def test_too_few_visible_columns(self, three_camera_points):
        cams, pts = three_camera_points
        pix = np.stack([project_pinhole(intr, pose, pts[:6]) for intr, pose in cams])
        W = MeasurementMatrix(pix, np.ones((3, 6)), np.ones((3, 6), dtype=bool))
        with pytest.raises(InsufficientCorrespondences):
            projective_factorize(W)


class TestCenterCamera:
    def test_most_connected_camera_wins(self):
        vis = np.array(
            [
                [True, True, False, False],
                [True, True, True, True],
                [False, True, True, True],
            ]
        )
        assert choose_center_camera(vis) == 1

    def test_tie_breaks_to_lowest_index(self):
        vis = np.ones((3, 8), dtype=bool)
        assert choose_center_camera(vis) == 0
