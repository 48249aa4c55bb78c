"""Measurement matrix and rank-4 projective factorization."""
import numpy as np
import pytest

from evdeform.calibration.factorization import projective_factorize
from evdeform.calibration import pipeline
from evdeform.calibration.pipeline import CalibrationConfig, calibrate
from evdeform.errors import InsufficientCorrespondences, SingularConfiguration
from evdeform.geometry import homogeneous, project_pinhole
from evdeform.simulator import paper_rig_cameras

from conftest import correspondences_from_points


@pytest.fixture
def three_camera_points():
    cams = paper_rig_cameras()
    rng = np.random.default_rng(3)
    pts = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (50, 3)) * np.array(
        [500.0, 700.0, 300.0]
    )
    return cams, pts


def projections(cams, pts):
    return np.stack([project_pinhole(intr, pose, pts) for intr, pose in cams])


class TestBuildMeasurementMatrix:
    def test_true_depth_scales_give_rank_four(self, three_camera_points):
        cams, pts = three_camera_points
        pix = projections(cams, pts)
        depths = np.stack([pose.transform(pts)[:, 2] for _, pose in cams])
        stacked = (homogeneous(pix) * depths[:, :, None]).transpose(0, 2, 1).reshape(9, 50)
        s = np.linalg.svd(stacked, compute_uv=False)
        assert s[4] / s[0] < 1e-10

    def test_too_few_points(self, three_camera_points, monkeypatch):
        """The factored subset needs eight points every camera sees."""
        cams, pts = three_camera_points
        groups = correspondences_from_points(cams, pts[:5])
        monkeypatch.setattr(pipeline, "MIN_FULL_VISIBILITY", 0)
        with pytest.raises(InsufficientCorrespondences, match="only 5 fully visible"):
            calibrate(groups, CalibrationConfig())


class TestProjectiveFactorize:
    def test_true_depths_converge_first_iteration(self, three_camera_points):
        """Affine cameras give every point depth 1, the scales the
        factorization starts from, so the first SVD is already rank 4."""
        _, pts = three_camera_points
        rng = np.random.default_rng(4)
        cams = [np.vstack([rng.normal(0, 1, (2, 4)), [0.0, 0.0, 0.0, 1.0]]) for _ in range(3)]
        pts_h = homogeneous(pts)
        pix = np.stack([(pts_h @ P.T)[:, :2] for P in cams])
        rec = projective_factorize(pix)
        assert rec.converged
        assert rec.iterations == 1
        assert rec.residual < 1e-10

    def test_unit_scales_recover_consistent_reconstruction(self, three_camera_points):
        cams, pts = three_camera_points
        pix = projections(cams, pts)
        rec = projective_factorize(pix)
        assert rec.converged
        assert rec.residual < 1e-8
        proj = np.einsum("mij,jn->min", rec.cameras, rec.points)
        uv = proj[:, :2] / proj[:, 2:3]
        err = np.abs(uv.transpose(0, 2, 1) - pix)
        assert err.max() < 1e-6

    def test_noisy_pixels_plateau(self, three_camera_points):
        cams, pts = three_camera_points
        rng = np.random.default_rng(6)
        pix = projections(cams, pts) + rng.normal(0, 0.2, (3, 50, 2))
        rec = projective_factorize(pix)
        assert rec.converged
        assert rec.residual < 1e-3

    def test_reconstruction_cameras_full_rank(self, three_camera_points):
        cams, pts = three_camera_points
        rec = projective_factorize(projections(cams, pts))
        for M in rec.cameras:
            assert np.linalg.matrix_rank(M) == 3

    def test_too_few_visible_columns(self, three_camera_points):
        cams, pts = three_camera_points
        with pytest.raises(InsufficientCorrespondences):
            projective_factorize(projections(cams, pts[:6]))

    def test_unfit_pair_raises(self, three_camera_points):
        """Depths reach camera i only through the (0, i) fundamental matrix."""
        cams, pts = three_camera_points
        pix = projections(cams, pts)
        pix[2, 3] = np.nan
        with pytest.raises(SingularConfiguration, match=r"no fundamental .* pair \(0, 2\)"):
            projective_factorize(pix)
