"""Metric upgrade of projective reconstructions."""
import numpy as np
import pytest

from evdeform.calibration.factorization import projective_factorize
from evdeform.calibration.upgrade import _solve_quadric, euclidean_upgrade
from evdeform.geometry import project_points, relative_pose, rotation_angle
from evdeform.simulator import paper_rig_cameras

from conftest import star_fundamentals


@pytest.fixture
def factored_scene():
    cams = paper_rig_cameras()
    rng = np.random.default_rng(3)
    pts = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (50, 3)) * np.array(
        [500.0, 700.0, 300.0]
    )
    pix = np.stack([project_points(intr, pose, pts)[0] for intr, pose in cams])
    rec = projective_factorize(pix, star_fundamentals(cams))
    return cams, pts, rec


class TestEuclideanUpgrade:
    def test_recovers_poses_up_to_similarity(self, factored_scene):
        cams, pts, rec = factored_scene
        result = euclidean_upgrade(rec, [intr for intr, _ in cams])
        true_poses = [pose for _, pose in cams]
        for i in range(3):
            for j in range(i + 1, 3):
                Rt = relative_pose(true_poses[i], true_poses[j])
                Re = relative_pose(result.poses[i], result.poses[j])
                assert rotation_angle(Rt.rotation @ Re.rotation.T) < 1e-6
                dt = Rt.translation / np.linalg.norm(Rt.translation)
                de = Re.translation / np.linalg.norm(Re.translation)
                assert np.arccos(np.clip(abs(dt @ de), -1, 1)) < 1e-6

    def test_rotations_orthonormal(self, factored_scene):
        cams, _, rec = factored_scene
        result = euclidean_upgrade(rec, [intr for intr, _ in cams])
        for pose in result.poses:
            assert np.abs(pose.rotation.T @ pose.rotation - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9

    def test_origin_point_maps_to_origin(self, factored_scene):
        """Point 0 is the origin column of the upgrading homography."""
        cams, _, rec = factored_scene
        result = euclidean_upgrade(rec, [intr for intr, _ in cams])
        extent = np.abs(result.points).max()
        assert np.abs(result.points[:, 0]).max() < 1e-9 * extent

    def test_quadric_factors_as_h11(self, factored_scene):
        """The quadric solved from consistent cameras is PSD of rank 3."""
        cams, _, rec = factored_scene
        normalized = [np.linalg.inv(intr.K) @ M for (intr, _), M in zip(cams, rec.cameras)]
        w = np.linalg.eigvalsh(_solve_quadric([N / np.linalg.norm(N) for N in normalized]))
        w = w * np.sign(w[np.argmax(np.abs(w))])
        assert np.sum(w > 1e-9 * w.max()) == 3
        assert abs(w).min() < 1e-9 * w.max()

    def test_quadric_is_the_exact_solution(self, factored_scene):
        """On exact cameras every N G N' is a multiple of the identity."""
        cams, _, rec = factored_scene
        normalized = [np.linalg.inv(intr.K) @ M for (intr, _), M in zip(cams, rec.cameras)]
        normalized = [N / np.linalg.norm(N) for N in normalized]
        G = _solve_quadric(normalized)
        for N in normalized:
            P = N @ G @ N.T
            assert np.abs(P / (np.trace(P) / 3.0) - np.eye(3)).max() < 1e-12

    def test_majority_positive_depths(self, factored_scene):
        cams, _, rec = factored_scene
        result = euclidean_upgrade(rec, [intr for intr, _ in cams])
        depths = result.poses[0].transform(result.points.T)[:, 2]
        assert np.sum(depths > 0) > len(depths) / 2

    def test_recovered_intrinsics_match_truth(self, factored_scene):
        """The upgraded poses and points reproject through the true
        intrinsics, the guesses the upgrade was given."""
        cams, _, rec = factored_scene
        intrinsics = [intr for intr, _ in cams]
        result = euclidean_upgrade(rec, intrinsics)
        proj = np.einsum("mij,jn->min", rec.cameras, rec.points)
        pix = (proj[:, :2] / proj[:, 2:3]).transpose(0, 2, 1)
        # a focal length 1e-7 off would move these pixels by up to 6e-5 px
        for intr, pose, seen in zip(intrinsics, result.poses, pix):
            np.testing.assert_allclose(
                project_points(intr, pose, result.points.T)[0], seen, rtol=0, atol=1e-4
            )

    def test_structure_matches_up_to_similarity(self, factored_scene):
        cams, pts, rec = factored_scene
        result = euclidean_upgrade(rec, [intr for intr, _ in cams])
        # distances between reconstructed points are proportional to truth
        recon = result.points.T
        d_true = np.linalg.norm(pts[1:] - pts[0], axis=1)
        d_rec = np.linalg.norm(recon[1:] - recon[0], axis=1)
        scale = d_true[0] / d_rec[0]
        np.testing.assert_allclose(d_rec * scale, d_true, rtol=1e-6)
