"""Focal-length recovery from epipolar geometry with a known principal point."""
import numpy as np
import pytest

from evdeform.calibration.kruppa import solve_kruppa_focal
from evdeform.errors import DegenerateMotion, NegativeFocalSquared
from evdeform.geometry import (
    CameraIntrinsics,
    CameraPose,
    estimate_fundamental_ransac,
    fundamental_from_calibrated,
    project_points,
    relative_pose,
    rotation_from_axis_angle,
)
from evdeform.simulator import look_at_pose

PRINCIPAL = (639.5, 359.5)


def convergent_pair(f=1800.0):
    intr = CameraIntrinsics(f, f, *PRINCIPAL)
    target = np.array([0.0, 0.0, 5200.0])
    p1 = look_at_pose(np.array([0.0, 0.0, 0.0]), target + np.array([-60.0, 140.0, 0.0]))
    p2 = look_at_pose(
        np.array([-4378.0, 722.0, 826.0]), target + np.array([180.0, -90.0, 0.0])
    )
    return intr, p1, p2


class TestExactRecovery:
    def test_exact_fundamental_recovers_focal(self):
        intr, p1, p2 = convergent_pair()
        pair = fundamental_from_calibrated(intr, intr, relative_pose(p1, p2))
        f = solve_kruppa_focal(pair, PRINCIPAL)
        assert abs(f - 1800.0) / 1800.0 < 1e-6

    @pytest.mark.parametrize("true_f", [900.0, 1800.0, 3600.0])
    def test_various_focal_lengths(self, true_f):
        intr, p1, p2 = convergent_pair(true_f)
        pair = fundamental_from_calibrated(intr, intr, relative_pose(p1, p2))
        f = solve_kruppa_focal(pair, PRINCIPAL)
        assert abs(f - true_f) / true_f < 1e-6

    @pytest.mark.parametrize("translation", [(1.0, 0.0, 0.0), (1.0, 0.0, 0.2)])
    @pytest.mark.parametrize("angle", [0.1, 0.4])
    def test_coplanar_optical_axes(self, angle, translation):
        """Both optical axes lie in the xz plane and meet, as for cameras
        aimed at one marker: the misalignment minimum is narrow but exact."""
        intr = CameraIntrinsics(1800.0, 1800.0, *PRINCIPAL)
        R = rotation_from_axis_angle(np.array([0.0, angle, 0.0]))
        rel = CameraPose(R, np.array(translation))
        pair = fundamental_from_calibrated(intr, intr, rel)
        f = solve_kruppa_focal(pair, PRINCIPAL)
        assert abs(f - 1800.0) / 1800.0 < 1e-9

    @pytest.mark.parametrize("angle", [1e-3, 1e-4, 3e-5])
    def test_near_axial_motion(self, angle):
        """Translation along the optical axis with a small rotation: the
        cost is nearly flat, but its minimum is still exact."""
        intr = CameraIntrinsics(1800.0, 1800.0, *PRINCIPAL)
        R = rotation_from_axis_angle(np.array([angle, 0.0, 0.0]))
        rel = CameraPose(R, np.array([0.0, 0.0, 1.0]))
        pair = fundamental_from_calibrated(intr, intr, rel)
        f = solve_kruppa_focal(pair, PRINCIPAL)
        assert abs(f - 1800.0) / 1800.0 < 1e-6


class TestNoisyRecovery:
    def test_monte_carlo_within_two_percent(self):
        intr, p1, p2 = convergent_pair()
        rng = np.random.default_rng(17)
        estimates = []
        for _ in range(11):
            pts = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (100, 3)) * np.array(
                [500.0, 700.0, 300.0]
            )
            x1 = project_points(intr, p1, pts)[0] + rng.normal(0, 0.2, (100, 2))
            x2 = project_points(intr, p2, pts)[0] + rng.normal(0, 0.2, (100, 2))
            pair, _ = estimate_fundamental_ransac(x1, x2)
            estimates.append(solve_kruppa_focal(pair, PRINCIPAL))
        median = float(np.median(estimates))
        assert abs(median - 1800.0) / 1800.0 < 0.02


class TestDegenerateMotion:
    def test_translation_along_optical_axis(self):
        intr = CameraIntrinsics(1800.0, 1800.0, *PRINCIPAL)
        rel = CameraPose(np.eye(3), np.array([0.0, 0.0, 1.0]))
        pair = fundamental_from_calibrated(intr, intr, rel)
        with pytest.raises(DegenerateMotion):
            solve_kruppa_focal(pair, PRINCIPAL)

    def test_axial_translation_with_tiny_rotation(self):
        """A 0.01 mrad rotation leaves the misalignment flat to 1e-12."""
        intr = CameraIntrinsics(1800.0, 1800.0, *PRINCIPAL)
        R = rotation_from_axis_angle(np.array([1e-5, 0.0, 0.0]))
        pair = fundamental_from_calibrated(intr, intr, CameraPose(R, np.array([0.0, 0.0, 1.0])))
        with pytest.raises(DegenerateMotion):
            solve_kruppa_focal(pair, PRINCIPAL)


class TestOutsideFocalRange:
    @pytest.mark.parametrize("true_f", [10.0, 60_000.0])
    def test_focal_outside_span_has_no_interior_minimum(self, true_f):
        """The search spans 0.02 to 50 times cx + cy = 999 px, so an exact
        pair from a 10 px or a 60,000 px camera has its minimum at a range
        end."""
        intr, p1, p2 = convergent_pair(true_f)
        pair = fundamental_from_calibrated(intr, intr, relative_pose(p1, p2))
        with pytest.raises(NegativeFocalSquared):
            solve_kruppa_focal(pair, PRINCIPAL)


class TestKruppaConsistency:
    def test_both_sides_proportional_at_solution(self):
        """The epipolar constraint on the conic holds at the recovered focal."""
        intr, p1, p2 = convergent_pair()
        pair = fundamental_from_calibrated(intr, intr, relative_pose(p1, p2))
        f = solve_kruppa_focal(pair, PRINCIPAL)
        cx, cy = PRINCIPAL
        C = np.array(
            [
                [f * f + cx * cx, cx * cy, cx],
                [cx * cy, f * f + cy * cy, cy],
                [cx, cy, 1.0],
            ]
        )
        F = pair.fundamental
        e = pair.epipole_right
        E = np.array(
            [[0, -e[2], e[1]], [e[2], 0, -e[0]], [-e[1], e[0], 0]]
        )
        lhs = F @ C @ F.T
        rhs = E @ C @ E.T
        lhs = lhs / np.linalg.norm(lhs)
        rhs = rhs / np.linalg.norm(rhs)
        assert min(np.abs(lhs - rhs).max(), np.abs(lhs + rhs).max()) < 1e-6
