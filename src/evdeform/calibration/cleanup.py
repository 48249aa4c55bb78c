"""Outlier rejection against the current calibration, and the coverage gate
that decides whether a camera's distortion is refined."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AllRejected
from ..geometry import (
    CameraIntrinsics,
    CameraPose,
    fundamental_from_calibrated,
    project_points,
    relative_pose,
    symmetric_epipolar_distance,
    undistort_pixels,
)

Array = np.ndarray

EPIPOLAR_THRESHOLD = 2.0  # px, symmetric point-to-epipolar-line distance
REPROJ_THRESHOLD = 1.0  # px, per-camera reprojection error
# a camera's distortion is refined from at least this many observations
# whose bounding box covers at least this share of the sensor
DISTORTION_MIN_POINTS = 20
DISTORTION_MIN_AREA = 0.3


@dataclass(frozen=True)
class Removal:
    point_index: int
    reason: str  # "epipolar" or "reprojection"
    cameras: tuple[int, ...]
    value: float


@dataclass
class RejectionReport:
    kept: Array  # indices into the input columns
    removed: list[Removal]

    def __len__(self):
        return len(self.removed)


def reprojection_errors(
    pixels: Array, visibility: Array, intrinsics, poses, points3d: Array
) -> list[tuple[Array, Array]]:
    """Per camera, its visible columns and their raw-frame reprojection
    errors under the full camera model; a point behind the camera is never
    an inlier, so its error there is infinite."""
    out = []
    for j in range(len(intrinsics)):
        cols = np.flatnonzero(visibility[j])
        proj, depth = project_points(intrinsics[j], poses[j], points3d[:, cols].T)
        err = np.linalg.norm(proj - pixels[j, cols], axis=1)
        out.append((cols, np.where(depth <= 0, np.inf, err)))
    return out


def reject_outliers(
    pixels: Array,
    visibility: Array,
    intrinsics: list[CameraIntrinsics],
    poses: list[CameraPose],
    points3d: Array,
) -> RejectionReport:
    """Drop correspondences violating epipolar or reprojection thresholds.

    A point is removed when any visible camera pair's symmetric point-to-
    epipolar-line distance exceeds EPIPOLAR_THRESHOLD or any per-camera
    reprojection error exceeds REPROJ_THRESHOLD. Pixels are raw
    observations: the reprojection test uses the full camera model and the
    epipolar test their undistorted positions.
    Raises AllRejected when nothing survives.
    """
    m, n, _ = pixels.shape
    removed: dict[int, Removal] = {}
    undistorted = pixels.copy()
    for j in range(m):
        cols = np.flatnonzero(visibility[j])
        undistorted[j, cols] = undistort_pixels(intrinsics[j], pixels[j, cols])

    for a in range(m):
        for b in range(a + 1, m):
            shared = np.flatnonzero(visibility[a] & visibility[b])
            if not len(shared):
                continue
            pair = fundamental_from_calibrated(
                intrinsics[a], intrinsics[b], relative_pose(poses[a], poses[b])
            )
            d = symmetric_epipolar_distance(
                pair.fundamental, undistorted[a, shared], undistorted[b, shared]
            )
            far = d > EPIPOLAR_THRESHOLD
            for col, dist in zip(shared[far], d[far]):
                col = int(col)
                if col not in removed or removed[col].value < dist:
                    removed[col] = Removal(col, "epipolar", (a, b), float(dist))

    for j, (cols, err) in enumerate(
        reprojection_errors(pixels, visibility, intrinsics, poses, points3d)
    ):
        far = err > REPROJ_THRESHOLD
        for col, e in zip(cols[far], err[far]):
            col = int(col)
            if col not in removed or removed[col].value < e:
                removed[col] = Removal(col, "reprojection", (j,), float(e))

    visible = np.flatnonzero(visibility.any(axis=0))
    kept = np.array([i for i in visible if i not in removed], dtype=np.int64)
    if len(kept) == 0:
        raise AllRejected(
            f"all {len(visible)} correspondences exceeded the thresholds"
        )
    return RejectionReport(kept, [removed[i] for i in sorted(removed)])


def distortion_gate(observed: Array, intrinsics: CameraIntrinsics) -> str | None:
    """Why one camera's observations cannot constrain k1 k2 p1 p2, or None.

    Too uneven a coverage leaves the coefficients to absorb noise: fewer
    than DISTORTION_MIN_POINTS observations, a bounding box under
    DISTORTION_MIN_AREA of the sensor, or all points on one side of the
    principal point.
    """
    observed = np.asarray(observed, dtype=float).reshape(-1, 2)
    if len(observed) < DISTORTION_MIN_POINTS:
        return f"only {len(observed)} correspondences"
    span = observed.max(axis=0) - observed.min(axis=0)
    area = span[0] * span[1] / (intrinsics.width * intrinsics.height)
    if area < DISTORTION_MIN_AREA:
        return f"coverage {area:.0%} of sensor area"
    u, v = observed[:, 0], observed[:, 1]
    if (
        np.all(u < intrinsics.cx)
        or np.all(u > intrinsics.cx)
        or np.all(v < intrinsics.cy)
        or np.all(v > intrinsics.cy)
    ):
        return "all points in one half"
    return None
