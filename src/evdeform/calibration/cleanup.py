"""Outlier rejection by reprojection error against the current calibration,
and the coverage gate that decides whether a camera's distortion is refined."""
from __future__ import annotations

import numpy as np

from ..errors import AllRejected
from ..geometry import CameraIntrinsics, CameraPose, project_points

Array = np.ndarray

REPROJ_THRESHOLD = 1.0  # px, per-camera reprojection error
# a camera's distortion is refined from at least this many observations
# whose bounding box covers at least this share of the sensor
DISTORTION_MIN_POINTS = 20
DISTORTION_MIN_AREA = 0.3


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
) -> Array:
    """Indices of the visible columns whose worst per-camera reprojection
    error is at most REPROJ_THRESHOLD.

    Pixels are raw observations, compared under the full camera model; a NaN
    error, or an infinite one from a point behind a camera, is an outlier.
    Raises AllRejected when nothing survives.
    """
    visible = visibility.any(axis=0)
    worst = np.zeros(visibility.shape[1])
    for cols, err in reprojection_errors(pixels, visibility, intrinsics, poses, points3d):
        worst[cols] = np.maximum(worst[cols], err)
    kept = np.flatnonzero(visible & (worst <= REPROJ_THRESHOLD))
    if not len(kept):
        raise AllRejected(
            f"all {int(visible.sum())} correspondences exceeded the reprojection threshold"
        )
    return kept


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
