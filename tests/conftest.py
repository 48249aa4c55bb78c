"""Shared fixtures: a compact synthetic rig and correspondence builders."""
from __future__ import annotations

import numpy as np
import pytest

from evdeform.extraction import Centers, Correspondences
from evdeform.geometry import CameraIntrinsics, project_pinhole
from evdeform.simulator import look_at_pose, paper_rig_cameras


@pytest.fixture
def intrinsics_1800() -> CameraIntrinsics:
    return CameraIntrinsics(1800.0, 1800.0, 639.5, 359.5)


@pytest.fixture
def rig_cameras():
    """The canonical three-camera rig (intrinsics, pose) tuples."""
    return paper_rig_cameras()


@pytest.fixture
def small_rig(intrinsics_1800):
    """Two convergent cameras a metre apart looking at a 5 m target."""
    target = np.array([0.0, 0.0, 5000.0])
    p1 = look_at_pose(np.array([0.0, 0.0, 0.0]), target)
    p2 = look_at_pose(np.array([-1000.0, 120.0, 80.0]), target + np.array([50.0, -40.0, 0.0]))
    return intrinsics_1800, [p1, p2]


def centers_table(camera_id: int, t_c, pixels=None) -> Centers:
    """A camera's centers at times t_c (sorted), single-event windows; every
    pixel is (camera_id, 0) unless pixels (k, 2) are given."""
    t_c = np.asarray(t_c, dtype=float)
    k = len(t_c)
    pixels = np.tile([float(camera_id), 0.0], (k, 1)) if pixels is None else pixels
    return Centers(camera_id, t_c, np.asarray(pixels, dtype=float).reshape(k, 2),
                   np.zeros((k, 2, 2)), np.ones(k, dtype=np.int64),
                   np.floor(t_c).astype(np.int64), np.floor(t_c).astype(np.int64))


def correspondences(pixels, t, visibility=None) -> Correspondences:
    """Groups over cameras 0..m-1 from pixels (m, n, 2), seen at times t (n,)
    by every camera or where visibility (m, n) is set."""
    pixels = np.asarray(pixels, dtype=float)
    m, n = pixels.shape[:2]
    seen = np.ones((m, n), dtype=bool) if visibility is None else np.asarray(visibility)
    index = np.where(seen, np.arange(n), -1)
    t_c = np.broadcast_to(np.asarray(t, dtype=float), (m, n))
    return Correspondences.from_members(range(m), index, pixels, t_c)


def correspondences_from_points(cameras, points, noise_px=0.0, rng=None) -> Correspondences:
    """Project world points through (intrinsics, pose) pairs into matched
    groups, one per point at 1000 us apart, with optional Gaussian pixel
    noise drawn point by point, camera by camera."""
    points = np.asarray(points, dtype=float)
    pixels = np.zeros((len(cameras), len(points), 2))
    for j, p in enumerate(points):
        for ci, (intr, pose) in enumerate(cameras):
            pixels[ci, j] = project_pinhole(intr, pose, p.reshape(1, 3))[0]
            if noise_px > 0:
                pixels[ci, j] += rng.normal(0.0, noise_px, 2)
    return correspondences(pixels, 1000.0 * np.arange(len(points)))
