"""Reference-frame rebasing, marker triangulation and deformation series.

Triangulation works on whole arrays of samples: each camera's pixels are
undistorted in one call, every sample is intersected linearly over the rays
of the cameras that see it (geometry.triangulate_linear, shared with
calibration), and one batched Gauss-Newton step refines the points on the
reprojection error. measure_deformation takes the pixel and visibility rows
of a Correspondences table in the rig's camera order and times each sample
by its group's mean_t. Positions come out in the reference camera's frame,
multiplied by the rig's metric scale when one has been anchored.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptySeries, UnknownCamera, ZeroObservedDistance
from .extraction import Correspondences
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    load_calibration_document,
    relative_pose,
    save_calibration_document,
    triangulate_linear,
    undistort_pixels,
)

Array = np.ndarray

_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class RigCalibration:
    """Calibrated multi-camera rig expressed relative to a reference camera."""

    reference_camera: int
    camera_ids: tuple[int, ...]
    intrinsics: tuple[CameraIntrinsics, ...]
    poses: tuple[CameraPose, ...]
    metric_scale: float | None = None

    def __post_init__(self):
        if self.reference_camera not in self.camera_ids:
            raise UnknownCamera(f"reference camera {self.reference_camera} not in rig")
        ref = self.poses[self.camera_ids.index(self.reference_camera)]
        if (
            np.abs(ref.rotation - np.eye(3)).max() > 1e-12
            or np.abs(ref.translation).max() > 1e-12
        ):
            raise ValueError("reference camera pose must be identity/zero")

    def index(self, camera_id: int) -> int:
        try:
            return self.camera_ids.index(camera_id)
        except ValueError:
            raise UnknownCamera(f"camera {camera_id} not in rig") from None

    @property
    def scale(self) -> float:
        return 1.0 if self.metric_scale is None else self.metric_scale


def rebase_extrinsics(
    world_poses: Sequence[CameraPose],
    reference: int,
    intrinsics: Sequence[CameraIntrinsics],
    camera_ids: Sequence[int] | None = None,
    metric_scale: float | None = None,
) -> RigCalibration:
    """Re-express all camera poses relative to the chosen reference camera."""
    ids = tuple(camera_ids) if camera_ids is not None else tuple(range(len(world_poses)))
    if reference not in ids:
        raise UnknownCamera(f"reference camera {reference} not among {ids}")
    ref_pose = world_poses[ids.index(reference)]
    poses = tuple(
        CameraPose.identity() if cid == reference else relative_pose(ref_pose, pose)
        for cid, pose in zip(ids, world_poses)
    )
    return RigCalibration(reference, ids, tuple(intrinsics), poses, metric_scale)


def rig_from_calibration(result, metric_scale: float | None = None) -> RigCalibration:
    """Wrap a CalibrationResult (already reference-relative) as a rig."""
    return RigCalibration(
        result.reference_camera,
        tuple(result.camera_ids),
        tuple(result.intrinsics),
        tuple(result.poses),
        metric_scale,
    )


def save_rig(path, rig: RigCalibration) -> None:
    save_calibration_document(
        path,
        rig.reference_camera,
        [(cid, intr, pose) for cid, intr, pose in zip(rig.camera_ids, rig.intrinsics, rig.poses)],
    )


def load_rig(path, metric_scale: float | None = None) -> RigCalibration:
    reference, cameras = load_calibration_document(path)
    ids = tuple(c[0] for c in cameras)
    return RigCalibration(
        reference,
        ids,
        tuple(c[1] for c in cameras),
        tuple(c[2] for c in cameras),
        metric_scale,
    )


def triangulate(
    rig: RigCalibration, pixels: Array, visibility: Array
) -> tuple[Array, Array, Array, Array]:
    """Intersect the undistorted rays of n samples at once.

    pixels: (m, n, 2) distorted pixels, visibility: (m, n), rows in the rig's
    camera order. Each sample is the linear intersection of its rays refined
    by one Gauss-Newton step on the pixel reprojection error. Returns
    positions (n, 3), RMS residuals (n,) in pixels, camera counts (n,) and
    an ok mask (n,). A sample is not ok
    when fewer than two cameras see it, its rays are near parallel
    (condition number of the normal system above 1e12), it intersects at
    infinity, or it lies behind a camera that sees it; its position is then
    NaN and its residual inf.
    """
    pixels = np.asarray(pixels, dtype=float)
    visibility = np.asarray(visibility, dtype=bool)
    m, n = visibility.shape
    ideal = np.zeros((m, n, 2))
    normalized = np.zeros((m, n, 2))
    for i, intr in enumerate(rig.intrinsics):
        cols = np.flatnonzero(visibility[i])
        if len(cols):
            ideal[i, cols] = undistort_pixels(intr, pixels[i, cols])
            normalized[i, cols] = intr.normalized_from_pixel(ideal[i, cols])
    X, s = triangulate_linear(
        np.stack([pose.matrix for pose in rig.poses]), normalized, visibility
    )
    counts = visibility.sum(axis=0)
    ok = (counts >= 2) & (s[:, 2] >= 1e-15)
    ok[ok] = (s[ok, 0] / s[ok, 2]) ** 2 <= _CONDITION_LIMIT
    ok &= np.abs(X[:, 3]) >= 1e-15
    p = np.full((n, 3), np.nan)
    p[ok] = X[ok, :3] / X[ok, 3:]

    # one Gauss-Newton step on the pixel reprojection error; a sample behind
    # a contributing camera or with a singular normal matrix stays unrefined
    refine = ok.copy()
    JtJ = np.zeros((n, 3, 3))
    Jtr = np.zeros((n, 3))
    sq = np.zeros(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (intr, pose) in enumerate(zip(rig.intrinsics, rig.poses)):
            seen = visibility[i] & ok
            x, y, z, err = _pixel_error(intr, pose, p[seen], ideal[i, seen])
            refine[seen] &= z > 1e-12
            duv = np.zeros((len(z), 2, 3))
            duv[:, 0, 0] = intr.fx / z
            duv[:, 0, 2] = -intr.fx * x / z**2
            duv[:, 1, 1] = intr.fy / z
            duv[:, 1, 2] = -intr.fy * y / z**2
            J = duv @ pose.rotation
            JtJ[seen] += J.transpose(0, 2, 1) @ J
            Jtr[seen] += np.einsum("kab,ka->kb", J, err)
        refine[refine] = np.linalg.det(JtJ[refine]) != 0.0  # where solve would raise
        p[refine] += np.linalg.solve(JtJ[refine], -Jtr[refine][..., None])[..., 0]
        for i, (intr, pose) in enumerate(zip(rig.intrinsics, rig.poses)):
            seen = visibility[i] & ok
            _, _, z, err = _pixel_error(intr, pose, p[seen], ideal[i, seen])
            sq[seen] += np.where(z > 1e-12, (err**2).sum(axis=1), np.inf)
    residuals = np.full(n, np.inf)
    residuals[ok] = np.sqrt(sq[ok] / counts[ok])
    ok &= residuals < np.inf  # not behind a camera that sees it
    p[~ok] = np.nan
    return p * rig.scale, residuals, counts, ok


def _pixel_error(intr: CameraIntrinsics, pose: CameraPose, points: Array, ideal: Array):
    """Camera coordinates x, y, z of points and their ideal-pixel error.

    The pose is applied as one vector-matrix product per point, so a point's
    result does not depend on how many points are passed with it.
    """
    x, y, z = ((points[:, None, :] @ pose.rotation.T)[:, 0] + pose.translation).T
    err = np.stack([x / z * intr.fx + intr.cx, y / z * intr.fy + intr.cy], axis=1) - ideal
    return x, y, z, err


@dataclass(frozen=True)
class MeasureConfig:
    residual_threshold_px: float = 1.0
    baseline_window: int = 50


@dataclass
class DeformationSeries:
    """Timestamped 3D marker positions in the reference camera frame."""

    reference_camera: int
    t_us: Array
    positions: Array  # (k, 3)
    residuals_px: Array
    camera_counts: Array
    dropped: int
    baseline_window: int
    metric: bool

    def __post_init__(self):
        if len(self.t_us) and np.any(np.diff(self.t_us) <= 0):
            raise ValueError("sample timestamps must be strictly increasing")

    def __len__(self):
        return len(self.t_us)

    @property
    def baseline(self) -> Array:
        k = min(self.baseline_window, len(self))
        return self.positions[:k].mean(axis=0)

    @property
    def displacements(self) -> Array:
        return self.positions - self.baseline

    @property
    def max_amplitude(self) -> float:
        return float(np.linalg.norm(self.displacements, axis=1).max())

    def summary(self) -> dict:
        d = self.displacements
        axes = {}
        for k, name in enumerate("XYZ"):
            axes[name] = {
                "min": float(d[:, k].min()),
                "max": float(d[:, k].max()),
                "rms": float(np.sqrt(np.mean(d[:, k] ** 2))),
            }
        return {
            "samples": int(len(self)),
            "dropped": int(self.dropped),
            "metric_units": bool(self.metric),
            "reference_camera": int(self.reference_camera),
            "max_amplitude": self.max_amplitude,
            "axes": axes,
        }


def measure_deformation(
    rig: RigCalibration,
    matched: Correspondences,
    config: MeasureConfig = MeasureConfig(),
) -> DeformationSeries:
    """Triangulate matched groups into a deformation time series.

    Each group is one sample at its mean center time. Samples that do not
    triangulate, whose RMS reprojection residual exceeds the threshold, or
    whose time does not exceed the last kept sample's are dropped (counted).
    Raises UnknownCamera when a camera outside the rig sees a group and
    EmptySeries when nothing survives.
    """
    rows = {cid: i for i, cid in enumerate(matched.camera_ids)}
    seeing = {cid for cid, i in rows.items() if matched.visibility[i].any()}
    unknown = seeing - set(rig.camera_ids)
    if unknown:
        raise UnknownCamera(f"camera(s) {sorted(unknown)} not in rig")
    # the rig's cameras in its order; one without a row sees nothing
    pixels = np.zeros((len(rig.camera_ids), len(matched), 2))
    visibility = np.zeros((len(rig.camera_ids), len(matched)), dtype=bool)
    for i, cid in enumerate(rig.camera_ids):
        if cid in rows:
            pixels[i], visibility[i] = matched.pixels[rows[cid]], matched.visibility[rows[cid]]
    positions, residuals, counts, ok = triangulate(rig, pixels, visibility)
    t = matched.mean_t
    passed = np.flatnonzero(ok & (residuals <= config.residual_threshold_px))
    # kept times strictly increase, so the last kept time is the running max
    # over every earlier sample that passed
    earlier = np.maximum.accumulate(np.concatenate([[-np.inf], t[passed][:-1]]))
    kept = passed[t[passed] > earlier]
    if not len(kept):
        raise EmptySeries(f"no sample passed the {config.residual_threshold_px} px filter")
    return DeformationSeries(
        reference_camera=rig.reference_camera,
        t_us=t[kept],
        positions=positions[kept],
        residuals_px=residuals[kept],
        camera_counts=counts[kept],
        dropped=len(matched) - len(kept),
        baseline_window=config.baseline_window,
        metric=rig.metric_scale is not None,
    )


def anchor_scale(
    rig: RigCalibration, known_distance: float, observed_pair: tuple[Array, Array]
) -> RigCalibration:
    """Fix the metric scale so the observed pair's separation becomes
    known_distance. Positions must come from this rig's triangulation."""
    if known_distance <= 0:
        raise ValueError("known_distance must be positive")
    a, b = (np.asarray(p, dtype=float) for p in observed_pair)
    dist = float(np.linalg.norm(a - b))
    if dist < 1e-12:
        raise ZeroObservedDistance("anchor pair separation is zero")
    return replace(rig, metric_scale=rig.scale * known_distance / dist)


def camera_centers(rig: RigCalibration) -> dict[int, Array]:
    """Camera centers in the reference frame at the rig's current scale."""
    return {cid: pose.center * rig.scale for cid, pose in zip(rig.camera_ids, rig.poses)}


# ---------------------------------------------------------------------------
# series CSV + summary
# ---------------------------------------------------------------------------

SERIES_HEADER = "t_us,X,Y,Z,residual_px,cameras"


def write_series(path, series: DeformationSeries) -> None:
    lines = [SERIES_HEADER]
    for i in range(len(series)):
        p = series.positions[i]
        lines.append(
            f"{int(round(series.t_us[i]))},{float(p[0])!r},{float(p[1])!r},{float(p[2])!r},"
            f"{float(series.residuals_px[i])!r},{int(series.camera_counts[i])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary(path, series: DeformationSeries) -> None:
    Path(path).write_text(json.dumps(series.summary(), indent=2) + "\n")
