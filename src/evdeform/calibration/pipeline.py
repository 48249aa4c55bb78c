"""Self-calibration over corresponding points, in one pass.

RANSAC epipolar geometry drops inconsistent correspondences and gives the
Kruppa seed of the shared focal length. At that focal, each (0, i)
fundamental matrix RANSAC fitted becomes an essential matrix whose
decomposition poses camera i; camera 0's depths of the centers every camera
sees put every pair on camera 1's scale. The points are triangulated and
one bundle adjustment refines the full camera model: pose, one focal length
per camera (fy/fx held at its starting value) and, for each camera whose
observations cover enough of the sensor, the distortion coefficients.
A group is then rejected when its reprojection error under that model
exceeds the threshold in any camera that sees it; if any is, the bundle
adjustment runs once more without the rejected groups. The result
converges when every camera's mean reprojection error is under the target.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import (
    CalibrationFailed,
    CheiralityFailure,
    DegenerateMotion,
    DegenerateTrajectoryWarning,
    InsufficientCorrespondences,
    NegativeFocalSquared,
    NoModel,
    SingularConfiguration,
)
from ..extraction import Correspondences
from ..geometry import (
    RANSAC_THRESHOLD,
    CameraIntrinsics,
    CameraPose,
    FundamentalPair,
    estimate_fundamental_ransac,
    hartley_normalization,
    homogeneous,
    triangulate_linear,
)
from .bundle import bundle_adjust
from .cleanup import distortion_gate, reject_outliers, reprojection_errors
from .kruppa import solve_kruppa_focal

Array = np.ndarray


# The recipe's fixed settings, in px unless noted; the RANSAC and outlier
# thresholds live in geometry and cleanup, beside the code that applies them
FALLBACK_FOCAL = 1600.0  # focal seed when no Kruppa estimate succeeds
REPROJ_TARGET = 0.3  # worst camera's mean reprojection error to converge
MIN_FULL_VISIBILITY = 20  # groups every camera sees
# least sigma2/sigma1 of K'FK at the seed focal; an essential matrix has 1
ESSENTIAL_MIN_RATIO = 0.9

# a quarter turn about z: R = U W V' or U W' V' for E = U diag(1, 1, 0) V'
_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class CalibrationConfig:
    sensor: tuple[int, int] = (1280, 720)
    seed: int = 0


@dataclass
class IterationRecord:
    iteration: int
    mean_reprojection: dict[int, float]
    std_reprojection: dict[int, float]
    inlier_count: int
    actions: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "mean_reprojection_px": {str(k): v for k, v in self.mean_reprojection.items()},
            "std_reprojection_px": {str(k): v for k, v in self.std_reprojection.items()},
            "inlier_count": self.inlier_count,
            "actions": self.actions,
        }


@dataclass
class CalibrationResult:
    camera_ids: tuple[int, ...]
    intrinsics: tuple[CameraIntrinsics, ...]
    poses: tuple[CameraPose, ...]  # relative to the reference camera
    reference_camera: int
    inlier_indices: Array
    inliers: Correspondences  # the groups of points3d's columns
    points3d: Array  # (3, n_inliers), internal (scale-free) units
    mean_reprojection: dict[int, float]
    std_reprojection: dict[int, float]
    iterations: list[IterationRecord]
    converged: bool

    def camera(self, camera_id: int) -> tuple[CameraIntrinsics, CameraPose]:
        i = self.camera_ids.index(camera_id)
        return self.intrinsics[i], self.poses[i]


def write_iteration_log(path, records: Sequence[IterationRecord]) -> None:
    lines = [json.dumps(r.to_json()) for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def _triangulate_columns(
    pixels: Array, vis: Array, intrinsics, poses, cols: Array
) -> Array:
    """DLT positions (3, len(cols)) from the visible cameras per column."""
    mats = np.stack([intr.K @ pose.matrix for intr, pose in zip(intrinsics, poses)])
    X, _ = triangulate_linear(mats, pixels[:, cols], vis[:, cols])
    w = np.where(np.abs(X[:, 3]) > 1e-15, X[:, 3], 1e-15)
    return (X[:, :3] / w[:, None]).T


def _reprojection_stats(
    pixels_raw: Array, vis: Array, camera_ids, intrinsics, poses,
    points3d: Array, cols: Array,
) -> tuple[dict[int, float], dict[int, float]]:
    """Mean/std of the raw-frame reprojection error over cols, keyed by
    camera id; a point behind a camera that sees it counts as an infinite
    error."""
    means, stds = {}, {}
    errors = reprojection_errors(pixels_raw[:, cols], vis[:, cols], intrinsics, poses, points3d)
    for cid, (_, err) in zip(camera_ids, errors):
        means[cid] = float(err.mean()) if len(err) else float("nan")
        stds[cid] = float(err.std()) if len(err) else float("nan")
    return means, stds


def essential_pose(E: Array, rays0: Array, rays: Array) -> tuple[CameraPose, Array]:
    """Pose of the second camera, with |t| = 1, and the first camera's depths
    of the normalized rays (k, 3) seen by both.

    Of the four (R, t) that E factors into (Hartley & Zisserman, Multiple
    View Geometry, 2nd ed., section 9.6), the one that puts the most rays in
    front of both cameras; raises CheiralityFailure when none puts a
    majority there.
    """
    U, _, Vt = np.linalg.svd(E)
    U, Vt = U * np.linalg.det(U), Vt * np.linalg.det(Vt)
    best = (-1,)
    for R in (U @ _W @ Vt, U @ _W.T @ Vt):
        # depths (z0, z) of z rays = R z0 rays0 + t, each from the cross
        # product of that equation with the other camera's ray
        turned = rays0 @ R.T
        c = np.cross(rays, turned)
        cc = np.maximum(np.einsum("ij,ij->i", c, c), 1e-300)
        for t in (U[:, 2], -U[:, 2]):
            z0 = -np.einsum("ij,ij->i", np.cross(rays, t), c) / cc
            z = np.einsum("ij,ij->i", np.cross(t, turned), c) / cc
            front = int(np.sum((z0 > 0) & (z > 0)))
            if front > best[0]:
                best = (front, R, t, z0)
    front, R, t, z0 = best
    if 2 * front <= len(rays0):
        raise CheiralityFailure(
            f"no decomposition of E puts a majority of {len(rays0)} points in "
            f"front of both cameras (best {front})"
        )
    return CameraPose(R, t), z0


def _planar(pixels0: Array, pixels: Array) -> bool:
    """Whether one homography, fitted by DLT, maps pixels0 (k, 2) onto pixels
    with a median transfer error under RANSAC_THRESHOLD."""
    T0, h0 = hartley_normalization(pixels0)
    T, h = hartley_normalization(pixels)
    zero = np.zeros_like(h0)
    A = np.vstack([
        np.hstack([zero, -h[:, 2:] * h0, h[:, 1:2] * h0]),
        np.hstack([h[:, 2:] * h0, zero, -h[:, :1] * h0]),
    ])
    _, _, Vt = np.linalg.svd(A, full_matrices=False)
    mapped = homogeneous(pixels0) @ (np.linalg.inv(T) @ Vt[-1].reshape(3, 3) @ T0).T
    err = np.linalg.norm(mapped[:, :2] / mapped[:, 2:] - pixels, axis=1)
    return float(np.median(err)) < RANSAC_THRESHOLD


def calibrate(
    points: Correspondences, config: CalibrationConfig = CalibrationConfig()
) -> CalibrationResult:
    """Recover intrinsics, distortion and relative poses from matched centers.

    The cameras are those that see at least one group, in camera id order;
    the lowest id is the reference, posed at the identity (rebase_extrinsics
    re-expresses the rig on another camera). Raises
    InsufficientCorrespondences up front and CalibrationFailed (with the
    result attached) when the worst camera's mean reprojection error stays
    above the target.
    """
    rows = sorted(np.flatnonzero(points.visibility.any(axis=1)), key=lambda i: points.camera_ids[i])
    camera_ids = [points.camera_ids[i] for i in rows]
    m = len(camera_ids)
    if m < 2:
        raise InsufficientCorrespondences(f"need at least 2 cameras, got {m}")

    raw, vis = points.pixels[rows], points.visibility[rows]
    n = len(points)
    full_vis = int(vis.all(axis=0).sum())
    if full_vis < MIN_FULL_VISIBILITY:
        raise InsufficientCorrespondences(
            f"{full_vis} fully visible correspondences, need >= {MIN_FULL_VISIBILITY}"
        )

    width, height = config.sensor
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    active = np.flatnonzero(vis.sum(axis=0) >= 2)
    actions: list[str] = []

    # --- pairwise epipolar geometry: RANSAC consensus ----------------------
    fundamentals: dict[tuple[int, int], FundamentalPair] = {}
    consensus = np.ones(n, dtype=bool)
    for a in range(m):
        for b in range(a + 1, m):
            shared = np.flatnonzero(vis[a] & vis[b])
            shared = shared[np.isin(shared, active)]
            if len(shared) < 8:
                continue
            try:
                pair, mask = estimate_fundamental_ransac(
                    raw[a, shared], raw[b, shared], seed=config.seed + 1000 * a + b
                )
            except NoModel:
                continue
            fundamentals[(a, b)] = pair
            consensus[shared[~mask]] = False
    dropped = int(np.sum(~consensus[active]))
    if dropped:
        active = active[consensus[active]]
        actions.append(f"ransac_consensus_dropped={dropped}")

    # --- shared focal length seed ------------------------------------------
    estimates = []
    for pair in fundamentals.values():
        try:
            estimates.append(solve_kruppa_focal(pair, (cx, cy)))
        except (DegenerateMotion, NegativeFocalSquared):
            continue
    if estimates:
        f0 = float(np.median(estimates))
        actions.append(f"kruppa_f={f0:.4f}")
    else:
        f0 = FALLBACK_FOCAL
        actions.append(f"kruppa_failed_fallback_f={f0:.1f}")
    intrinsics = [
        CameraIntrinsics(f0, f0, cx, cy, width=width, height=height) for _ in range(m)
    ]

    # --- relative poses from the (0, i) essential matrices -----------------
    sub_active = active[vis[:, active].all(axis=0)]
    if len(sub_active) < 8:
        raise InsufficientCorrespondences(
            f"only {len(sub_active)} fully visible inliers remain"
        )
    if any(_planar(raw[0, sub_active], raw[i, sub_active]) for i in range(1, m)):
        warnings.warn(
            "marker trajectory is near-planar: one homography maps the centers "
            "of camera 0 onto another camera's; the focal seed and poses are "
            "ill-conditioned",
            DegenerateTrajectoryWarning,
        )
    K = intrinsics[0].K
    rays = homogeneous(raw[:, sub_active]) @ np.linalg.inv(K).T
    poses = [CameraPose.identity()]
    for i in range(1, m):
        pair = fundamentals.get((0, i))
        if pair is None:
            raise SingularConfiguration(
                f"no fundamental matrix for camera pair (0, {i}): RANSAC found no model"
            )
        E = K.T @ pair.fundamental @ K
        sv = np.linalg.svd(E, compute_uv=False)
        if sv[1] < ESSENTIAL_MIN_RATIO * sv[0]:
            raise SingularConfiguration(
                f"camera pair (0, {i}) is not essential at the seed focal "
                f"{f0:.1f} px: sigma2/sigma1 = {sv[1] / sv[0]:.4f}"
            )
        actions.append(f"essential_0_{i}={sv[1] / sv[0]:.4f}")
        pose, depths = essential_pose(E, rays[0], rays[i])
        if i == 1:
            depths_1 = depths  # camera 1 sits at unit distance
        else:
            # |t| = 1 from every pair: camera 0's depths fix the pairs' ratio
            pose = CameraPose(pose.rotation, np.median(depths_1 / depths) * pose.translation)
        poses.append(pose)
    points3d = _triangulate_columns(raw, vis, intrinsics, poses, active)

    # --- bundle adjustment over the full camera model ----------------------
    free_distortion = []
    for i in range(m):
        reason = distortion_gate(raw[i, active[vis[i, active]]], intrinsics[i])
        if reason is None:
            free_distortion.append(i)
        else:
            actions.append(f"distortion_skipped_cam{camera_ids[i]}={reason}")

    def adjust(cols: Array, intrinsics, poses, points3d: Array):
        # one observation per visible (point, camera), ordered by point
        pt_idx, cam_idx = np.nonzero(vis[:, cols].T)
        ba = bundle_adjust(
            intrinsics, poses, points3d.T, cam_idx, pt_idx,
            raw[cam_idx, cols[pt_idx]], free_distortion=free_distortion,
        )
        actions.append(f"ba_steps={ba.accepted_steps}_cost={ba.final_cost:.6e}")
        return ba.intrinsics, ba.poses, ba.points.T

    intrinsics, poses, points3d = adjust(active, intrinsics, poses, points3d)

    # --- outlier rejection, then one more solve without the outliers -------
    kept = reject_outliers(raw[:, active], vis[:, active], intrinsics, poses, points3d)
    if len(kept) < len(active):
        actions.append(f"rejected={len(active) - len(kept)}")
        active = active[kept]
        intrinsics, poses, points3d = adjust(active, intrinsics, poses, points3d[:, kept])

    # --- stats + convergence -----------------------------------------------
    means, stds = _reprojection_stats(raw, vis, camera_ids, intrinsics, poses, points3d, active)
    score = max(means.values())
    converged = score < REPROJ_TARGET
    if converged:
        actions.append("converged")
    result = CalibrationResult(
        camera_ids=tuple(camera_ids),
        intrinsics=tuple(intrinsics),
        poses=tuple(poses),
        reference_camera=camera_ids[0],
        inlier_indices=active.copy(),
        inliers=points.take(active),
        points3d=points3d,
        mean_reprojection=means,
        std_reprojection=stds,
        iterations=[IterationRecord(1, means, stds, len(active), actions)],
        converged=converged,
    )
    if not converged:
        raise CalibrationFailed(
            f"reprojection target {REPROJ_TARGET} px not reached "
            f"(worst camera {score:.4f} px)",
            result,
        )
    return result
