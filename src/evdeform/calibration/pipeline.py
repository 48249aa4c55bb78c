"""Self-calibration over corresponding points, in one pass.

RANSAC epipolar geometry drops inconsistent correspondences and gives the
Kruppa seed of the shared focal length. The rank-4 factorization with depth
updates and the metric upgrade initialise cameras and points, and one bundle
adjustment refines the full camera model: pose, focal lengths and, for each
camera whose observations cover enough of the sensor, the distortion
coefficients. Outliers are then rejected against that model; if any are,
the bundle adjustment runs once more without them. The result converges
when every camera's mean reprojection error is under the target.
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
    DegenerateMotion,
    DegenerateTrajectoryWarning,
    InsufficientCorrespondences,
    NegativeFocalSquared,
    NoModel,
)
from ..extraction import Correspondences
from ..geometry import (
    CameraIntrinsics,
    CameraPose,
    FundamentalPair,
    estimate_fundamental_ransac,
    relative_pose,
    triangulate_linear,
)
from .bundle import BundleOptions, bundle_adjust
from .cleanup import distortion_gate, project_unguarded, reject_outliers
from .factorization import projective_factorize
from .kruppa import solve_kruppa_focal
from .upgrade import euclidean_upgrade

Array = np.ndarray


# The recipe's fixed settings, in px unless noted
FALLBACK_FOCAL = 1600.0  # focal seed when no Kruppa estimate succeeds
REPROJ_TARGET = 0.3  # worst camera's mean reprojection error to converge
EPIPOLAR_THRESHOLD = 2.0  # d_h of reject_outliers
REPROJ_THRESHOLD = 1.0  # xi_th of reject_outliers
RANSAC_THRESHOLD = 1.0
RANSAC_ITERS = 2000
MIN_FULL_VISIBILITY = 20  # groups every camera sees
BA_MAX_ITERS = 60


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
    pixels_raw: Array, vis: Array, intrinsics, poses, points3d: Array, cols: Array,
) -> tuple[dict[int, float], dict[int, float]]:
    """Per-camera mean/std of the raw-frame reprojection error over cols."""
    means, stds = {}, {}
    for i in range(len(intrinsics)):
        seen = vis[i, cols]
        if not seen.any():
            means[i], stds[i] = float("nan"), float("nan")
            continue
        proj = project_unguarded(intrinsics[i], poses[i], points3d[:, seen].T)
        err = np.linalg.norm(proj - pixels_raw[i, cols[seen]], axis=1)
        means[i] = float(err.mean())
        stds[i] = float(err.std())
    return means, stds


def _warn_planar() -> None:
    warnings.warn(
        "marker trajectory is near-planar; focal and upgrade estimates are "
        "ill-conditioned",
        DegenerateTrajectoryWarning,
    )


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
                    raw[a, shared],
                    raw[b, shared],
                    threshold=RANSAC_THRESHOLD,
                    max_iters=RANSAC_ITERS,
                    seed=config.seed + 1000 * a + b,
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

    # --- factorization + metric upgrade ------------------------------------
    sub_active = active[vis[:, active].all(axis=0)]
    if len(sub_active) < 8:
        raise InsufficientCorrespondences(
            f"only {len(sub_active)} fully visible inliers remain"
        )
    rec = projective_factorize(raw[:, sub_active])
    actions.append(f"factorize_iters={rec.iterations}_res={rec.residual:.3e}")
    # a planar sweep collapses the factored matrix to rank 3, or else the
    # upgraded points to a plane
    sv = rec.singular_values
    if sv[3] < 1e-6 * sv[0]:
        _warn_planar()
    upgrade = euclidean_upgrade(rec, intrinsics)
    s = np.linalg.svd(upgrade.points.T - upgrade.points.T.mean(axis=0), compute_uv=False)
    if s[2] < 1e-3 * s[0]:
        _warn_planar()

    # rebase on the reference camera (row 0), scaled so camera 1 sits at unit distance
    others = [relative_pose(upgrade.poses[0], p) for p in upgrade.poses[1:]]
    scale = np.linalg.norm(others[0].translation)
    if scale < 1e-12:
        raise CalibrationFailed("degenerate baseline after upgrade")
    poses = [CameraPose.identity()] + [
        CameraPose(p.rotation, p.translation / scale) for p in others
    ]
    points3d = _triangulate_columns(raw, vis, intrinsics, poses, active)

    # --- bundle adjustment over the full camera model ----------------------
    free_distortion = []
    for i in range(m):
        reason = distortion_gate(raw[i, active[vis[i, active]]], intrinsics[i])
        if reason is None:
            free_distortion.append(i)
        else:
            actions.append(f"distortion_skipped_cam{camera_ids[i]}={reason}")
    options = BundleOptions(refine_distortion=tuple(free_distortion), max_iters=BA_MAX_ITERS)

    def adjust(cols: Array, intrinsics, poses, points3d: Array):
        # one observation per visible (point, camera), ordered by point
        pt_idx, cam_idx = np.nonzero(vis[:, cols].T)
        ba = bundle_adjust(
            intrinsics, poses, points3d.T, cam_idx, pt_idx,
            raw[cam_idx, cols[pt_idx]], options,
        )
        actions.append(f"ba_steps={ba.accepted_steps}_cost={ba.final_cost:.6e}")
        return ba.intrinsics, ba.poses, ba.points.T

    intrinsics, poses, points3d = adjust(active, intrinsics, poses, points3d)

    # --- outlier rejection, then one more solve without the outliers -------
    in_active = np.isin(np.arange(n), active)
    all_points = np.zeros((3, n))
    all_points[:, active] = points3d
    report = reject_outliers(
        raw, vis & in_active, intrinsics, poses, all_points,
        d_h=EPIPOLAR_THRESHOLD, xi_th=REPROJ_THRESHOLD,
    )
    if len(report.removed):
        actions.append(f"rejected={len(report.removed)}")
        kept = np.isin(active, report.kept)
        active = active[kept]
        intrinsics, poses, points3d = adjust(active, intrinsics, poses, points3d[:, kept])

    # --- stats + convergence -----------------------------------------------
    means, stds = _reprojection_stats(raw, vis, intrinsics, poses, points3d, active)
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
        mean_reprojection={camera_ids[i]: means[i] for i in range(m)},
        std_reprojection={camera_ids[i]: stds[i] for i in range(m)},
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
