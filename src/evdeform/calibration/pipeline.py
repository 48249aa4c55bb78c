"""Outer self-calibration loop over corresponding points.

Each pass estimates pairwise epipolar geometry (RANSAC first, then from the
current calibration), runs the rank-4 factorization with depth updates,
upgrades to a metric frame seeded by the shared focal length, refines with
bundle adjustment, rejects outliers and fits distortion, then repeats on
undistorted coordinates until every camera's mean reprojection error drops
below the target or the iteration cap is reached.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
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
from ..extraction import CorrespondingPoint, correspondence_arrays
from ..geometry import (
    CameraIntrinsics,
    CameraPose,
    FundamentalPair,
    distort_normalized,
    estimate_fundamental_ransac,
    fundamental_from_calibrated,
    relative_pose,
    triangulate_linear,
    undistort_pixels,
)
from .bundle import BundleOptions, bundle_adjust
from .cleanup import estimate_distortion, reject_outliers
from .factorization import MeasurementMatrix, projective_factorize
from .kruppa import solve_kruppa_focal
from .upgrade import euclidean_upgrade

Array = np.ndarray


@dataclass(frozen=True)
class CalibrationConfig:
    sensor: tuple[int, int] = (1280, 720)
    initial_focal: float = 1600.0
    principal_mode: str = "fixed"  # "fixed" at sensor center or "free"
    reproj_target: float = 0.3
    max_iterations: int = 20
    epipolar_threshold: float = 2.0  # d_h, px
    reproj_threshold: float = 1.0  # xi_th, px
    ransac_threshold: float = 1.0
    ransac_iters: int = 2000
    factorization_tol: float = 1e-10
    factorization_max_iters: int = 200
    min_full_visibility: int = 20
    reference_camera: int | None = None  # default: lowest camera id
    refine_focal: bool = True
    fit_distortion: bool = True
    origin_point: int = 0
    seed: int = 0
    ba_max_iters: int = 60


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
    inliers: tuple[CorrespondingPoint, ...]
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


def _project_full(intr: CameraIntrinsics, pose: CameraPose, pts: Array) -> Array:
    """Full-model projection without the positive-depth guard (stats use)."""
    cam = pose.transform(pts)
    z = np.where(np.abs(cam[:, 2]) < 1e-12, 1e-12, cam[:, 2])
    xy = cam[:, :2] / z[:, None]
    return intr.pixel_from_normalized(distort_normalized(intr, xy))


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
) -> tuple[dict[int, float], dict[int, float], list[Array]]:
    """Per-camera mean/std of the raw-frame reprojection error over cols."""
    means, stds, errors = {}, {}, []
    for i in range(len(intrinsics)):
        seen = vis[i, cols]
        idx = cols[seen]
        if not len(idx):
            means[i], stds[i] = float("nan"), float("nan")
            errors.append(np.array([]))
            continue
        sel = np.flatnonzero(seen)
        proj = _project_full(intrinsics[i], poses[i], points3d[:, sel].T)
        err = np.linalg.norm(proj - pixels_raw[i, idx], axis=1)
        means[i] = float(err.mean())
        stds[i] = float(err.std())
        errors.append(err)
    return means, stds, errors


def calibrate(
    points: Sequence[CorrespondingPoint], config: CalibrationConfig = CalibrationConfig()
) -> CalibrationResult:
    """Recover intrinsics, distortion and relative poses from matched centers.

    Raises InsufficientCorrespondences up front and CalibrationFailed (with
    the best result attached) when the loop hits its cap above the target.
    """
    points = list(points)
    camera_ids = sorted({obs.camera_id for cp in points for obs in cp.observations})
    m = len(camera_ids)
    if m < 2:
        raise InsufficientCorrespondences(f"need at least 2 cameras, got {m}")
    reference = config.reference_camera if config.reference_camera is not None else camera_ids[0]
    if reference not in camera_ids:
        raise InsufficientCorrespondences(f"reference camera {reference} unseen in the data")
    ref_row = camera_ids.index(reference)

    raw, vis = correspondence_arrays(points, camera_ids)
    n = len(points)
    full_vis = int(vis.all(axis=0).sum())
    if full_vis < config.min_full_visibility:
        raise InsufficientCorrespondences(
            f"{full_vis} fully visible correspondences, need "
            f">= {config.min_full_visibility}"
        )

    width, height = config.sensor
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    intrinsics = [
        CameraIntrinsics(config.initial_focal, config.initial_focal, cx, cy,
                         width=width, height=height)
        for _ in range(m)
    ]
    poses = [CameraPose.identity() for _ in range(m)]

    active = np.flatnonzero(vis.sum(axis=0) >= 2)
    working = raw.copy()
    records: list[IterationRecord] = []
    best: CalibrationResult | None = None
    best_score = np.inf
    focal_seeded = False

    for it in range(1, config.max_iterations + 1):
        actions: list[str] = []

        # --- pairwise epipolar geometry (scale-factor stage) -------------
        fundamentals: dict[tuple[int, int], FundamentalPair] = {}
        if it == 1:
            consensus = np.ones(n, dtype=bool)
            for a in range(m):
                for b in range(a + 1, m):
                    shared = np.flatnonzero(vis[a] & vis[b])
                    shared = shared[np.isin(shared, active)]
                    if len(shared) < 8:
                        continue
                    try:
                        pair, mask = estimate_fundamental_ransac(
                            working[a, shared],
                            working[b, shared],
                            threshold=config.ransac_threshold,
                            max_iters=config.ransac_iters,
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
        else:
            for a in range(m):
                for b in range(a + 1, m):
                    fundamentals[(a, b)] = fundamental_from_calibrated(
                        intrinsics[a], intrinsics[b], relative_pose(poses[a], poses[b])
                    )

        # --- shared focal length seed ------------------------------------
        if not focal_seeded:
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
                f0 = config.initial_focal
                actions.append(f"kruppa_failed_fallback_f={f0:.1f}")
            intrinsics = [intr.with_focal(f0, f0) for intr in intrinsics]
            focal_seeded = True

        # --- factorization + metric upgrade ------------------------------
        sub_active = active[vis[:, active].all(axis=0)]
        if len(sub_active) < 8:
            raise InsufficientCorrespondences(
                f"only {len(sub_active)} fully visible inliers remain"
            )
        W = MeasurementMatrix(
            working[:, sub_active], np.ones((m, len(sub_active))),
            np.ones((m, len(sub_active)), dtype=bool),
        )
        rec = projective_factorize(
            W,
            tol=config.factorization_tol,
            max_iters=config.factorization_max_iters,
            fundamentals=fundamentals if it > 1 else None,
        )
        actions.append(f"factorize_iters={rec.iterations}_res={rec.residual:.3e}")
        # a planar sweep collapses the factored matrix to rank 3
        sv = rec.singular_values
        if it == 1 and sv is not None and len(sv) > 3 and sv[3] < 1e-6 * sv[0]:
            warnings.warn(
                "marker trajectory is near-planar; focal and upgrade "
                "estimates are ill-conditioned",
                DegenerateTrajectoryWarning,
            )
        upgrade = euclidean_upgrade(
            rec, intrinsics, origin_index=min(config.origin_point, len(sub_active) - 1),
            reference=ref_row,
        )
        poses = upgrade.poses
        if it == 1:
            s = np.linalg.svd(
                upgrade.points.T - upgrade.points.T.mean(axis=0), compute_uv=False
            )
            if s[2] < 1e-3 * s[0]:
                warnings.warn(
                    "marker trajectory is near-planar; focal and upgrade "
                    "estimates are ill-conditioned",
                    DegenerateTrajectoryWarning,
                )

        # rebase on the reference camera and normalize the gauge scale
        ref_pose = poses[ref_row]
        poses = [
            CameraPose.identity() if j == ref_row else relative_pose(ref_pose, poses[j])
            for j in range(m)
        ]
        others = [j for j in range(m) if j != ref_row]
        scale = np.linalg.norm(poses[others[0]].translation)
        if scale < 1e-12:
            raise CalibrationFailed("degenerate baseline after upgrade", best)
        poses = [
            CameraPose(p.rotation, p.translation / scale) if j != ref_row else p
            for j, p in enumerate(poses)
        ]

        # --- triangulate all active points with the current cameras ------
        points3d = _triangulate_columns(working, vis, intrinsics, poses, active)

        # --- bundle adjustment -------------------------------------------
        # one observation per visible (point, camera), ordered by point
        pt_idx, cam_idx = np.nonzero(vis[:, active].T)
        obs_px = working[cam_idx, active[pt_idx]]
        options = BundleOptions(
            refine_focal=config.refine_focal,
            refine_principal=config.principal_mode == "free",
            frozen_cameras=(ref_row,),
            max_iters=config.ba_max_iters,
        )
        ba = bundle_adjust(
            intrinsics, poses, points3d.T, cam_idx, pt_idx, obs_px, options
        )
        actions.append(f"ba_steps={ba.accepted_steps}_cost={ba.final_cost:.6e}")
        # keep the distortion coefficients, refresh the linear parameters
        intrinsics = [
            old.with_focal(new.fx, new.fy) if config.principal_mode == "fixed"
            else replace(old, fx=new.fx, fy=new.fy, cx=new.cx, cy=new.cy)
            for old, new in zip(intrinsics, ba.intrinsics)
        ]
        poses = ba.poses
        points3d = ba.points.T

        # --- stats + convergence ------------------------------------------
        means, stds, _ = _reprojection_stats(
            raw, vis, intrinsics, poses, points3d, active
        )
        record = IterationRecord(it, means, stds, len(active), actions)
        records.append(record)

        score = max(means.values())
        result = CalibrationResult(
            camera_ids=tuple(camera_ids),
            intrinsics=tuple(intrinsics),
            poses=tuple(poses),
            reference_camera=reference,
            inlier_indices=active.copy(),
            inliers=tuple(points[j] for j in active),
            points3d=points3d,
            mean_reprojection={camera_ids[i]: means[i] for i in range(m)},
            std_reprojection={camera_ids[i]: stds[i] for i in range(m)},
            iterations=records,
            converged=False,
        )
        if score < best_score:
            best, best_score = result, score
        # the first pass must reach the distortion stage before the loop may
        # declare convergence, else systematic distortion hides inside the
        # bundle-adjusted focal lengths
        if score < config.reproj_target and (it > 1 or not config.fit_distortion):
            result.converged = True
            actions.append("converged")
            return result

        # --- outlier rejection --------------------------------------------
        report = reject_outliers(
            working,
            _mask_columns(vis, active),
            intrinsics,
            poses,
            _expand_points(points3d, active, n),
            d_h=config.epipolar_threshold,
            xi_th=config.reproj_threshold,
        )
        if len(report.removed):
            actions.append(f"rejected={len(report.removed)}")
            active = report.kept[np.isin(report.kept, active)]

        # --- distortion ----------------------------------------------------
        if config.fit_distortion:
            new_intr = []
            for i in range(m):
                cols = active[vis[i, active]]
                sel = np.flatnonzero(vis[i, active])
                fit = estimate_distortion(
                    points3d[:, sel].T, raw[i, cols], intrinsics[i], poses[i]
                )
                if fit.skipped:
                    actions.append(f"distortion_skipped_cam{camera_ids[i]}={fit.reason}")
                    new_intr.append(intrinsics[i])
                else:
                    new_intr.append(
                        intrinsics[i].with_distortion(fit.k1, fit.k2, fit.p1, fit.p2)
                    )
            intrinsics = new_intr
            for i in range(m):
                cols = np.flatnonzero(vis[i])
                if len(cols):
                    working[i, cols] = undistort_pixels(intrinsics[i], raw[i, cols])

    raise CalibrationFailed(
        f"reprojection target {config.reproj_target} px not reached in "
        f"{config.max_iterations} iterations (best {best_score:.4f} px)",
        best,
    )


def _mask_columns(vis: Array, active: Array) -> Array:
    out = np.zeros_like(vis)
    out[:, active] = vis[:, active]
    return out


def _expand_points(points3d: Array, active: Array, n: int) -> Array:
    out = np.zeros((3, n))
    out[:, active] = points3d
    return out
