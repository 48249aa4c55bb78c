"""Correctness checkers that do not rely on evdeform's own results.

Each checker takes plain arrays (or the program's output objects, read
only for their fields) and returns a list of problem strings; an empty
list means the check passed. Geometry is recomputed here with numpy alone,
and references come from the simulator's ground truth or from properties
the method must have, never from a saved copy of an earlier run.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

REFRACTORY_US = 50  # the simulator's per-pixel dead time


# ---------------------------------------------------------------------------
# numpy-only camera geometry
# ---------------------------------------------------------------------------

def project(fx, fy, cx, cy, dist, R, T, points):
    """Pinhole projection with the radial-tangential (k1, k2, p1, p2) model.

    points is (n, 3) in the frame the pose maps from; returns (n, 2) pixels.
    """
    cam = np.asarray(points, dtype=float) @ np.asarray(R).T + np.asarray(T)
    x = cam[:, 0] / cam[:, 2]
    y = cam[:, 1] / cam[:, 2]
    k1, k2, p1, p2 = dist
    r2 = x * x + y * y
    radial = 1.0 + k1 * r2 + k2 * r2 * r2
    xd = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
    yd = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
    return np.stack([fx * xd + cx, fy * yd + cy], axis=1)


def rotation_angle_deg(R) -> float:
    c = (np.trace(R) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def relative_rotation(Ra, Rb):
    """Rotation taking camera a's frame into camera b's (world-to-camera poses)."""
    return Rb @ Ra.T


# ---------------------------------------------------------------------------
# recordings written in setup
# ---------------------------------------------------------------------------

def check_csv_matches(path: Path, t, x, y, polarity) -> list[str]:
    """The CSV file, read with numpy's text reader, equals the columns exactly."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    expected = np.stack(
        [np.asarray(t), np.asarray(x), np.asarray(y), np.asarray(polarity).astype(np.int64)],
        axis=1,
    ).astype(np.int64)
    if data.shape != expected.shape:
        return [f"{path.name}: {data.shape[0]} rows, stream has {expected.shape[0]} events"]
    bad = np.flatnonzero((data != expected).any(axis=1))
    if len(bad):
        return [f"{path.name}: {len(bad)} rows differ from the stream, first at event {bad[0]}"]
    return []


def check_refractory(name: str, t, x, y) -> list[str]:
    """No two events of one pixel lie closer than the refractory period."""
    t, x, y = (np.asarray(a, dtype=np.int64) for a in (t, x, y))
    order = np.lexsort((t, y, x))
    ts, xs, ys = t[order], x[order], y[order]
    same = (xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])
    close = same & (np.diff(ts) < REFRACTORY_US)
    if close.any():
        return [f"{name}: {int(close.sum())} same-pixel event pairs within {REFRACTORY_US} us"]
    return []


def nearest_transition(transition_t_us, t) -> np.ndarray:
    """Index of the transition closest in time to each t."""
    tt = np.asarray(transition_t_us, dtype=float)
    t = np.asarray(t, dtype=float)
    if len(tt) < 2:
        return np.zeros(len(t), dtype=np.int64)
    j = np.clip(np.searchsorted(tt, t), 1, len(tt) - 1)
    return np.where(np.abs(t - tt[j - 1]) <= np.abs(tt[j] - t), j - 1, j)


def check_marker_footprint(
    name: str, t, x, y, marker_mask, transition_t_us, track_px, radius_px,
    threshold: float, amplitude: float,
) -> list[str]:
    """Every marker event lies inside the firing radius of its transition.

    A pixel fires where amplitude*cos(pi/2*rho) clears the threshold, so its
    distance from the projected center is at most
    (2/pi)*acos(threshold/amplitude) disk radii; one pixel of slack.
    """
    sel = np.asarray(marker_mask, dtype=bool)
    if not sel.any():
        return [f"{name}: no marker events"]
    k = nearest_transition(transition_t_us, np.asarray(t)[sel])
    d = np.hypot(np.asarray(x)[sel] - track_px[k, 0], np.asarray(y)[sel] - track_px[k, 1])
    rho_max = 2.0 / np.pi * np.arccos(threshold / amplitude)
    outside = ~(d <= rho_max * radius_px[k] + 1.0)
    if outside.any():
        return [f"{name}: {int(outside.sum())} marker events outside the firing radius"]
    return []


def check_noise_count(name: str, noise_events: int, expected: float) -> list[str]:
    """Background event count within 5 sigma of its Poisson expectation."""
    if abs(noise_events - expected) > 5.0 * np.sqrt(max(expected, 1.0)):
        return [f"{name}: {noise_events} noise events, expected {expected:.0f} +- 5 sigma"]
    return []


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def center_errors(pixels, t_c, transition_t_us, track_px, radius_px):
    """Distance of each center to the exact track at its nearest transition,
    and the disk radius there."""
    k = nearest_transition(transition_t_us, t_c)
    err = np.linalg.norm(np.asarray(pixels, dtype=float).reshape(-1, 2) - track_px[k], axis=1)
    return err, radius_px[k]


def check_centers_in_disk(name: str, errors, radii) -> list[str]:
    outside = ~(np.asarray(errors) < np.asarray(radii))
    if outside.any():
        return [f"{name}: {int(outside.sum())} centers outside the projected marker disk"]
    return []


def check_center_error(name: str, errors, limit_px: float = 0.5) -> list[str]:
    med = float(np.median(errors))
    if not med < limit_px:
        return [f"{name}: median center error {med:.3f} px, limit {limit_px} px"]
    return []


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def reprojection_per_camera(calibration) -> dict[int, float]:
    """Mean reprojection error (px) per camera, recomputed with numpy from
    the calibrated cameras, the triangulated inlier points and the centers."""
    pts = np.asarray(calibration.points3d, dtype=float).T
    out = {}
    for cid, intr, pose in zip(calibration.camera_ids, calibration.intrinsics, calibration.poses):
        cols, pixels = [], []
        for j, group in enumerate(calibration.inliers):
            for o in group.observations:
                if o.camera_id == cid:
                    cols.append(j)
                    pixels.append(o.pixel)
        if not cols:
            out[cid] = float("inf")
            continue
        proj = project(
            intr.fx, intr.fy, intr.cx, intr.cy, (intr.k1, intr.k2, intr.p1, intr.p2),
            pose.rotation, pose.translation, pts[cols],
        )
        out[cid] = float(np.linalg.norm(proj - np.asarray(pixels), axis=1).mean())
    return out


def check_reprojection(per_camera: dict[int, float], target_px: float = 0.3) -> list[str]:
    return [
        f"camera {cid}: mean reprojection {err:.3f} px, target {target_px} px"
        for cid, err in per_camera.items()
        if not err < target_px
    ]


def calibration_truth_errors(calibration, true_cameras) -> tuple[float, float]:
    """Worst relative focal error and worst pairwise rotation error (deg)
    against the simulator's cameras, indexed by camera id."""
    focal = 0.0
    for cid, intr in zip(calibration.camera_ids, calibration.intrinsics):
        true = true_cameras[cid][0]
        focal = max(focal, abs(intr.fx - true.fx) / true.fx, abs(intr.fy - true.fy) / true.fy)
    rot = 0.0
    ids = list(calibration.camera_ids)
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            Rt = relative_rotation(true_cameras[ids[a]][1].rotation, true_cameras[ids[b]][1].rotation)
            Re = relative_rotation(calibration.poses[a].rotation, calibration.poses[b].rotation)
            rot = max(rot, rotation_angle_deg(Rt @ Re.T))
    return focal, rot


# ---------------------------------------------------------------------------
# deformation
# ---------------------------------------------------------------------------

def pole_relative_error(t_a, pos_a, t_b, pos_b, length_mm: float, pair_us: float = 300.0) -> float:
    """|max paired distance - length| / length, pairing the two markers'
    samples by nearest timestamp (the acceptance suite's statistic)."""
    t_a, t_b = np.asarray(t_a, dtype=float), np.asarray(t_b, dtype=float)
    j = nearest_transition(t_b, t_a)
    close = np.abs(t_b[j] - t_a) < pair_us
    if not close.any():
        return float("inf")
    dist = np.linalg.norm(np.asarray(pos_a)[close] - np.asarray(pos_b)[j[close]], axis=1)
    return abs(float(dist.max()) - length_mm) / length_mm


def check_pole(rel_err: float, limit: float = 0.001) -> list[str]:
    if not rel_err < limit:
        return [f"pole length off by {rel_err:.3%}, limit {limit:.1%}"]
    return []


def sway_rmse(displacements, truth_displacements) -> np.ndarray:
    """Per-axis RMS difference between measured and true displacements."""
    diff = np.asarray(displacements) - np.asarray(truth_displacements)
    return np.sqrt(np.mean(diff * diff, axis=0))


def check_sway(rmse, kept: int, total: int, rmse_limit_mm: float = 0.5,
               kept_fraction: float = 0.99) -> list[str]:
    problems = []
    if not float(np.max(rmse)) < rmse_limit_mm:
        problems.append(f"sway RMSE {np.round(rmse, 3).tolist()} mm, limit {rmse_limit_mm} mm")
    if kept < kept_fraction * total:
        problems.append(f"only {kept} of {total} samples kept, need {kept_fraction:.0%}")
    return problems
