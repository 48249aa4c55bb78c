"""Acceptance checks on the canonical desk-scale rig.

Each check returns deterministic figures of merit; run_all executes the
suite and optionally repeats it to confirm the report is bit-reproducible.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .calibration.bundle import bundle_adjust, residuals_and_blocks
from .calibration.cleanup import reject_outliers
from .calibration.pipeline import CalibrationConfig, CalibrationResult, calibrate
from .deformation import (
    MeasureConfig,
    anchor_scale,
    camera_centers,
    measure_deformation,
    rig_from_calibration,
    triangulate,
)
from .extraction import (
    Centers,
    calibration_profile,
    extract_center_sequence,
    match_corresponding,
    measurement_profile,
)
from .geometry import (
    CameraIntrinsics,
    CameraPose,
    distort_normalized,
    homogeneous,
    project_points,
    relative_pose,
    rotation_angle,
    rotation_from_axis_angle,
    orthonormalize,
    undistort_pixels,
)
from .simulator import (
    PAPER_RIG_BASELINES_MM,
    PAPER_RIG_FOCAL_PX,
    paper_rig_cameras,
    pole_scenes,
    preset_paper_rig,
    simulate,
    sway_scene,
    truth_correspondences,
)

TRUE_FOCAL = PAPER_RIG_FOCAL_PX
TABLE_DISTORTION = (-0.05359, 0.33899, -0.00157, -0.00479)


@dataclass
class CheckResult:
    name: str
    passed: bool
    figures: dict[str, float]

    def __post_init__(self):
        self.figures = {k: float(v) for k, v in self.figures.items()}


# ---------------------------------------------------------------------------
# truth helpers
# ---------------------------------------------------------------------------

def _extract_and_match(streams, profile=measurement_profile(250.0)):
    seqs = [extract_center_sequence(s, profile).observations for s in streams]
    return match_corresponding(seqs, 1000.0)


def truth_errors(result: CalibrationResult) -> tuple[float, float]:
    """Worst focal length's relative error and worst pairwise rotation
    error (deg) of a calibrated rig against the preset rig."""
    true_poses = [p for _, p in paper_rig_cameras()]
    focal_err = max(
        max(abs(i.fx - TRUE_FOCAL), abs(i.fy - TRUE_FOCAL)) / TRUE_FOCAL
        for i in result.intrinsics
    )
    rot_err = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            Rt = relative_pose(true_poses[i], true_poses[j]).rotation
            Re = relative_pose(result.poses[i], result.poses[j]).rotation
            rot_err = max(rot_err, np.degrees(rotation_angle(Rt @ Re.T)))
    return focal_err, rot_err


def anchored_rig(result: CalibrationResult):
    """Rig in metric units, anchored on the known camera 0-1 baseline."""
    rig = rig_from_calibration(result)
    centers = camera_centers(rig)
    return anchor_scale(rig, PAPER_RIG_BASELINES_MM[0], (centers[0], centers[1]))


def paired_distances(t_a, positions_a, t_b, positions_b) -> np.ndarray:
    """Distances between the samples of two series paired by time: each
    sample of a with the nearest sample of b (the later one on a tie), kept
    when the two lie within 300 us."""
    j = np.clip(np.searchsorted(t_b, t_a), 0, len(t_b) - 1)
    jm = np.clip(j - 1, 0, len(t_b) - 1)
    nearer = np.where(np.abs(t_b[j] - t_a) <= np.abs(t_b[jm] - t_a), j, jm)
    close = np.abs(t_b[nearer] - t_a) < 300.0
    return np.linalg.norm(positions_a[close] - positions_b[nearer[close]], axis=1)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def check_calibration_reprojection(seed: int) -> tuple[CheckResult, CalibrationResult]:
    """Criterion 1: 0.2 px noise, >= 200 correspondences, per-camera mean
    reprojection < 0.3 px and std < 0.25 px, within 60 s."""
    config = preset_paper_rig()
    groups = truth_correspondences(config, 500, 0.2, seed)
    start = time.time()
    result = calibrate(groups, CalibrationConfig(seed=seed))
    runtime = time.time() - start
    figures = {"runtime_s": runtime, "correspondences": len(groups)}
    for cid in result.camera_ids:
        figures[f"mean_px_cam{cid}"] = result.mean_reprojection[cid]
        figures[f"std_px_cam{cid}"] = result.std_reprojection[cid]
    passed = (
        runtime < 60.0
        and len(groups) >= 200
        and all(v < 0.3 for v in result.mean_reprojection.values())
        and all(v < 0.25 for v in result.std_reprojection.values())
    )
    return CheckResult("calibration_reprojection", passed, figures), result


def check_noiseless_consistency(seed: int) -> tuple[CheckResult, CalibrationResult]:
    """Criterion 2: noiseless run recovers the rig almost exactly."""
    config = preset_paper_rig()
    groups = truth_correspondences(config, 400, 0.0, seed)
    result = calibrate(groups, CalibrationConfig(seed=seed))
    mean_px = max(result.mean_reprojection.values())
    focal_err, rot_err = truth_errors(result)
    C = [p.center for p in result.poses]
    ratio = np.linalg.norm(C[0] - C[1]) / np.linalg.norm(C[1] - C[2])
    ratio_true = PAPER_RIG_BASELINES_MM[0] / PAPER_RIG_BASELINES_MM[1]
    ratio_err = abs(ratio - ratio_true) / ratio_true

    figures = {
        "mean_px": mean_px,
        "focal_rel_err": focal_err,
        "pairwise_rot_deg": rot_err,
        "baseline_ratio_rel_err": ratio_err,
    }
    passed = (
        mean_px < 1e-4 and focal_err < 0.005 and rot_err < 0.05 and ratio_err < 0.002
    )
    return CheckResult("noiseless_consistency", passed, figures), result


def check_event_calibration(seed: int) -> tuple[CheckResult, CalibrationResult]:
    """The paper's path: the preset sweep's events, extracted with the
    calibration profile, matched and self-calibrated; focal within 0.1% and
    pairwise rotations within 0.02 deg of the true rig.

    The sweep is always the preset's own scene (seed 7): seed changes only
    the RANSAC draws, so this check judges one scene."""
    sim = simulate(preset_paper_rig())
    groups = _extract_and_match(sim.streams, calibration_profile(250.0))
    result = calibrate(groups, CalibrationConfig(seed=seed))
    focal_err, rot_err = truth_errors(result)
    figures = {
        "correspondences": len(groups),
        "mean_px": max(result.mean_reprojection.values()),
        "focal_rel_err": focal_err,
        "pairwise_rot_deg": rot_err,
    }
    passed = focal_err < 0.001 and rot_err < 0.02
    return CheckResult("event_calibration", passed, figures), result


def check_pole_distance(seed: int, calibration: CalibrationResult) -> CheckResult:
    """Criterion 3: two markers on a rigid 1000 mm pole, baseline-anchored,
    max inter-marker distance within 0.1%, within 30 s."""
    start = time.time()
    rig = anchored_rig(calibration)
    sa, sb = (
        measure_deformation(
            rig, _extract_and_match(simulate(scene).streams),
            MeasureConfig(residual_threshold_px=0.8),
        )
        for scene in pole_scenes(1.2, seed)
    )
    dist = paired_distances(sa.t_us, sa.positions, sb.t_us, sb.positions)
    runtime = time.time() - start
    max_dist = float(dist.max())
    rel_err = abs(max_dist - 1000.0) / 1000.0
    # the gate reads the maximum alone, which follows the noisiest sample
    each = np.abs(dist - 1000.0) / 1000.0
    figures = {
        "max_distance_mm": max_dist,
        "rel_err": rel_err,
        "rel_err_median": np.median(each),
        "rel_err_p95": np.percentile(each, 95),
        "paired_samples": len(dist),
        "runtime_s": runtime,
    }
    passed = rel_err < 0.001 and runtime < 30.0 and len(dist) >= 200
    return CheckResult("pole_distance", passed, figures)


def check_span_grid(seed: int, calibration: CalibrationResult) -> CheckResult:
    """Criterion 4: 50 mm pitch point row, spans of 150/200/250/300 mm
    reconstructed within 1% at 300 mm under 0.3 px noise."""
    rig = anchored_rig(calibration)
    cams = paper_rig_cameras()
    rng = np.random.default_rng(seed + 77)
    xs = np.arange(7) * 50.0 - 150.0
    points = np.stack([xs, np.full(7, 120.0), np.full(7, 5150.0)], axis=1)
    draws = 40
    # column p * draws + d holds draw d of point p; noise is drawn point by
    # point, draw by draw, camera by camera
    exact = np.stack([project_points(intr, pose, points)[0] for intr, pose in cams])
    noise = rng.normal(0.0, 0.3, (len(points) * draws, len(cams), 2))
    pixels = np.repeat(exact, draws, axis=1) + noise.transpose(1, 0, 2)
    positions, _, _, _ = triangulate(rig, pixels, np.ones(pixels.shape[:2], dtype=bool))
    mean_positions = positions.reshape(len(points), draws, 3).sum(axis=1) / draws

    figures = {}
    errors = {}
    for span in (150.0, 200.0, 250.0, 300.0):
        k = int(span / 50.0)
        measured = [
            float(np.linalg.norm(mean_positions[i + k] - mean_positions[i]))
            for i in range(7 - k)
        ]
        measured_mean = float(np.mean(measured))
        errors[span] = abs(measured_mean - span) / span
        figures[f"span_{int(span)}_mm"] = measured_mean
        figures[f"span_{int(span)}_rel_err"] = errors[span]
    passed = errors[300.0] < 0.01
    return CheckResult("span_grid", passed, figures)


def check_deformation_sway(seed: int, calibration: CalibrationResult) -> CheckResult:
    """Criterion 5: 18.2 mm 3D sway recovered within 2%, per-axis RMSE under
    0.5 mm, >= 99% of samples triangulated with residual < 1 px."""
    scene = sway_scene(seed + 101)
    groups = _extract_and_match(simulate(scene).streams)
    rig = anchored_rig(calibration)
    series = measure_deformation(rig, groups, MeasureConfig(residual_threshold_px=1.0))

    total = len(series) + series.dropped
    kept_fraction = len(series) / total
    amplitude = series.max_amplitude
    t_s = series.t_us * 1e-6
    truth_world = scene.trajectory.positions(t_s)
    centre = np.asarray(scene.trajectory.center)
    truth_amp = float(np.linalg.norm(truth_world - centre, axis=1).max())
    # express the true displacement in the reference camera's axes
    R0 = scene.cameras[0][1].rotation
    truth_disp = (truth_world - centre) @ R0.T
    rmse = np.sqrt(np.mean((series.displacements - truth_disp) ** 2, axis=0))

    amp_err = abs(amplitude - truth_amp) / truth_amp
    figures = {
        "amplitude_mm": amplitude,
        "truth_amplitude_mm": truth_amp,
        "amplitude_rel_err": amp_err,
        "rmse_x_mm": rmse[0],
        "rmse_y_mm": rmse[1],
        "rmse_z_mm": rmse[2],
        "triangulated_fraction": kept_fraction,
    }
    passed = amp_err < 0.02 and float(rmse.max()) < 0.5 and kept_fraction >= 0.99
    return CheckResult("deformation_sway", passed, figures)


# ---------------------------------------------------------------------------
# criterion 6: property suite
# ---------------------------------------------------------------------------

_OUTLIER_TRIALS = 50


def _random_rig(rng, n_cams, n_points):
    intr = CameraIntrinsics(1500.0, 1500.0, 639.5, 359.5)
    poses = []
    for k in range(n_cams):
        angle = (k - 1) * 0.5
        C = np.array([3000.0 * np.sin(angle), 200.0 * k, -3000.0 * (1 - np.cos(angle))])
        z = np.array([0.0, 0.0, 5000.0]) - C
        z = z / np.linalg.norm(z)
        x = np.cross([0.0, 1.0, 0.0], z)
        x = x / np.linalg.norm(x)
        R = np.stack([x, np.cross(z, x), z])
        poses.append(CameraPose(R, -R @ C))
    points = np.array([0.0, 0.0, 5000.0]) + rng.uniform(-1, 1, (n_points, 3)) * 800.0
    return intr, poses, points


def _prop_ba_monotonic(seed: int) -> int:
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(100):
        intr, poses, points = _random_rig(rng, 3, 15)
        cam_idx = np.repeat(np.arange(3), len(points))
        pt_idx = np.tile(np.arange(len(points)), 3)
        pix = np.concatenate([project_points(intr, p, points)[0] for p in poses])
        p_poses = [
            CameraPose(
                orthonormalize(rotation_from_axis_angle(rng.normal(0, 0.01, 3)) @ p.rotation),
                p.translation + rng.normal(0, 20.0, 3),
            )
            for p in poses
        ]
        p_points = points + rng.normal(0, 15.0, points.shape)
        res = bundle_adjust([intr] * 3, p_poses, p_points, cam_idx, pt_idx, pix)
        trace = np.array(res.cost_trace)
        if np.any(np.diff(trace) > 0):
            violations += 1
    return violations


def _prop_jacobian(seed: int) -> float:
    from .calibration.bundle import CAM_PARAMS, apply_perturbation, dense_jacobian

    rng = np.random.default_rng(seed)
    intr, poses, points = _random_rig(rng, 2, 8)
    cam_idx = np.repeat(np.arange(2), len(points))
    pt_idx = np.tile(np.arange(len(points)), 2)
    pix = np.concatenate([project_points(intr, p, points)[0] for p in poses])
    pix = pix + rng.normal(0, 1.0, pix.shape)
    _, J = dense_jacobian([intr] * 2, poses, points, cam_idx, pt_idx, pix)
    P = CAM_PARAMS * 2 + 3 * len(points)
    h = 1e-6
    Jfd = np.zeros_like(J)
    for q in range(P):
        d = np.zeros(P)
        d[q] = h
        ip, pp, xp = apply_perturbation([intr] * 2, poses, points, d)
        rp, _, _ = residuals_and_blocks(ip, pp, xp, cam_idx, pt_idx, pix)
        im, pm, xm = apply_perturbation([intr] * 2, poses, points, -d)
        rm, _, _ = residuals_and_blocks(im, pm, xm, cam_idx, pt_idx, pix)
        Jfd[:, q] = (rp.ravel() - rm.ravel()) / (2 * h)
    denom = np.maximum(np.abs(Jfd), 1e-6 * np.abs(Jfd).max())
    return float((np.abs(J - Jfd) / denom).max())


def _prop_undistort(seed: int) -> float:
    intr = CameraIntrinsics(
        1778.5077, 1772.3397, 639.5, 359.5, *TABLE_DISTORTION
    )
    gx, gy = np.meshgrid(np.linspace(0, 1279, 24), np.linspace(0, 719, 14))
    ideal = np.stack([gx.ravel(), gy.ravel()], axis=1)
    xy = intr.normalized_from_pixel(ideal)
    distorted = intr.pixel_from_normalized(distort_normalized(intr, xy))
    recovered = undistort_pixels(intr, distorted)
    xy2 = intr.normalized_from_pixel(recovered)
    roundtrip = intr.pixel_from_normalized(distort_normalized(intr, xy2))
    return float(np.abs(roundtrip - distorted).max())


def _prop_outliers(seed: int) -> int:
    rng = np.random.default_rng(seed)
    exact = 0
    for _ in range(_OUTLIER_TRIALS):
        intr, poses, points = _random_rig(rng, 3, 100)
        pix = np.stack([project_points(intr, p, points)[0] for p in poses])
        planted = rng.choice(100, size=10, replace=False)
        cam_pick = rng.integers(0, 3, size=10)
        for idx, cam in zip(planted, cam_pick):
            offset = rng.normal(0, 1, 2)
            offset = offset / np.linalg.norm(offset) * 20.0
            pix[cam, idx] += offset
        kept = reject_outliers(pix, np.ones((3, 100), dtype=bool), [intr] * 3, poses, points.T)
        if np.array_equal(np.setdiff1d(np.arange(100), kept), np.sort(planted)):
            exact += 1
    return exact


def _prop_matching(seed: int) -> int:
    rng = np.random.default_rng(seed)
    blink_times = np.sort(rng.uniform(0, 2e6, 200))
    keep = np.concatenate([[True], np.diff(blink_times) > 4000])
    blink_times = blink_times[keep]
    k = len(blink_times)
    sequences = []
    for cam in range(3):
        t_c = np.sort(blink_times + rng.normal(0, 3.0, k))
        pixel = np.tile([100.0 + cam, 50.0], (k, 1))
        sequences.append(Centers(cam, t_c, pixel, np.full(k, 5), t_c, t_c))
    groups = match_corresponding(sequences, t_th=1000.0)
    mismatches = abs(len(groups) - len(blink_times))
    mismatches += int(np.sum(groups.visibility.sum(axis=0) != 3))
    nearest = np.abs(blink_times[:, None] - groups.mean_t).min(axis=0)
    mismatches += int(np.sum(nearest > 500))
    return mismatches


def _prop_reference_invariance(seed: int) -> float:
    rng = np.random.default_rng(seed)
    intr, poses, points = _random_rig(rng, 3, 12)
    from .deformation import rebase_extrinsics

    markers = points[:4]
    dists = []
    for reference in range(3):
        rig = rebase_extrinsics(poses, reference, [intr] * 3)
        pixels = np.stack([project_points(intr, pose, markers)[0] for pose in poses])
        positions, _, _, _ = triangulate(rig, pixels, np.ones((3, len(markers)), dtype=bool))
        d = [
            np.linalg.norm(positions[i] - positions[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        dists.append(np.array(d))
    dists = np.stack(dists)
    spread = (dists.max(axis=0) - dists.min(axis=0)) / dists.mean(axis=0)
    return float(spread.max())


def check_property_suite(seed: int) -> CheckResult:
    figures = {
        "ba_monotonic_violations": _prop_ba_monotonic(seed),
        "jacobian_max_rel_err": _prop_jacobian(seed),
        "undistort_roundtrip_px": _prop_undistort(seed),
        "outlier_trials_exact": _prop_outliers(seed),
        "matching_mismatches": _prop_matching(seed),
        "reference_invariance_rel": _prop_reference_invariance(seed),
    }
    passed = (
        figures["ba_monotonic_violations"] == 0
        and figures["jacobian_max_rel_err"] < 1e-4
        and figures["undistort_roundtrip_px"] < 1e-8
        and figures["outlier_trials_exact"] == _OUTLIER_TRIALS
        and figures["matching_mismatches"] == 0
        and figures["reference_invariance_rel"] < 1e-9
    )
    return CheckResult("property_suite", passed, figures)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _run_once(seed: int) -> list[CheckResult]:
    c1, _ = check_calibration_reprojection(seed)
    c2, _ = check_noiseless_consistency(seed)
    events, rig = check_event_calibration(seed)
    c3 = check_pole_distance(seed, rig)
    c4 = check_span_grid(seed, rig)
    c5 = check_deformation_sway(seed, rig)
    c6 = check_property_suite(seed)
    return [c1, c2, events, c3, c4, c5, c6]


_TIMING_FIGURES = ("runtime_s",)


def run_all(seed: int = 0, check_determinism: bool = True) -> list[CheckResult]:
    results = _run_once(seed)
    if check_determinism:
        second = _run_once(seed)
        divergence = 0.0
        for a, b in zip(results, second):
            for key in a.figures:
                if key in _TIMING_FIGURES:
                    continue
                divergence = max(divergence, abs(a.figures[key] - b.figures[key]))
        results.append(
            CheckResult(
                "determinism",
                divergence < 1e-12,
                {"max_figure_divergence": divergence},
            )
        )
    return results


def report_lines(results: list[CheckResult]) -> list[str]:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        shown = ", ".join(f"{k}={r.figures[k]:.6g}" for k in sorted(r.figures))
        lines.append(f"[{status}] {r.name.ljust(width)}  {shown}")
    return lines
