"""Projective-geometry primitives shared across the pipeline.

Pinhole cameras with radial-tangential distortion, rigid poses, fundamental
matrices with their epipoles, epipolar distances, and a seven-point RANSAC
estimator. All operations are pure functions on immutable inputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateBaseline,
    InsufficientPoints,
    NoConvergence,
    NoModel,
    ParseError,
    document_fields,
    read_document,
)

Array = np.ndarray

_UNDISTORT_MAX_ITERS = 20
_UNDISTORT_TARGET_PX = 1e-10
_UNDISTORT_FAIL_PX = 1e-6
RANSAC_THRESHOLD = 1.0  # px, symmetric epipolar-line distance of an inlier
RANSAC_ITERS = 2000  # most seven-point draws
_RANSAC_CONFIDENCE = 0.9999  # of having drawn one all-inlier sample


def skew(v: Array) -> Array:
    """Antisymmetric matrix [v]x with [v]x @ w = v x w."""
    v = np.asarray(v, dtype=float)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def rotation_from_axis_angle(w: Array) -> Array:
    """Rodrigues exponential map from a 3-vector."""
    w = np.asarray(w, dtype=float)
    theta = float(np.linalg.norm(w))
    K = skew(w)
    if theta < 1e-12:
        return np.eye(3) + K + 0.5 * K @ K
    K = K / theta
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def rotation_angle(R: Array) -> float:
    """Rotation angle in radians of an orthonormal matrix."""
    c = (np.trace(R) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def orthonormalize(R: Array) -> Array:
    """Nearest rotation matrix (polar projection, det forced to +1)."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float))
    D = np.diag([1.0, 1.0, float(np.sign(np.linalg.det(U @ Vt)))])
    return U @ D @ Vt


def homogeneous(points: Array) -> Array:
    """Append a unit coordinate along the last axis."""
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.ones(points.shape[:-1] + (1,))], axis=-1)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with two radial and two tangential coefficients."""

    fx: float
    fy: float
    cx: float
    cy: float
    k1: float = 0.0
    k2: float = 0.0
    p1: float = 0.0
    p2: float = 0.0
    width: int = 1280
    height: int = 720

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside sensor "
                f"{self.width}x{self.height}"
            )
        bad = [k for k in ("fx", "fy", "k1", "k2", "p1", "p2") if not np.isfinite(getattr(self, k))]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")

    @property
    def K(self) -> Array:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    @property
    def distortion(self) -> Array:
        return np.array([self.k1, self.k2, self.p1, self.p2])

    @property
    def sensor(self) -> tuple[int, int]:
        return (self.width, self.height)

    def with_focal(self, fx: float, fy: float) -> "CameraIntrinsics":
        return replace(self, fx=fx, fy=fy)

    def normalized_from_pixel(self, pixels: Array) -> Array:
        pixels = np.asarray(pixels, dtype=float)
        x = (pixels[..., 0] - self.cx) / self.fx
        y = (pixels[..., 1] - self.cy) / self.fy
        return np.stack([x, y], axis=-1)

    def pixel_from_normalized(self, xy: Array) -> Array:
        xy = np.asarray(xy, dtype=float)
        u = xy[..., 0] * self.fx + self.cx
        v = xy[..., 1] * self.fy + self.cy
        return np.stack([u, v], axis=-1)


@dataclass(frozen=True, eq=False)
class CameraPose:
    """World-to-camera rigid transform: X_cam = rotation @ X_world + translation."""

    rotation: Array
    translation: Array

    def __eq__(self, other):
        return (
            isinstance(other, CameraPose)
            and np.array_equal(self.rotation, other.rotation)
            and np.array_equal(self.translation, other.translation)
        )

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        if (
            not np.isfinite(R).all()
            or np.abs(R @ R.T - np.eye(3)).max() > 1e-9
            or abs(np.linalg.det(R) - 1.0) > 1e-9
        ):
            raise ValueError("rotation is not orthonormal with determinant +1")
        if not np.isfinite(t).all():
            raise ValueError(f"translation must be finite, got {t.tolist()}")

    @classmethod
    def identity(cls) -> "CameraPose":
        return cls(np.eye(3), np.zeros(3))

    @property
    def matrix(self) -> Array:
        """3x4 matrix [R | t]."""
        return np.hstack([self.rotation, self.translation.reshape(3, 1)])

    @property
    def center(self) -> Array:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    def transform(self, points: Array) -> Array:
        """Map world points (..., 3) into camera coordinates."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation


def relative_pose(a: CameraPose, b: CameraPose) -> CameraPose:
    """Pose mapping a's camera frame into b's: X_b = R X_a + t."""
    R = b.rotation @ a.rotation.T
    t = b.translation - R @ a.translation
    return CameraPose(orthonormalize(R), t)


# ---------------------------------------------------------------------------
# projection / distortion
# ---------------------------------------------------------------------------

def distort_normalized(intrinsics: CameraIntrinsics, xy: Array) -> Array:
    """Apply the radial-tangential model to normalized image coordinates."""
    xy = np.asarray(xy, dtype=float)
    x, y = xy[..., 0], xy[..., 1]
    k1, k2, p1, p2 = intrinsics.k1, intrinsics.k2, intrinsics.p1, intrinsics.p2
    r2 = x * x + y * y
    radial = 1.0 + k1 * r2 + k2 * r2 * r2
    xd = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
    yd = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
    return np.stack([xd, yd], axis=-1)


def project_points(
    intrinsics: CameraIntrinsics, pose: CameraPose, points: Array
) -> tuple[Array, Array]:
    """Pixels (..., 2) and depths (...,) of world points (..., 3) through the
    full camera model.

    A pixel is meaningful only where its depth is positive; callers mask by
    depth. Points stacked as (k, 1, 3) each get bitwise the result they get
    alone; the rows of a flat (k, 3) batch come from one matrix product and
    can differ from those in the last bit.
    """
    cam = pose.transform(points)
    z = cam[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        xy = distort_normalized(intrinsics, cam[..., :2] / z[..., None])
    return intrinsics.pixel_from_normalized(xy), z


def _distortion_jacobian(intrinsics: CameraIntrinsics, xy: Array) -> Array:
    """(..., 2, 2) Jacobian of distort_normalized at the given points."""
    x, y = xy[..., 0], xy[..., 1]
    k1, k2, p1, p2 = intrinsics.k1, intrinsics.k2, intrinsics.p1, intrinsics.p2
    r2 = x * x + y * y
    radial = 1.0 + k1 * r2 + k2 * r2 * r2
    dr = k1 + 2.0 * k2 * r2  # d(radial)/d(r^2)
    J = np.empty(xy.shape[:-1] + (2, 2))
    J[..., 0, 0] = radial + 2.0 * x * x * dr + 2.0 * p1 * y + 6.0 * p2 * x
    J[..., 0, 1] = 2.0 * x * y * dr + 2.0 * p1 * x + 2.0 * p2 * y
    J[..., 1, 0] = 2.0 * x * y * dr + 2.0 * p1 * x + 2.0 * p2 * y
    J[..., 1, 1] = radial + 2.0 * y * y * dr + 6.0 * p1 * y + 2.0 * p2 * x
    return J


def undistort_pixels(intrinsics: CameraIntrinsics, pixels: Array) -> Array:
    """Invert the distortion model by damped Newton iteration, pixel by pixel.

    Round-trips distort(undistort(p)) to p within 1e-8 px for coefficient
    magnitudes up to |k| = 1, |p| = 0.01; raises NoConvergence past 1e-6 px
    after 20 iterations. Each pixel stops and damps on its own residual, so
    its result does not depend on the pixels passed with it.
    """
    pixels = np.asarray(pixels, dtype=float)
    if not intrinsics.distortion.any():
        return pixels.copy()
    xd = intrinsics.normalized_from_pixel(pixels).reshape(-1, 2)
    x = xd.copy()
    scale = max(intrinsics.fx, intrinsics.fy)

    def error(at, rows):  # per-pixel max-norm residual
        return np.abs(distort_normalized(intrinsics, at) - xd[rows]).max(axis=-1)

    rows = np.arange(len(x))
    err = error(x, rows)
    for _ in range(_UNDISTORT_MAX_ITERS):
        rows = rows[err[rows] * scale >= _UNDISTORT_TARGET_PX]
        if not len(rows):
            break
        xr = x[rows]
        residual = distort_normalized(intrinsics, xr) - xd[rows]
        J = _distortion_jacobian(intrinsics, xr)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        det = np.where(np.abs(det) < 1e-12, 1.0, det)
        step = np.empty_like(xr)
        step[:, 0] = (J[:, 1, 1] * residual[:, 0] - J[:, 0, 1] * residual[:, 1]) / det
        step[:, 1] = (J[:, 0, 0] * residual[:, 1] - J[:, 1, 0] * residual[:, 0]) / det
        alpha = np.ones(len(rows))
        kept = np.zeros(len(rows), dtype=bool)
        for _ in range(4):  # halve steps that overshoot, at most 4 times
            kept |= error(xr - alpha[:, None] * step, rows) <= err[rows]
            alpha = np.where(kept, alpha, 0.5 * alpha)
        x[rows] = xr - alpha[:, None] * step
        err[rows] = error(x[rows], rows)
    final = err.max(initial=0.0) * scale
    if not final <= _UNDISTORT_FAIL_PX:  # a NaN residual has not converged
        raise NoConvergence(
            f"undistortion residual {final:.3g} px after {_UNDISTORT_MAX_ITERS} iterations"
        )
    return intrinsics.pixel_from_normalized(x.reshape(pixels.shape))


# ---------------------------------------------------------------------------
# fundamental matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalPair:
    """Rank-2 fundamental matrix with both epipoles.

    fundamental maps image-1 points to epipolar lines in image 2;
    epipole_left is its right null vector (in image 1), epipole_right the
    left null vector (in image 2).
    """

    fundamental: Array
    epipole_left: Array
    epipole_right: Array

    def __post_init__(self):
        F = np.asarray(self.fundamental, dtype=float)
        el = np.asarray(self.epipole_left, dtype=float).reshape(3)
        er = np.asarray(self.epipole_right, dtype=float).reshape(3)
        object.__setattr__(self, "fundamental", F)
        object.__setattr__(self, "epipole_left", el)
        object.__setattr__(self, "epipole_right", er)
        s = np.linalg.svd(F, compute_uv=False)
        if s[2] > 1e-9 * s[0]:
            raise ValueError(f"fundamental matrix is not rank 2: singular values {s}")
        scale = np.abs(F).max()
        if np.abs(F @ el).max() > 1e-9 * scale * max(np.abs(el).max(), 1.0):
            raise ValueError("epipole_left is not a null vector of F")
        if np.abs(er @ F).max() > 1e-9 * scale * max(np.abs(er).max(), 1.0):
            raise ValueError("epipole_right is not a left null vector of F")


def _unit_signed(v: Array) -> Array:
    v = v / np.linalg.norm(v)
    lead = v[np.argmax(np.abs(v))]
    return v if lead >= 0 else -v


def fundamental_pair_from_matrix(F: Array) -> FundamentalPair:
    """Normalize F (unit Frobenius, deterministic sign) and extract epipoles."""
    F = np.asarray(F, dtype=float)
    norm = np.linalg.norm(F)
    if norm == 0 or not np.isfinite(norm):
        raise ValueError("invalid fundamental matrix")
    F = F / norm
    flat = F.ravel()
    if flat[np.argmax(np.abs(flat))] < 0:
        F = -F
    U, s, Vt = np.linalg.svd(F)
    if s[2] > 1e-9 * s[0]:
        # project to the nearest rank-2 matrix before extracting epipoles
        F = U @ np.diag([s[0], s[1], 0.0]) @ Vt
        F = F / np.linalg.norm(F)
        U, s, Vt = np.linalg.svd(F)
    e_left = _unit_signed(Vt[2])
    e_right = _unit_signed(U[:, 2])
    return FundamentalPair(F, e_left, e_right)


def fundamental_from_calibrated(
    K1: CameraIntrinsics, K2: CameraIntrinsics, relative: CameraPose
) -> FundamentalPair:
    """F = K2^-T [t]x R K1^-1 for a calibrated relative pose."""
    t = relative.translation
    if np.linalg.norm(t) < 1e-12:
        raise DegenerateBaseline("translation norm below 1e-12; no fundamental matrix")
    F = np.linalg.inv(K2.K).T @ skew(t) @ relative.rotation @ np.linalg.inv(K1.K)
    return fundamental_pair_from_matrix(F)


def epipolar_line_distance(F: Array, points1: Array, points2: Array) -> Array:
    """Distance of each x2 from the epipolar line F x1."""
    h1 = homogeneous(np.asarray(points1, dtype=float))
    h2 = homogeneous(np.asarray(points2, dtype=float))
    lines = h1 @ F.T
    num = np.abs(np.sum(lines * h2, axis=-1))
    den = np.sqrt(lines[..., 0] ** 2 + lines[..., 1] ** 2)
    return num / np.maximum(den, 1e-300)


def symmetric_epipolar_distance(F: Array, points1: Array, points2: Array) -> Array:
    """Max of the point-to-epipolar-line distances in both images."""
    d12 = epipolar_line_distance(F, points1, points2)
    d21 = epipolar_line_distance(np.asarray(F).T, points2, points1)
    return np.maximum(d12, d21)


def hartley_normalization(points: Array) -> tuple[Array, Array]:
    """Isotropic scaling transform T and the transformed homogeneous points."""
    points = np.asarray(points, dtype=float)
    centroid = points.mean(axis=0)
    d = np.linalg.norm(points - centroid, axis=1).mean()
    s = np.sqrt(2.0) / max(d, 1e-12)
    T = np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )
    return T, homogeneous(points) @ T.T


def _fundamental_design(h1: Array, h2: Array) -> Array:
    u1, v1 = h1[:, 0], h1[:, 1]
    u2, v2 = h2[:, 0], h2[:, 1]
    return np.column_stack(
        [u2 * u1, u2 * v1, u2, v2 * u1, v2 * v1, v2, u1, v1, np.ones(len(h1))]
    )


def eight_point(h1: Array, h2: Array, weights: Array) -> Array:
    """Least-squares F from >= 8 normalized correspondences, rank-2 projected.

    Per-correspondence weights turn the algebraic cost into a Sampson-style
    approximation of the geometric one.
    """
    A = _fundamental_design(h1, h2) * weights[:, None]
    # thin factors hold the null vector unless there are fewer rows than unknowns
    _, _, Vt = np.linalg.svd(A, full_matrices=len(A) < A.shape[1])
    F = Vt[-1].reshape(3, 3)
    U, s, Vt = np.linalg.svd(F)
    return U @ np.diag([s[0], s[1], 0.0]) @ Vt


def sampson_weights(F: Array, points1: Array, points2: Array) -> Array:
    """1/gradient-norm weights of the epipolar constraint at the given F."""
    h1 = homogeneous(np.asarray(points1, dtype=float))
    h2 = homogeneous(np.asarray(points2, dtype=float))
    l2 = h1 @ F.T  # epipolar lines in image 2
    l1 = h2 @ F  # and in image 1
    g = l2[:, 0] ** 2 + l2[:, 1] ** 2 + l1[:, 0] ** 2 + l1[:, 1] ** 2
    return 1.0 / np.sqrt(np.maximum(g, 1e-300))


def seven_point_candidates(h1: Array, h2: Array) -> list[Array]:
    """1-3 rank-2 candidates from exactly seven correspondences."""
    A = _fundamental_design(h1, h2)
    _, s, Vt = np.linalg.svd(A)
    F1 = Vt[-1].reshape(3, 3)
    F2 = Vt[-2].reshape(3, 3)
    # det(a F1 + (1 - a) F2) is cubic in a; recover coefficients by sampling
    alphas = np.array([0.0, 1.0, 2.0, 3.0])
    dets = np.array([np.linalg.det(a * F1 + (1.0 - a) * F2) for a in alphas])
    V = np.vander(alphas, 4)
    coeffs = np.linalg.solve(V, dets)
    scale = np.abs(coeffs).max()
    if scale == 0 or not np.isfinite(scale):
        return []
    coeffs = np.trim_zeros(np.where(np.abs(coeffs) > 1e-12 * scale, coeffs, 0.0), "f")
    if len(coeffs) < 2:
        return []
    roots = np.roots(coeffs)
    out = []
    for r in roots:
        if abs(r.imag) > 1e-8 * (1.0 + abs(r.real)):
            continue
        a = float(r.real)
        F = a * F1 + (1.0 - a) * F2
        if np.linalg.norm(F) < 1e-12:
            continue
        out.append(F / np.linalg.norm(F))
    return out


def _adaptive_iters(inlier_ratio: float) -> int:
    w7 = inlier_ratio ** 7
    if w7 >= 1.0:
        return 1
    if w7 <= 1e-12:
        return 1 << 30
    return int(np.ceil(np.log(1.0 - _RANSAC_CONFIDENCE) / np.log(1.0 - w7)))


def estimate_fundamental_ransac(
    points1: Array, points2: Array, seed: int = 0
) -> tuple[FundamentalPair, Array]:
    """Seven-point RANSAC with Hartley normalization and inlier refit.

    Inliers are points whose symmetric epipolar-line distance is at most
    RANSAC_THRESHOLD (pixels), over at most RANSAC_ITERS draws. Best model
    by inlier count, ties broken by lower total inlier residual.
    Deterministic for a fixed seed.
    """
    p1 = np.asarray(points1, dtype=float).reshape(-1, 2)
    p2 = np.asarray(points2, dtype=float).reshape(-1, 2)
    if len(p1) != len(p2):
        raise ValueError(f"point lists differ in length: {len(p1)} vs {len(p2)}")
    n = len(p1)
    if n < 7:
        raise InsufficientPoints(f"need at least 7 correspondences, got {n}")

    T1, h1 = hartley_normalization(p1)
    T2, h2 = hartley_normalization(p2)

    def denormalize(Fn: Array) -> Array:
        return T2.T @ Fn @ T1

    def score(F: Array) -> tuple[int, float, Array]:
        d = symmetric_epipolar_distance(F, p1, p2)
        mask = d <= RANSAC_THRESHOLD
        return int(mask.sum()), float(d[mask].sum()), mask

    best: tuple[int, float, Array, Array] | None = None

    def consider(F: Array):
        nonlocal best
        count, total, mask = score(F)
        if count == 0:
            return
        if best is None or (count, -total) > (best[0], -best[1]):
            best = (count, total, mask, F)

    if n == 7:
        for Fn in seven_point_candidates(h1, h2):
            consider(denormalize(Fn))
    else:
        rng = np.random.default_rng(seed)
        needed = RANSAC_ITERS
        i = 0
        while i < min(needed, RANSAC_ITERS):
            idx = rng.choice(n, size=7, replace=False)
            for Fn in seven_point_candidates(h1[idx], h2[idx]):
                consider(denormalize(Fn))
            if best is not None:
                needed = _adaptive_iters(best[0] / n)
            i += 1

    if best is None:
        raise NoModel("no non-degenerate seven-point sample produced a model")

    count, total, mask, F = best
    # Sampson-weighted polish on the consensus set, adopted only while the
    # geometric score (inlier count, then total residual) improves; plain
    # algebraic refits drift on curve-like correspondence sets
    for _ in range(4):
        if mask.sum() < 8:
            break
        w = sampson_weights(F, p1[mask], p2[mask])
        F_ls = denormalize(eight_point(h1[mask], h2[mask], w))
        c2, t2, m2 = score(F_ls)
        if (c2, -t2) <= (count, -total):
            break
        count, total, mask, F = c2, t2, m2, F_ls
    return fundamental_pair_from_matrix(F), mask


# ---------------------------------------------------------------------------
# triangulation core (shared by calibration and deformation)
# ---------------------------------------------------------------------------

def triangulate_linear(
    matrices: Array, points: Array, visibility: Array
) -> tuple[Array, Array]:
    """Homogeneous linear intersection of the visible rays of every column.

    matrices: (m, 3, 4) projection matrices, points: (m, n, 2) image points,
    visibility: (m, n). Column j's design matrix stacks u P[2] - P[0] and
    v P[2] - P[1] for each camera that sees it, in camera order. Returns the
    homogeneous solutions (n, 4) and the singular values (n, 4) of each
    design matrix; a column seen by k < 2 cameras has 4 - 2k zero singular
    values, and one seen by none is all zeros. Columns seen by the same set
    of cameras share one stacked SVD.
    """
    matrices = np.asarray(matrices, dtype=float)
    points = np.asarray(points, dtype=float)
    visibility = np.asarray(visibility, dtype=bool)
    n = visibility.shape[1]
    # (m, n, 2, 4): both design rows of every camera for every column
    rows = points[..., None] * matrices[:, None, None, 2] - matrices[:, None, :2]
    X = np.zeros((n, 4))
    s = np.zeros((n, 4))
    patterns, group = np.unique(visibility.T, axis=0, return_inverse=True)
    group = group.reshape(-1)
    for k, seen in enumerate(patterns):
        if not seen.any():
            continue
        cols = np.flatnonzero(group == k)
        A = rows[seen][:, cols].transpose(1, 0, 2, 3).reshape(len(cols), -1, 4)
        _, sv, Vt = np.linalg.svd(A)
        X[cols] = Vt[:, -1]
        s[cols, : sv.shape[1]] = sv
    return X, s


# ---------------------------------------------------------------------------
# calibration document I/O
# ---------------------------------------------------------------------------

CALIBRATION_FORMAT = "evdeform-calibration"
CALIBRATION_VERSION = 1


def save_calibration_document(
    path,
    reference_camera: int,
    cameras: list[tuple[int, CameraIntrinsics, CameraPose]],
) -> None:
    """Write the rig as a JSON document, lossless for float64 values."""
    doc = {
        "format": CALIBRATION_FORMAT,
        "version": CALIBRATION_VERSION,
        "reference_camera": int(reference_camera),
        "cameras": [
            {
                "camera_id": int(cid),
                "fx": intr.fx,
                "fy": intr.fy,
                "cx": intr.cx,
                "cy": intr.cy,
                "k1": intr.k1,
                "k2": intr.k2,
                "p1": intr.p1,
                "p2": intr.p2,
                "width": intr.width,
                "height": intr.height,
                "R": [[float(v) for v in row] for row in pose.rotation],
                "T": [float(v) for v in pose.translation],
            }
            for cid, intr, pose in cameras
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_calibration_document(path) -> tuple[int, list[tuple[int, CameraIntrinsics, CameraPose]]]:
    """Read a rig written by save_calibration_document; a document of another
    format or with a missing or malformed field raises ParseError."""
    doc = read_document(path, ParseError, CALIBRATION_FORMAT)
    with document_fields(path, ParseError):
        cameras = []
        for cam in doc["cameras"]:
            intr = CameraIntrinsics(
                fx=cam["fx"], fy=cam["fy"], cx=cam["cx"], cy=cam["cy"],
                k1=cam["k1"], k2=cam["k2"], p1=cam["p1"], p2=cam["p2"],
                width=cam["width"], height=cam["height"],
            )
            pose = CameraPose(np.array(cam["R"], dtype=float), np.array(cam["T"], dtype=float))
            cameras.append((int(cam["camera_id"]), intr, pose))
        return int(doc["reference_camera"]), cameras
