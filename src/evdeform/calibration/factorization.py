"""Iterative rank-4 projective factorization of fully visible points.

Sturm & Triggs (ECCV 1996): the (3m, k) matrix of depth-scaled homogeneous
pixels has rank 4. Projective depths start from the fundamental matrix of
each (0, i) camera pair and are refined by alternating scale balancing,
rank-4 SVD truncation and depth propagation from camera 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientCorrespondences, SingularConfiguration
from ..geometry import FundamentalPair, homogeneous

Array = np.ndarray

# stop when the rank-4 relative residual is below ABS_TOL, or changes by
# less than TOL (relative) between iterations
TOL = 1e-10
ABS_TOL = 1e-12
MAX_ITERS = 200
BALANCE_PASSES = 2  # column-then-row rescalings before each SVD


@dataclass
class ProjectiveReconstruction:
    """Cameras and points recovered up to a 4x4 homography."""

    cameras: Array  # (m, 3, 4)
    points: Array  # (4, k)
    converged: bool
    iterations: int
    residual: float
    singular_values: Array  # leading spectrum of the balanced matrix

    def __post_init__(self):
        for j, M in enumerate(self.cameras):
            if np.linalg.matrix_rank(M) < 3:
                raise ValueError(f"camera {j} of the reconstruction is rank deficient")


def propagate_depths(
    pixels: Array, fundamentals: list[FundamentalPair], scales: Array
) -> Array:
    """Projective depths of cameras 1 .. m-1 chained from camera 0.

    The depth of point p in camera i is dot(e x u_i, F u_0) / ||e x u_i||^2
    times its depth in camera 0, with F the (0, i) fundamental matrix and e
    the epipole in image i.
    """
    out = scales.copy()
    u_0 = homogeneous(pixels[0])
    for i, pair in enumerate(fundamentals, start=1):
        u_i = homogeneous(pixels[i])
        cross = np.cross(np.broadcast_to(pair.epipole_right, u_i.shape), u_i)
        num = np.sum(cross * (u_0 @ pair.fundamental.T), axis=1)
        den = np.sum(cross * cross, axis=1)
        if np.any(den < 1e-30):
            raise SingularConfiguration(f"point on the epipole of pair (0, {i})")
        out[i] = num / den * scales[0]
    return out


def balance_scales(pixels: Array, scales: Array) -> Array:
    """Row-triplet and column rescaling of the stacked matrix for conditioning."""
    hom = homogeneous(pixels)  # (m, n, 3)
    s = scales.copy()
    for _ in range(BALANCE_PASSES):
        w = hom * s[:, :, None]
        col_norm = np.sqrt(np.sum(w * w, axis=(0, 2)))
        s = s / np.where(col_norm > 0, col_norm, 1.0)[None, :]
        w = hom * s[:, :, None]
        row_norm = np.sqrt(np.sum(w * w, axis=(1, 2)))
        s = s / np.where(row_norm > 0, row_norm, 1.0)[:, None]
    return s


def projective_factorize(
    pixels: Array, fundamentals: list[FundamentalPair]
) -> ProjectiveReconstruction:
    """Factor the (m, k, 2) pixels of k points every camera sees.

    fundamentals holds the (0, i) pairs, i = 1 .. m-1, that carry the
    depths from camera 0 to camera i. Raises InsufficientCorrespondences
    below 8 points and SingularConfiguration when the SVD fails.
    """
    pixels = np.asarray(pixels, dtype=float)
    m, k, _ = pixels.shape
    if k < 8:
        raise InsufficientCorrespondences(
            f"factorization needs >= 8 fully visible points, got {k}"
        )
    scales = np.ones((m, k))

    hom = homogeneous(pixels)
    prev_res = None
    converged = False
    for iterations in range(1, MAX_ITERS + 1):
        scales = balance_scales(pixels, scales)
        Ws = (hom * scales[:, :, None]).transpose(0, 2, 1).reshape(3 * m, -1)
        try:
            U, D, Vt = np.linalg.svd(Ws, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SingularConfiguration(f"SVD failed: {exc}") from exc
        total = float(np.sqrt(np.sum(D * D)))
        res = float(np.sqrt(np.sum(D[4:] ** 2))) / max(total, 1e-300)
        M = U[:, :4] * D[:4]
        X = Vt[:4]
        if res < ABS_TOL or (
            prev_res is not None and abs(res - prev_res) < TOL * max(prev_res, 1e-300)
        ):
            converged = True
            break
        prev_res = res
        scales = propagate_depths(pixels, fundamentals, scales)
    return ProjectiveReconstruction(
        cameras=M.reshape(m, 3, 4),
        points=X,
        converged=converged,
        iterations=iterations,
        residual=res,
        singular_values=D[:8].copy(),
    )
