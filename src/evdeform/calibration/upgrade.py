"""Metric upgrade of a projective reconstruction with known intrinsics guesses.

Solves the symmetric 4x4 quadric G = H11 H11' from the per-camera constraints
M_j G M_j' = lambda_j K_j K_j', which are linear in G and the scales together
(Triggs, "Autocalibration and the Absolute Quadric", CVPR 1997), by one
linear least-squares solve with lambda_0 = 1. It then projects G to PSD rank
3, assembles the homography H = [H11 | h12] with h12 the first point that
keeps H nonsingular, and decomposes the upgraded cameras by RQ factorization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ..errors import CheiralityFailure, IndefiniteG
from ..geometry import CameraIntrinsics, CameraPose, orthonormalize
from .factorization import ProjectiveReconstruction

Array = np.ndarray

# symmetric 4x4 basis indexing: (row, col) of the 10 free entries
_SYM_INDEX = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@dataclass
class UpgradeResult:
    poses: list[CameraPose]
    points: Array  # (3, n) metric points


def _sym_from_params(g: Array) -> Array:
    G = np.zeros((4, 4))
    for val, (a, b) in zip(g, _SYM_INDEX):
        G[a, b] = val
        G[b, a] = val
    return G


def _sym_rows(N: Array) -> Array:
    """Map the 10 symmetric parameters to the scaled 6-vector of N G N'.

    Off-diagonal entries carry sqrt(2) so the row space metric matches the
    Frobenius norm on symmetric matrices.
    """
    rows = np.zeros((6, 10))
    for k, (a, b) in enumerate(_SYM_INDEX):
        E = np.zeros((4, 4))
        E[a, b] = 1.0
        E[b, a] = 1.0
        P = N @ E @ N.T
        rows[:, k] = [
            P[0, 0],
            P[1, 1],
            P[2, 2],
            np.sqrt(2.0) * P[0, 1],
            np.sqrt(2.0) * P[0, 2],
            np.sqrt(2.0) * P[1, 2],
        ]
    return rows


_TARGET = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def _solve_quadric(normalized_cameras: list[Array]) -> Array:
    """G from one least-squares solve of N_j G N_j' = lambda_j I over the 10
    entries of G and the scales lambda_1..lambda_{m-1}, lambda_0 pinned at 1."""
    m = len(normalized_cameras)
    A = np.zeros((6 * m, 10 + m - 1))
    for j, N in enumerate(normalized_cameras):
        A[6 * j : 6 * j + 6, :10] = _sym_rows(N)
        if j:
            A[6 * j : 6 * j + 6, 9 + j] = -_TARGET
    b = np.zeros(6 * m)
    b[:6] = _TARGET
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return _sym_from_params(x[:10])


def euclidean_upgrade(
    proj: ProjectiveReconstruction,
    intrinsics_guess: list[CameraIntrinsics],
) -> UpgradeResult:
    """Upgrade projective cameras/points to a metric frame.

    The global sign is fixed so that the majority of points have positive
    depth in camera 0, the reference; raises CheiralityFailure when neither
    sign works and IndefiniteG when the PSD projection of G discards more
    than 10% of its energy.
    """
    M = proj.cameras
    X = proj.points
    m = len(M)
    if len(intrinsics_guess) != m:
        raise ValueError("one intrinsics guess per camera required")

    normalized = []
    for j in range(m):
        N = np.linalg.inv(intrinsics_guess[j].K) @ M[j]
        normalized.append(N / np.linalg.norm(N))

    G = _solve_quadric(normalized)
    w, A = np.linalg.eigh(G)
    order = np.argsort(w)[::-1]
    w, A = w[order], A[:, order]
    w_fixed = np.array([max(w[0], 0.0), max(w[1], 0.0), max(w[2], 0.0), 0.0])
    G_fixed = A @ np.diag(w_fixed) @ A.T
    if np.linalg.norm(G_fixed - G) > 0.1 * np.linalg.norm(G):
        raise IndefiniteG(
            "PSD rank-3 projection discards "
            f"{np.linalg.norm(G_fixed - G) / np.linalg.norm(G):.1%} of G"
        )
    if w_fixed[2] <= 0:
        raise IndefiniteG("quadric has rank below 3")
    H11 = A[:, :3] @ np.diag(np.sqrt(w_fixed[:3]))

    # origin column: the first point that keeps H nonsingular
    H = None
    for idx in range(X.shape[1]):
        h = X[:, idx]
        norm = np.linalg.norm(h)
        if norm < 1e-12:
            continue
        h = h / norm
        if h[np.argmax(np.abs(h))] < 0:
            h = -h
        trial = np.hstack([H11, h.reshape(4, 1)])
        if abs(np.linalg.det(trial)) > 1e-12:
            H = trial
            break
    if H is None:
        raise IndefiniteG("no origin point yields a nonsingular homography")

    upgraded = np.einsum("mij,jk->mik", M, H)
    points_h = np.linalg.inv(H) @ X
    small_w = np.abs(points_h[3]) < 1e-12 * np.abs(points_h[:3]).max(axis=0)
    if np.any(small_w):
        raise CheiralityFailure("upgraded points at infinity")
    points = points_h[:3] / points_h[3]

    poses = [CameraPose(*_decompose_camera(P)) for P in upgraded]
    depths = poses[0].transform(points.T)[:, 2]
    if np.sum(depths > 0) < len(depths) / 2.0:
        points = -points
        poses = [CameraPose(p.rotation, -p.translation) for p in poses]
        depths = poses[0].transform(points.T)[:, 2]
        if np.sum(depths > 0) < len(depths) / 2.0:
            raise CheiralityFailure(
                "no global sign puts a majority of points in front of "
                "reference camera 0"
            )
    return UpgradeResult(poses, points)


def _decompose_camera(P: Array) -> tuple[Array, Array]:
    """R, t of a 3x4 camera K [R | t] by RQ split, K with positive diagonal."""
    K, R = scipy.linalg.rq(P[:, :3])
    signs = np.sign(np.diag(K))
    signs[signs == 0] = 1.0
    D = np.diag(signs)
    K = K @ D
    R = D @ R
    t = np.linalg.solve(K, P[:, 3])
    if np.linalg.det(R) < 0:
        R = -R
        t = -t
    return orthonormalize(R), t
