"""Scaled measurement matrix and iterative rank-4 projective factorization."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import InsufficientCorrespondences, SingularConfiguration
from ..extraction import CorrespondingPoint, correspondence_arrays
from ..geometry import (
    FundamentalPair,
    estimate_fundamental_weighted,
    homogeneous,
)

Array = np.ndarray

PairKey = tuple[int, int]


@dataclass
class MeasurementMatrix:
    """Per-camera homogeneous pixels with projective scales and visibility.

    pixels: (m, n, 2), scales: (m, n), visibility: (m, n). The stacked
    (3m, n) matrix of scale * [u, v, 1] columns has rank 4 for consistent
    data with correct scales.
    """

    pixels: Array
    scales: Array
    visibility: Array

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float)
        self.scales = np.asarray(self.scales, dtype=float)
        self.visibility = np.asarray(self.visibility, dtype=bool)
        m, n, two = self.pixels.shape
        if two != 2 or self.scales.shape != (m, n) or self.visibility.shape != (m, n):
            raise ValueError("inconsistent measurement-matrix shapes")
        if np.any(~np.isfinite(self.pixels[self.visibility])):
            raise ValueError("visible entries must be finite")
        if np.any(self.scales[self.visibility] == 0):
            raise ValueError("visible entries must have nonzero scale")

    @property
    def num_cameras(self) -> int:
        return self.pixels.shape[0]

    @property
    def num_points(self) -> int:
        return self.pixels.shape[1]

    @property
    def full_visibility_columns(self) -> Array:
        return np.flatnonzero(self.visibility.all(axis=0))

    def stacked(self, columns: Array | None = None) -> Array:
        """(3m, k) matrix of scale * [u, v, 1] for the selected columns."""
        cols = self.full_visibility_columns if columns is None else np.asarray(columns)
        hom = homogeneous(self.pixels[:, cols])  # (m, k, 3)
        scaled = hom * self.scales[:, cols, None]
        m, k, _ = scaled.shape
        return scaled.transpose(0, 2, 1).reshape(3 * m, k)


def build_measurement_matrix(
    points: Sequence[CorrespondingPoint],
    camera_ids: Sequence[int],
) -> MeasurementMatrix:
    """Assemble pixels and a visibility mask; all scales start at 1."""
    pixels, vis = correspondence_arrays(points, camera_ids)
    m, n = vis.shape
    multi = (vis.sum(axis=0) >= 2).sum()
    full = int(vis.all(axis=0).sum())
    if multi < 8:
        raise InsufficientCorrespondences(
            f"need at least 8 points seen by two or more cameras, got {multi}"
        )
    if full < 8:
        raise InsufficientCorrespondences(
            f"need at least 8 points visible in all {m} cameras, got {full}"
        )
    return MeasurementMatrix(pixels, np.ones((m, n)), vis)


@dataclass
class ProjectiveReconstruction:
    """Cameras and points recovered up to a 4x4 homography."""

    cameras: Array  # (m, 3, 4)
    points: Array  # (4, n)
    converged: bool
    iterations: int
    residual: float
    column_indices: Array  # columns of the source matrix that were factored
    singular_values: Array = None  # leading spectrum of the balanced matrix

    def __post_init__(self):
        for j, M in enumerate(self.cameras):
            if np.linalg.matrix_rank(M) < 3:
                raise ValueError(f"camera {j} of the reconstruction is rank deficient")


def estimate_pair_fundamentals(
    pixels: Array, visibility: Array, min_shared: int = 8
) -> dict[PairKey, FundamentalPair]:
    """Least-squares fundamental matrix for every camera pair with enough
    shared points. Keys are ordered pairs (a, b) with x_b' F x_a = 0."""
    m = pixels.shape[0]
    out: dict[PairKey, FundamentalPair] = {}
    for a in range(m):
        for b in range(a + 1, m):
            shared = np.flatnonzero(visibility[a] & visibility[b])
            if len(shared) < min_shared:
                continue
            try:
                out[(a, b)] = estimate_fundamental_weighted(
                    pixels[a, shared], pixels[b, shared]
                )
            except (ValueError, np.linalg.LinAlgError):
                continue
    return out


def _pair_fundamental(
    fundamentals: Mapping[PairKey, FundamentalPair], src: int, dst: int
) -> tuple[Array, Array] | None:
    """F and destination-image epipole for the src -> dst direction."""
    if (src, dst) in fundamentals:
        pair = fundamentals[(src, dst)]
        return pair.fundamental, pair.epipole_right
    if (dst, src) in fundamentals:
        pair = fundamentals[(dst, src)]
        return pair.fundamental.T, pair.epipole_left
    return None


def choose_center_camera(visibility: Array) -> int:
    """Camera sharing the most points with all others (ties: lowest index)."""
    m = visibility.shape[0]
    shared = np.zeros(m, dtype=np.int64)
    for a in range(m):
        for b in range(m):
            if a != b:
                shared[a] += int(np.sum(visibility[a] & visibility[b]))
    return int(np.argmax(shared))


def propagate_depths(
    pixels: Array,
    visibility: Array,
    fundamentals: Mapping[PairKey, FundamentalPair],
    center: int,
    base_scales: Array | None = None,
) -> Array:
    """Projective depths chained from the center camera over a spanning tree.

    For an edge c -> i the depth of point p in camera i is
    dot(e x u_i, F u_c) / ||e x u_i||^2 times its depth in camera c, with F
    the pair's fundamental matrix and e the epipole in image i.
    """
    m, n = visibility.shape
    scales = np.ones((m, n)) if base_scales is None else base_scales.copy()

    # spanning tree over cameras connected by an available fundamental matrix
    parent = {center: None}
    frontier = [center]
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(m):
                if i in parent:
                    continue
                if _pair_fundamental(fundamentals, c, i) is not None:
                    parent[i] = c
                    nxt.append(i)
        frontier = nxt
    if len(parent) < m:
        missing = sorted(set(range(m)) - set(parent))
        raise SingularConfiguration(
            f"no fundamental-matrix path from camera {center} to cameras {missing}"
        )

    # breadth-first application so parents are resolved before children
    resolved = {center}
    pending = [i for i in parent if i != center]
    while pending:
        progressed = False
        for i in list(pending):
            c = parent[i]
            if c not in resolved:
                continue
            fe = _pair_fundamental(fundamentals, c, i)
            F, e = fe
            cols = np.flatnonzero(visibility[i] & visibility[c])
            if len(cols):
                u_i = homogeneous(pixels[i, cols])
                u_c = homogeneous(pixels[c, cols])
                cross = np.cross(np.broadcast_to(e, u_i.shape), u_i)
                num = np.sum(cross * (u_c @ F.T), axis=1)
                den = np.sum(cross * cross, axis=1)
                if np.any(den < 1e-30):
                    raise SingularConfiguration(
                        f"point on the epipole of pair ({c}, {i})"
                    )
                scales[i, cols] = num / den * scales[c, cols]
            resolved.add(i)
            pending.remove(i)
            progressed = True
        if not progressed:
            raise SingularConfiguration("depth propagation stalled")
    return scales


def balance_scales(pixels: Array, scales: Array, passes: int = 2) -> Array:
    """Row-triplet and column rescaling of the stacked matrix for conditioning."""
    hom = homogeneous(pixels)  # (m, n, 3)
    s = scales.copy()
    for _ in range(passes):
        w = hom * s[:, :, None]
        col_norm = np.sqrt(np.sum(w * w, axis=(0, 2)))
        s = s / np.where(col_norm > 0, col_norm, 1.0)[None, :]
        w = hom * s[:, :, None]
        row_norm = np.sqrt(np.sum(w * w, axis=(1, 2)))
        s = s / np.where(row_norm > 0, row_norm, 1.0)[:, None]
    return s


def projective_factorize(
    W: MeasurementMatrix,
    tol: float = 1e-10,
    max_iters: int = 200,
    fundamentals: Mapping[PairKey, FundamentalPair] | None = None,
    center: int | None = None,
    abs_tol: float = 1e-12,
) -> ProjectiveReconstruction:
    """Alternate scale balancing, rank-4 SVD truncation and depth updates.

    Stops when the rank-4 relative residual falls below abs_tol or its
    change between iterations falls below tol.
    """
    cols = W.full_visibility_columns
    if len(cols) < 8:
        raise InsufficientCorrespondences(
            f"factorization needs >= 8 fully visible points, got {len(cols)}"
        )
    pixels = W.pixels[:, cols]
    vis = np.ones((W.num_cameras, len(cols)), dtype=bool)
    scales = W.scales[:, cols].copy()
    if fundamentals is None:
        fundamentals = estimate_pair_fundamentals(pixels, vis)
    if center is None:
        center = choose_center_camera(vis)

    hom = homogeneous(pixels)
    m = W.num_cameras
    prev_res = None
    M = X = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
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
        if res < abs_tol or (
            prev_res is not None and abs(res - prev_res) < tol * max(prev_res, 1e-300)
        ):
            converged = True
            break
        prev_res = res
        scales = propagate_depths(pixels, vis, fundamentals, center, scales)
    return ProjectiveReconstruction(
        cameras=M.reshape(m, 3, 4),
        points=X,
        converged=converged,
        iterations=iterations,
        residual=res,
        column_indices=cols,
        singular_values=D[:8].copy(),
    )
