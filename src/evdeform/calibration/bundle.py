"""Damped least-squares refinement of cameras and points on reprojection error.

Residuals project through the full camera model, distortion included. The
12 parameters per camera are [w0 w1 w2 | t0 t1 t2 | fx fy | k1 k2 p1 p2]:
rotation update (left-multiplied exponential), camera translation, focal
lengths and the radial-tangential coefficients. The principal point stays
fixed. Point blocks are eliminated with a Schur complement. The gauge is
fixed by freezing the pose of camera 0, the reference, and pinning the
largest translation component of camera 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import DivergedBA
from ..geometry import (
    CameraIntrinsics,
    CameraPose,
    _distortion_jacobian,
    distort_normalized,
    orthonormalize,
    rotation_from_axis_angle,
)

Array = np.ndarray

CAM_PARAMS = 12  # [w0 w1 w2 | t0 t1 t2 | fx fy | k1 k2 p1 p2]


# Levenberg-Marquardt: converged when an accepted step lowers the cost by
# less than _COST_TOL relative or the gradient falls below _GRADIENT_TOL;
# the damping starts at _LAMBDA_INIT, grows by _LAMBDA_UP per rejected step
# up to _LAMBDA_MAX and shrinks by _LAMBDA_DOWN per accepted one.
_COST_TOL = 1e-14
_GRADIENT_TOL = 1e-12
_LAMBDA_INIT = 1e-4
_LAMBDA_MAX = 1e12
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 1.0 / 3.0


@dataclass(frozen=True)
class BundleOptions:
    refine_focal: bool = True
    refine_distortion: tuple[int, ...] = ()  # cameras with free k1 k2 p1 p2
    max_iters: int = 50


@dataclass
class BundleResult:
    intrinsics: list[CameraIntrinsics]
    poses: list[CameraPose]
    points: Array
    cost_trace: list[float]
    accepted_steps: int
    converged: bool

    @property
    def final_cost(self) -> float:
        return self.cost_trace[-1]


def _free_parameters(poses: list[CameraPose], options: BundleOptions) -> Array:
    """(m, CAM_PARAMS) mask of the free camera parameters.

    Camera 0's pose fixes the gauge up to scale; the largest translation
    component of camera 1 fixes the scale.
    """
    mask = np.ones((len(poses), CAM_PARAMS), dtype=bool)
    mask[:, 6:8] = options.refine_focal
    mask[:, 8:12] = False
    mask[list(options.refine_distortion), 8:12] = True
    mask[0, :6] = False
    if len(poses) > 1:
        mask[1, 3 + int(np.argmax(np.abs(poses[1].translation)))] = False
    return mask


def _project(
    intrinsics: list[CameraIntrinsics],
    poses: list[CameraPose],
    points: Array,
    cam_idx: Array,
    pt_idx: Array,
    pixels: Array,
) -> tuple[Array, Array, Array, Array]:
    """Residual (k, 2) of every observation under the full camera model,
    with the camera-frame points (k, 3), normalized points (k, 2) and
    distorted normalized points (k, 2) it passed through.

    Camera by camera through CameraPose and distort_normalized, so the
    residuals are bit-identical with the reprojection statistics (an exact
    fixed point at the optimum). Residual convention: projected - observed.
    """
    k = len(cam_idx)
    P = points[pt_idx]
    Xc = np.empty((k, 3))
    xy = np.empty((k, 2))
    xyd = np.empty((k, 2))
    for j, (intr, pose) in enumerate(zip(intrinsics, poses)):
        sel = cam_idx == j
        Xc[sel] = pose.transform(P[sel])
        xy[sel] = Xc[sel, :2] / Xc[sel, 2:3]
        xyd[sel] = distort_normalized(intr, xy[sel])
    f = np.array([(i.fx, i.fy) for i in intrinsics])[cam_idx]
    c = np.array([(i.cx, i.cy) for i in intrinsics])[cam_idx]
    r = xyd * f + c - pixels
    return r, Xc, xy, xyd


def residuals_and_blocks(
    intrinsics: list[CameraIntrinsics],
    poses: list[CameraPose],
    points: Array,
    cam_idx: Array,
    pt_idx: Array,
    pixels: Array,
) -> tuple[Array, Array, Array]:
    """Per-observation residual (k, 2) and Jacobian blocks (k, 2, 12) and
    (k, 2, 3) of the distorted projection wrt camera and point parameters.

    Residual convention: projected - observed.
    """
    r, Xc, xy, xyd = _project(intrinsics, poses, points, cam_idx, pt_idx, pixels)
    k = len(cam_idx)
    R = np.stack([p.rotation for p in poses])[cam_idx]  # (k,3,3)
    t = np.stack([p.translation for p in poses])[cam_idx]
    f = np.array([(i.fx, i.fy) for i in intrinsics])[cam_idx]
    RX = Xc - t
    z = Xc[:, 2]
    x, y = xy[:, 0], xy[:, 1]

    # d(xd, yd)/d(x, y) of the distortion model, camera by camera
    Jd = np.empty((k, 2, 2))
    for j, intr in enumerate(intrinsics):
        Jd[cam_idx == j] = _distortion_jacobian(intr, xy[cam_idx == j])
    # d(x, y)/dXc of the perspective division
    dxy_dXc = np.zeros((k, 2, 3))
    dxy_dXc[:, 0, 0] = 1.0 / z
    dxy_dXc[:, 0, 2] = -x / z
    dxy_dXc[:, 1, 1] = 1.0 / z
    dxy_dXc[:, 1, 2] = -y / z
    duv_dXc = f[:, :, None] * (Jd @ dxy_dXc)

    # dXc/dw = -[RX]x for a left-multiplied rotation update
    sk = np.zeros((k, 3, 3))
    sk[:, 0, 1] = -RX[:, 2]
    sk[:, 0, 2] = RX[:, 1]
    sk[:, 1, 0] = RX[:, 2]
    sk[:, 1, 2] = -RX[:, 0]
    sk[:, 2, 0] = -RX[:, 1]
    sk[:, 2, 1] = RX[:, 0]

    r2 = x * x + y * y
    Jc = np.zeros((k, 2, CAM_PARAMS))
    Jc[:, :, 0:3] = duv_dXc @ -sk
    Jc[:, :, 3:6] = duv_dXc
    Jc[:, 0, 6] = xyd[:, 0]
    Jc[:, 1, 7] = xyd[:, 1]
    # d(xd, yd)/d(k1, k2, p1, p2), scaled to pixels
    Jc[:, 0, 8:12] = f[:, 0:1] * np.stack([x * r2, x * r2 * r2, 2.0 * x * y, r2 + 2.0 * x * x], axis=1)
    Jc[:, 1, 8:12] = f[:, 1:2] * np.stack([y * r2, y * r2 * r2, r2 + 2.0 * y * y, 2.0 * x * y], axis=1)

    Jp = duv_dXc @ R
    return r, Jc, Jp


def dense_jacobian(
    intrinsics, poses, points, cam_idx, pt_idx, pixels
) -> tuple[Array, Array]:
    """Full residual vector and dense Jacobian (for verification)."""
    m = len(poses)
    n = len(points)
    r, Jc, Jp = residuals_and_blocks(intrinsics, poses, points, cam_idx, pt_idx, pixels)
    k = len(cam_idx)
    J = np.zeros((2 * k, CAM_PARAMS * m + 3 * n))
    rows = (2 * np.arange(k)[:, None] + np.arange(2))[:, :, None]
    cam_cols = CAM_PARAMS * np.asarray(cam_idx)[:, None] + np.arange(CAM_PARAMS)
    pt_cols = CAM_PARAMS * m + 3 * np.asarray(pt_idx)[:, None] + np.arange(3)
    J[rows, cam_cols[:, None, :]] = Jc
    J[rows, pt_cols[:, None, :]] = Jp
    return r.ravel(), J


def apply_perturbation(
    intrinsics: list[CameraIntrinsics],
    poses: list[CameraPose],
    points: Array,
    delta: Array,
) -> tuple[list[CameraIntrinsics], list[CameraPose], Array]:
    """Apply a packed parameter update (used by both LM and the FD oracle)."""
    m = len(poses)
    new_intr = []
    new_poses = []
    for j in range(m):
        d = delta[CAM_PARAMS * j : CAM_PARAMS * (j + 1)]
        if d[0:6].any():
            R = orthonormalize(rotation_from_axis_angle(d[0:3]) @ poses[j].rotation)
            new_poses.append(CameraPose(R, poses[j].translation + d[3:6]))
        else:  # frozen poses stay bit-identical
            new_poses.append(poses[j])
        intr = intrinsics[j]
        if d[6:12].any():
            new_intr.append(replace(
                intr, fx=intr.fx + d[6], fy=intr.fy + d[7], k1=intr.k1 + d[8],
                k2=intr.k2 + d[9], p1=intr.p1 + d[10], p2=intr.p2 + d[11],
            ))
        else:
            new_intr.append(intr)
    return new_intr, new_poses, points + delta[CAM_PARAMS * m :].reshape(-1, 3)


def scatter_blocks(index: Array, blocks: Array, count: int) -> Array:
    """Sum blocks (k, ...) into ``count`` slots by ``index`` (k,).

    Bitwise ``np.add.at(zeros, index, blocks)``: each flat slot
    ``index * block_size + offset`` accumulates in observation order.
    """
    size = math.prod(blocks.shape[1:])
    flat = (index[:, None] * size + np.arange(size)).ravel()
    sums = np.bincount(flat, weights=blocks.ravel(), minlength=count * size)
    return sums.astype(float, copy=False).reshape((count,) + blocks.shape[1:])


@dataclass(frozen=True)
class NormalEquations:
    """Blocks of JᵀJ and Jᵀr for P = CAM_PARAMS * m camera and 3n point
    parameters: the block-diagonal camera part Hcc (P, P), the point blocks
    V (n, 3, 3), the coupling W as Wflat (n, P, 3) and Wt (P, 3n), and the
    gradients g_c (m, CAM_PARAMS) and g_p (n, 3)."""

    Hcc: Array
    V: Array
    Wflat: Array
    Wt: Array
    g_c: Array
    g_p: Array


def normal_equations(
    r: Array, Jc: Array, Jp: Array, cam_idx: Array, pt_idx: Array, m: int, n: int
) -> NormalEquations:
    # camera by camera: the (k, 12, 12) blocks of all observations and their
    # flat scatter indices would be the largest buffers of the whole solve.
    # Row sums accumulate in observation order, as scatter_blocks does.
    U = np.zeros((m, CAM_PARAMS, CAM_PARAMS))
    g_c = np.zeros((m, CAM_PARAMS))
    for j in range(m):
        sel = cam_idx == j
        Jj, rj = Jc[sel], r[sel]
        U[j] = np.einsum("koa,kob->kab", Jj, Jj).sum(axis=0)
        g_c[j] = np.einsum("koa,ko->ka", Jj, rj).sum(axis=0)
    V = scatter_blocks(pt_idx, np.einsum("koa,kob->kab", Jp, Jp), n)
    W = scatter_blocks(pt_idx * m + cam_idx, np.einsum("koa,kob->kab", Jc, Jp), n * m)
    g_p = scatter_blocks(pt_idx, np.einsum("koa,ko->ka", Jp, r), n)
    P = CAM_PARAMS * m
    Hcc = np.zeros((P, P))
    for j in range(m):
        Hcc[CAM_PARAMS * j : CAM_PARAMS * (j + 1), CAM_PARAMS * j : CAM_PARAMS * (j + 1)] = U[j]
    Wflat = W.reshape(n, P, 3)
    Wt = Wflat.transpose(1, 0, 2).reshape(P, 3 * n)
    return NormalEquations(Hcc, V, Wflat, Wt, g_c, g_p)


def schur_step(
    ne: NormalEquations, lam: float, frozen: Array
) -> tuple[Array, Array, Array, Array]:
    """One damped Levenberg-Marquardt step with the point blocks eliminated.

    Returns the reduced camera system S (P, P), its right-hand side (P,),
    the camera step (P,) and the point step (n, 3). Frozen camera
    parameters get identity rows and a zero step. Raises LinAlgError when a
    damped point block or S is singular.
    """
    Hcc_aug = ne.Hcc.copy()
    diag = np.diag(ne.Hcc)
    np.fill_diagonal(Hcc_aug, diag + lam * np.maximum(diag, 1e-12))
    Hcc_aug[frozen, :] = 0.0
    Hcc_aug[:, frozen] = 0.0
    Hcc_aug[frozen, frozen] = 1.0
    n = len(ne.V)
    dV = np.einsum("nii->ni", ne.V)
    idx = np.arange(3)
    Vaug = ne.V.copy()
    Vaug[:, idx, idx] = dV + lam * np.maximum(dV, 1e-12)
    Vinv = np.linalg.inv(Vaug)
    # W V⁻¹ written straight into Wt's (P, 3n) layout: a transposing copy
    # of the (n, P, 3) product would cost several times the product itself
    WVt = np.empty((len(ne.Wt), n, 3))
    np.matmul(ne.Wflat, Vinv, out=WVt.transpose(1, 0, 2))
    WVt = WVt.reshape(len(ne.Wt), -1)
    S = Hcc_aug - WVt @ ne.Wt.T
    rhs = np.where(frozen, 0.0, -(ne.g_c.ravel() - WVt @ ne.g_p.ravel()))
    dc = np.where(frozen, 0.0, np.linalg.solve(S, rhs))
    dp = np.matmul(Vinv, -(ne.g_p + (dc @ ne.Wt).reshape(n, 3))[:, :, None])[:, :, 0]
    return S, rhs, dc, dp


def _cost(intrinsics, poses, points, cam_idx, pt_idx, pixels) -> float:
    r = _project(intrinsics, poses, points, cam_idx, pt_idx, pixels)[0]
    return 0.5 * float(np.sum(r * r))


def bundle_adjust(
    intrinsics: list[CameraIntrinsics],
    poses: list[CameraPose],
    points: Array,
    cam_idx: Array,
    pt_idx: Array,
    pixels: Array,
    options: BundleOptions = BundleOptions(),
) -> BundleResult:
    """Levenberg-Marquardt on the reprojection cost with Schur elimination.

    The accepted-cost sequence is non-increasing; raises DivergedBA when the
    damping parameter exceeds its ceiling without an acceptable step.
    """
    cam_idx = np.asarray(cam_idx, dtype=np.int64)
    pt_idx = np.asarray(pt_idx, dtype=np.int64)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    points = np.asarray(points, dtype=float).reshape(-1, 3).copy()
    intrinsics = list(intrinsics)
    poses = list(poses)
    m = len(poses)
    n = len(points)

    free_cam = _free_parameters(poses, options)
    frozen = ~free_cam.ravel()

    cost = _cost(intrinsics, poses, points, cam_idx, pt_idx, pixels)
    trace = [cost]
    lam = _LAMBDA_INIT
    accepted = 0
    converged = False

    for _ in range(options.max_iters):
        r, Jc, Jp = residuals_and_blocks(intrinsics, poses, points, cam_idx, pt_idx, pixels)
        Jc = Jc * free_cam[cam_idx][:, None, :]
        ne = normal_equations(r, Jc, Jp, cam_idx, pt_idx, m, n)

        grad_inf = max(np.abs(ne.g_c).max(initial=0.0), np.abs(ne.g_p).max(initial=0.0))
        if grad_inf < _GRADIENT_TOL:
            converged = True
            break

        stepped = False
        best_rejected = np.inf
        while lam <= _LAMBDA_MAX:
            try:
                _, _, dc, dp = schur_step(ne, lam, frozen)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            delta = np.concatenate([dc, dp.ravel()])

            try:
                cand = apply_perturbation(intrinsics, poses, points, delta)
                new_cost = _cost(*cand, cam_idx, pt_idx, pixels)
            except ValueError:  # step left the valid parameter domain
                lam *= _LAMBDA_UP
                continue
            if np.isfinite(new_cost) and new_cost < cost:
                intrinsics, poses, points = cand
                decrease = cost - new_cost
                cost = new_cost
                trace.append(cost)
                accepted += 1
                lam = max(lam * _LAMBDA_DOWN, 1e-12)
                stepped = True
                if decrease < _COST_TOL * max(cost, 1.0):
                    converged = True
                break
            if np.isfinite(new_cost):
                best_rejected = min(best_rejected, new_cost)
            lam *= _LAMBDA_UP
        if not stepped:
            # a rejected step matching the current cost to float resolution is
            # a plateau (converged), not divergence
            if best_rejected <= cost * (1.0 + 1e-9):
                converged = True
                break
            if lam > _LAMBDA_MAX:
                raise DivergedBA(
                    f"damping exceeded {_LAMBDA_MAX:g} without an accepted step"
                )
            break
        if converged:
            break

    return BundleResult(intrinsics, poses, points, trace, accepted, converged)
