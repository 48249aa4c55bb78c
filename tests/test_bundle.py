"""Damped least-squares refinement: fixed point, Jacobians, gauge, descent."""
import numpy as np
import pytest

from evdeform.calibration.bundle import (
    CAM_PARAMS,
    BundleOptions,
    _free_parameters,
    apply_perturbation,
    bundle_adjust,
    dense_jacobian,
    normal_equations,
    residuals_and_blocks,
    scatter_blocks,
    schur_step,
)
from evdeform.geometry import (
    CameraPose,
    orthonormalize,
    project_pinhole,
    rotation_from_axis_angle,
)
from evdeform.simulator import paper_rig_cameras

TABLE_CAM1 = (-0.05359, 0.33899, -0.00157, -0.00479)


@pytest.fixture
def scene():
    cams = paper_rig_cameras()
    rng = np.random.default_rng(11)
    pts = np.array([0, 0, 5200.0]) + rng.uniform(-1, 1, (40, 3)) * np.array(
        [500.0, 700.0, 300.0]
    )
    intr = [i for i, _ in cams]
    poses = [p for _, p in cams]
    cam_idx = np.repeat(np.arange(3), len(pts))
    pt_idx = np.tile(np.arange(len(pts)), 3)
    pix = np.concatenate([project_pinhole(i, p, pts) for i, p in cams])
    return intr, poses, pts, cam_idx, pt_idx, pix


def reference_dense_jacobian(intr, poses, pts, cam_idx, pt_idx, pix):
    """The per-observation fill loop dense_jacobian replaced."""
    m, n = len(poses), len(pts)
    r, Jc, Jp = residuals_and_blocks(intr, poses, pts, cam_idx, pt_idx, pix)
    J = np.zeros((2 * len(cam_idx), CAM_PARAMS * m + 3 * n))
    for o, (c, p) in enumerate(zip(cam_idx, pt_idx)):
        J[2 * o : 2 * o + 2, CAM_PARAMS * c : CAM_PARAMS * (c + 1)] = Jc[o]
        J[2 * o : 2 * o + 2, CAM_PARAMS * m + 3 * p : CAM_PARAMS * m + 3 * p + 3] = Jp[o]
    return r.ravel(), J


def reference_reduced_system(r, Jc, Jp, cam_idx, pt_idx, m, n, lam, free_cam):
    """The np.add.at / three-operand einsum formulas the Schur step replaced.

    Returns S, rhs and the point step as a function of the camera step.
    """
    U = np.zeros((m, CAM_PARAMS, CAM_PARAMS))
    np.add.at(U, cam_idx, np.einsum("koa,kob->kab", Jc, Jc))
    V = np.zeros((n, 3, 3))
    np.add.at(V, pt_idx, np.einsum("koa,kob->kab", Jp, Jp))
    Wf = np.zeros((n, m, CAM_PARAMS, 3))
    np.add.at(Wf, (pt_idx, cam_idx), np.einsum("koa,kob->kab", Jc, Jp))
    g_c = np.zeros((m, CAM_PARAMS))
    np.add.at(g_c, cam_idx, np.einsum("koa,ko->ka", Jc, r))
    g_p = np.zeros((n, 3))
    np.add.at(g_p, pt_idx, np.einsum("koa,ko->ka", Jp, r))

    P = CAM_PARAMS * m
    Wflat = Wf.reshape(n, P, 3)
    Hcc = np.zeros((P, P))
    for j in range(m):
        Hcc[CAM_PARAMS * j : CAM_PARAMS * (j + 1), CAM_PARAMS * j : CAM_PARAMS * (j + 1)] = U[j]
    Hcc_aug = Hcc.copy()
    diag = np.diag(Hcc)
    np.fill_diagonal(Hcc_aug, diag + lam * np.maximum(diag, 1e-12))
    frozen = ~free_cam.ravel()
    Hcc_aug[frozen, :] = 0.0
    Hcc_aug[:, frozen] = 0.0
    Hcc_aug[frozen, frozen] = 1.0
    dV = np.einsum("nii->ni", V).copy()
    idx = np.arange(3)
    Vaug = V.copy()
    Vaug[:, idx, idx] = dV + lam * np.maximum(dV, 1e-12)
    Vinv = np.linalg.inv(Vaug)
    S = Hcc_aug - np.einsum("nic,ncd,njd->ij", Wflat, Vinv, Wflat)
    rhs = -(g_c.ravel() - np.einsum("nic,ncd,nd->i", Wflat, Vinv, g_p))

    def point_step(dc):
        return np.einsum("ncd,nd->nc", Vinv, -(g_p + np.einsum("nic,i->nc", Wflat, dc)))

    return S, np.where(frozen, 0.0, rhs), point_step


def masked_blocks(scene, options):
    """Noisy residuals and Jacobian blocks masked as bundle_adjust masks them."""
    intr, poses, pts, cam_idx, pt_idx, pix = scene
    rng = np.random.default_rng(4)
    pts = pts + rng.normal(0, 3.0, pts.shape)
    pix = pix + rng.normal(0, 0.5, pix.shape)
    free_cam = _free_parameters(poses, options)
    r, Jc, Jp = residuals_and_blocks(intr, poses, pts, cam_idx, pt_idx, pix)
    Jc = Jc * free_cam[cam_idx][:, None, :]
    return r, Jc, Jp, free_cam, (intr, poses, pts, cam_idx, pt_idx, pix)


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestFixedPoint:
    def test_ground_truth_needs_no_steps(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        res = bundle_adjust(intr, poses, pts, cam_idx, pt_idx, pix)
        assert res.accepted_steps == 0
        assert res.cost_trace == [0.0]
        assert res.converged


class TestRecovery:
    def test_perturbed_initialization_recovers(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        rng = np.random.default_rng(5)
        p_poses = [poses[0]]
        for p in poses[1:]:
            R = orthonormalize(rotation_from_axis_angle(rng.normal(0, 0.01, 3)) @ p.rotation)
            p_poses.append(CameraPose(R, p.translation * (1 + rng.normal(0, 0.01))))
        p_pts = pts + rng.normal(0, 2.0 * 5200 / 1800, pts.shape)
        res = bundle_adjust(intr, p_poses, p_pts, cam_idx, pt_idx, pix)
        r, _, _ = residuals_and_blocks(
            res.intrinsics, res.poses, res.points, cam_idx, pt_idx, pix
        )
        assert np.linalg.norm(r, axis=1).mean() < 1e-6

    def test_cost_trace_is_monotone(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        rng = np.random.default_rng(8)
        p_pts = pts + rng.normal(0, 5.0, pts.shape)
        pix_noisy = pix + rng.normal(0, 0.5, pix.shape)
        res = bundle_adjust(intr, poses, p_pts, cam_idx, pt_idx, pix_noisy)
        trace = np.array(res.cost_trace)
        assert np.all(np.diff(trace) <= 0)


class TestJacobian:
    def test_matches_central_differences(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        rng = np.random.default_rng(2)
        pix = pix + rng.normal(0, 1.0, pix.shape)  # nonzero residuals
        keep = 24
        ci, pi, px = cam_idx[:keep], pt_idx[:keep], pix[:keep]
        P = CAM_PARAMS * 3 + 3 * len(pts)
        h = 1e-6
        for cams in (intr, [i.with_distortion(*TABLE_CAM1) for i in intr]):
            _, J = dense_jacobian(cams, poses, pts, ci, pi, px)
            Jfd = np.zeros_like(J)
            for q in range(P):
                d = np.zeros(P)
                d[q] = h
                ip, pp, xp = apply_perturbation(cams, poses, pts, d)
                rp, _, _ = residuals_and_blocks(ip, pp, xp, ci, pi, px)
                im, pm, xm = apply_perturbation(cams, poses, pts, -d)
                rm, _, _ = residuals_and_blocks(im, pm, xm, ci, pi, px)
                Jfd[:, q] = (rp.ravel() - rm.ravel()) / (2 * h)
            denom = np.maximum(np.abs(Jfd), 1e-6 * np.abs(Jfd).max())
            assert (np.abs(J - Jfd) / denom).max() < 1e-4


    def test_dense_jacobian_equals_the_fill_loop(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        order = np.random.default_rng(6).permutation(len(cam_idx))
        args = (intr, poses, pts, cam_idx[order], pt_idx[order], pix[order])
        r, J = dense_jacobian(*args)
        r_ref, J_ref = reference_dense_jacobian(*args)
        np.testing.assert_array_equal(r, r_ref)
        np.testing.assert_array_equal(J, J_ref)


class TestScatterBlocks:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 5)])
    def test_equals_add_at_bitwise(self, shape):
        rng = np.random.default_rng(3)
        k, count = 500, 40
        index = rng.integers(0, count - 5, k)  # slots count-5.. are never hit
        index[:50] = 7  # and one slot is hit many times
        blocks = rng.normal(0, 1, (k, *shape)) * 10.0 ** rng.integers(-8, 9, (k, *shape))
        expected = np.zeros((count, *shape))
        np.add.at(expected, index, blocks)
        got = scatter_blocks(index, blocks, count)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)

    def test_no_observations_give_zeros(self):
        got = scatter_blocks(np.zeros(0, dtype=np.int64), np.zeros((0, 2, 3)), 4)
        np.testing.assert_array_equal(got, np.zeros((4, 2, 3)))
        assert got.dtype == np.float64


SCHUR_OPTIONS = {
    "default": BundleOptions(),
    "frozen-focal": BundleOptions(refine_focal=False),
}


class TestSchurStep:
    @pytest.mark.parametrize("lam", [1e-4, 10.0])
    @pytest.mark.parametrize("name", SCHUR_OPTIONS)
    def test_matches_the_einsum_reference(self, scene, name, lam):
        options = SCHUR_OPTIONS[name]
        r, Jc, Jp, free_cam, (_, poses, pts, cam_idx, pt_idx, _) = masked_blocks(scene, options)
        m, n = len(poses), len(pts)
        S, rhs, dc, dp = schur_step(
            normal_equations(r, Jc, Jp, cam_idx, pt_idx, m, n),
            lam, ~free_cam.ravel(),
        )
        S_ref, rhs_ref, point_step = reference_reduced_system(
            r, Jc, Jp, cam_idx, pt_idx, m, n, lam, free_cam
        )
        assert rel_err(S, S_ref) < 1e-12
        assert rel_err(rhs, rhs_ref) < 1e-12
        frozen = ~free_cam.ravel()
        assert frozen.sum() >= 6 and not dc[frozen].any()
        assert rel_err(dp, point_step(dc)) < 1e-12

    def test_normal_blocks_equal_add_at_bitwise(self, scene):
        r, Jc, Jp, _, (_, poses, pts, cam_idx, pt_idx, _) = masked_blocks(scene, BundleOptions())
        m, n = len(poses), len(pts)
        ne = normal_equations(r, Jc, Jp, cam_idx, pt_idx, m, n)
        U = np.zeros((m, CAM_PARAMS, CAM_PARAMS))
        np.add.at(U, cam_idx, np.einsum("koa,kob->kab", Jc, Jc))
        g_c = np.zeros((m, CAM_PARAMS))
        np.add.at(g_c, cam_idx, np.einsum("koa,ko->ka", Jc, r))
        for j in range(m):
            block = slice(CAM_PARAMS * j, CAM_PARAMS * (j + 1))
            np.testing.assert_array_equal(ne.Hcc[block, block], U[j])
        np.testing.assert_array_equal(ne.g_c, g_c)
        W = np.zeros((n, m, CAM_PARAMS, 3))
        np.add.at(W, (pt_idx, cam_idx), np.einsum("koa,kob->kab", Jc, Jp))
        g_p = np.zeros((n, 3))
        np.add.at(g_p, pt_idx, np.einsum("koa,ko->ka", Jp, r))
        np.testing.assert_array_equal(ne.Wflat, W.reshape(n, -1, 3))
        np.testing.assert_array_equal(ne.Wt, ne.Wflat.transpose(1, 0, 2).reshape(-1, 3 * n))
        np.testing.assert_array_equal(ne.g_p, g_p)

    @pytest.mark.parametrize("name", ["default", "frozen-focal"])
    def test_equals_schur_complement_of_dense_normal_matrix(self, scene, name):
        options = SCHUR_OPTIONS[name]
        lam = 1e-3
        r, Jc, Jp, free_cam, data = masked_blocks(scene, options)
        intr, poses, pts, cam_idx, pt_idx, pix = data
        m, n = len(poses), len(pts)
        P = CAM_PARAMS * m
        S, rhs, _, _ = schur_step(
            normal_equations(r, Jc, Jp, cam_idx, pt_idx, m, n),
            lam, ~free_cam.ravel(),
        )

        r_dense, J = dense_jacobian(*data)
        J[:, :P] *= free_cam.ravel()
        H = J.T @ J
        g = J.T @ r_dense
        d = np.diag(H).copy()
        H[np.diag_indices_from(H)] = d + lam * np.maximum(d, 1e-12)
        frozen = np.flatnonzero(~free_cam.ravel())
        H[frozen, :] = 0.0
        H[:, frozen] = 0.0
        H[frozen, frozen] = 1.0
        g[frozen] = 0.0
        Hpp_inv = np.linalg.inv(H[P:, P:])
        S_dense = H[:P, :P] - H[:P, P:] @ Hpp_inv @ H[P:, :P]
        rhs_dense = -(g[:P] - H[:P, P:] @ Hpp_inv @ g[P:])
        assert rel_err(S, S_dense) < 1e-10
        assert rel_err(rhs, rhs_dense) < 1e-10


class TestGauge:
    def test_frozen_reference_stays_fixed(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        rng = np.random.default_rng(9)
        p_pts = pts + rng.normal(0, 3.0, pts.shape)
        res = bundle_adjust(intr, poses, p_pts, cam_idx, pt_idx, pix)
        np.testing.assert_array_equal(res.poses[0].rotation, poses[0].rotation)
        np.testing.assert_array_equal(res.poses[0].translation, poses[0].translation)

    def test_scale_pin_holds_component(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        rng = np.random.default_rng(10)
        p_pts = pts + rng.normal(0, 3.0, pts.shape)
        res = bundle_adjust(intr, poses, p_pts, cam_idx, pt_idx, pix)
        assert res.accepted_steps > 0
        # the largest translation component of camera 1 is pinned
        axis = int(np.argmax(np.abs(poses[1].translation)))
        moved = res.poses[1].translation != poses[1].translation
        assert moved.tolist() == [i != axis for i in range(3)]
        assert res.poses[1].translation[axis].hex() == poses[1].translation[axis].hex()

    def test_focal_frozen_when_disabled(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        rng = np.random.default_rng(12)
        p_pts = pts + rng.normal(0, 3.0, pts.shape)
        res = bundle_adjust(
            intr, poses, p_pts, cam_idx, pt_idx, pix,
            BundleOptions(refine_focal=False),
        )
        for a, b in zip(res.intrinsics, intr):
            assert a.fx == b.fx and a.fy == b.fy
