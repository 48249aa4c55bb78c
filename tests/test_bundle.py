"""Damped least-squares refinement: fixed point, Jacobians, gauge, descent."""
from dataclasses import replace

import numpy as np
import pytest

from evdeform.calibration import bundle
from evdeform.calibration.bundle import (
    CAM_PARAMS,
    _free_parameters,
    apply_perturbation,
    bundle_adjust,
    dense_jacobian,
    normal_equations,
    residuals_and_blocks,
    schur_step,
)
from evdeform.geometry import (
    CameraPose,
    orthonormalize,
    project_points,
    rotation_from_axis_angle,
)
from evdeform.simulator import paper_rig_cameras

TABLE_CAM1 = dict(k1=-0.05359, k2=0.33899, p1=-0.00157, p2=-0.00479)
FOCAL_CAM1 = (1778.51, 1772.34)  # fx, fy of a calibrated camera: fy/fx != 1


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
    pix = np.concatenate([project_points(i, p, pts)[0] for i, p in cams])
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


def masked_blocks(scene, free_distortion=()):
    """Noisy residuals and Jacobian blocks masked as bundle_adjust masks them."""
    intr, poses, pts, cam_idx, pt_idx, pix = scene
    rng = np.random.default_rng(4)
    pts = pts + rng.normal(0, 3.0, pts.shape)
    pix = pix + rng.normal(0, 0.5, pix.shape)
    free_cam = _free_parameters(poses, free_distortion)
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

    def test_plateau_stops_at_the_first_matching_trial(self, scene, monkeypatch):
        """Restarted at its own optimum, the solve stops at the first trial
        step that cannot lower the cost instead of raising the damping to
        its ceiling."""
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        pix_noisy = pix + np.random.default_rng(9).normal(0, 0.5, pix.shape)
        res = bundle_adjust(intr, poses, pts, cam_idx, pt_idx, pix_noisy)
        assert res.converged
        calls = []
        cost = bundle._cost
        monkeypatch.setattr(bundle, "_cost", lambda *a: calls.append(1) or cost(*a))
        again = bundle_adjust(res.intrinsics, res.poses, res.points, cam_idx, pt_idx, pix_noisy)
        assert again.converged
        assert len(calls) <= 3  # the starting cost and at most two trial steps
        assert again.final_cost <= res.final_cost


class TestJacobian:
    def test_matches_central_differences(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        rng = np.random.default_rng(2)
        pix = pix + rng.normal(0, 1.0, pix.shape)  # nonzero residuals
        keep = 24
        ci, pi, px = cam_idx[:keep], pt_idx[:keep], pix[:keep]
        P = CAM_PARAMS * 3 + 3 * len(pts)
        h = 1e-6
        distorted = [replace(i, **TABLE_CAM1) for i in intr]
        for cams in (intr, distorted, [i.with_focal(*FOCAL_CAM1) for i in distorted]):
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
        # camera-major, points shuffled within each camera
        order = np.random.default_rng(6).permutation(len(cam_idx))
        order = order[np.argsort(cam_idx[order], kind="stable")]
        args = (intr, poses, pts, cam_idx[order], pt_idx[order], pix[order])
        r, J = dense_jacobian(*args)
        r_ref, J_ref = reference_dense_jacobian(*args)
        np.testing.assert_array_equal(r, r_ref)
        np.testing.assert_array_equal(J, J_ref)


SCHUR_DISTORTION = {"default": (), "free-distortion": (1,)}  # cameras with free k1 k2 p1 p2


class TestSchurStep:
    @pytest.mark.parametrize("lam", [1e-4, 10.0])
    @pytest.mark.parametrize("name", SCHUR_DISTORTION)
    def test_matches_the_einsum_reference(self, scene, name, lam):
        r, Jc, Jp, free_cam, (_, poses, pts, cam_idx, pt_idx, _) = masked_blocks(
            scene, SCHUR_DISTORTION[name]
        )
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

    def test_normal_blocks_match_add_at(self, scene):
        r, Jc, Jp, _, (_, poses, pts, cam_idx, pt_idx, _) = masked_blocks(scene)
        m, n = len(poses), len(pts)
        ne = normal_equations(r, Jc, Jp, cam_idx, pt_idx, m, n)
        U = np.zeros((m, CAM_PARAMS, CAM_PARAMS))
        np.add.at(U, cam_idx, np.einsum("koa,kob->kab", Jc, Jc))
        g_c = np.zeros((m, CAM_PARAMS))
        np.add.at(g_c, cam_idx, np.einsum("koa,ko->ka", Jc, r))
        V = np.zeros((n, 3, 3))
        np.add.at(V, pt_idx, np.einsum("koa,kob->kab", Jp, Jp))
        W = np.zeros((n, m, CAM_PARAMS, 3))
        np.add.at(W, (pt_idx, cam_idx), np.einsum("koa,kob->kab", Jc, Jp))
        g_p = np.zeros((n, 3))
        np.add.at(g_p, pt_idx, np.einsum("koa,ko->ka", Jp, r))
        for j in range(m):
            block = slice(CAM_PARAMS * j, CAM_PARAMS * (j + 1))
            assert rel_err(ne.Hcc[block, block], U[j]) < 1e-13
        assert rel_err(ne.g_c, g_c) < 1e-13
        assert rel_err(ne.V, V) < 1e-13
        assert rel_err(ne.Wflat, W.reshape(n, -1, 3)) < 1e-13
        assert rel_err(ne.g_p, g_p) < 1e-13
        np.testing.assert_array_equal(ne.Wt, ne.Wflat.transpose(1, 0, 2).reshape(-1, 3 * n))

    def test_camera_without_observations_has_zero_blocks(self, scene):
        r, Jc, Jp, _, (_, poses, pts, cam_idx, pt_idx, _) = masked_blocks(scene)
        seen = cam_idx != 1
        m, n = len(poses), len(pts)
        ne = normal_equations(r[seen], Jc[seen], Jp[seen], cam_idx[seen], pt_idx[seen], m, n)
        block = slice(CAM_PARAMS, 2 * CAM_PARAMS)
        np.testing.assert_array_equal(ne.Hcc[block, block], np.zeros((CAM_PARAMS, CAM_PARAMS)))
        np.testing.assert_array_equal(ne.g_c[1], np.zeros(CAM_PARAMS))
        assert ne.Hcc[:CAM_PARAMS, :CAM_PARAMS].any() and ne.g_c[2].any()

    @pytest.mark.parametrize("name", SCHUR_DISTORTION)
    def test_equals_schur_complement_of_dense_normal_matrix(self, scene, name):
        lam = 1e-3
        r, Jc, Jp, free_cam, data = masked_blocks(scene, SCHUR_DISTORTION[name])
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
        ne = normal_equations(r, Jc, Jp, cam_idx, pt_idx, m, n)
        blocks = [slice(CAM_PARAMS * j, CAM_PARAMS * (j + 1)) for j in range(m)]
        assert rel_err(np.stack([ne.Hcc[b, b] for b in blocks]), np.stack([H[b, b] for b in blocks])) < 1e-12
        assert rel_err(ne.g_c.ravel(), g[:P]) < 1e-12
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

    def test_one_focal_length_holds_the_aspect_ratio(self, scene):
        """A perturbed focal length is recovered with fy moving at the
        camera's own fy/fx."""
        _, poses, pts, cam_idx, pt_idx, _ = scene
        true = [i.with_focal(*FOCAL_CAM1) for i, _ in paper_rig_cameras()]
        pix = np.concatenate([project_points(i, p, pts)[0] for i, p in zip(true, poses)])
        start = [i.with_focal(i.fx * s, i.fy * s) for i, s in zip(true, (1.01, 0.99, 1.005))]
        p_pts = pts + np.random.default_rng(12).normal(0, 3.0, pts.shape)
        res = bundle_adjust(start, poses, p_pts, cam_idx, pt_idx, pix)
        assert res.converged
        for fit, s, t in zip(res.intrinsics, start, true):
            assert abs(fit.fy / fit.fx - s.fy / s.fx) <= 1e-15 * (s.fy / s.fx)
            assert abs(fit.fx - t.fx) < 1e-10 * t.fx
            assert (fit.cx, fit.cy) == (t.cx, t.cy)


class TestSolveOrder:
    """bundle_adjust solves in a stable camera-major order, whatever the
    order of the observations it is given."""

    def test_point_major_input_is_the_same_solve(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        rng = np.random.default_rng(13)
        pts = pts + rng.normal(0, 3.0, pts.shape)
        pix = pix + rng.normal(0, 0.5, pix.shape)
        point_major = np.lexsort((cam_idx, pt_idx))
        assert np.any(np.diff(cam_idx[point_major]) < 0)
        a = bundle_adjust(intr, poses, pts, cam_idx, pt_idx, pix)
        b = bundle_adjust(
            intr, poses, pts, cam_idx[point_major], pt_idx[point_major], pix[point_major]
        )
        assert a.accepted_steps > 0
        assert a.cost_trace == b.cost_trace
        np.testing.assert_array_equal(a.points, b.points)
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
            np.testing.assert_array_equal(pa.translation, pb.translation)
        assert a.intrinsics == b.intrinsics

    def test_shuffled_input_agrees(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        rng = np.random.default_rng(14)
        pts = pts + rng.normal(0, 3.0, pts.shape)
        pix = pix + rng.normal(0, 0.5, pix.shape)
        intr = [replace(i, fx=i.fx * (1 + rng.normal(0, 0.005)), fy=i.fy * (1 + rng.normal(0, 0.005)))
                for i in intr]
        order = np.random.default_rng(15).permutation(len(cam_idx))
        a = bundle_adjust(intr, poses, pts, cam_idx, pt_idx, pix)
        b = bundle_adjust(intr, poses, pts, cam_idx[order], pt_idx[order], pix[order])
        assert a.converged and b.converged
        assert rel_err(b.points, a.points) < 1e-8
        for ia, ib in zip(a.intrinsics, b.intrinsics):
            assert rel_err(np.array([ib.fx, ib.fy]), np.array([ia.fx, ia.fy])) < 1e-8
        for field in ("rotation", "translation"):  # relative to the whole rig
            got, want = (np.stack([getattr(p, field) for p in res.poses]) for res in (b, a))
            assert rel_err(got, want) < 1e-8

    def test_repeated_observation_is_rejected(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        again = np.flatnonzero((cam_idx == 2) & (pt_idx == 7))
        cam_idx, pt_idx, pix = (np.concatenate([a, a[again]]) for a in (cam_idx, pt_idx, pix))
        with pytest.raises(ValueError, match="point 7 is observed more than once by camera 2"):
            bundle_adjust(intr, poses, pts, cam_idx, pt_idx, pix)

    def test_internals_require_camera_major_order(self, scene):
        intr, poses, pts, cam_idx, pt_idx, pix = scene
        order = np.lexsort((cam_idx, pt_idx))
        data = (intr, poses, pts, cam_idx[order], pt_idx[order], pix[order])
        for internal in (residuals_and_blocks, dense_jacobian, bundle._project):
            with pytest.raises(ValueError, match="camera-major"):
                internal(*data)
        r, Jc, Jp = residuals_and_blocks(*scene)
        with pytest.raises(ValueError, match="camera-major"):
            normal_equations(
                r[order], Jc[order], Jp[order], cam_idx[order], pt_idx[order],
                len(poses), len(pts),
            )
