import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack.flow import FlowNoiseModel, oracle_flows
from lidartrack.geometry import (MIN_DEPTH, CameraIntrinsics, PerturbBounds,
                                 PoseSE3, perturb_pose, pose_error,
                                 project_points, reprojection_jacobian, se3_exp,
                                 se3_exp_rows)
from lidartrack.mapping import CropExtents, crop_local
from lidartrack import pnp
from lidartrack.pnp import (REFINE_POINT_CAP, Correspondences, PnPResult,
                            RansacConfig, RefineResult, _collinear,
                            _fit_minimal_batch, _huber_cost, _huber_weights,
                            _reproj_errors, correspondences_from_flow,
                            refine_pose, solve_pnp_ransac)
from lidartrack.rendering import FlowField, remove_occlusions, render_depth

from conftest import DenseFlow, dense, sparse


def _fit_minimal_reference(corrs, K, T0):
    """One minimal Gauss-Newton fit at a time: the sequential form that
    the batched ``_fit_minimal_batch`` must match bit for bit.  Returns
    the (R, t) reached, stepping ``t <- R dt + t`` and ``R <- R dR`` by
    ``se3_exp_rows``, or None for a failed fit: a system at T0 that fixes
    fewer than five pose directions (singular values above 1e-12 times
    the largest), a point behind the camera, a singular damped solve, or
    a step or new translation that is not finite."""
    R, t = T0.rotation_matrix(), T0.t
    for step in range(6):
        uv, z, J = reprojection_jacobian(K, (R, t), corrs.p_world)
        if np.any(z <= MIN_DEPTH):
            return None
        # component-major rows: A (6, 2N) and r (2N,)
        A = J.T.reshape(6, -1)
        r = (uv - corrs.x_img).T.reshape(-1)
        H = A @ A.T
        if step == 0:
            if not np.all(np.isfinite(H)):
                return None
            s = np.linalg.svd(H, compute_uv=False)
            if np.count_nonzero(s > 1e-12 * s[0]) < 5:
                return None
        try:
            delta = np.linalg.solve(H + 1e-9 * np.eye(6), -(A @ r))
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        dR, dt = se3_exp_rows(delta[None])
        t = R @ dt[0] + t
        if not np.all(np.isfinite(t)):
            return None
        R = R @ dR[0]
        if float(np.abs(delta).max()) < 1e-8:
            break
    return R, t


def _reproj_errors_reference(corrs, K, R, t):
    cam = corrs.p_world @ R.T + t
    z = cam[:, 2]
    uv = np.empty((len(corrs), 2))
    zs = np.where(z > MIN_DEPTH, z, 1.0)
    uv[:, 0] = K.fx * cam[:, 0] / zs + K.cx
    uv[:, 1] = K.fy * cam[:, 1] / zs + K.cy
    err = np.linalg.norm(uv - corrs.x_img, axis=1)
    err[z <= MIN_DEPTH] = np.inf
    return err


def _reproj_cost_reference(corrs, K, pose, huber_delta):
    cam = pose.apply(corrs.p_world)
    z = cam[:, 2]
    if np.any(z <= 1e-3):
        return np.inf
    uv = np.empty((len(corrs), 2))
    uv[:, 0] = K.fx * cam[:, 0] / z + K.cx
    uv[:, 1] = K.fy * cam[:, 1] / z + K.cy
    norms = np.linalg.norm(uv - corrs.x_img, axis=1)
    return float(np.sum(_huber_cost(norms, huber_delta)))


def _refine_pose_reference(corrs, K, T0, huber_delta=2.0, max_iters=30,
                           rel_tol=1e-12, lambda0=1e-4):
    """``refine_pose`` as its own Levenberg-Marquardt loop: the form that
    the shared ``_huber_lm`` core must match bit for bit.  The settings
    shared with ``joint.optimize_pair`` are literals here (12 dampings, a
    1e-12 gradient tolerance, a 1e-3 m depth floor, the rank gate on), so
    that a change to any of them fails the comparison."""
    failed = RefineResult(pose=T0, cost=np.inf, iterations=0, converged=False)
    z0 = T0.apply(corrs.p_world)[:, 2]
    kept = corrs.subset(z0 > 1e-3)
    if len(kept) < 4:
        return failed

    def normal_equations(pose):
        uv, z, J = reprojection_jacobian(K, pose, kept.p_world)
        r = uv - kept.x_img
        norms = np.linalg.norm(r, axis=1)
        wts = _huber_weights(norms, huber_delta)
        sw = np.sqrt(wts)
        # component-major rows: A (6, 2N) and b (2N,)
        A = (J.T * sw).reshape(6, -1)
        b = (r.T * sw).reshape(-1)
        return A @ A.T, A @ b

    pose = T0
    H, g = normal_equations(pose)
    cost = _reproj_cost_reference(kept, K, pose, huber_delta)
    if not np.isfinite(cost):
        return failed
    s = np.linalg.svd(H, compute_uv=False)
    if s[0] <= 0 or int(np.sum(s > s[0] * 1e-12)) < 6:
        return failed
    lam = lambda0
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        if it > 1:
            H, g = normal_equations(pose)
        if np.linalg.norm(g, ord=np.inf) < 1e-12:
            converged = True
            break
        stepped = False
        for _ in range(12):
            D = H + lam * np.diag(np.diag(H)) + 1e-15 * np.eye(6)
            try:
                delta = np.linalg.solve(D, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = pose.compose(se3_exp(delta))
            trial_cost = _reproj_cost_reference(kept, K, trial, huber_delta)
            if trial_cost < cost:
                rel_drop = (cost - trial_cost) / max(cost, 1e-300)
                pose, cost = trial, trial_cost
                lam = max(lam / 2.0, 1e-12)
                stepped = True
                if rel_drop < rel_tol:
                    converged = True
                break
            lam *= 10.0
        if not stepped:
            converged = True
            break
        if converged:
            break
    return RefineResult(pose=pose, cost=cost, iterations=it, converged=converged)


def _solve_pnp_ransac_reference(corrs, K, T_init, cfg):
    """``solve_pnp_ransac`` fitting and scoring one hypothesis at a time.
    Kept as the reference the batched form must match bit for bit."""
    n = len(corrs)

    def failed(hypotheses):
        return PnPResult(pose=T_init, inliers=np.zeros(n, dtype=bool),
                         success=False, rmse=float("inf"), hypotheses=hypotheses)

    if n < 4 or _collinear(corrs.p_world):
        return failed(0)
    rng = np.random.default_rng(cfg.seed)

    best_count = 0
    best_mask = np.zeros(n, dtype=bool)
    needed = cfg.max_iters
    it = 0
    while it < min(needed, cfg.max_iters):
        it += 1
        sample = rng.choice(n, size=4, replace=False)
        hyp = _fit_minimal_reference(corrs.subset(sample), K, T_init)
        if hyp is None:
            continue
        err = _reproj_errors_reference(corrs, K, *hyp)
        mask = err < cfg.inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            ratio = count / n
            if ratio >= 1.0:
                needed = it
            else:
                p_good = max(ratio ** 4, 1e-12)
                needed = math.ceil(math.log(1.0 - cfg.confidence)
                                   / math.log(1.0 - p_good))

    if best_count < max(cfg.min_inliers, 4):
        return failed(it)

    refine_idx = np.nonzero(best_mask)[0]
    if len(refine_idx) > REFINE_POINT_CAP:
        stride = -(-len(refine_idx) // REFINE_POINT_CAP)
        refine_idx = refine_idx[::stride]
    refined = refine_pose(corrs.subset(refine_idx), K, T_init)
    if refined.cost == np.inf:
        return failed(it)
    err = _reproj_errors_reference(corrs, K, refined.pose.rotation_matrix(),
                                   refined.pose.t)
    final_mask = err < cfg.inlier_threshold
    if int(final_mask.sum()) < max(cfg.min_inliers, 4):
        final_mask = best_mask
    rmse = float(np.sqrt(np.mean(err[final_mask] ** 2)))
    return PnPResult(pose=refined.pose, inliers=final_mask, success=True, rmse=rmse,
                     hypotheses=it, refine_iters=refined.iterations,
                     refine_converged=refined.converged)


def _refine_pose_with(corrs, K, T0, huber_delta, max_iters, rel_tol, lambda0):
    """``refine_pose`` with its fixed Huber delta, iteration cap, relative
    tolerance and initial damping replaced in its ``_huber_lm`` call."""
    lm = pnp._huber_lm

    def with_settings(terms, K, T_cur, T_next, free, *_):
        return lm(terms, K, T_cur, T_next, free, huber_delta, max_iters, rel_tol, lambda0)

    with mock.patch.object(pnp, "_huber_lm", with_settings):
        return refine_pose(corrs, K, T0)


def assert_same_refine(a, b):
    assert np.array_equal(a.pose.q, b.pose.q)
    assert np.array_equal(a.pose.t, b.pose.t)
    assert (a.cost, a.iterations, a.converged) == (b.cost, b.iterations, b.converged)


def assert_refine_failed(res, T0):
    """The one failed refinement: T0, infinite cost, no iteration."""
    assert res.pose is T0
    assert res == RefineResult(pose=T0, cost=np.inf, iterations=0, converged=False)


def assert_same_result(a, b):
    assert np.array_equal(a.pose.q, b.pose.q)
    assert np.array_equal(a.pose.t, b.pose.t)
    assert np.array_equal(a.inliers, b.inliers)
    assert a.rmse == b.rmse
    assert a.hypotheses == b.hypotheses
    assert a.success == b.success
    assert (a.refine_iters, a.refine_converged) == (b.refine_iters, b.refine_converged)


# a 480x160 camera, and one whose focal length makes the 1e-9 damping
# vanish next to the normal equations of four coincident points, so that
# their solve is singular
K_RANSAC = CameraIntrinsics(fx=100.0, fy=100.0, cx=240.0, cy=80.0, width=480, height=160)
K_LONG = CameraIntrinsics(fx=1e5, fy=1e5, cx=240.0, cy=80.0, width=480, height=160)


K_LM = CameraIntrinsics(fx=100.0, fy=100.0, cx=120.0, cy=40.0, width=240, height=80)


def make_lm_corrs(rng, T_true, T0, n, sigma, near, near_exp, near_z, K=K_LM):
    """Correspondences for the LM reference tests.

    ``n`` points 3-30 m ahead of ``T_true`` with pixel noise ``sigma``, and
    ``near`` points whose depth at ``T0`` is ``near_z`` offset by -1, 0, 1,
    2 or 5 times ``10**near_exp`` (those at or behind ``near_z`` drop out
    at setup, those just in front make most trial steps infeasible).
    """
    cam = np.column_stack([rng.uniform(-8, 8, n), rng.uniform(-3, 3, n),
                           rng.uniform(3, 30, n)])
    P = T_true.inverse().apply(cam)
    x = project_points(K, cam)[0]
    if near:
        z = near_z + 10.0 ** near_exp * np.array([-1.0, 0.0, 1.0, 2.0, 5.0])[:near]
        unit = rng.uniform(-1, 1, (near, 2))
        P = np.vstack([P, T0.inverse().apply(np.column_stack([unit * z[:, None], z]))])
        x = np.vstack([x, unit * [K.fx, K.fy] + [K.cx, K.cy]])
    x = x + rng.normal(0, sigma, x.shape)
    return Correspondences.from_arrays(P, x)


def make_ransac_problem(n, outlier_frac, behind_frac, sigma, seed, K=K_RANSAC):
    """Random correspondences around a random pose, with outliers and with
    points behind the camera at the returned initial pose."""
    rng = np.random.default_rng(seed)
    T = se3_exp(rng.uniform(-0.3, 0.3, 6))
    T_init = T.compose(se3_exp(rng.uniform(-0.03, 0.03, 6)))
    cam = rng.uniform([-20.0, -6.0, 2.0], [20.0, 6.0, 60.0], (n, 3))
    behind = rng.random(n) < behind_frac
    cam[behind, 2] *= -1.0
    P = T_init.inverse().apply(cam)
    uv, _ = project_points(K, T.apply(P))
    x = uv + rng.normal(0.0, sigma, uv.shape)
    out = rng.random(n) < outlier_frac
    x[out] += rng.uniform(-80.0, 80.0, (int(out.sum()), 2))
    return Correspondences.from_arrays(P, x), T_init


def _edge_case(case):
    """(K, corrs, T_init, RansacConfig keywords) of one named RANSAC edge case."""
    K, n, outliers, behind, kw = K_RANSAC, 300, 0.4, 0.0, {}
    if case == "four_inliers":
        n, outliers = 4, 0.0
    elif case == "all_inliers":
        outliers = 0.0
    elif case == "all_outliers":
        outliers = 1.0
    elif case.startswith("max_iters_"):
        kw["max_iters"] = int(case.rsplit("_", 1)[1])
        outliers = 0.8
    elif case == "min_inliers_above_n":
        kw["min_inliers"] = n + 1
    elif case == "half_behind":
        behind = 0.5
    corrs, T_init = make_ransac_problem(n, outliers, behind, 0.5, 77)
    if case == "nan_pixels":
        corrs.x_img[::2] = np.nan
    if case == "coincident_points":
        # six correspondences, four of them one point straight ahead
        K, T_init, kw["max_iters"] = K_LONG, PoseSE3.identity(), 40
        P = np.array([[0.0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 0, 1],
                      [1, 0, 2], [0, 1, 3]])
        corrs = Correspondences.from_arrays(P, project_points(K, P)[0])
    return K, corrs, T_init, kw


def make_exact_corrs(K, pose, points, n, seed, z_min=1.0):
    """Noiseless correspondences: sampled points with exact projections."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(points), size=min(n, len(points)), replace=False)
    P = points[idx]
    cam = pose.apply(P)
    keep = cam[:, 2] > z_min
    uv, _ = project_points(K, cam[keep])
    inside = ((uv[:, 0] >= 0) & (uv[:, 0] < K.width)
              & (uv[:, 1] >= 0) & (uv[:, 1] < K.height))
    return Correspondences.from_arrays(P[keep][inside], uv[inside])


@pytest.fixture(scope="module")
def world(K, corridor):
    gmap, traj = corridor
    T_gt = traj[0]
    crop = crop_local(gmap, T_gt, CropExtents())
    return K, T_gt, crop


class TestCorrespondencesFromFlow:
    def test_zero_flow_anchors_at_pixels(self, K, corridor):
        gmap, traj = corridor
        T = traj[0]
        crop = crop_local(gmap, T, CropExtents())
        d = remove_occlusions(render_depth(crop, K, T))
        zero = FlowField(d.shape, d.flat, np.zeros(len(d.flat)), np.zeros(len(d.flat)))
        corrs = correspondences_from_flow(d, zero, crop)
        assert len(corrs) == len(d.flat)
        rows, cols = np.nonzero(dense(d).valid)
        assert np.allclose(corrs.x_img[:, 0], cols)
        assert np.allclose(corrs.x_img[:, 1], rows)

    def test_empty_joint_mask(self, K, corridor):
        gmap, traj = corridor
        crop = crop_local(gmap, traj[0], CropExtents())
        d = remove_occlusions(render_depth(crop, K, traj[0]))
        empty = FlowField.invalid(*d.shape)
        assert len(correspondences_from_flow(d, empty, crop)) == 0

    def test_gt_flow_lands_near_gt_projection(self, K, corridor):
        gmap, traj = corridor
        T_gt = traj[0]
        T_init = perturb_pose(T_gt, PerturbBounds(1.5, 8.0), 21)
        crop = crop_local(gmap, T_init, CropExtents())
        d = remove_occlusions(render_depth(crop, K, T_init))
        t = oracle_flows(crop, K, T_init, T_gt, traj[1], FlowNoiseModel(),
                         depth_init=d)
        corrs = correspondences_from_flow(d, t.f_c2d, crop)
        assert len(corrs) > 200
        uv_gt, front = project_points(K, T_gt.apply(corrs.p_world))
        assert np.all(front)
        assert np.abs(corrs.x_img - uv_gt).max() <= 0.5 + 1e-9

    def test_dimension_mismatch(self, K):
        d = render_depth(np.array([[0.0, 0, 10]]), K, PoseSE3.identity())
        with pytest.raises(ValueError):
            correspondences_from_flow(d, FlowField.invalid(4, 4), np.zeros((1, 3)))

    def test_non_finite_pairs_dropped(self, K, corridor):
        gmap, traj = corridor
        T = traj[0]
        crop = crop_local(gmap, T, CropExtents()).copy()
        d = dense(remove_occlusions(render_depth(crop, K, T)))
        f = DenseFlow(np.zeros(d.shape), np.zeros(d.shape), d.valid.copy())
        rows, cols = np.nonzero(d.valid)
        f.du[rows[::2], cols[::2]] = np.nan
        f.dv[rows[1::4], cols[1::4]] = np.inf
        crop[d.source[rows[3], cols[3]]] = np.nan  # a non-finite map point
        corrs = correspondences_from_flow(sparse(d), sparse(f), crop)
        kept = np.ones(len(rows), dtype=bool)
        kept[::2] = False
        kept[1::4] = False
        kept[3] = False
        assert len(corrs) == kept.sum() > 0
        assert np.isfinite(corrs.x_img).all() and np.isfinite(corrs.p_world).all()
        assert np.array_equal(corrs.x_img[:, 0], cols[kept])
        assert np.array_equal(corrs.x_img[:, 1], rows[kept])
        assert np.array_equal(corrs.p_world, crop[d.source[rows[kept], cols[kept]]])


class TestRefinePose:
    def test_stays_at_noiseless_optimum(self, world):
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 300, seed=0)
        res = refine_pose(corrs, K, T_gt)
        rot, transl = pose_error(res.pose, T_gt)
        assert rot < 1e-9 and transl < 1e-9

    def test_recovers_from_large_perturbation(self, world):
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 400, seed=1)
        for seed in range(5):
            T0 = perturb_pose(T_gt, PerturbBounds(2.0, 10.0), seed)
            res = refine_pose(corrs, K, T0)
            rot, transl = pose_error(res.pose, T_gt)
            assert rot < 0.01 and transl < 0.01

    def test_noisy_cost_decreases(self, world):
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 500, seed=2)
        rng = np.random.default_rng(3)
        noisy = Correspondences.from_arrays(
            corrs.p_world, corrs.x_img + rng.normal(0, 1.0, corrs.x_img.shape))
        T0 = perturb_pose(T_gt, PerturbBounds(0.5, 3.0), 4)
        a = np.linalg.norm(pnp._Term(noisy.p_world, noisy.x_img, ("cur",)).residual(K, T0, None), axis=1)
        c0 = np.where(a <= 2.0, a ** 2, 4.0 * a - 4.0).sum()
        res = refine_pose(noisy, K, T0)
        assert res.cost < c0
        rot, transl = pose_error(res.pose, T_gt)
        assert transl < 0.05 and rot < 0.1

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 150),
           sigma=st.sampled_from([0.0, 0.3, 3.0]), pert=st.sampled_from([0.0, 0.01, 0.2]),
           near=st.integers(0, 5), near_exp=st.integers(-16, -1),
           near_z=st.sampled_from([MIN_DEPTH, 1e-3]),
           max_iters=st.sampled_from([0, 1, 2, 30]),
           lambda0=st.sampled_from([0.0, 1e-4, 1.0]),
           rel_tol=st.sampled_from([0.0, 1e-12, 1e-6]),
           huber_delta=st.sampled_from([0.5, 2.0, 20.0]), collinear=st.booleans())
    def test_matches_reference_loop(self, seed, n, sigma, pert, near, near_exp, near_z,
                                    max_iters, lambda0, rel_tol, huber_delta, collinear):
        # refine_pose as it is, then with the settings it passes to
        # _huber_lm replaced by the drawn ones
        rng = np.random.default_rng(seed)
        T_true = se3_exp(rng.uniform(-0.1, 0.1, 6))
        T0 = T_true.compose(se3_exp(rng.uniform(-pert, pert, 6)))
        corrs = make_lm_corrs(rng, T_true, T0, n, sigma, near, near_exp, near_z)
        if collinear:  # the n points on one line: rank-deficient unless near points stay
            line = np.outer(np.linspace(0.0, 1.0, n), [2.0, 1.0, 20.0]) + [0.0, 0.0, 3.0]
            corrs.p_world[:n] = T_true.inverse().apply(line)
        assert_same_refine(refine_pose(corrs, K_LM, T0),
                           _refine_pose_reference(corrs, K_LM, T0))
        kw = dict(huber_delta=huber_delta, max_iters=max_iters, rel_tol=rel_tol,
                  lambda0=lambda0)
        assert_same_refine(_refine_pose_with(corrs, K_LM, T0, **kw),
                           _refine_pose_reference(corrs, K_LM, T0, **kw))


class TestRefineFailureIsAResult:
    """Input that gives no refinement comes back as the failed result,
    never as an exception: ``solve_pnp_ransac`` and the benchmark's
    tracer read the result of every call."""

    def test_too_few_points(self, world):
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 300, seed=0)
        for idx in ([], [0], [0, 1, 2]):
            assert_refine_failed(refine_pose(corrs.subset(idx), K, T_gt), T_gt)

    def test_fewer_than_four_points_beyond_the_floor(self, world):
        # ten points, seven of them 0.5 mm in front of the camera at T0
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 3, seed=0)
        near = T_gt.inverse().apply(np.column_stack(
            [np.linspace(-1e-4, 1e-4, 7), np.zeros(7), np.full(7, 5e-4)]))
        both = Correspondences.from_arrays(np.vstack([corrs.p_world, near]),
                                           np.vstack([corrs.x_img, np.zeros((7, 2))]))
        assert_refine_failed(refine_pose(both, K, T_gt), T_gt)

    def test_collinear_points(self, K):
        P = np.array([[0.0, 0, 10 + i] for i in range(10)])
        uv, _ = project_points(K, P)
        T0 = PoseSE3.identity()
        assert_refine_failed(refine_pose(Correspondences.from_arrays(P, uv), K, T0), T0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("what,value", [("x_img", np.nan), ("x_img", np.inf),
                                            ("p_world", np.inf)])
    def test_non_finite_input(self, world, what, value):
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 50, seed=0)
        getattr(corrs, what)[7, 0] = value
        assert_refine_failed(refine_pose(corrs, K, T_gt), T_gt)

    def test_rank_deficient_system(self):
        # points 10 000 km ahead, spread over the view and not collinear:
        # the translation does not show in the pixels, so H has rank 3
        rng = np.random.default_rng(0)
        cam = 1e7 * np.column_stack([rng.uniform(-1, 1, 20), rng.uniform(-0.3, 0.3, 20),
                                     rng.uniform(1, 2, 20)])
        assert not _collinear(cam)
        T0 = PoseSE3.identity()
        corrs = Correspondences.from_arrays(cam, project_points(K_RANSAC, cam)[0])
        assert_refine_failed(refine_pose(corrs, K_RANSAC, T0), T0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_point_within_the_floor_is_left_out(self, world, seed):
        # a point 0.5 mm in front of the camera at T0 changes nothing
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 200, seed=seed)
        rng = np.random.default_rng(seed)
        noisy = Correspondences.from_arrays(
            corrs.p_world, corrs.x_img + rng.normal(0, 1.0, corrs.x_img.shape))
        T0 = perturb_pose(T_gt, PerturbBounds(0.3, 2.0), seed)
        near = T0.inverse().apply(np.array([[1e-4, -1e-4, 5e-4]]))
        with_near = Correspondences.from_arrays(np.vstack([noisy.p_world, near]),
                                                np.vstack([noisy.x_img, [[300.0, 100.0]]]))
        res = refine_pose(with_near, K, T0)
        assert res.iterations > 0
        assert_same_refine(res, refine_pose(noisy, K, T0))


class TestRansac:
    def test_noiseless_recovery(self, world):
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 200, seed=5)
        T0 = perturb_pose(T_gt, PerturbBounds(2.0, 10.0), 6)
        res = solve_pnp_ransac(corrs, K, T0, RansacConfig(seed=0))
        assert res.success
        rot, transl = pose_error(res.pose, T_gt)
        assert rot < 0.01 and transl < 0.01
        assert res.inliers.sum() == len(corrs)

    def test_outliers_excluded(self, world):
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 300, seed=7)
        rng = np.random.default_rng(8)
        n = len(corrs)
        n_out = int(0.3 * n)
        bad = rng.choice(n, size=n_out, replace=False)
        x = corrs.x_img.copy()
        phi = rng.uniform(0, 2 * np.pi, n_out)
        x[bad] += 50.0 * np.stack([np.cos(phi), np.sin(phi)], axis=1)
        corrupted = Correspondences.from_arrays(corrs.p_world, x)
        T0 = perturb_pose(T_gt, PerturbBounds(1.0, 5.0), 9)
        res = solve_pnp_ransac(corrupted, K, T0, RansacConfig(seed=1))
        assert res.success
        rot, transl = pose_error(res.pose, T_gt)
        assert rot < 0.01 and transl < 0.01
        assert not res.inliers[bad].any()

    def test_too_few_correspondences(self, K):
        P = np.array([[0.0, 0, 10], [1, 0, 11], [0, 1, 12]])
        uv, _ = project_points(K, P)
        T_init = PoseSE3.identity()
        res = solve_pnp_ransac(Correspondences.from_arrays(P, uv), K, T_init, RansacConfig())
        assert_no_pose(res, T_init, 3, hypotheses=0)

    def test_failure_flag_when_no_consensus(self, world):
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 100, seed=10)
        rng = np.random.default_rng(11)
        x = corrs.x_img + rng.uniform(-200, 200, corrs.x_img.shape)
        garbage = Correspondences.from_arrays(corrs.p_world, x)
        res = solve_pnp_ransac(garbage, K, T_gt,
                               RansacConfig(max_iters=50, min_inliers=50, seed=2))
        assert not res.success
        rot, transl = pose_error(res.pose, T_gt)  # falls back to T_init
        assert rot < 1e-12 and transl < 1e-12

    def test_deterministic_per_seed(self, world):
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 250, seed=12)
        rng = np.random.default_rng(13)
        x = corrs.x_img + rng.normal(0, 1.5, corrs.x_img.shape)
        noisy = Correspondences.from_arrays(corrs.p_world, x)
        T0 = perturb_pose(T_gt, PerturbBounds(1.0, 5.0), 14)
        a = solve_pnp_ransac(noisy, K, T0, RansacConfig(seed=42))
        b = solve_pnp_ransac(noisy, K, T0, RansacConfig(seed=42))
        assert np.array_equal(a.pose.q, b.pose.q)
        assert np.array_equal(a.pose.t, b.pose.t)
        assert np.array_equal(a.inliers, b.inliers)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(max_iters=0)
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold=0.0)
        with pytest.raises(ValueError):
            RansacConfig(confidence=1.0)

    @pytest.mark.parametrize("field,bad", [
        ("inlier_threshold", float("nan")), ("inlier_threshold", float("inf")),
        ("max_iters", 2.5), ("min_inliers", -1), ("seed", -1)])
    def test_config_rejects_bad_value_naming_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            RansacConfig(**{field: bad})


def assert_no_pose(res, T_init, n, hypotheses):
    """The one failed result: T_init, no inliers, infinite RMSE."""
    assert not res.success
    assert res.pose is T_init
    assert res.inliers.shape == (n,) and not res.inliers.any()
    assert res.rmse == float("inf")
    assert res.hypotheses == hypotheses
    assert (res.refine_iters, res.refine_converged) == (0, False)


class TestNoPoseIsAResult:
    """Input that gives no pose comes back as ``success=False``, never as
    an exception: the tracker branches on that flag alone."""

    def test_collinear_points(self, K):
        P = np.array([[0.0, 0, 10 + i] for i in range(10)])
        T_init = se3_exp([0.01, 0, 0, 0, 0, 0.1])
        res = solve_pnp_ransac(Correspondences.from_arrays(P, project_points(K, P)[0]),
                               K, T_init, RansacConfig())
        assert_no_pose(res, T_init, 10, hypotheses=0)

    def test_consensus_set_that_refinement_rejects(self):
        # every exact pixel lies on one line of points, so the best
        # consensus set is collinear, while the whole set is not
        rng = np.random.default_rng(0)
        line = np.column_stack([np.linspace(-5, 5, 30), np.full(30, 1.0),
                                np.linspace(8, 20, 30)])
        P = np.vstack([line, rng.uniform([-5, -2, 5], [5, 2, 30], (6, 3))])
        x = project_points(K_RANSAC, P)[0]
        x[30:] += rng.uniform(-60, 60, (6, 2))
        corrs = Correspondences.from_arrays(P, x)
        T_init = PoseSE3.identity()
        assert_refine_failed(refine_pose(corrs.subset(np.arange(30)), K_RANSAC, T_init),
                             T_init)
        for seed in (0, 1):
            cfg = RansacConfig(seed=seed)
            res = solve_pnp_ransac(corrs, K_RANSAC, T_init, cfg)
            assert res.hypotheses > 0
            assert_no_pose(res, T_init, len(corrs), res.hypotheses)
            assert_same_result(res, _solve_pnp_ransac_reference(corrs, K_RANSAC, T_init, cfg))

    @pytest.mark.parametrize("ransac_seed", [3, 1234, 987654])
    def test_nan_pixels(self, ransac_seed):
        # a NaN pixel in a minimal sample makes a non-finite step: that
        # hypothesis fails, and RANSAC goes on with the others
        corrs, T_init = make_ransac_problem(300, 0.4, 0.0, 0.5, 77)
        corrs.x_img[::2] = np.nan
        res = solve_pnp_ransac(corrs, K_RANSAC, T_init, RansacConfig(seed=ransac_seed))
        assert res.success and np.isfinite(res.rmse)
        assert res.inliers.any() and not res.inliers[::2].any()

    @pytest.mark.parametrize("ransac_seed", [3, 1234, 987654])
    def test_nan_world_point(self, ransac_seed):
        # a NaN world point is no inlier, and the others still give a pose
        corrs, T_init = make_ransac_problem(300, 0.4, 0.0, 0.5, 77)
        cfg = RansacConfig(seed=ransac_seed)
        k = int(np.flatnonzero(solve_pnp_ransac(corrs, K_RANSAC, T_init, cfg).inliers)[0])
        corrs.p_world[k] = np.nan
        res = solve_pnp_ransac(corrs, K_RANSAC, T_init, cfg)
        assert res.success and np.isfinite(res.rmse)
        assert res.inliers.any() and not res.inliers[k]
        assert_same_result(res, _solve_pnp_ransac_reference(corrs, K_RANSAC, T_init, cfg))

    @pytest.mark.parametrize("finite", [0, 3])
    def test_fewer_than_four_finite_world_points(self, finite):
        corrs, T_init = make_ransac_problem(300, 0.4, 0.0, 0.5, 77)
        corrs.p_world[finite:] = np.nan
        res = solve_pnp_ransac(corrs, K_RANSAC, T_init, RansacConfig())
        assert_no_pose(res, T_init, 300, hypotheses=0)


class TestBatchedRansac:
    """The batched RANSAC against the sequential reference above."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.one_of(st.integers(4, 12), st.integers(13, 3000)),
           outlier_frac=st.floats(0.0, 0.9),
           behind_frac=st.sampled_from([0.0, 0.02, 0.3]),
           sigma=st.sampled_from([0.0, 0.5, 2.0]),
           max_iters=st.sampled_from([1, 3, 17, 40, 1000]),
           min_inliers=st.sampled_from([0, 4, 20, 20, 5000]),
           threshold=st.sampled_from([1.0, 2.0, 3.0]),
           seed=st.integers(0, 2**32 - 1), ransac_seed=st.integers(0, 2**32 - 1))
    def test_matches_sequential_reference(self, n, outlier_frac, behind_frac, sigma,
                                          max_iters, min_inliers, threshold,
                                          seed, ransac_seed):
        corrs, T_init = make_ransac_problem(n, outlier_frac, behind_frac, sigma, seed)
        cfg = RansacConfig(max_iters=max_iters, min_inliers=min_inliers,
                           inlier_threshold=threshold, seed=ransac_seed)
        assert_same_result(solve_pnp_ransac(corrs, K_RANSAC, T_init, cfg),
                           _solve_pnp_ransac_reference(corrs, K_RANSAC, T_init, cfg))

    @pytest.mark.parametrize("case", [
        "four_inliers", "all_inliers", "max_iters_1", "max_iters_3", "max_iters_17",
        "min_inliers_above_n", "half_behind", "nan_pixels", "coincident_points"])
    def test_edge_cases_match_reference(self, case):
        K, corrs, T_init, kw = _edge_case(case)
        for ransac_seed in (3, 1234, 987654):
            cfg = RansacConfig(seed=ransac_seed, **kw)
            assert_same_result(solve_pnp_ransac(corrs, K, T_init, cfg),
                               _solve_pnp_ransac_reference(corrs, K, T_init, cfg))

    @pytest.mark.parametrize("case", [
        "max_iters_1", "max_iters_3", "max_iters_17", "all_inliers", "nan_pixels",
        "all_outliers"])
    def test_batch_sizes_match_reference(self, monkeypatch, case):
        # the first fit batch and every scoring chunk are RANSAC_BATCH rows,
        # later fit batches up to _FIT_BATCH: no size may change a result
        K, corrs, T_init, kw = _edge_case(case)
        for ransac_seed in (3, 1234, 987654):
            cfg = RansacConfig(seed=ransac_seed, **kw)
            ref = _solve_pnp_ransac_reference(corrs, K, T_init, cfg)
            for score_batch, fit_batch in [(1, 1), (5, 7), (16, 64), (16, 1000)]:
                monkeypatch.setattr(pnp, "RANSAC_BATCH", score_batch)
                monkeypatch.setattr(pnp, "_FIT_BATCH", fit_batch)
                assert_same_result(solve_pnp_ransac(corrs, K, T_init, cfg), ref)

    @pytest.mark.parametrize("n", [4, 1300, 7000])
    def test_scoring_matches_reference_rows(self, n):
        # points behind the camera, a NaN pixel, poses from near T_init to
        # far off it, and one pose that puts every point behind the camera
        corrs, T_init = make_ransac_problem(n, 0.3, 0.2, 1.0, seed=n)
        corrs.p_world[0] = T_init.inverse().apply([1.0, 1.0, -5.0])
        corrs.x_img[n // 2, 0] = np.nan
        rng = np.random.default_rng(n)
        poses = [T_init.compose(se3_exp(rng.uniform(-s, s, 6)))
                 for s in (0.0, 0.01, 0.1, 1.0, 3.0) for _ in range(4)]
        poses.append(T_init.compose(se3_exp([0.0, 0.0, 0.0, 0.0, 0.0, -100.0])))
        R = np.array([p.rotation_matrix() for p in poses])
        t = np.array([p.t for p in poses])
        PT = np.ascontiguousarray(corrs.p_world.T)
        u = np.ascontiguousarray(corrs.x_img[:, 0])
        v = np.ascontiguousarray(corrs.x_img[:, 1])
        cam = np.empty((len(poses), 3, n))
        for err in (_reproj_errors(PT, u, v, K_RANSAC, R, t),
                    _reproj_errors(PT, u, v, K_RANSAC, R, t, cam)):
            assert err.shape == (len(poses), n)
            for row, pose in zip(err, poses):
                ref = _reproj_errors_reference(corrs, K_RANSAC, pose.rotation_matrix(),
                                               pose.t)
                assert np.array_equal(row, ref, equal_nan=True)
        assert np.isinf(err[-1]).all() and np.isnan(err[0, n // 2])
        assert np.isinf(err[0]).any() and np.isfinite(err[0]).any()

    @staticmethod
    def _failed_fits(P, x, T_init, K=K_LONG):
        """Fit the stack at once and one sample at a time, require the same
        rows bit for bit, and return the samples whose fit failed."""
        R, t, fitted = _fit_minimal_batch(P, x, K, T_init)
        failed = []
        for k in range(len(P)):
            ref = _fit_minimal_reference(Correspondences.from_arrays(P[k], x[k]),
                                         K, T_init)
            if ref is None:
                assert not fitted[k]
                failed.append(k)
                continue
            assert fitted[k]
            assert np.array_equal(R[k], ref[0])
            assert np.array_equal(t[k], ref[1])
        return set(failed)

    def test_batched_fit_matches_reference_fit(self):
        # one stack mixing ordinary samples, samples behind the camera, a
        # sample with a NaN pixel and singular samples of coincident points
        corrs, T_init = make_ransac_problem(400, 0.3, 0.05, 1.0, 5, K=K_LONG)
        rng = np.random.default_rng(6)
        idx = np.array([rng.choice(len(corrs), size=4, replace=False)
                        for _ in range(40)])
        P, x = corrs.p_world[idx], corrs.x_img[idx]
        x[7, 2] = np.nan
        singular = [3, 11, 12]
        P[singular] = T_init.inverse().apply([0.0, 0.0, 1.0])
        x[singular] = project_points(K_LONG, T_init.apply(P[3]))[0]
        assert set(singular) | {7} < self._failed_fits(P, x, T_init)

    def test_singular_fits_fail_in_a_stack(self):
        # four coincident points straight ahead of the identity pose give
        # exact Jacobian entries and exactly singular normal equations
        rng = np.random.default_rng(7)
        cam = rng.uniform([-20.0, -6.0, 2.0], [20.0, 6.0, 60.0], (12, 4, 3))
        P, x = cam, project_points(K_LONG, cam)[0] + rng.normal(0.0, 1.0, (12, 4, 2))
        singular = [2, 5, 6]
        P[singular] = [0.0, 0.0, 1.0]
        x[singular] = [K_LONG.cx, K_LONG.cy]
        assert self._failed_fits(P, x, PoseSE3.identity()) == set(singular)

    def test_collinear_fits_go_on(self):
        # four points on one line fix five pose directions and are fitted,
        # the damping holding the sixth; coincident points fix two and fail
        line = np.column_stack([np.linspace(-5, 5, 30), np.full(30, 1.0),
                                np.linspace(8, 20, 30)])
        rng = np.random.default_rng(10)
        P = line[np.array([rng.choice(30, size=4, replace=False) for _ in range(12)])]
        x = project_points(K_RANSAC, P)[0] + rng.normal(0.0, 0.5, (12, 4, 2))
        P[[4, 9]] = line[0]
        x[[4, 9]] = project_points(K_RANSAC, line[0])[0]
        assert self._failed_fits(P, x, PoseSE3.identity(), K_RANSAC) == {4, 9}

    def test_solve_stack_flags_only_the_singular_systems(self):
        # a singular system makes the stacked solve raise; each system is
        # then solved on its own, with the bits of a one-system solve
        rng = np.random.default_rng(9)
        H = rng.normal(size=(5, 6, 6))
        H[[1, 3]] = 0.0
        g = rng.normal(size=(5, 6, 1))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(H, g)
        out, solved = pnp._solve_stack(H, g)
        assert solved.tolist() == [True, False, True, False, True]
        for i in (0, 2, 4):
            assert np.array_equal(out[i], np.linalg.solve(H[i], g[i]))
