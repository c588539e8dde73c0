import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack.flow import FlowNoiseModel, oracle_flows
from lidartrack.geometry import (MIN_DEPTH, CameraIntrinsics, PerturbBounds,
                                 PoseSE3, perturb_pose, pose_error,
                                 project_points, reprojection_jacobian, se3_exp)
from lidartrack.mapping import CropExtents, crop_local
from lidartrack.joint import e_reproj
from lidartrack.pnp import (REFINE_POINT_CAP, Correspondences,
                            DegenerateConfigurationError, PnPResult,
                            RansacConfig, TooFewCorrespondencesError,
                            _check_not_collinear, _fit_minimal_batch,
                            _huber_cost, _huber_weights,
                            correspondences_from_flow, refine_pose,
                            solve_pnp_ransac)
from lidartrack.rendering import FlowField, remove_occlusions, render_depth


def _fit_minimal_reference(corrs, K, T0):
    """One minimal Gauss-Newton fit at a time: the sequential form that
    the batched ``_fit_minimal_batch`` must match bit for bit."""
    pose = T0
    for _ in range(6):
        uv, z, J = reprojection_jacobian(K, pose, corrs.p_world)
        if np.any(z <= MIN_DEPTH):
            return None
        r = (uv - corrs.x_img).reshape(-1)
        A = J.reshape(-1, 6)
        H = A.T @ A + 1e-9 * np.eye(6)
        try:
            delta = np.linalg.solve(H, -(A.T @ r))
        except np.linalg.LinAlgError:
            return None
        pose = pose.compose(se3_exp(delta))
        if float(np.abs(delta).max()) < 1e-8:
            break
    return pose


def _reproj_errors_reference(corrs, K, pose):
    cam = pose.apply(corrs.p_world)
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
    if np.any(z <= MIN_DEPTH):
        return np.inf
    uv = np.empty((len(corrs), 2))
    uv[:, 0] = K.fx * cam[:, 0] / z + K.cx
    uv[:, 1] = K.fy * cam[:, 1] / z + K.cy
    norms = np.linalg.norm(uv - corrs.x_img, axis=1)
    return float(np.sum(corrs.weight * _huber_cost(norms, huber_delta)))


def _refine_pose_reference(corrs, K, T0, huber_delta=2.0, max_iters=30,
                           rel_tol=1e-12, lambda0=1e-4):
    """``refine_pose`` as its own Levenberg-Marquardt loop: the form that
    the shared ``_huber_lm`` core must match bit for bit."""
    if len(corrs) < 4:
        raise TooFewCorrespondencesError(f"need >= 4 correspondences, got {len(corrs)}")
    _check_not_collinear(corrs.p_world)
    z0 = T0.apply(corrs.p_world)[:, 2]
    kept = corrs.subset(z0 > MIN_DEPTH)
    if len(kept) < 4:
        raise TooFewCorrespondencesError("fewer than 4 correspondences in front of camera")

    pose = T0
    lam = lambda0
    cost = _reproj_cost_reference(kept, K, pose, huber_delta)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        uv, z, J = reprojection_jacobian(K, pose, kept.p_world)
        r = uv - kept.x_img
        norms = np.linalg.norm(r, axis=1)
        wts = kept.weight * _huber_weights(norms, huber_delta)
        sw = np.sqrt(wts)[:, None]
        A = (J * sw[:, :, None]).reshape(-1, 6)
        b = (r * sw).reshape(-1)
        H = A.T @ A
        g = A.T @ b
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
    return pose, cost, it, converged


def _solve_pnp_ransac_reference(corrs, K, T_init, cfg):
    """``solve_pnp_ransac`` fitting and scoring one hypothesis at a time.
    Kept as the reference the batched form must match bit for bit."""
    n = len(corrs)
    if n < 4:
        raise TooFewCorrespondencesError(f"need >= 4 correspondences, got {n}")
    _check_not_collinear(corrs.p_world)
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
        err = _reproj_errors_reference(corrs, K, hyp)
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
        return PnPResult(pose=T_init, inliers=np.zeros(n, dtype=bool),
                         success=False, rmse=float("inf"), hypotheses=it)

    refine_idx = np.nonzero(best_mask)[0]
    if len(refine_idx) > REFINE_POINT_CAP:
        stride = -(-len(refine_idx) // REFINE_POINT_CAP)
        refine_idx = refine_idx[::stride]
    refined = refine_pose(corrs.subset(refine_idx), K, T_init)
    err = _reproj_errors_reference(corrs, K, refined.pose)
    final_mask = err < cfg.inlier_threshold
    if int(final_mask.sum()) < max(cfg.min_inliers, 4):
        final_mask = best_mask
    rmse = float(np.sqrt(np.mean(err[final_mask] ** 2)))
    return PnPResult(pose=refined.pose, inliers=final_mask, success=True,
                     rmse=rmse, hypotheses=it)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except Exception as exc:  # compared by type and message
        return exc


def assert_same_outcome(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        assert type(a) is type(b) and str(a) == str(b), (a, b)
        return
    assert np.array_equal(a.pose.q, b.pose.q)
    assert np.array_equal(a.pose.t, b.pose.t)
    assert np.array_equal(a.inliers, b.inliers)
    assert a.rmse == b.rmse
    assert a.hypotheses == b.hypotheses
    assert a.success == b.success


# a 480x160 camera, and one whose focal length makes the 1e-9 damping
# vanish next to the normal equations of four coincident points, so that
# their solve is singular
K_RANSAC = CameraIntrinsics(fx=100.0, fy=100.0, cx=240.0, cy=80.0, width=480, height=160)
K_LONG = CameraIntrinsics(fx=1e5, fy=1e5, cx=240.0, cy=80.0, width=480, height=160)


K_LM = CameraIntrinsics(fx=100.0, fy=100.0, cx=120.0, cy=40.0, width=240, height=80)


def make_lm_corrs(rng, T_true, T0, n, sigma, weights, weight_exp, near, near_exp,
                  near_z, K=K_LM):
    """Correspondences for the LM reference tests.

    ``n`` points 3-30 m ahead of ``T_true`` with pixel noise ``sigma``, and
    ``near`` points whose depth at ``T0`` is ``near_z`` offset by -1, 0, 1,
    2 or 5 times ``10**near_exp`` (those at or behind ``near_z`` drop out
    at setup, those just in front make most trial steps infeasible).
    ``weights`` is "ones", "random" (about a fifth of them zero) or
    "zeros"; the weights are scaled by ``10**weight_exp``.
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
    if weights == "ones":
        w = np.ones(len(P))
    elif weights == "zeros":
        w = np.zeros(len(P))
    else:
        w = rng.uniform(0, 3, len(P)) * (rng.random(len(P)) > 0.2)
    return Correspondences.from_arrays(P, x, w * 10.0 ** weight_exp)


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
        zero = FlowField(np.zeros(d.depth.shape), np.zeros(d.depth.shape),
                         d.valid.copy())
        corrs = correspondences_from_flow(d, zero, crop)
        assert len(corrs) == d.valid.sum()
        rows, cols = np.nonzero(d.valid)
        assert np.allclose(corrs.x_img[:, 0], cols)
        assert np.allclose(corrs.x_img[:, 1], rows)

    def test_empty_joint_mask(self, K, corridor):
        gmap, traj = corridor
        crop = crop_local(gmap, traj[0], CropExtents())
        d = remove_occlusions(render_depth(crop, K, traj[0]))
        empty = FlowField.invalid(*d.depth.shape)
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
        d = remove_occlusions(render_depth(crop, K, T))
        f = FlowField(np.zeros(d.depth.shape), np.zeros(d.depth.shape), d.valid.copy())
        rows, cols = np.nonzero(d.valid)
        f.du[rows[::2], cols[::2]] = np.nan
        f.dv[rows[1::4], cols[1::4]] = np.inf
        crop[d.source[rows[3], cols[3]]] = np.nan  # a non-finite map point
        corrs = correspondences_from_flow(d, f, crop)
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
        a = np.linalg.norm(e_reproj(T0, noisy, K)[0], axis=1)
        c0 = np.where(a <= 2.0, a ** 2, 4.0 * a - 4.0).sum()
        res = refine_pose(noisy, K, T0)
        assert res.cost < c0
        rot, transl = pose_error(res.pose, T_gt)
        assert transl < 0.05 and rot < 0.1

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 150),
           sigma=st.sampled_from([0.0, 0.3, 3.0]), pert=st.sampled_from([0.0, 0.01, 0.2]),
           weights=st.sampled_from(["ones", "random", "zeros"]),
           weight_exp=st.integers(-16, 0), near=st.integers(0, 5),
           near_exp=st.integers(-16, -1), near_z=st.sampled_from([MIN_DEPTH, 1e-3]),
           max_iters=st.sampled_from([0, 1, 2, 30]),
           lambda0=st.sampled_from([0.0, 1e-4, 1.0]),
           rel_tol=st.sampled_from([0.0, 1e-12, 1e-6]),
           huber_delta=st.sampled_from([0.5, 2.0, 20.0]))
    def test_matches_reference_loop(self, seed, n, sigma, pert, weights, weight_exp,
                                    near, near_exp, near_z, max_iters, lambda0,
                                    rel_tol, huber_delta):
        rng = np.random.default_rng(seed)
        T_true = se3_exp(rng.uniform(-0.1, 0.1, 6))
        T0 = T_true.compose(se3_exp(rng.uniform(-pert, pert, 6)))
        corrs = make_lm_corrs(rng, T_true, T0, n, sigma, weights, weight_exp,
                              near, near_exp, near_z)
        kw = dict(huber_delta=huber_delta, max_iters=max_iters, rel_tol=rel_tol,
                  lambda0=lambda0)
        ref = _outcome(_refine_pose_reference, corrs, K_LM, T0, *kw.values())
        got = _outcome(refine_pose, corrs, K_LM, T0, *kw.values())
        if isinstance(ref, Exception) or isinstance(got, Exception):
            assert type(ref) is type(got) and str(ref) == str(got), (ref, got)
            return
        pose, cost, iterations, converged = ref
        assert np.array_equal(got.pose.q, pose.q)
        assert np.array_equal(got.pose.t, pose.t)
        assert (got.cost, got.iterations, got.converged) == (cost, iterations, converged)

    def test_too_few_points(self, world):
        K, T_gt, crop = world
        corrs = make_exact_corrs(K, T_gt, crop, 300, seed=0)
        with pytest.raises(TooFewCorrespondencesError):
            refine_pose(corrs.subset([0, 1, 2]), K, T_gt)

    def test_collinear_points_rejected(self, K):
        P = np.array([[0.0, 0, 10 + i] for i in range(10)])
        uv, _ = project_points(K, P)
        with pytest.raises(DegenerateConfigurationError):
            refine_pose(Correspondences.from_arrays(P, uv), K, PoseSE3.identity())


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
        with pytest.raises(TooFewCorrespondencesError):
            solve_pnp_ransac(Correspondences.from_arrays(P, uv), K,
                             PoseSE3.identity(), RansacConfig())

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
        assert_same_outcome(
            _outcome(solve_pnp_ransac, corrs, K_RANSAC, T_init, cfg),
            _outcome(_solve_pnp_ransac_reference, corrs, K_RANSAC, T_init, cfg))

    @pytest.mark.parametrize("case", [
        "four_inliers", "all_inliers", "max_iters_1", "max_iters_3", "max_iters_17",
        "min_inliers_above_n", "half_behind", "nan_pixels", "coincident_points"])
    def test_edge_cases_match_reference(self, case):
        K, n, outliers, behind, kw = K_RANSAC, 300, 0.4, 0.0, {}
        if case == "four_inliers":
            n, outliers = 4, 0.0
        elif case == "all_inliers":
            outliers = 0.0
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
        for ransac_seed in (3, 1234, 987654):
            cfg = RansacConfig(seed=ransac_seed, **kw)
            assert_same_outcome(
                _outcome(solve_pnp_ransac, corrs, K, T_init, cfg),
                _outcome(_solve_pnp_ransac_reference, corrs, K, T_init, cfg))

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
        R, t, fitted, errors = _fit_minimal_batch(P, x, K_LONG, T_init)
        failed = []
        for k in range(len(P)):
            sample = Correspondences.from_arrays(P[k], x[k])
            try:
                ref = _fit_minimal_reference(sample, K_LONG, T_init)
            except ValueError as exc:
                assert k == 7 and not fitted[k] and str(errors[k]) == str(exc)
                continue
            if ref is None:
                assert not fitted[k] and k not in errors
                failed.append(k)
                continue
            assert fitted[k]
            assert np.array_equal(R[k], ref.rotation_matrix())
            assert np.array_equal(t[k], ref.t)
        assert set(singular) < set(failed)
        assert 7 in errors
