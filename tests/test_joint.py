import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack.geometry import (MIN_DEPTH, PerturbBounds, PoseSE3,
                                 perturb_pose, pose_error, project_points,
                                 reprojection_jacobian, se3_exp)
from lidartrack.flow import sample_flow
from lidartrack.joint import (EnergyConfig, JointResult, consistency_samples,
                              optimize_next_only, optimize_pair)
from lidartrack.mapping import CropExtents, crop_local
from lidartrack.pnp import Correspondences, _huber_cost, _huber_weights, _Term, _term
from lidartrack.rendering import FlowField

from test_pnp import K_LM, make_exact_corrs, make_lm_corrs

# the depth floor optimize_pair shares with refine_pose, written out rather
# than imported, so that the reference loop below fails on a change to it
ZMIN = 1e-3

# the poses a consistency term uses
CONSIST = ("cur", "next")


def reproj(corrs, which):
    """The unfiltered reprojection term of ``corrs`` under the pose ``which``."""
    return _Term(corrs.p_world, corrs.x_img, (which,))


class _ReprojReference:
    def __init__(self, corrs, which):
        self.corrs = corrs
        self.which = which

    def residual_jacobians(self, K, T_cur, T_next):
        T = T_cur if self.which == "cur" else T_next
        uv, z, J = reprojection_jacobian(K, T, self.corrs.p_world)
        if np.any(z <= ZMIN):
            return None
        r = uv - self.corrs.x_img
        if self.which == "cur":
            return r, J, None
        return r, None, J

    def residual_only(self, K, T_cur, T_next):
        T = T_cur if self.which == "cur" else T_next
        cam = T.apply(self.corrs.p_world)
        z = cam[:, 2]
        if np.any(z <= ZMIN):
            return None
        uv = np.empty((len(self.corrs), 2))
        uv[:, 0] = K.fx * cam[:, 0] / z + K.cx
        uv[:, 1] = K.fy * cam[:, 1] / z + K.cy
        return uv - self.corrs.x_img


class _ConsistReference:
    def __init__(self, pts, samples):
        self.pts, self.samples = pts, samples

    def residual_only(self, K, T_cur, T_next):
        cam_c = T_cur.apply(self.pts)
        cam_n = T_next.apply(self.pts)
        if np.any(cam_c[:, 2] <= ZMIN) or np.any(cam_n[:, 2] <= ZMIN):
            return None
        uv_c = np.stack([K.fx * cam_c[:, 0] / cam_c[:, 2] + K.cx,
                         K.fy * cam_c[:, 1] / cam_c[:, 2] + K.cy], axis=1)
        uv_n = np.stack([K.fx * cam_n[:, 0] / cam_n[:, 2] + K.cx,
                         K.fy * cam_n[:, 1] / cam_n[:, 2] + K.cy], axis=1)
        return uv_n - uv_c - self.samples

    def residual_jacobians(self, K, T_cur, T_next):
        uv_c, z_c, J_c = reprojection_jacobian(K, T_cur, self.pts)
        uv_n, z_n, J_n = reprojection_jacobian(K, T_next, self.pts)
        if np.any(z_c <= ZMIN) or np.any(z_n <= ZMIN):
            return None
        return uv_n - uv_c - self.samples, -J_c, J_n


def _from_field_reference(pts, K, f_c2n, T_cur):
    """The points whose T_cur projection samples the flow field, and their
    samples."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    uv, front = project_points(K, T_cur.apply(pts))
    values, ok = sample_flow(f_c2n, uv)
    keep = front & ok
    return pts[keep], values[keep]


def _restrict_visible_reference(pts, samples, T_cur, T_next):
    """Drop the points within ``ZMIN`` of either camera plane."""
    z_cur = T_cur.apply(pts)[:, 2]
    z_next = T_next.apply(pts)[:, 2]
    keep = (z_cur > ZMIN) & (z_next > ZMIN)
    return pts[keep], samples[keep]


def _assemble_reference(terms, K, T_cur, T_next, delta):
    rows = []
    for weight, term in terms:
        got = term.residual_jacobians(K, T_cur, T_next)
        if got is None:
            return None
        r, Jc, Jn = got
        norms = np.linalg.norm(r, axis=1)
        irls = _huber_weights(norms, delta)
        rows.append((r, Jc, Jn, irls, weight))
    return rows


def _energy_reference(terms, K, T_cur, T_next, delta):
    e = 0.0
    for weight, term in terms:
        r = term.residual_only(K, T_cur, T_next)
        if r is None:
            return np.inf
        norms = np.linalg.norm(r, axis=1)
        e += weight * float(np.sum(_huber_cost(norms, delta)))
    return e


def _optimize_pair_reference(T_cur0, T_next0, corrs_cur, corrs_next, consist_pts,
                             f_c2n, K, cfg, free=("cur", "next")):
    """``optimize_pair`` as its own Levenberg-Marquardt loop: the form that
    the shared ``_huber_lm`` core must match bit for bit, with 12 dampings,
    a 1e-12 gradient tolerance, the ``ZMIN`` depth floor and the rank gate."""
    terms, n_consist = [], 0
    if cfg.w_reproj > 0:
        for corrs, which, T0 in ((corrs_cur, "cur", T_cur0),
                                 (corrs_next, "next", T_next0)):
            if corrs is None or len(corrs) == 0:
                continue
            kept = corrs.subset(T0.apply(corrs.p_world)[:, 2] > ZMIN)
            if len(kept) >= 4:
                terms.append((cfg.w_reproj, _ReprojReference(kept, which)))
    if cfg.w_consist > 0 and consist_pts is not None and len(consist_pts) > 0:
        if isinstance(f_c2n, FlowField):
            pts, samples = _from_field_reference(consist_pts, K, f_c2n, T_cur0)
        else:
            pts = np.asarray(consist_pts, dtype=float).reshape(-1, 3)
            samples = np.asarray(f_c2n, dtype=float).reshape(-1, 2)
        pts, samples = _restrict_visible_reference(pts, samples, T_cur0, T_next0)
        if len(pts) >= 3:
            terms.append((cfg.w_consist, _ConsistReference(pts, samples)))
            n_consist = len(pts)

    n_free = 6 * len(free)
    failure = JointResult(T_cur_star=T_cur0, T_next_star=T_next0,
                          initial_energy=np.inf, final_energy=np.inf,
                          iterations=0, converged=False, consist_pts=n_consist,
                          energy_trace=[])
    if not terms:
        return failure

    cols = {}
    off = 0
    for name in free:
        cols[name] = slice(off, off + 6)
        off += 6

    def build_system(T_cur, T_next):
        rows = _assemble_reference(terms, K, T_cur, T_next, cfg.huber_delta)
        if rows is None:
            return None
        H = np.zeros((n_free, n_free))
        g = np.zeros(n_free)
        for r, Jc, Jn, irls, weight in rows:
            m = len(r)
            # component-major rows: A (n_free, 2m) and b (2m,)
            J = np.zeros((n_free, 2, m))
            if Jc is not None and "cur" in cols:
                J[cols["cur"]] = Jc.T
            if Jn is not None and "next" in cols:
                J[cols["next"]] = Jn.T
            sw = np.sqrt(weight * irls)
            A = (J * sw).reshape(n_free, -1)
            b = (r.T * sw).reshape(-1)
            H += A @ A.T
            g += A @ b
        return H, g

    built = build_system(T_cur0, T_next0)
    if built is None:
        return failure
    energy = _energy_reference(terms, K, T_cur0, T_next0, cfg.huber_delta)
    if not np.isfinite(energy):
        return failure
    H, g = built
    s = np.linalg.svd(H, compute_uv=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if len(s) and s[0] > 0 else 0
    if rank < n_free:
        return failure

    T_cur, T_next = T_cur0, T_next0
    trace = [energy]
    lam = cfg.lambda0
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if it > 1:
            built = build_system(T_cur, T_next)
            if built is None:
                break
            H, g = built
        if np.linalg.norm(g, ord=np.inf) < 1e-12:
            converged = True
            break
        stepped = False
        for _ in range(12):
            D = H + lam * np.diag(np.diag(H)) + 1e-15 * np.eye(n_free)
            try:
                delta = np.linalg.solve(D, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial_cur = T_cur.compose(se3_exp(delta[cols["cur"]])) if "cur" in cols else T_cur
            trial_next = T_next.compose(se3_exp(delta[cols["next"]])) if "next" in cols else T_next
            trial_energy = _energy_reference(terms, K, trial_cur, trial_next, cfg.huber_delta)
            if trial_energy < energy:
                rel_drop = (energy - trial_energy) / max(energy, 1e-300)
                T_cur, T_next, energy = trial_cur, trial_next, trial_energy
                trace.append(energy)
                lam = max(lam / 2.0, 1e-12)
                stepped = True
                if rel_drop < cfg.rel_tol:
                    converged = True
                break
            lam *= 10.0
        if not stepped:
            converged = True
            break
        if converged:
            break
    return JointResult(T_cur_star=T_cur, T_next_star=T_next,
                       initial_energy=trace[0], final_energy=energy,
                       iterations=it, converged=converged, consist_pts=n_consist,
                       energy_trace=trace)


@pytest.fixture(scope="module")
def pair_world(K, corridor):
    """GT pose pair, co-visible points, exact per-point flow samples."""
    gmap, traj = corridor
    T_cur, T_next = traj[0], traj[1]
    crop = crop_local(gmap, T_cur, CropExtents())
    rng = np.random.default_rng(3)
    pts = crop[rng.choice(len(crop), size=600, replace=False)]
    z1 = T_cur.apply(pts)[:, 2]
    z2 = T_next.apply(pts)[:, 2]
    pts = pts[(z1 > 1.0) & (z2 > 1.0)]
    uv_c, _ = project_points(K, T_cur.apply(pts))
    uv_n, _ = project_points(K, T_next.apply(pts))
    samples = uv_n - uv_c
    return K, T_cur, T_next, crop, pts, samples


class TestConsistencyResidual:
    def test_zero_at_ground_truth_with_exact_samples(self, pair_world):
        K, T_cur, T_next, _, pts, samples = pair_world
        r = _Term(pts, samples, CONSIST).residual(K, T_cur, T_next)
        assert r.shape == (len(pts), 2)
        assert np.abs(r).max() < 1e-9

    def test_equal_poses_zero_flow(self, pair_world):
        K, T_cur, _, _, pts, _ = pair_world
        r = _Term(pts, np.zeros((len(pts), 2)), CONSIST).residual(K, T_cur, T_cur)
        assert np.all(r == 0.0)

    def test_first_order_shift_in_next_pose(self, pair_world):
        # translating T_next by +delta along its camera x axis shifts each
        # residual by about -fx*delta/Z (checked against reprojection)
        K, T_cur, T_next, _, pts, samples = pair_world
        delta = 0.01
        bump = PoseSE3(np.eye(3), np.array([-delta, 0.0, 0.0]))
        T_shifted = bump.compose(T_next)
        term = _Term(pts, samples, CONSIST)
        r0 = term.residual(K, T_cur, T_next)
        r1 = term.residual(K, T_cur, T_shifted)
        z = T_next.apply(pts)[:, 2]
        expected = -K.fx * delta / z
        assert np.allclose(r1[:, 0] - r0[:, 0], expected, atol=1e-4)

    def test_point_within_the_floor_is_dropped_or_infeasible(self, pair_world):
        # _term drops a point within ZMIN of either camera plane; a pose
        # that brings a kept point there is infeasible
        K, T_cur, T_next, _, pts, samples = pair_world
        near = T_next.inverse().apply(np.array([[0.0, 0.0, 0.5 * ZMIN]]))
        P, S = np.vstack([pts, near]), np.vstack([samples, [[0.0, 0.0]]])
        term = _Term(P, S, CONSIST)
        assert term.residual(K, T_cur, T_next) is None
        assert term.residual_jacobians(K, T_cur, T_next) is None
        kept = _term(P, S, CONSIST, T_cur, T_next, 3)
        assert len(kept) == len(pts)
        assert np.array_equal(kept.residual(K, T_cur, T_next),
                              _Term(pts, samples, CONSIST).residual(K, T_cur, T_next))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_sample_is_a_failed_result(self, pair_world):
        K, T_cur, T_next, crop, pts, samples = pair_world
        cc = make_exact_corrs(K, T_cur, crop, 100, seed=3)
        bad = samples.copy()
        bad[5, 1] = np.nan
        out = optimize_pair(T_cur, T_next, cc, None, pts, bad, K, EnergyConfig())
        assert (out.iterations, out.converged, out.final_energy) == (0, False, np.inf)
        assert out.T_cur_star is T_cur and out.T_next_star is T_next

    def test_invalid_field_keeps_no_point(self, pair_world):
        # with no flow sample the term is empty, and optimize_pair drops it
        K, T_cur, T_next, _, pts, _ = pair_world
        f = FlowField.invalid(K.height, K.width)
        assert len(consistency_samples(pts, K, f, T_cur)[0]) == 0
        out = optimize_pair(T_cur, T_next, None, None, pts, f, K, EnergyConfig())
        assert (out.iterations, out.converged, out.consist_pts) == (0, False, 0)
        assert out.final_energy == np.inf

    def test_field_sampling_matches_exact_at_gt(self, pair_world, K, corridor):
        # sampling a noiseless oracle optical-flow field at the GT current
        # projections reproduces the exact per-point displacements
        from lidartrack.flow import FlowNoiseModel, oracle_flows
        from lidartrack.rendering import remove_occlusions, render_depth

        gmap, traj = corridor
        _, T_cur, T_next, crop, _, _ = pair_world
        t = oracle_flows(crop, K, T_cur, T_cur, T_next, FlowNoiseModel())
        # candidate points must be visible in the current view, as the
        # tracker's PnP inliers are
        d_cur = remove_occlusions(render_depth(crop, K, T_cur))
        pts = crop[d_cur.source][::7]
        kept, values = consistency_samples(pts, K, t.f_c2n, T_cur)
        # many candidates land on sparse raster regions without a full
        # 2x2 valid block; enough survive on the dense surfaces
        assert len(kept) > 50
        r = _term(kept, values, CONSIST, T_cur, T_next, 3).residual(K, T_cur, T_next)
        assert np.abs(r).max() < 0.5



class TestReprojResidual:
    def test_zero_at_fit(self, pair_world):
        K, T_cur, _, crop, _, _ = pair_world
        corrs = make_exact_corrs(K, T_cur, crop, 200, seed=0)
        r = reproj(corrs, "cur").residual(K, T_cur, None)
        assert r.shape == (len(corrs), 2)
        assert np.abs(r).max() < 1e-6

    def test_constant_offset(self, pair_world):
        K, T_cur, _, crop, _, _ = pair_world
        corrs = make_exact_corrs(K, T_cur, crop, 100, seed=1)
        shifted = Correspondences.from_arrays(corrs.p_world, corrs.x_img + [1.0, 0.0])
        r = reproj(shifted, "cur").residual(K, T_cur, None)
        assert np.allclose(np.linalg.norm(r, axis=1), 1.0)

    def test_reads_its_own_pose(self, pair_world):
        K, T_cur, T_next, crop, _, _ = pair_world
        corrs = make_exact_corrs(K, T_next, crop, 100, seed=2)
        term = reproj(corrs, "next")
        assert np.abs(term.residual(K, T_cur, T_next)).max() < 1e-6
        r, Jc, Jn = term.residual_jacobians(K, T_cur, T_next)
        assert Jc is None and Jn.shape == (len(corrs), 2, 6)
        assert np.array_equal(r, term.residual(K, T_cur, T_next))

    def test_point_within_the_floor_is_infeasible(self, K):
        P = np.array([[0.0, 0, 10.0], [1, 0, 12.0], [0, 1, 0.5 * ZMIN], [1, 1, 9.0]])
        uv = np.zeros((4, 2)) + [480.0, 160.0]
        term = reproj(Correspondences.from_arrays(P, uv), "cur")
        assert term.residual(K, PoseSE3.identity(), None) is None
        assert term.residual_jacobians(K, PoseSE3.identity(), None) is None


class TestJacobians:
    def test_consistency_jacobian_matches_fd(self, pair_world):
        K, T_cur, T_next, _, pts, samples = pair_world
        term = _Term(pts[:40], samples[:40], CONSIST)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(10):
            Tc = T_cur.compose(se3_exp(rng.uniform(-0.05, 0.05, 6)))
            Tn = T_next.compose(se3_exp(rng.uniform(-0.05, 0.05, 6)))
            r, Jc, Jn = term.residual_jacobians(K, Tc, Tn)
            for J, which in ((Jc, "cur"), (Jn, "next")):
                J_fd = np.zeros_like(J)
                for k in range(6):
                    step = np.zeros(6)
                    step[k] = h
                    if which == "cur":
                        up = term.residual(K, Tc.compose(se3_exp(step)), Tn)
                        dn = term.residual(K, Tc.compose(se3_exp(-step)), Tn)
                    else:
                        up = term.residual(K, Tc, Tn.compose(se3_exp(step)))
                        dn = term.residual(K, Tc, Tn.compose(se3_exp(-step)))
                    J_fd[:, :, k] = (up - dn) / (2 * h)
                rel = np.abs(J - J_fd).max() / max(np.abs(J_fd).max(), 1.0)
                assert rel < 1e-4


class TestOptimizePair:
    def test_fixed_point_at_ground_truth(self, pair_world):
        K, T_cur, T_next, crop, pts, samples = pair_world
        cc = make_exact_corrs(K, T_cur, crop, 300, seed=2)
        cn = make_exact_corrs(K, T_next, crop, 300, seed=3)
        out = optimize_pair(T_cur, T_next, cc, cn, pts, samples, K, EnergyConfig())
        r1, t1 = pose_error(out.T_cur_star, T_cur)
        r2, t2 = pose_error(out.T_next_star, T_next)
        assert max(r1, r2) < 1e-6 and max(t1, t2) < 1e-6

    def test_recovery_from_perturbation(self, pair_world):
        K, T_cur, T_next, crop, pts, samples = pair_world
        cc = make_exact_corrs(K, T_cur, crop, 400, seed=4)
        cn = make_exact_corrs(K, T_next, crop, 400, seed=5)
        for seed in range(15):
            Tc0 = perturb_pose(T_cur, PerturbBounds(1.0, 5.0), 900 + seed)
            Tn0 = perturb_pose(T_next, PerturbBounds(1.0, 5.0), 1900 + seed)
            out = optimize_pair(Tc0, Tn0, cc, cn, pts, samples, K, EnergyConfig())
            r1, t1 = pose_error(out.T_cur_star, T_cur)
            r2, t2 = pose_error(out.T_next_star, T_next)
            assert max(r1, r2) < 0.05
            assert max(t1, t2) < 0.02

    def test_energy_trace_monotone(self, pair_world):
        K, T_cur, T_next, crop, pts, samples = pair_world
        rng = np.random.default_rng(6)
        cc = make_exact_corrs(K, T_cur, crop, 300, seed=6)
        cn = make_exact_corrs(K, T_next, crop, 300, seed=7)
        noisy_cn = Correspondences.from_arrays(
            cn.p_world, cn.x_img + rng.normal(0, 2.0, cn.x_img.shape))
        Tc0 = perturb_pose(T_cur, PerturbBounds(0.5, 3.0), 8)
        Tn0 = perturb_pose(T_next, PerturbBounds(0.5, 3.0), 9)
        out = optimize_pair(Tc0, Tn0, cc, noisy_cn, pts, samples, K, EnergyConfig())
        trace = np.array(out.energy_trace)
        assert len(trace) >= 2
        assert np.all(np.diff(trace) <= 0)
        assert out.final_energy <= out.initial_energy

    def test_gradient_small_at_convergence(self, pair_world):
        K, T_cur, T_next, crop, pts, samples = pair_world
        cc = make_exact_corrs(K, T_cur, crop, 300, seed=10)
        cn = make_exact_corrs(K, T_next, crop, 300, seed=11)
        Tc0 = perturb_pose(T_cur, PerturbBounds(0.5, 2.0), 12)
        Tn0 = perturb_pose(T_next, PerturbBounds(0.5, 2.0), 13)
        out = optimize_pair(Tc0, Tn0, cc, cn, pts, samples, K, EnergyConfig())
        assert out.converged
        # gradient of the energy at the reported optimum, by central FD
        terms = (reproj(cc, "cur"), reproj(cn, "next"), _Term(pts, samples, CONSIST))

        def energy(Tc, Tn):
            norms = [np.linalg.norm(term.residual(K, Tc, Tn), axis=1) for term in terms]
            return sum(np.where(a <= 2.0, a ** 2, 4.0 * a - 4.0).sum() for a in norms)

        h = 1e-7
        g = []
        for which in ("cur", "next"):
            for k in range(6):
                step = np.zeros(6)
                step[k] = h
                if which == "cur":
                    up = energy(out.T_cur_star.compose(se3_exp(step)), out.T_next_star)
                    dn = energy(out.T_cur_star.compose(se3_exp(-step)), out.T_next_star)
                else:
                    up = energy(out.T_cur_star, out.T_next_star.compose(se3_exp(step)))
                    dn = energy(out.T_cur_star, out.T_next_star.compose(se3_exp(-step)))
                g.append((up - dn) / (2 * h))
        assert np.abs(g).max() < 1e-3

    def test_gauge_degenerate_without_reprojection(self, pair_world):
        # with both poses initialized equal (the tracker's convention) and
        # only the consistency term active, the system is rank-deficient
        K, T_cur, T_next, crop, pts, samples = pair_world
        T0 = perturb_pose(T_cur, PerturbBounds(0.5, 2.0), 20)
        out = optimize_pair(T0, T0, None, None, pts, samples, K,
                            EnergyConfig(w_reproj=0.0))
        assert not out.converged
        assert out.iterations == 0
        assert np.array_equal(out.T_cur_star.rotation_matrix(), T0.rotation_matrix())

    def test_rescue_one_sided_reprojection(self, pair_world):
        # reprojection for the current frame only; the next pose is still
        # recovered through the consistency coupling
        K, T_cur, T_next, crop, pts, samples = pair_world
        cc = make_exact_corrs(K, T_cur, crop, 300, seed=14)
        Tc0 = perturb_pose(T_cur, PerturbBounds(0.3, 2.0), 15)
        out = optimize_pair(Tc0, Tc0, cc, None, pts, samples, K, EnergyConfig())
        r2, t2 = pose_error(out.T_next_star, T_next)
        assert r2 < 0.05 and t2 < 0.02

    def test_next_only_consistency_solve(self, pair_world):
        K, T_cur, T_next, _, pts, samples = pair_world
        out = optimize_next_only(T_cur, T_cur, pts, samples, K, EnergyConfig())
        assert out.converged
        r2, t2 = pose_error(out.T_next_star, T_next)
        assert r2 < 1e-6 and t2 < 1e-6

    def test_corrupted_next_rescued_by_pair(self, pair_world):
        # heavy noise on next-frame correspondences: the joint solution
        # beats the reprojection-only fit of the corrupted frame
        K, T_cur, T_next, crop, pts, samples = pair_world
        from lidartrack.pnp import refine_pose
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(3000 + seed)
            cc = make_exact_corrs(K, T_cur, crop, 400, seed=400 + seed)
            cn = make_exact_corrs(K, T_next, crop, 400, seed=500 + seed)
            noisy = Correspondences.from_arrays(
                cn.p_world, cn.x_img + rng.normal(0, 4.0, cn.x_img.shape))
            pnp_only = refine_pose(noisy, K, T_next).pose
            out = optimize_pair(T_cur, pnp_only, cc, noisy, pts, samples, K,
                                EnergyConfig())
            e_pnp = pose_error(pnp_only, T_next)[1]
            e_joint = pose_error(out.T_next_star, T_next)[1]
            wins += e_joint < e_pnp
        assert wins >= 8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnergyConfig(w_consist=0.0, w_reproj=0.0)
        with pytest.raises(ValueError):
            EnergyConfig(max_iters=0)

    @pytest.mark.parametrize("field,bad", [
        ("huber_delta", 0.0), ("huber_delta", -1.0), ("huber_delta", float("nan")),
        ("huber_delta", float("inf")),
        ("lambda0", -1.0), ("lambda0", float("nan")), ("lambda0", float("inf")),
        ("rel_tol", -1.0), ("rel_tol", float("nan")), ("rel_tol", float("inf")),
        ("w_consist", float("nan")), ("w_consist", float("inf")),
        ("w_reproj", float("nan")), ("w_reproj", float("inf")),
        ("w_consist", -1.0), ("w_reproj", -1.0),
        ("max_iters", 2.5), ("max_iters", "50"), ("max_iters", None)])
    def test_config_rejects_bad_value_naming_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            EnergyConfig(**{field: bad})

    def test_config_accepts_zero_lambda_and_tolerance(self):
        cfg = EnergyConfig(lambda0=0.0, rel_tol=0.0)
        assert cfg.lambda0 == 0.0 and cfg.rel_tol == 0.0


def _same(a, b):
    """Both None, or equal bit for bit."""
    return (a is None and b is None) or (
        a is not None and b is not None and np.array_equal(a, b))


class TestTermMatchesReferences:
    """``_term`` and its ``_Term`` against the reference terms and depth
    filters above, bit for bit, for each set of poses."""

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           which=st.sampled_from([("cur",), ("next",), CONSIST]),
           n=st.integers(0, 40), pert=st.sampled_from([0.0, 0.01, 0.2]),
           near=st.sampled_from(["cur", "next"]),
           near_z=st.sampled_from([0.5 * ZMIN, 0.0, -1.0]))
    def test_matches_references(self, seed, which, n, pert, near, near_z):
        rng = np.random.default_rng(seed)
        Tc = se3_exp(rng.uniform(-0.1, 0.1, 6))
        Tn = se3_exp(np.r_[rng.uniform(-0.02, 0.02, 3), 0.0, 0.0, -0.5]).compose(Tc)
        P = Tc.inverse().apply(np.column_stack(
            [rng.uniform(-8, 8, n), rng.uniform(-3, 3, n), rng.uniform(3, 30, n)]))
        target = rng.normal(0.0, 5.0, (n, 2))

        def reference(pts, tgt):
            if len(which) == 2:
                return _ConsistReference(pts, tgt)
            return _ReprojReference(Correspondences.from_arrays(pts, tgt), which[0])

        # every point is well in front of both poses: none is dropped
        term = _term(P, target, which, Tc, Tn, 0)
        assert np.array_equal(term.pts, P) and np.array_equal(term.target, target)
        Tc1 = Tc.compose(se3_exp(rng.uniform(-pert, pert, 6)))
        Tn1 = Tn.compose(se3_exp(rng.uniform(-pert, pert, 6)))
        ref = reference(P, target)
        assert _same(term.residual(K_LM, Tc1, Tn1), ref.residual_only(K_LM, Tc1, Tn1))
        got = term.residual_jacobians(K_LM, Tc1, Tn1)
        want = ref.residual_jacobians(K_LM, Tc1, Tn1)
        assert (got is None) == (want is None)
        if got is not None:
            assert all(_same(a, b) for a, b in zip(got, want))

        # one more point within the floor under the pose ``near``
        T_near = Tc1 if near == "cur" else Tn1
        P2 = np.vstack([P, T_near.inverse().apply([[0.3, -0.2, near_z]])])
        target2 = np.vstack([target, [[1.0, 2.0]]])
        term2, ref2 = _Term(P2, target2, which), reference(P2, target2)
        r, r_ref = term2.residual(K_LM, Tc1, Tn1), ref2.residual_only(K_LM, Tc1, Tn1)
        got = term2.residual_jacobians(K_LM, Tc1, Tn1)
        want = ref2.residual_jacobians(K_LM, Tc1, Tn1)
        assert _same(r, r_ref) and (got is None) == (want is None)
        if near in which:
            assert r is None and got is None
        # the constructor keeps the points the reference filters keep
        if len(which) == 2:
            kept, _ = _restrict_visible_reference(P2, target2, Tc1, Tn1)
        else:
            kept = P2[(Tc1 if which == ("cur",) else Tn1).apply(P2)[:, 2] > ZMIN]
        built = _term(P2, target2, which, Tc1, Tn1, n + 1)
        assert (built is None) == (len(kept) < n + 1)
        if built is not None:
            assert np.array_equal(built.pts, kept) and built.which == which


def _lm_field():
    """A smooth flow field over ``K_LM``'s image with every fifth pixel
    invalid, so that some samples lack a corner."""
    flat = np.arange(K_LM.height * K_LM.width)
    flat = flat[flat % 5 != 0]
    rows, cols = np.divmod(flat, K_LM.width)
    return FlowField((K_LM.height, K_LM.width), flat,
                     -2.0 + 0.02 * cols, 1.0 - 0.03 * rows)


class TestMatchesReferenceLoop:
    """``optimize_pair`` on the shared LM core against its own loop above."""

    field = _lm_field()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(
               ["pair", "one_sided", "next_only", "gauge", "pair_reversed_free"]),
           n=st.integers(0, 80), n_consist=st.integers(0, 80),
           use_field=st.booleans(),
           sigma=st.sampled_from([0.0, 0.3, 3.0]), pert=st.sampled_from([0.0, 0.01, 0.2]),
           near=st.integers(0, 5), near_exp=st.integers(-16, -1),
           near_z=st.sampled_from([MIN_DEPTH, ZMIN]),
           w=st.sampled_from([(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (4.0, 0.3)]),
           max_iters=st.sampled_from([1, 2, 50]),
           lambda0=st.sampled_from([0.0, 1e-4, 1.0]),
           rel_tol=st.sampled_from([0.0, 1e-12, 1e-6]),
           huber_delta=st.sampled_from([0.5, 2.0, 20.0]))
    def test_matches_reference_loop(self, seed, case, n, n_consist, use_field, sigma,
                                    pert, near, near_exp, near_z, w, max_iters,
                                    lambda0, rel_tol, huber_delta):
        rng = np.random.default_rng(seed)
        Tc = se3_exp(rng.uniform(-0.1, 0.1, 6))
        Tn = se3_exp(np.r_[rng.uniform(-0.02, 0.02, 3), 0.0, 0.0, -0.5]).compose(Tc)
        Tc0 = Tc.compose(se3_exp(rng.uniform(-pert, pert, 6)))
        Tn0 = Tn.compose(se3_exp(rng.uniform(-pert, pert, 6)))
        args = (sigma, near, near_exp, near_z)
        cc = make_lm_corrs(rng, Tc, Tc0, n, *args)
        cn = make_lm_corrs(rng, Tn, Tn0, n, *args)
        # consistency points: in front of both poses, plus cc's near points
        pts = np.vstack([Tc.inverse().apply(np.column_stack(
            [rng.uniform(-8, 8, n_consist), rng.uniform(-3, 3, n_consist),
             rng.uniform(3, 30, n_consist)])), cc.p_world[n:]])
        samples = (project_points(K_LM, Tn.apply(pts))[0]
                   - project_points(K_LM, Tc.apply(pts))[0]
                   + rng.normal(0, sigma, (len(pts), 2)))
        if use_field:
            samples = self.field  # sampled at the T_cur0 projections
        cfg = EnergyConfig(w_consist=w[0], w_reproj=w[1], huber_delta=huber_delta,
                           max_iters=max_iters, rel_tol=rel_tol, lambda0=lambda0)
        call = (Tc0, Tn0, cc, cn, pts, samples, K_LM, cfg)
        free = ("cur", "next")
        if case == "one_sided":
            call = (Tc0, Tc0, cc, None, pts, samples, K_LM, cfg)
        elif case == "gauge":
            cfg = EnergyConfig(w_reproj=0.0, max_iters=max_iters, lambda0=lambda0)
            call = (Tc0, Tc0, None, None, pts, samples, K_LM, cfg)
        elif case == "pair_reversed_free":
            free = ("next", "cur")
        if case == "next_only":
            call = (Tc, Tc0, None, None, pts, samples, K_LM, cfg)
            got = optimize_next_only(*call[:2], *call[4:])
            free = ("next",)
        else:
            got = optimize_pair(*call, free=free)
        ref = _optimize_pair_reference(*call, free=free)
        for a, b in ((got.T_cur_star, ref.T_cur_star), (got.T_next_star, ref.T_next_star)):
            assert np.array_equal(a.matrix(), b.matrix())
        assert got.initial_energy == ref.initial_energy
        assert got.final_energy == ref.final_energy
        assert got.energy_trace == ref.energy_trace
        assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
        assert got.consist_pts == ref.consist_pts
