import numpy as np
import pytest

from lidartrack.geometry import (PerturbBounds, PoseSE3, perturb_pose,
                                 pose_error, project_points, se3_exp)
from lidartrack.joint import (ConsistencyTerm, EnergyConfig, e_consist,
                              e_reproj, optimize_next_only, optimize_pair)
from lidartrack.mapping import CropExtents, crop_local
from lidartrack.pnp import Correspondences
from lidartrack.rendering import FlowField

from test_pnp import make_exact_corrs


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


class TestEConsist:
    def test_zero_at_ground_truth_with_exact_samples(self, pair_world):
        K, T_cur, T_next, _, pts, samples = pair_world
        r = e_consist(T_cur, T_next, pts, K, samples)
        assert np.abs(r).max() < 1e-9

    def test_equal_poses_zero_flow(self, pair_world):
        K, T_cur, _, _, pts, _ = pair_world
        r = e_consist(T_cur, T_cur, pts, K, np.zeros((len(pts), 2)))
        assert np.all(r == 0.0)

    def test_first_order_shift_in_next_pose(self, pair_world):
        # translating T_next by +delta along its camera x axis shifts each
        # residual by about -fx*delta/Z (checked against reprojection)
        K, T_cur, T_next, _, pts, samples = pair_world
        delta = 0.01
        bump = PoseSE3(PoseSE3.identity().q, np.array([-delta, 0.0, 0.0]))
        T_shifted = bump.compose(T_next)
        r0 = e_consist(T_cur, T_next, pts, K, samples)
        r1 = e_consist(T_cur, T_shifted, pts, K, samples)
        z = T_next.apply(pts)[:, 2]
        expected = -K.fx * delta / z
        assert np.allclose(r1[:, 0] - r0[:, 0], expected, atol=1e-4)

    def test_empty_set_raises(self, pair_world):
        K, T_cur, T_next, _, pts, _ = pair_world
        f = FlowField.invalid(K.height, K.width)
        with pytest.raises(ValueError):
            e_consist(T_cur, T_next, pts, K, f)

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
        pts = crop[d_cur.source[d_cur.valid]][::7]
        term = ConsistencyTerm.from_field(pts, K, t.f_c2n, T_cur)
        # many candidates land on sparse raster regions without a full
        # 2x2 valid block; enough survive on the dense surfaces
        assert len(term) > 50
        r = term.restrict_visible(K, T_cur, T_next).residual(K, T_cur, T_next)
        assert np.abs(r).max() < 0.5


class TestEReproj:
    def test_zero_at_fit(self, pair_world):
        K, T_cur, _, crop, _, _ = pair_world
        corrs = make_exact_corrs(K, T_cur, crop, 200, seed=0)
        r, kept = e_reproj(T_cur, corrs, K)
        assert kept.all()
        assert np.abs(r).max() < 1e-6

    def test_constant_offset(self, pair_world):
        K, T_cur, _, crop, _, _ = pair_world
        corrs = make_exact_corrs(K, T_cur, crop, 100, seed=1)
        shifted = Correspondences.from_arrays(corrs.p_world, corrs.x_img + [1.0, 0.0])
        r, _ = e_reproj(T_cur, shifted, K)
        assert np.allclose(np.linalg.norm(r, axis=1), 1.0)

    def test_behind_camera_dropped_with_count(self, K):
        P = np.array([[0.0, 0, 10.0], [1, 0, 12.0], [0, 1, -5.0], [1, 1, 9.0]])
        uv = np.zeros((4, 2)) + [480.0, 160.0]
        corrs = Correspondences.from_arrays(P, uv)
        r, kept = e_reproj(PoseSE3.identity(), corrs, K)
        assert kept.sum() == 3
        assert len(r) == 3

    def test_empty_raises(self, K):
        with pytest.raises(ValueError):
            e_reproj(PoseSE3.identity(),
                     Correspondences.from_arrays(np.zeros((0, 3)), np.zeros((0, 2))), K)


class TestJacobians:
    def test_consistency_jacobian_matches_fd(self, pair_world):
        K, T_cur, T_next, _, pts, samples = pair_world
        term = ConsistencyTerm(pts[:40], samples[:40])
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
        from lidartrack.joint import _make_consistency_term

        def energy(Tc, Tn):
            r1 = np.linalg.norm(e_reproj(Tc, cc, K)[0], axis=1)
            r2 = np.linalg.norm(e_reproj(Tn, cn, K)[0], axis=1)
            term = _make_consistency_term(pts, samples, K, Tc)
            rc = np.linalg.norm(term.residual(K, Tc, Tn), axis=1)
            def huber(a):
                return np.where(a <= 2.0, a ** 2, 4.0 * a - 4.0)
            return huber(r1).sum() + huber(r2).sum() + huber(rc).sum()

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
        assert np.array_equal(out.T_cur_star.q, T0.q)

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
        ("w_reproj", float("nan")), ("w_reproj", float("inf"))])
    def test_config_rejects_bad_value_naming_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            EnergyConfig(**{field: bad})

    def test_config_accepts_zero_lambda_and_tolerance(self):
        cfg = EnergyConfig(lambda0=0.0, rel_tol=0.0)
        assert cfg.lambda0 == 0.0 and cfg.rel_tol == 0.0

    def test_energy_trace_csv(self, pair_world, tmp_path):
        from lidartrack.joint import save_energy_trace
        K, T_cur, T_next, crop, pts, samples = pair_world
        cc = make_exact_corrs(K, T_cur, crop, 200, seed=30)
        cn = make_exact_corrs(K, T_next, crop, 200, seed=31)
        Tc0 = perturb_pose(T_cur, PerturbBounds(0.5, 3.0), 32)
        out = optimize_pair(Tc0, T_next, cc, cn, pts, samples, K, EnergyConfig())
        path = tmp_path / "trace.csv"
        save_energy_trace(out, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,energy"
        assert len(lines) == len(out.energy_trace) + 1
