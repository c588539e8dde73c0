import numpy as np
import pytest

from lidartrack.flow import (EmptyMaskError, FlowNoiseModel, FlowTriplet,
                             apply_noise, consistency_residual, epe,
                             mean_residual_norm, oracle_flows, sample_flow,
                             total_loss, warp)
from lidartrack.geometry import PerturbBounds, perturb_pose
from lidartrack.mapping import CropExtents, crop_local
from lidartrack.rendering import FlowField


def full_field(h, w, du=0.0, dv=0.0):
    f = FlowField.invalid(h, w)
    f.du[:] = du
    f.dv[:] = dv
    f.valid[:] = True
    return f


def ramp_field(h, w):
    f = FlowField.invalid(h, w)
    f.du[:] = np.arange(w)[None, :]
    f.valid[:] = True
    return f


class TestWarp:
    def test_zero_base_is_identity_on_valid_mask(self):
        rng = np.random.default_rng(0)
        field = full_field(20, 30)
        field.du[:] = rng.normal(size=(20, 30))
        field.dv[:] = rng.normal(size=(20, 30))
        out = warp(field, full_field(20, 30))
        m = out.valid
        assert m.sum() > 0
        assert np.allclose(out.du[m], field.du[m])
        assert np.allclose(out.dv[m], field.dv[m])

    def test_constant_field_invariant(self):
        field = full_field(20, 30, du=3.5, dv=-1.25)
        base = full_field(20, 30, du=2.2, dv=1.7)
        out = warp(field, base)
        m = out.valid
        assert m.sum() > 0
        assert np.allclose(out.du[m], 3.5)
        assert np.allclose(out.dv[m], -1.25)

    def test_linear_ramp_shifted(self):
        field = ramp_field(16, 40)
        base = full_field(16, 40, du=2.0)
        out = warp(field, base)
        rows, cols = np.nonzero(out.valid)
        assert len(rows) > 0
        assert np.allclose(out.du[rows, cols], cols + 2.0)
        assert np.allclose(out.dv[rows, cols], 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            warp(full_field(4, 4), full_field(4, 5))

    def test_out_of_image_samples_invalid(self):
        field = full_field(10, 10)
        base = full_field(10, 10, du=100.0)
        out = warp(field, base)
        assert not out.valid.any()

    def test_invalid_corner_rejected(self):
        field = full_field(8, 8)
        field.valid[4, 4] = False
        base = full_field(8, 8, du=0.5, dv=0.5)  # samples straddle corners
        out = warp(field, base)
        for r, c in ((3, 3), (3, 4), (4, 3), (4, 4)):
            assert not out.valid[r, c]

    def test_linear_in_first_argument(self):
        rng = np.random.default_rng(1)
        a = full_field(12, 12)
        b = full_field(12, 12)
        a.du[:] = rng.normal(size=(12, 12))
        b.du[:] = rng.normal(size=(12, 12))
        base = full_field(12, 12, du=0.3, dv=-0.6)
        summed = full_field(12, 12)
        summed.du[:] = 2.0 * a.du + 3.0 * b.du
        wa, wb, ws = warp(a, base), warp(b, base), warp(summed, base)
        m = ws.valid & wa.valid & wb.valid
        assert m.sum() > 0
        assert np.allclose(ws.du[m], 2.0 * wa.du[m] + 3.0 * wb.du[m])


class TestSampleFlow:
    def test_exact_pixel_centers(self):
        f = ramp_field(10, 10)
        vals, ok = sample_flow(f, [[3.0, 4.0], [5.0, 2.0]])
        assert ok.all()
        assert np.allclose(vals[:, 0], [3.0, 5.0])

    def test_midpoint_interpolates(self):
        f = ramp_field(10, 10)
        vals, ok = sample_flow(f, [[3.5, 4.5]])
        assert ok.all() and abs(vals[0, 0] - 3.5) < 1e-12

    def test_outside_rejected(self):
        f = ramp_field(10, 10)
        _, ok = sample_flow(f, [[9.5, 5.0], [-0.1, 5.0]])
        assert not ok.any()


class TestEpe:
    def test_identical_fields(self):
        f = full_field(10, 10, du=1.0)
        assert epe(f, f) == 0.0

    def test_unit_offset(self):
        gt = full_field(10, 10, du=2.0, dv=1.0)
        pre = full_field(10, 10, du=3.0, dv=1.0)
        assert abs(epe(pre, gt) - 1.0) < 1e-12

    def test_empty_mask_raises(self):
        gt = FlowField.invalid(10, 10)
        with pytest.raises(EmptyMaskError):
            epe(full_field(10, 10), gt)

    def test_zero_gt_flow_still_counts(self):
        # the mask keys on having a GT sample, not on the vector being nonzero
        gt = full_field(4, 4, du=0.0, dv=0.0)
        pre = full_field(4, 4, du=1.0)
        assert abs(epe(pre, gt) - 1.0) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = full_field(8, 8), full_field(8, 8)
        a.du[:] = rng.normal(size=(8, 8))
        b.du[:] = rng.normal(size=(8, 8))
        assert abs(epe(a, b) - epe(b, a)) < 1e-12

    def test_gaussian_sigma_one_matches_rayleigh_mean(self):
        # mean norm of a 2D unit Gaussian is sqrt(pi/2) ~ 1.2533
        h, w = 120, 120
        gt = full_field(h, w)
        noisy = apply_noise(gt, FlowNoiseModel(gaussian_sigma=1.0, seed=5),
                            np.random.default_rng(5))
        assert h * w >= 10000
        val = epe(noisy, gt)
        assert 0.9 <= val <= 1.6


class TestConsistencyResidual:
    def test_degenerate_equal_pose_case_exact_zero(self):
        f = full_field(10, 10, du=1.5, dv=-2.0)
        zero = full_field(10, 10)
        res = consistency_residual(FlowTriplet(f_c2d=f.copy(), f_n2d=f.copy(), f_c2n=zero))
        m = res.valid
        assert m.sum() > 0
        assert np.all(res.du[m] == 0.0) and np.all(res.dv[m] == 0.0)

    def test_constant_offset_in_c2n(self):
        f = full_field(12, 12, du=0.8, dv=0.3)
        consistent = full_field(12, 12)  # zero optical flow is consistent here
        off = full_field(12, 12, du=1.0)
        base = consistency_residual(FlowTriplet(f.copy(), f.copy(), consistent))
        shifted = consistency_residual(FlowTriplet(f.copy(), f.copy(), off))
        m = base.valid & shifted.valid
        assert m.sum() > 0
        assert np.allclose(shifted.du[m] - base.du[m], -1.0)
        assert np.allclose(shifted.dv[m] - base.dv[m], 0.0)

    def test_identity_on_synthetic_scene(self, K, corridor):
        # noiseless oracle flows satisfy the cross-modal identity to
        # sub-pixel accuracy for perturbed initial poses
        gmap, traj = corridor
        for seed in (0, 1, 2):
            T_init = perturb_pose(traj[0], PerturbBounds(2.0, 10.0), seed)
            crop = crop_local(gmap, T_init, CropExtents())
            t = oracle_flows(crop, K, T_init, traj[0], traj[1], FlowNoiseModel())
            res = consistency_residual(t)
            m = res.valid
            assert m.sum() > 100
            worst = max(np.abs(res.du[m]).max(), np.abs(res.dv[m]).max())
            assert worst < 0.5


class TestTotalLoss:
    def test_all_zero_flows_equal_poses(self):
        z = full_field(10, 10)
        t = FlowTriplet(z.copy(), z.copy(), z.copy())
        assert total_loss(z.copy(), z.copy(), z.copy(), z.copy(), t) == 0.0

    def test_offset_increases_epe_term(self):
        z = full_field(10, 10)
        t0 = FlowTriplet(z.copy(), z.copy(), z.copy())
        base = total_loss(z.copy(), z.copy(), z.copy(), z.copy(), t0)
        pre = full_field(10, 10, du=1.0)
        t1 = FlowTriplet(pre.copy(), z.copy(), z.copy())
        bumped = total_loss(pre.copy(), z.copy(), z.copy(), z.copy(), t1)
        assert bumped >= base + 1.0

    def test_consistent_gt_flows_below_one(self, K, corridor):
        gmap, traj = corridor
        T_init = perturb_pose(traj[0], PerturbBounds(1.0, 5.0), 7)
        crop = crop_local(gmap, T_init, CropExtents())
        t = oracle_flows(crop, K, T_init, traj[0], traj[1], FlowNoiseModel())
        val = total_loss(t.f_c2d, t.f_c2d, t.f_n2d, t.f_n2d, t)
        assert val < 1.0


class TestOracle:
    def test_noiseless_epe_zero(self, K, corridor):
        gmap, traj = corridor
        T_init = perturb_pose(traj[0], PerturbBounds(1.0, 5.0), 9)
        crop = crop_local(gmap, T_init, CropExtents())
        a = oracle_flows(crop, K, T_init, traj[0], traj[1], FlowNoiseModel())
        b = oracle_flows(crop, K, T_init, traj[0], traj[1], FlowNoiseModel())
        assert epe(a.f_c2d, b.f_c2d) == 0.0

    def test_dropout_one_invalidates_everything(self, K, corridor):
        gmap, traj = corridor
        T_init = traj[0]
        crop = crop_local(gmap, T_init, CropExtents())
        t = oracle_flows(crop, K, T_init, traj[0], traj[1],
                         FlowNoiseModel(dropout_fraction=1.0, seed=1))
        assert not t.f_c2d.valid.any()
        assert not t.f_n2d.valid.any()
        assert not t.f_c2n.valid.any()

    def test_deterministic_per_seed(self, K, corridor):
        gmap, traj = corridor
        T_init = perturb_pose(traj[0], PerturbBounds(0.5, 2.0), 4)
        crop = crop_local(gmap, T_init, CropExtents())
        model = FlowNoiseModel(gaussian_sigma=2.0, outlier_fraction=0.1,
                               outlier_magnitude=30.0, dropout_fraction=0.2, seed=17)
        a = oracle_flows(crop, K, T_init, traj[0], traj[1], model)
        b = oracle_flows(crop, K, T_init, traj[0], traj[1], model)
        for fa, fb in ((a.f_c2d, b.f_c2d), (a.f_n2d, b.f_n2d), (a.f_c2n, b.f_c2n)):
            assert np.array_equal(fa.du, fb.du)
            assert np.array_equal(fa.dv, fb.dv)
            assert np.array_equal(fa.valid, fb.valid)

    def test_independent_draws_per_channel(self, K, corridor):
        gmap, traj = corridor
        T_init = traj[0]
        crop = crop_local(gmap, T_init, CropExtents())
        t = oracle_flows(crop, K, T_init, traj[0], traj[0],
                         FlowNoiseModel(gaussian_sigma=1.0, seed=3))
        m = t.f_c2d.valid & t.f_n2d.valid
        # same clean flow (equal poses), different noise draws
        assert not np.allclose(t.f_c2d.du[m], t.f_n2d.du[m])

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            FlowNoiseModel(outlier_fraction=1.5)
        with pytest.raises(ValueError):
            FlowNoiseModel(gaussian_sigma=-1.0)

    @pytest.mark.parametrize("field,bad", [
        ("gaussian_sigma", float("nan")), ("gaussian_sigma", float("inf")),
        ("outlier_magnitude", float("nan")), ("outlier_magnitude", float("inf")),
        ("seed", -1)])
    def test_noise_model_rejects_bad_value_naming_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            FlowNoiseModel(**{field: bad})

    def test_triplet_shape_validation(self):
        with pytest.raises(ValueError):
            FlowTriplet(full_field(4, 4), full_field(4, 4), full_field(4, 5))

    def test_outliers_have_configured_magnitude(self):
        f = full_field(60, 60)
        noisy = apply_noise(f, FlowNoiseModel(outlier_fraction=0.25,
                                              outlier_magnitude=40.0, seed=2),
                            np.random.default_rng(2))
        mags = np.hypot(noisy.du, noisy.dv)
        out = mags > 1.0
        assert abs(out.mean() - 0.25) < 0.02
        assert np.allclose(mags[out], 40.0)
