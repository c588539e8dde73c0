import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack.flow import (EmptyMaskError, FlowNoiseModel, FlowTriplet,
                             apply_noise, consistency_residual, epe,
                             mean_residual_norm, oracle_depth_flow,
                             oracle_flows, sample_flow, total_loss, warp)
from lidartrack.geometry import (CameraIntrinsics, PerturbBounds, PoseSE3,
                                 perturb_pose, project_points)
from lidartrack.mapping import CropExtents, crop_local
from lidartrack.rendering import (FlowField, gt_depth_flow, remove_occlusions,
                                  render_depth)


# -- the dense oracle chain, kept as the reference the index-list oracle
#    must match bit for bit ---------------------------------------------------

def _gt_depth_flow_reference(points, K, T_init, T_gt, occlusion_aperture_deg=10.0,
                             occlusion_window=7, apply_occlusion=True, depth=None):
    """Dense ``gt_depth_flow``: one ``np.nonzero`` pass over the rendered
    map and a scatter into a fresh full-image field."""
    if depth is not None:
        d = depth
    else:
        d = render_depth(points, K, T_init)
        if apply_occlusion:
            d = remove_occlusions(d, occlusion_aperture_deg, occlusion_window)
    field = FlowField.invalid(K.height, K.width)
    if not d.valid.any():
        return field
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    rows, cols = np.nonzero(d.valid)
    ids = d.source[rows, cols]
    P = pts[ids]
    uv_init, front_init = project_points(K, T_init.apply(P))
    uv_gt, front_gt = project_points(K, T_gt.apply(P))
    ok = front_init & front_gt
    rows, cols = rows[ok], cols[ok]
    field.du[rows, cols] = uv_gt[ok, 0] - uv_init[ok, 0]
    field.dv[rows, cols] = uv_gt[ok, 1] - uv_init[ok, 1]
    field.valid[rows, cols] = True
    return field


def _restrict_covisible_reference(field, depth_src, points, K, T_gt, depth_gt,
                                  aperture_deg):
    """Dense co-visibility mask: a copy of the field with the pixels whose
    point is occluded under T_gt invalidated and zeroed."""
    out = field.copy()
    rows, cols = np.nonzero(out.valid)
    if len(rows) == 0 or aperture_deg <= 0:
        return out
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    P = pts[depth_src[rows, cols]]
    cam = T_gt.apply(P)
    z = cam[:, 2]
    uv, front = project_points(K, cam)
    px = np.rint(uv).astype(np.int64)
    h, w = field.shape
    inb = front & (px[:, 0] >= 0) & (px[:, 0] < w) & (px[:, 1] >= 0) & (px[:, 1] < h)
    visible = np.zeros(len(rows), dtype=bool)
    sel = np.nonzero(inb)[0]
    d_at = depth_gt.depth[px[sel, 1], px[sel, 0]]
    v_at = depth_gt.valid[px[sel, 1], px[sel, 0]]
    gap_allowed = d_at / (K.mean_focal * math.tan(math.radians(aperture_deg)))
    visible[sel] = v_at & (z[sel] - d_at <= gap_allowed)
    bad = ~visible
    out.valid[rows[bad], cols[bad]] = False
    out.du[rows[bad], cols[bad]] = 0.0
    out.dv[rows[bad], cols[bad]] = 0.0
    return out


def _apply_noise_reference(field, model, rng):
    """Dense ``apply_noise``: draws indexed by (row, col) of the copy."""
    out = field.copy()
    rows, cols = np.nonzero(out.valid)
    n = len(rows)
    if n == 0:
        return out
    if model.gaussian_sigma > 0:
        out.du[rows, cols] += rng.normal(0.0, model.gaussian_sigma, n)
        out.dv[rows, cols] += rng.normal(0.0, model.gaussian_sigma, n)
    if model.outlier_fraction > 0:
        k = int(round(model.outlier_fraction * n))
        if k > 0:
            pick = rng.choice(n, size=k, replace=False)
            phi = rng.uniform(0.0, 2.0 * math.pi, k)
            out.du[rows[pick], cols[pick]] = model.outlier_magnitude * np.cos(phi)
            out.dv[rows[pick], cols[pick]] = model.outlier_magnitude * np.sin(phi)
    if model.dropout_fraction > 0:
        k = int(round(model.dropout_fraction * n))
        if k > 0:
            pick = rng.choice(n, size=k, replace=False)
            out.valid[rows[pick], cols[pick]] = False
            out.du[rows[pick], cols[pick]] = 0.0
            out.dv[rows[pick], cols[pick]] = 0.0
    return out


def _oracle_depth_flow_reference(points, K, T_init, T_gt, noise, stream=0,
                                 occlusion_aperture_deg=10.0, occlusion_window=7,
                                 depth=None, depth_gt=None):
    """The dense oracle chain: filtered renders, dense depth flow, dense
    co-visibility copy, dense noise copy."""
    if depth is None:
        depth = remove_occlusions(render_depth(points, K, T_init),
                                  occlusion_aperture_deg, occlusion_window)
    clean = _gt_depth_flow_reference(points, K, T_init, T_gt, depth=depth)
    if depth_gt is None:
        depth_gt = remove_occlusions(render_depth(points, K, T_gt),
                                     occlusion_aperture_deg, occlusion_window)
    clean = _restrict_covisible_reference(clean, depth.source, points, K, T_gt,
                                          depth_gt, occlusion_aperture_deg)
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, stream)))
    return _apply_noise_reference(clean, noise, rng)


def _assert_same_field(a, b):
    for name in ("du", "dv", "valid"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.shape == y.shape, name
        assert np.array_equal(x, y), name


def _random_scene(seed, h, w, n, behind_frac, push_back):
    """A small camera, a cloud in front of (and partly behind) T_init, and a
    T_gt moved ``push_back`` metres backward, which can put points behind it
    (a negative value moves it forward)."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(5.0, 200.0)
    K = CameraIntrinsics(fx=f, fy=f * rng.uniform(0.8, 1.2), cx=w / 2.0,
                         cy=h / 2.0, width=w, height=h)
    u = rng.uniform(-2.0, w + 2.0, n)
    v = rng.uniform(-2.0, h + 2.0, n)
    z = rng.uniform(0.5, 20.0, n)
    tie = rng.random(n) < 0.5  # half-metre depths: exact ties are common
    z[tie] = np.round(2.0 * z[tie]) / 2.0
    z[rng.random(n) < behind_frac] *= -1.0
    pts = np.stack([(u - K.cx) * np.abs(z) / K.fx, (v - K.cy) * np.abs(z) / K.fy, z], axis=1)
    T_init = perturb_pose(PoseSE3.identity(), PerturbBounds(0.2, 3.0), seed)
    T_gt = perturb_pose(T_init, PerturbBounds(0.5, 4.0), seed + 1)
    T_gt = PoseSE3(T_gt.q, T_gt.t - np.array([0.0, 0.0, push_back]))
    return K, pts, T_init, T_gt


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


class TestIndexListOracle:
    """The index-list oracle against the dense chain it replaced."""

    @settings(max_examples=250, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), h=st.integers(4, 40), w=st.integers(4, 60),
           n=st.sampled_from([0, 1, 5, 60, 400]),
           behind_frac=st.sampled_from([0.0, 0.2, 1.0]),
           push_back=st.sampled_from([0.0, 5.0, 15.0]),
           aperture=st.sampled_from([0.0, -5.0, 0.5, 2.0, 10.0, 45.0]),
           window=st.sampled_from([1, 3, 7, 9, 121]),
           sigma=st.sampled_from([0.0, 0.7]),
           outlier=st.sampled_from([0.0, 0.3, 1.0]),
           dropout=st.sampled_from([0.0, 0.4, 1.0]),
           stream=st.integers(0, 2), given_maps=st.booleans())
    def test_oracle_depth_flow_matches_dense_chain(self, seed, h, w, n, behind_frac,
                                                   push_back, aperture, window, sigma,
                                                   outlier, dropout, stream, given_maps):
        K, pts, T_init, T_gt = _random_scene(seed, h, w, n, behind_frac, push_back)
        noise = FlowNoiseModel(gaussian_sigma=sigma, outlier_fraction=outlier,
                               outlier_magnitude=25.0, dropout_fraction=dropout,
                               seed=seed % 1000)
        maps = {}
        if given_maps:
            maps = {"depth": remove_occlusions(render_depth(pts, K, T_init), aperture, window),
                    "depth_gt": remove_occlusions(render_depth(pts, K, T_gt), aperture, window)}
        got = oracle_depth_flow(pts, K, T_init, T_gt, noise, stream, aperture, window, **maps)
        want = _oracle_depth_flow_reference(pts, K, T_init, T_gt, noise, stream,
                                            aperture, window, **maps)
        _assert_same_field(got, want)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), h=st.integers(4, 40), w=st.integers(4, 60),
           n=st.sampled_from([0, 1, 60, 400]),
           behind_frac=st.sampled_from([0.0, 0.2, 1.0]),
           push_back=st.sampled_from([-15.0, 0.0, 5.0, 15.0]),
           aperture=st.sampled_from([0.0, 10.0, 45.0]),
           window=st.sampled_from([1, 7, 121]), apply_occlusion=st.booleans(),
           given_map=st.sampled_from([None, "init", "gt"]))
    def test_gt_depth_flow_matches_dense_reference(self, seed, h, w, n, behind_frac,
                                                   push_back, aperture, window,
                                                   apply_occlusion, given_map):
        K, pts, T_init, T_gt = _random_scene(seed, h, w, n, behind_frac, push_back)
        kw = dict(occlusion_aperture_deg=aperture, occlusion_window=window,
                  apply_occlusion=apply_occlusion)
        if given_map:
            # a map rendered at T_gt, with T_gt moved forward, holds points
            # that lie behind T_init
            T_map = T_init if given_map == "init" else T_gt
            kw["depth"] = remove_occlusions(render_depth(pts, K, T_map), aperture, window)
        _assert_same_field(gt_depth_flow(pts, K, T_init, T_gt, **kw),
                           _gt_depth_flow_reference(pts, K, T_init, T_gt, **kw))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), h=st.integers(1, 30), w=st.integers(1, 30),
           density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           sigma=st.sampled_from([0.0, 1.5]),
           outlier=st.sampled_from([0.0, 0.25, 1.0]),
           dropout=st.sampled_from([0.0, 0.3, 1.0]),
           dtype=st.sampled_from([np.float64, np.float32]))
    def test_apply_noise_matches_dense_reference(self, seed, h, w, density, sigma,
                                                 outlier, dropout, dtype):
        # non-zero values under invalid pixels must come through untouched
        rng = np.random.default_rng(seed)
        field = FlowField(rng.normal(size=(h, w)).astype(dtype),
                          rng.normal(size=(h, w)).astype(dtype),
                          rng.random((h, w)) < density)
        before = field.copy()
        model = FlowNoiseModel(gaussian_sigma=sigma, outlier_fraction=outlier,
                               outlier_magnitude=30.0, dropout_fraction=dropout)
        got = apply_noise(field, model, np.random.default_rng(seed))
        want = _apply_noise_reference(field, model, np.random.default_rng(seed))
        _assert_same_field(got, want)
        _assert_same_field(field, before)

    @pytest.mark.parametrize("noise", [
        FlowNoiseModel(),
        FlowNoiseModel(gaussian_sigma=1.0, seed=4),
        FlowNoiseModel(gaussian_sigma=1.0, outlier_fraction=0.5,
                       outlier_magnitude=30.0, dropout_fraction=0.2, seed=9)])
    def test_oracle_matches_dense_chain_on_corridor(self, K, K_small, corridor, noise):
        gmap, traj = corridor
        for cam in (K, K_small):
            for i, T_gt in enumerate(traj[:3]):
                T_init = perturb_pose(T_gt, PerturbBounds(1.0, 5.0), 40 + i)
                crop = crop_local(gmap, T_init, CropExtents())
                depth = render_depth(crop, cam, T_init, 10.0, 7)
                for kw in ({}, {"depth": depth}):
                    got = oracle_depth_flow(crop, cam, T_init, traj[i + 1], noise,
                                            stream=i, **kw)
                    want = _oracle_depth_flow_reference(crop, cam, T_init, traj[i + 1],
                                                        noise, stream=i, **kw)
                    _assert_same_field(got, want)

    def test_oracle_on_empty_crop_is_invalid(self, K):
        noise = FlowNoiseModel(gaussian_sigma=1.0, dropout_fraction=0.5, seed=1)
        T = PoseSE3.identity()
        got = oracle_depth_flow(np.zeros((0, 3)), K, T, T, noise)
        _assert_same_field(got, FlowField.invalid(K.height, K.width))
        t = oracle_flows(np.zeros((0, 3)), K, T, T, T, noise)
        for f in (t.f_c2d, t.f_n2d, t.f_c2n):
            _assert_same_field(f, FlowField.invalid(K.height, K.width))

    def test_depth_map_of_another_camera_rejected(self, K, K_small):
        pts = np.array([[0.0, 0.0, 10.0]])
        d = render_depth(pts, K_small, PoseSE3.identity())
        with pytest.raises(ValueError):
            oracle_depth_flow(pts, K, PoseSE3.identity(), PoseSE3.identity(),
                              FlowNoiseModel(), depth=d)
        with pytest.raises(ValueError):
            gt_depth_flow(pts, K, PoseSE3.identity(), PoseSE3.identity(), depth=d)
