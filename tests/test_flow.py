import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack.flow import (EmptyMaskError, FlowNoiseModel, FlowTriplet,
                             apply_noise, consistency_residual, epe,
                             oracle_depth_flow, oracle_flows, sample_flow, warp)
from lidartrack.geometry import (CameraIntrinsics, PerturbBounds, PoseSE3,
                                 perturb_pose, project_points)
from lidartrack.mapping import CropExtents, crop_local
from lidartrack.pnp import correspondences_from_flow
from lidartrack.rendering import FlowField, remove_occlusions, render_depth

from conftest import DenseDepth, DenseFlow, dense, sparse


# -- the dense oracle chain, kept as the reference the index-list oracle
#    must match bit for bit ---------------------------------------------------

def _depth_flow_reference(points, K, T_init, T_gt, depth):
    """Dense clean depth flow over the map ``depth`` rendered at T_init: one
    ``np.nonzero`` pass over the map and a scatter into a fresh full-image
    field."""
    d = dense(depth)
    field = DenseFlow.invalid(K.height, K.width)
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
    clean = _depth_flow_reference(points, K, T_init, T_gt, depth)
    if depth_gt is None:
        depth_gt = remove_occlusions(render_depth(points, K, T_gt),
                                     occlusion_aperture_deg, occlusion_window)
    clean = _restrict_covisible_reference(clean, dense(depth).source, points, K, T_gt,
                                          dense(depth_gt), occlusion_aperture_deg)
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, stream)))
    return _apply_noise_reference(clean, noise, rng)


def _assert_same_array(x, y, name=""):
    """Bit for bit: dtype, shape and bytes, so NaN payloads and -0.0 count."""
    x, y = np.asarray(x), np.asarray(y)
    assert x.dtype == y.dtype, name
    assert x.shape == y.shape, name
    assert x.tobytes() == y.tobytes(), name


def _assert_same_field(a, b):
    """Equal as full images, dtypes included; either side may be dense."""
    a, b = (dense(x) if isinstance(x, FlowField) else x for x in (a, b))
    for name in ("du", "dv", "valid"):
        _assert_same_array(getattr(a, name), getattr(b, name), name)


# -- the dense flow arithmetic, kept as the reference the list forms must
#    match bit for bit -----------------------------------------------------------

def _sample_flow_reference(field, positions):
    """Dense ``sample_flow``: the four corners read from full images."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    h, w = field.shape
    n = len(pos)
    values = np.zeros((n, 2))
    ok = np.zeros(n, dtype=bool)
    if n == 0:
        return values, ok
    x0 = np.floor(pos[:, 0]).astype(np.int64)
    y0 = np.floor(pos[:, 1]).astype(np.int64)
    inside = (x0 >= 0) & (x0 + 1 <= w - 1) & (y0 >= 0) & (y0 + 1 <= h - 1)
    xi, yi = x0[inside], y0[inside]
    corners_ok = (field.valid[yi, xi] & field.valid[yi, xi + 1]
                  & field.valid[yi + 1, xi] & field.valid[yi + 1, xi + 1])
    sel = np.nonzero(inside)[0][corners_ok]
    if len(sel) == 0:
        return values, ok
    xi, yi = x0[sel], y0[sel]
    wx = pos[sel, 0] - xi
    wy = pos[sel, 1] - yi
    w00 = (1 - wx) * (1 - wy)
    w10 = wx * (1 - wy)
    w01 = (1 - wx) * wy
    w11 = wx * wy
    for k, comp in enumerate((field.du, field.dv)):
        values[sel, k] = (w00 * comp[yi, xi] + w10 * comp[yi, xi + 1]
                          + w01 * comp[yi + 1, xi] + w11 * comp[yi + 1, xi + 1])
    ok[sel] = True
    return values, ok


def _warp_reference(field, base):
    """Dense ``warp``: one ``np.nonzero`` pass over the base's mask."""
    h, w = base.shape
    out = DenseFlow.invalid(h, w)
    rows, cols = np.nonzero(base.valid)
    if len(rows) == 0:
        return out
    pos = np.stack([cols + base.du[rows, cols], rows + base.dv[rows, cols]], axis=1)
    values, ok = _sample_flow_reference(field, pos)
    out.du[rows[ok], cols[ok]] = values[ok, 0]
    out.dv[rows[ok], cols[ok]] = values[ok, 1]
    out.valid[rows[ok], cols[ok]] = True
    return out


def _consistency_residual_reference(f_c2d, f_n2d, f_c2n):
    """Dense ``consistency_residual``: masked full-image arithmetic."""
    warped = _warp_reference(f_c2n, f_c2d)
    res = DenseFlow.invalid(*f_c2d.shape)
    res.valid[:] = f_c2d.valid & f_n2d.valid & warped.valid
    m = res.valid
    res.du[m] = (f_n2d.du[m] - f_c2d.du[m]) - warped.du[m]
    res.dv[m] = (f_n2d.dv[m] - f_c2d.dv[m]) - warped.dv[m]
    return res


def _epe_reference(f_pre, f_gt):
    """Dense ``epe`` over the jointly valid mask."""
    mask = f_gt.valid & f_pre.valid
    if not mask.any():
        raise EmptyMaskError("no jointly valid pixels for EPE")
    du = f_pre.du[mask] - f_gt.du[mask]
    dv = f_pre.dv[mask] - f_gt.dv[mask]
    return float(np.mean(np.hypot(du, dv)))


def _correspondences_reference(d, f, points):
    """Dense ``correspondences_from_flow``: (p_world, x_img) of the pairs."""
    rows, cols = np.nonzero(d.valid & f.valid)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    p_world = pts[d.source[rows, cols]]
    x_img = np.stack([cols + f.du[rows, cols], rows + f.dv[rows, cols]], axis=1)
    finite = np.isfinite(x_img).all(axis=1) & np.isfinite(p_world).all(axis=1)
    return p_world[finite], x_img[finite]


def _coords(rng, shape, lo, hi, bad):
    """Coordinates in [lo, hi + 1): 40 % exactly on integers (image borders
    included), the rest fractional; with ``bad``, a tenth NaN or +-inf."""
    x = rng.integers(lo, hi + 1, shape).astype(float)
    frac = rng.random(shape)
    frac[rng.random(shape) < 0.4] = 0.0
    x += frac
    if bad:
        pick = rng.random(shape) < 0.1
        x[pick] = rng.choice([np.nan, np.inf, -np.inf], int(pick.sum()))
    return x


def _random_field(rng, h, w, density, bad):
    """A dense field whose valid pixels (some of them missing corners of
    their neighbors' samples) hold displacements of up to +-3 px."""
    valid = rng.random((h, w)) < density
    du, dv = _coords(rng, (h, w), -3, 2, bad), _coords(rng, (h, w), -3, 2, bad)
    du[~valid] = 0.0
    dv[~valid] = 0.0
    return DenseFlow(du, dv, valid)


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
    f = DenseFlow.invalid(h, w)
    f.du[:] = du
    f.dv[:] = dv
    f.valid[:] = True
    return f


def ramp_field(h, w):
    f = DenseFlow.invalid(h, w)
    f.du[:] = np.arange(w)[None, :]
    f.valid[:] = True
    return f


raster = dict(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 9), w=st.integers(1, 9),
              density=st.sampled_from([0.0, 0.3, 0.7, 1.0]), bad=st.booleans())


class TestListFormsMatchDense:
    """The list-form flow arithmetic against the dense forms it replaced, on
    random sparse fields: samples on and beyond the image border, missing
    corners, NaN and inf flows, NaN map points and empty fields."""

    @settings(max_examples=300, deadline=None)
    @given(**raster, n=st.sampled_from([0, 1, 5, 40]))
    def test_sample_flow(self, seed, h, w, density, bad, n):
        rng = np.random.default_rng(seed)
        field = _random_field(rng, h, w, density, bad)
        pos = np.stack([_coords(rng, n, -1, w, bad), _coords(rng, n, -1, h, bad)], axis=1)
        with np.errstate(invalid="ignore"):
            got = sample_flow(sparse(field), pos)
            want = _sample_flow_reference(field, pos)
        for g, r in zip(got, want):
            _assert_same_array(g, r)

    @settings(max_examples=300, deadline=None)
    @given(**raster, base_density=st.sampled_from([0.0, 0.5, 1.0]))
    def test_warp_and_consistency_residual(self, seed, h, w, density, bad, base_density):
        rng = np.random.default_rng(seed)
        c2n = _random_field(rng, h, w, density, bad)
        c2d = _random_field(rng, h, w, base_density, bad)
        n2d = _random_field(rng, h, w, density, bad)
        with np.errstate(invalid="ignore"):
            _assert_same_field(warp(sparse(c2n), sparse(c2d)), _warp_reference(c2n, c2d))
            got = consistency_residual(FlowTriplet(sparse(c2d), sparse(n2d), sparse(c2n)))
            _assert_same_field(got, _consistency_residual_reference(c2d, n2d, c2n))

    @settings(max_examples=300, deadline=None)
    @given(**raster, gt_density=st.sampled_from([0.0, 0.5, 1.0]))
    def test_epe(self, seed, h, w, density, bad, gt_density):
        rng = np.random.default_rng(seed)
        pre = _random_field(rng, h, w, density, bad)
        gt = _random_field(rng, h, w, gt_density, bad)
        if not (pre.valid & gt.valid).any():
            with pytest.raises(EmptyMaskError):
                epe(sparse(pre), sparse(gt))
            return
        with np.errstate(invalid="ignore"):
            got, want = epe(sparse(pre), sparse(gt)), _epe_reference(pre, gt)
        _assert_same_array(np.float64(got), np.float64(want))

    @settings(max_examples=300, deadline=None)
    @given(**raster, depth_density=st.sampled_from([0.0, 0.5, 1.0]),
           n_points=st.integers(1, 30))
    def test_correspondences_from_flow(self, seed, h, w, density, bad, depth_density,
                                       n_points):
        rng = np.random.default_rng(seed)
        f = _random_field(rng, h, w, density, bad)
        valid = rng.random((h, w)) < depth_density
        source = np.where(valid, rng.integers(0, n_points, (h, w)), -1)
        d = DenseDepth(np.where(valid, rng.uniform(1.0, 30.0, (h, w)), 0.0), valid,
                       source, 100.0)
        points = rng.normal(0.0, 10.0, (n_points, 3))
        if bad:
            points[rng.random(n_points) < 0.2, rng.integers(0, 3)] = np.nan
        got = correspondences_from_flow(sparse(d), sparse(f), points)
        p_world, x_img = _correspondences_reference(d, f, points)
        _assert_same_array(got.p_world, p_world)
        _assert_same_array(got.x_img, x_img)


class TestWarp:
    def test_zero_base_is_identity_on_valid_mask(self):
        rng = np.random.default_rng(0)
        field = full_field(20, 30)
        field.du[:] = rng.normal(size=(20, 30))
        field.dv[:] = rng.normal(size=(20, 30))
        out = dense(warp(sparse(field), sparse(full_field(20, 30))))
        m = out.valid
        assert m.sum() > 0
        assert np.allclose(out.du[m], field.du[m])
        assert np.allclose(out.dv[m], field.dv[m])

    def test_constant_field_invariant(self):
        field = full_field(20, 30, du=3.5, dv=-1.25)
        base = full_field(20, 30, du=2.2, dv=1.7)
        out = dense(warp(sparse(field), sparse(base)))
        m = out.valid
        assert m.sum() > 0
        assert np.allclose(out.du[m], 3.5)
        assert np.allclose(out.dv[m], -1.25)

    def test_linear_ramp_shifted(self):
        field = ramp_field(16, 40)
        base = full_field(16, 40, du=2.0)
        out = dense(warp(sparse(field), sparse(base)))
        rows, cols = np.nonzero(out.valid)
        assert len(rows) > 0
        assert np.allclose(out.du[rows, cols], cols + 2.0)
        assert np.allclose(out.dv[rows, cols], 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            warp(sparse(full_field(4, 4)), sparse(full_field(4, 5)))

    def test_out_of_image_samples_invalid(self):
        field = full_field(10, 10)
        base = full_field(10, 10, du=100.0)
        out = warp(sparse(field), sparse(base))
        assert len(out.flat) == 0

    def test_invalid_corner_rejected(self):
        field = full_field(8, 8)
        field.valid[4, 4] = False
        base = full_field(8, 8, du=0.5, dv=0.5)  # samples straddle corners
        out = dense(warp(sparse(field), sparse(base)))
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
        wa, wb, ws = (dense(warp(sparse(f), sparse(base))) for f in (a, b, summed))
        m = ws.valid & wa.valid & wb.valid
        assert m.sum() > 0
        assert np.allclose(ws.du[m], 2.0 * wa.du[m] + 3.0 * wb.du[m])


class TestSampleFlow:
    def test_exact_pixel_centers(self):
        f = sparse(ramp_field(10, 10))
        vals, ok = sample_flow(f, [[3.0, 4.0], [5.0, 2.0]])
        assert ok.all()
        assert np.allclose(vals[:, 0], [3.0, 5.0])

    def test_midpoint_interpolates(self):
        f = sparse(ramp_field(10, 10))
        vals, ok = sample_flow(f, [[3.5, 4.5]])
        assert ok.all() and abs(vals[0, 0] - 3.5) < 1e-12

    def test_outside_rejected(self):
        f = sparse(ramp_field(10, 10))
        _, ok = sample_flow(f, [[9.5, 5.0], [-0.1, 5.0]])
        assert not ok.any()


class TestEpe:
    def test_identical_fields(self):
        f = sparse(full_field(10, 10, du=1.0))
        assert epe(f, f) == 0.0

    def test_unit_offset(self):
        gt = full_field(10, 10, du=2.0, dv=1.0)
        pre = full_field(10, 10, du=3.0, dv=1.0)
        assert abs(epe(sparse(pre), sparse(gt)) - 1.0) < 1e-12

    def test_empty_mask_raises(self):
        gt = FlowField.invalid(10, 10)
        with pytest.raises(EmptyMaskError):
            epe(sparse(full_field(10, 10)), gt)

    def test_zero_gt_flow_still_counts(self):
        # the mask keys on having a GT sample, not on the vector being nonzero
        gt = full_field(4, 4, du=0.0, dv=0.0)
        pre = full_field(4, 4, du=1.0)
        assert abs(epe(sparse(pre), sparse(gt)) - 1.0) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = full_field(8, 8), full_field(8, 8)
        a.du[:] = rng.normal(size=(8, 8))
        b.du[:] = rng.normal(size=(8, 8))
        a, b = sparse(a), sparse(b)
        assert abs(epe(a, b) - epe(b, a)) < 1e-12

    def test_gaussian_sigma_one_matches_rayleigh_mean(self):
        # mean norm of a 2D unit Gaussian is sqrt(pi/2) ~ 1.2533
        h, w = 120, 120
        gt = sparse(full_field(h, w))
        noisy = apply_noise(gt, FlowNoiseModel(gaussian_sigma=1.0, seed=5),
                            np.random.default_rng(5))
        assert h * w >= 10000
        val = epe(noisy, gt)
        assert 0.9 <= val <= 1.6


class TestConsistencyResidual:
    def test_degenerate_equal_pose_case_exact_zero(self):
        f = sparse(full_field(10, 10, du=1.5, dv=-2.0))
        zero = sparse(full_field(10, 10))
        res = dense(consistency_residual(FlowTriplet(f_c2d=f, f_n2d=f, f_c2n=zero)))
        m = res.valid
        assert m.sum() > 0
        assert np.all(res.du[m] == 0.0) and np.all(res.dv[m] == 0.0)

    def test_constant_offset_in_c2n(self):
        f = sparse(full_field(12, 12, du=0.8, dv=0.3))
        consistent = sparse(full_field(12, 12))  # zero optical flow is consistent here
        off = sparse(full_field(12, 12, du=1.0))
        base = dense(consistency_residual(FlowTriplet(f, f, consistent)))
        shifted = dense(consistency_residual(FlowTriplet(f, f, off)))
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
            res = dense(consistency_residual(t))
            m = res.valid
            assert m.sum() > 100
            worst = max(np.abs(res.du[m]).max(), np.abs(res.dv[m]).max())
            assert worst < 0.5


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
        assert len(t.f_c2d.flat) == len(t.f_n2d.flat) == len(t.f_c2n.flat) == 0

    def test_deterministic_per_seed(self, K, corridor):
        gmap, traj = corridor
        T_init = perturb_pose(traj[0], PerturbBounds(0.5, 2.0), 4)
        crop = crop_local(gmap, T_init, CropExtents())
        model = FlowNoiseModel(gaussian_sigma=2.0, outlier_fraction=0.1,
                               outlier_magnitude=30.0, dropout_fraction=0.2, seed=17)
        a = oracle_flows(crop, K, T_init, traj[0], traj[1], model)
        b = oracle_flows(crop, K, T_init, traj[0], traj[1], model)
        for fa, fb in ((a.f_c2d, b.f_c2d), (a.f_n2d, b.f_n2d), (a.f_c2n, b.f_c2n)):
            assert np.array_equal(fa.flat, fb.flat)
            assert np.array_equal(fa.du, fb.du)
            assert np.array_equal(fa.dv, fb.dv)

    def test_independent_draws_per_channel(self, K, corridor):
        gmap, traj = corridor
        T_init = traj[0]
        crop = crop_local(gmap, T_init, CropExtents())
        t = oracle_flows(crop, K, T_init, traj[0], traj[0],
                         FlowNoiseModel(gaussian_sigma=1.0, seed=3))
        c2d, n2d = dense(t.f_c2d), dense(t.f_n2d)
        m = c2d.valid & n2d.valid
        # same clean flow (equal poses), different noise draws
        assert not np.allclose(c2d.du[m], n2d.du[m])

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
            FlowTriplet(*(sparse(full_field(4, w)) for w in (4, 4, 5)))

    def test_outliers_have_configured_magnitude(self):
        f = sparse(full_field(60, 60))
        noisy = dense(apply_noise(f, FlowNoiseModel(outlier_fraction=0.25,
                                                    outlier_magnitude=40.0, seed=2),
                                  np.random.default_rng(2)))
        mags = np.hypot(noisy.du, noisy.dv)
        out = mags > 1.0
        assert abs(out.mean() - 0.25) < 0.02
        assert np.allclose(mags[out], 40.0)

    # -- the clean depth flow, through a noiseless oracle -----------------------

    def test_equal_poses_zero_flow(self, K, corridor):
        gmap, traj = corridor
        T = traj[0]
        f = dense(oracle_depth_flow(gmap.points, K, T, T, FlowNoiseModel()))
        assert f.valid.any()
        assert np.abs(f.du[f.valid]).max() < 1e-9
        assert np.abs(f.dv[f.valid]).max() < 1e-9

    def test_lateral_translation_first_order(self, K):
        # camera shifted by +delta along its x axis: du = -fx*delta/Z,
        # checked against direct two-projection subtraction
        Z, delta = 12.0, 0.05
        pts = np.array([[x, y, Z] for x in np.linspace(-1, 1, 9)
                        for y in np.linspace(-0.5, 0.5, 5)])
        T_init = PoseSE3.identity()
        T_gt = PoseSE3(T_init.q, np.array([-delta, 0.0, 0.0]))
        f = dense(oracle_depth_flow(pts, K, T_init, T_gt, FlowNoiseModel()))
        assert f.valid.any()
        expected = -K.fx * delta / Z
        got = f.du[f.valid]
        assert np.allclose(got, expected, atol=1e-9)
        # independent subtraction for one point
        uv_a, _ = project_points(K, T_init.apply(pts[:1]))
        uv_b, _ = project_points(K, T_gt.apply(pts[:1]))
        assert abs((uv_b - uv_a)[0, 0] - expected) < 1e-12

    def test_point_behind_under_gt_invalidated(self, K):
        pts = np.array([[0.0, 0.0, 5.0]])
        T_init = PoseSE3.identity()
        T_gt = PoseSE3(T_init.q, np.array([0.0, 0.0, -10.0]))  # pushes it behind
        f = oracle_depth_flow(pts, K, T_init, T_gt, FlowNoiseModel())
        assert len(f.flat) == 0

    def test_flow_warps_to_gt_projection(self, K, corridor):
        # moving each anchored pixel by its flow lands within 0.5 px
        # (per axis) of the same point's projection under the GT pose
        gmap, traj = corridor
        T_gt = traj[0]
        T_init = perturb_pose(T_gt, PerturbBounds(1.0, 5.0), seed=3)
        crop = gmap.points
        d = remove_occlusions(render_depth(crop, K, T_init))
        f = dense(oracle_depth_flow(crop, K, T_init, T_gt, FlowNoiseModel(), depth=d))
        d = dense(d)
        rows, cols = np.nonzero(f.valid)
        ids = d.source[rows, cols]
        uv_gt, front = project_points(K, T_gt.apply(crop[ids]))
        landed_u = cols + f.du[rows, cols]
        landed_v = rows + f.dv[rows, cols]
        assert len(rows) and np.all(front)
        assert np.abs(landed_u - uv_gt[:, 0]).max() <= 0.5 + 1e-9
        assert np.abs(landed_v - uv_gt[:, 1]).max() <= 0.5 + 1e-9


class TestIndexListOracle:
    """The index-list oracle against the dense chain it replaced."""

    @settings(max_examples=250, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), h=st.integers(4, 40), w=st.integers(4, 60),
           n=st.sampled_from([0, 1, 5, 60, 400]),
           behind_frac=st.sampled_from([0.0, 0.2, 1.0]),
           push_back=st.sampled_from([-15.0, 0.0, 5.0, 15.0]),
           aperture=st.sampled_from([0.0, -5.0, 0.5, 2.0, 10.0, 45.0]),
           window=st.sampled_from([1, 3, 7, 9, 121]),
           sigma=st.sampled_from([0.0, 0.7]),
           outlier=st.sampled_from([0.0, 0.3, 1.0]),
           dropout=st.sampled_from([0.0, 0.4, 1.0]),
           stream=st.integers(0, 2), given_map=st.sampled_from([None, "init", "gt"]))
    def test_oracle_depth_flow_matches_dense_chain(self, seed, h, w, n, behind_frac,
                                                   push_back, aperture, window, sigma,
                                                   outlier, dropout, stream, given_map):
        K, pts, T_init, T_gt = _random_scene(seed, h, w, n, behind_frac, push_back)
        noise = FlowNoiseModel(gaussian_sigma=sigma, outlier_fraction=outlier,
                               outlier_magnitude=25.0, dropout_fraction=dropout,
                               seed=seed % 1000)
        maps = {}
        if given_map:
            # a map rendered at T_gt, with T_gt moved forward, holds points
            # that lie behind T_init
            T_map = T_init if given_map == "init" else T_gt
            maps = {"depth": remove_occlusions(render_depth(pts, K, T_map), aperture, window),
                    "depth_gt": remove_occlusions(render_depth(pts, K, T_gt), aperture, window)}
        got = oracle_depth_flow(pts, K, T_init, T_gt, noise, stream, aperture, window, **maps)
        want = _oracle_depth_flow_reference(pts, K, T_init, T_gt, noise, stream,
                                            aperture, window, **maps)
        _assert_same_field(got, want)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), h=st.integers(1, 30), w=st.integers(1, 30),
           density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           sigma=st.sampled_from([0.0, 1.5]),
           outlier=st.sampled_from([0.0, 0.25, 1.0]),
           dropout=st.sampled_from([0.0, 0.3, 1.0]),
           dtype=st.sampled_from([np.float64, np.float32]))
    def test_apply_noise_matches_dense_reference(self, seed, h, w, density, sigma,
                                                 outlier, dropout, dtype):
        rng = np.random.default_rng(seed)
        field = sparse(DenseFlow(rng.normal(size=(h, w)).astype(dtype),
                                 rng.normal(size=(h, w)).astype(dtype),
                                 rng.random((h, w)) < density))
        before = dense(field)
        model = FlowNoiseModel(gaussian_sigma=sigma, outlier_fraction=outlier,
                               outlier_magnitude=30.0, dropout_fraction=dropout)
        got = apply_noise(field, model, np.random.default_rng(seed))
        want = _apply_noise_reference(dense(field), model, np.random.default_rng(seed))
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
