import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack.geometry import (CameraIntrinsics, PerturbBounds, PoseSE3,
                                 perturb_pose, project_points)
from lidartrack.rendering import DepthMap, remove_occlusions, render_depth

from conftest import DenseDepth, dense, sparse


def _remove_occlusions_reference(d, cone_aperture_deg=10.0, window=7):
    """The dense form of ``remove_occlusions``: one full-image pass per
    window offset.  Kept as the reference the gather form must match bit
    for bit.  Its negative slice stops wrap around once ``window // 2``
    exceeds an image side, so it only takes maps at least that large."""
    out = d.copy()
    if not d.valid.any() or cone_aperture_deg <= 0:
        return out
    scale = 1.0 / (d.focal * math.tan(math.radians(cone_aperture_deg)))
    half = window // 2
    h, w = d.depth.shape
    z = d.depth
    v = d.valid
    kill = np.zeros((h, w), dtype=bool)
    for di in range(-half, half + 1):
        for dj in range(-half, half + 1):
            if di == 0 and dj == 0:
                continue
            c = math.hypot(di, dj) * scale
            src_i = slice(max(0, -di), min(h, h - di))
            src_j = slice(max(0, -dj), min(w, w - dj))
            dst_i = slice(max(0, di), min(h, h + di))
            dst_j = slice(max(0, dj), min(w, w + dj))
            zn = z[src_i, src_j]
            kill[dst_i, dst_j] |= (v[dst_i, dst_j] & v[src_i, src_j]
                                   & (z[dst_i, dst_j] - zn > c * zn))
    out.valid &= ~kill
    out.depth[~out.valid] = 0.0
    out.source[~out.valid] = -1
    return out


def _zbuffer_reference(points, K, T):
    """The z-buffer as one three-key lexsort (flat index, quantized depth,
    point id): (z, flat, win) with the winners in ascending pixel order.
    Kept as the reference the radix passes must match bit for bit."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    cam = T.apply(pts)
    z = cam[:, 2]
    uv, in_front = project_points(K, cam)
    px = np.rint(uv).astype(np.int64)
    ok = (in_front & (px[:, 0] >= 0) & (px[:, 0] < K.width) & (px[:, 1] >= 0)
          & (px[:, 1] < K.height))
    idx = np.nonzero(ok)[0]
    flat = px[idx, 1] * K.width + px[idx, 0]
    qz = np.round(z[idx] / 1e-9).astype(np.int64)
    order = np.lexsort((idx, qz, flat))
    flat_sorted = flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    return z, flat_sorted[first], idx[order[first]]


def _render_depth_reference(points, K, T):
    """The dense z-buffer: full-image outputs written by flat index.  Kept
    as the reference the row-major winner lists must match bit for bit."""
    h, w = K.height, K.width
    depth = np.zeros((h, w))
    valid = np.zeros((h, w), dtype=bool)
    source = np.full((h, w), -1, dtype=np.int64)
    d = DenseDepth(depth, valid, source, K.mean_focal)
    if len(points) == 0:
        return d
    z, fw, win = _zbuffer_reference(points, K, T)
    depth.reshape(-1)[fw] = z[win]
    valid.reshape(-1)[fw] = True
    source.reshape(-1)[fw] = win
    return d


def _random_cloud(seed, h, w, n):
    """A small camera and a cloud around its view: half the depths on a
    half-metre grid (exact ties), a fifth behind the camera."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(5.0, 200.0)
    K = CameraIntrinsics(fx=f, fy=f * rng.uniform(0.8, 1.2), cx=w / 2.0,
                         cy=h / 2.0, width=w, height=h)
    u = rng.uniform(-2.0, w + 2.0, n)
    v = rng.uniform(-2.0, h + 2.0, n)
    z = rng.uniform(0.5, 20.0, n)
    tie = rng.random(n) < 0.5
    z[tie] = np.round(2.0 * z[tie]) / 2.0
    z[rng.random(n) < 0.2] *= -1.0
    pts = np.stack([(u - K.cx) * np.abs(z) / K.fx, (v - K.cy) * np.abs(z) / K.fy, z], axis=1)
    return K, pts, perturb_pose(PoseSE3.identity(), PerturbBounds(0.2, 3.0), seed)


def _assert_same_depth_map(a, b):
    """Equal as full images, dtypes included; either side may be dense."""
    a, b = (dense(x) if isinstance(x, DepthMap) else x for x in (a, b))
    for name in ("depth", "valid", "source"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert a.focal == b.focal


def _all_valid(depth, focal=100.0):
    depth = np.asarray(depth, dtype=float)
    return sparse(DenseDepth(depth, np.ones(depth.shape, dtype=bool),
                             np.arange(depth.size, dtype=np.int64).reshape(depth.shape),
                             focal))


class TestRenderDepth:
    def test_single_point_on_axis(self, K):
        d = dense(render_depth(np.array([[0.0, 0.0, 10.0]]), K, PoseSE3.identity()))
        assert d.valid.sum() == 1
        assert d.valid[160, 480]
        assert d.depth[160, 480] == 10.0
        assert d.source[160, 480] == 0

    def test_zbuffer_keeps_nearest(self, K):
        pts = np.array([[0.0, 0.0, 10.0], [0.0, 0.0, 5.0]])
        d = dense(render_depth(pts, K, PoseSE3.identity()))
        assert d.valid.sum() == 1
        assert d.depth[160, 480] == 5.0
        assert d.source[160, 480] == 1

    def test_tie_breaks_by_smaller_id(self, K):
        pts = np.array([[0.0, 0.0, 7.0], [0.0, 0.0, 7.0], [0.0, 0.0, 7.0]])
        d = dense(render_depth(pts, K, PoseSE3.identity()))
        assert d.source[160, 480] == 0
        d2 = dense(render_depth(pts[::-1], K, PoseSE3.identity()))
        assert d2.source[160, 480] == 0  # ids renumber, smallest still wins

    def test_empty_cloud(self, K):
        d = render_depth(np.zeros((0, 3)), K, PoseSE3.identity())
        assert len(d.flat) == 0
        _assert_same_depth_map(d, _render_depth_reference(np.zeros((0, 3)), K,
                                                          PoseSE3.identity()))

    def test_behind_camera_ignored(self, K):
        d = render_depth(np.array([[0.0, 0.0, -5.0]]), K, PoseSE3.identity())
        assert len(d.flat) == 0

    def test_zbuffer_minimality_brute_force(self, K):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (5000, 3)) * [30, 10, 0] + [0, 0, 0]
        pts[:, 2] = rng.uniform(2.0, 40.0, 5000)
        pose = PoseSE3.identity()
        d = dense(render_depth(pts, K, pose))
        uv, front = project_points(K, pose.apply(pts))
        px = np.rint(uv).astype(int)
        ok = front & (px[:, 0] >= 0) & (px[:, 0] < K.width) & (px[:, 1] >= 0) & (px[:, 1] < K.height)
        for i in np.nonzero(ok)[0]:
            c, r = px[i]
            assert d.valid[r, c]
            assert d.depth[r, c] <= pts[i, 2] + 1e-12

    def test_deterministic_under_permutation(self, K):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, (4000, 3)) * [20, 6, 1] + [0, 0, 25]
        perm = rng.permutation(len(pts))
        a = dense(render_depth(pts, K, PoseSE3.identity()))
        b = dense(render_depth(pts[perm], K, PoseSE3.identity()))
        assert np.array_equal(a.valid, b.valid)
        assert np.array_equal(a.depth, b.depth)
        # winners are the same 3D points even though ids renumber
        sel = a.valid
        assert np.allclose(pts[a.source[sel]], pts[perm][b.source[sel]])


    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), h=st.integers(1, 40), w=st.integers(1, 60),
           n=st.sampled_from([0, 1, 7, 80, 600]))
    def test_matches_dense_reference(self, seed, h, w, n):
        K, pts, T = _random_cloud(seed, h, w, n)
        _assert_same_depth_map(render_depth(pts, K, T), _render_depth_reference(pts, K, T))

    @pytest.mark.parametrize("h,w", [(300, 300), (257, 1031), (320, 960)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_reference_above_one_radix_digit(self, seed, h, w):
        # over 2**16 pixels the flat index takes two 16-bit radix passes;
        # repeats of some points tie exactly in pixel and depth, listed
        # both before and after their originals
        K, pts, T = _random_cloud(seed, h, w, 40000)
        rep = pts[np.random.default_rng(seed).integers(0, len(pts), 4000)]
        pts = np.vstack([rep, pts, rep])
        d = render_depth(pts, K, T)
        assert len(d.flat) > 1000
        _assert_same_depth_map(d, _render_depth_reference(pts, K, T))

    @pytest.mark.parametrize("where", ["behind", "outside"])
    def test_no_point_in_a_large_image(self, where):
        K = CameraIntrinsics(fx=100.0, fy=100.0, cx=150.0, cy=150.0, width=300, height=300)
        pts = np.random.default_rng(3).uniform([-5.0, -5.0, 1.0], [5.0, 5.0, 30.0], (500, 3))
        if where == "behind":
            pts[:, 2] *= -1.0
        else:
            pts[:, 0] += np.where(pts[:, 0] > 0, 1.0, -1.0) * 4.0 * pts[:, 2]
        d = render_depth(pts, K, PoseSE3.identity())
        assert len(d.flat) == 0 and d.flat.dtype == np.int64
        _assert_same_depth_map(d, _render_depth_reference(pts, K, PoseSE3.identity()))

    def test_matches_lexsort_above_two_radix_digits(self):
        # a 70000 x 70000 image: flat indices pass 2**32, three radix
        # passes; pixels that share their low 16 or 32 bits, and repeats
        side = 70000
        K = CameraIntrinsics(fx=5e4, fy=5e4, cx=side / 2, cy=side / 2,
                             width=side, height=side)
        rng = np.random.default_rng(4)
        base = rng.integers(0, side * side - 2**32 - 1, 500)
        flat = np.concatenate([base, base + 2**16, base + 2**32, base[:100]])
        z = np.round(rng.uniform(1.0, 20.0, len(flat)) * 2.0) / 2.0
        uv = np.stack([flat % side, flat // side], axis=1).astype(float)
        pts = np.column_stack([(uv - [K.cx, K.cy]) / [K.fx, K.fy] * z[:, None], z])
        pts = np.vstack([pts, pts[rng.permutation(len(pts))[:300]]])
        z_ref, flat_ref, win_ref = _zbuffer_reference(pts, K, PoseSE3.identity())
        d = render_depth(pts, K, PoseSE3.identity())
        assert flat_ref.max() >= 2**32 and len(flat_ref) == 1500
        assert np.array_equal(d.flat, flat_ref)
        assert np.array_equal(d.source, win_ref)
        assert np.array_equal(d.depth, z_ref[win_ref])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), h=st.integers(1, 40), w=st.integers(1, 60),
           n=st.sampled_from([0, 1, 7, 80, 600]),
           aperture=st.sampled_from([-3.0, 0.0, 0.5, 2.0, 10.0, 45.0, 89.0]),
           window=st.sampled_from([0, 1, 3, 5, 7, 9, 121]))
    def test_occlusion_keywords_match_filter_chain(self, seed, h, w, n, aperture, window):
        K, pts, T = _random_cloud(seed, h, w, n)
        _assert_same_depth_map(render_depth(pts, K, T, aperture, window),
                               remove_occlusions(render_depth(pts, K, T), aperture, window))

    @pytest.mark.parametrize("window,aperture", [(3, 10.0), (7, 10.0), (7, 30.0),
                                                 (9, 2.0), (7, 0.0)])
    def test_occlusion_keywords_match_filter_chain_on_corridor(self, K, K_small, corridor,
                                                               window, aperture):
        gmap, traj = corridor
        for cam in (K, K_small):
            for pose in traj:
                _assert_same_depth_map(
                    render_depth(gmap.points, cam, pose, aperture, window),
                    remove_occlusions(render_depth(gmap.points, cam, pose), aperture, window))

    def test_corridor_matches_dense_reference(self, K, K_small, corridor):
        gmap, traj = corridor
        for cam in (K, K_small):
            for pose in traj:
                _assert_same_depth_map(render_depth(gmap.points, cam, pose),
                                       _render_depth_reference(gmap.points, cam, pose))

    def test_default_keywords_do_not_filter(self, K, corridor):
        gmap, traj = corridor
        d = render_depth(gmap.points, K, traj[0])
        assert len(remove_occlusions(d).flat) < len(d.flat)
        _assert_same_depth_map(d, render_depth(gmap.points, K, traj[0], 0.0))


class TestRemoveOcclusions:
    def test_isolated_pixel_unchanged(self, K):
        d = render_depth(np.array([[0.0, 0.0, 10.0]]), K, PoseSE3.identity())
        out = remove_occlusions(d, 10.0)
        assert len(out.flat) == 1

    def test_two_plane_scene_far_point_culled(self, K):
        # near wall fragment at z=2 with a far point at z=20 leaking
        # through one pixel gap: depth ratio 10 at adjacent pixels
        near = []
        for du in range(-3, 4):
            for dv in range(-3, 4):
                if du == 0 and dv == 0:
                    continue  # leave a hole at the center pixel
                near.append([du * 2.0 / 100.0, dv * 2.0 / 100.0, 2.0])
        far = [[0.0, 0.0, 20.0]]
        pts = np.array(near + far)
        d = render_depth(pts, K, PoseSE3.identity())
        assert dense(d).valid[160, 480] and dense(d).depth[160, 480] == 20.0
        out = dense(remove_occlusions(d, 10.0))
        assert not out.valid[160, 480]

    def test_equal_depth_plane_unchanged(self, K):
        xs = np.linspace(-2, 2, 41)
        pts = np.array([[x, y, 10.0] for x in xs for y in xs])
        d = render_depth(pts, K, PoseSE3.identity())
        out = remove_occlusions(d, 10.0)
        assert len(out.flat) == len(d.flat)

    def test_monotone_never_adds(self, K, corridor):
        gmap, traj = corridor
        d = render_depth(gmap.points, K, traj[0])
        out = remove_occlusions(d, 10.0)
        assert not np.any(dense(out).valid & ~dense(d).valid)

    def test_globally_nearest_point_survives(self, K):
        rng = np.random.default_rng(2)
        for _ in range(5):
            pts = rng.uniform(-1, 1, (2000, 3)) * [10, 4, 1] + [0, 0, 15]
            d = dense(render_depth(pts, K, PoseSE3.identity()))
            out = dense(remove_occlusions(sparse(d), 10.0))
            sel = d.valid
            nearest = d.depth[sel].min()
            rows, cols = np.nonzero(d.valid & (d.depth == nearest))
            assert out.valid[rows[0], cols[0]]

    def test_zero_aperture_is_noop(self, K, corridor):
        gmap, traj = corridor
        d = render_depth(gmap.points, K, traj[0])
        out = remove_occlusions(d, 0.0)
        _assert_same_depth_map(out, d)

    def test_window_wider_than_tiny_image(self):
        # window // 2 exceeds both image sides: every pixel neighbors
        # every other, and out-of-image neighbors count as invalid
        d = _all_valid([[1.0, 1.0], [1.0, 5.0]])
        out = dense(remove_occlusions(d, 10.0, window=7))
        assert out.valid.tolist() == [[True, True], [True, False]]
        assert out.depth.tolist() == [[1.0, 1.0], [1.0, 0.0]]
        assert out.source.tolist() == [[0, 1], [2, -1]]

        far = np.full((4, 4), 10.0)
        far[0, 0] = 2.0  # the one near pixel hides the whole map
        out = dense(remove_occlusions(_all_valid(far), 10.0, window=11))
        expected = np.zeros((4, 4), dtype=bool)
        expected[0, 0] = True
        assert np.array_equal(out.valid, expected)
        assert out.source[0, 0] == 0 and (out.source[~expected] == -1).all()

        flat = _all_valid(np.full((4, 4), 10.0))
        out = remove_occlusions(flat, 10.0, window=11)
        _assert_same_depth_map(out, flat)

    @pytest.mark.parametrize("window,aperture", [(3, 10.0), (5, 10.0),
                                                 (7, 10.0), (7, 30.0), (9, 2.0)])
    def test_matches_dense_reference_on_corridor(self, K, K_small, corridor,
                                                 window, aperture):
        gmap, traj = corridor
        for cam in (K, K_small):
            for pose in traj[::2]:
                d = render_depth(gmap.points, cam, pose)
                _assert_same_depth_map(
                    remove_occlusions(d, aperture, window),
                    _remove_occlusions_reference(dense(d), aperture, window))

    @settings(max_examples=300, deadline=None)
    @given(h=st.integers(4, 40), w=st.integers(4, 60),
           density=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1),
           window=st.integers(1, 9), aperture=st.floats(0.5, 89.0),
           focal=st.floats(10.0, 1000.0))
    def test_matches_dense_reference(self, h, w, density, seed, window,
                                     aperture, focal):
        # integer depths make exact ties common
        rng = np.random.default_rng(seed)
        d = sparse(DenseDepth(np.rint(rng.uniform(1.0, 30.0, (h, w))),
                              rng.random((h, w)) < density,
                              np.arange(h * w, dtype=np.int64).reshape(h, w), focal))
        before = dense(d)
        _assert_same_depth_map(remove_occlusions(d, aperture, window),
                               _remove_occlusions_reference(dense(d), aperture, window))
        _assert_same_depth_map(d, before)

