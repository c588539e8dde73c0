import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack.geometry import PoseSE3, se3_exp
from lidartrack.mapping import (DEFAULT_CELL_SIZE, CropExtents, GlobalMap,
                                crop_local, downsample)
from lidartrack.synth import SceneConfig, generate_scene


def brute_force_crop(points, pose, extents):
    """Reference crop: linear scan applying the box predicate."""
    if len(points) == 0:
        return np.zeros((0, 3))
    R = pose.rotation_matrix()
    fwd = R[2, :].copy()
    fwd[2] = 0.0
    fwd /= np.linalg.norm(fwd)
    lat = np.array([-fwd[1], fwd[0], 0.0])
    d = points - pose.center()
    a = d @ fwd
    b = d @ lat
    keep = (a >= -extents.backward) & (a <= extents.forward) & (np.abs(b) <= extents.lateral)
    return points[keep]


def reference_downsample(gmap, resolution):
    """Reference downsample: voxel rows deduplicated by a row-wise sort."""
    pts = gmap.points
    keys = np.floor(pts / resolution).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                   return_counts=True)
    out = np.zeros((len(counts), 3))
    for axis in range(3):
        out[:, axis] = np.bincount(inverse, weights=pts[:, axis]) / counts
    return GlobalMap.build(out)


def assert_same_map(got, ref):
    assert np.array_equal(got.points, ref.points)
    assert np.array_equal(got._order, ref._order)
    assert np.array_equal(got._keys, ref._keys)


def _clouds():
    rng = np.random.default_rng(6)
    boundary = rng.integers(-50, 50, (600, 3)) * 0.25
    dup = rng.uniform(-3, 3, (200, 3))
    flat = rng.uniform(-20, 20, (800, 3))
    flat[:, 2] = 0.0
    scene = SceneConfig(extent=30.0, ground_density=2.0, facade_density=4.0,
                        pole_count=5, seed=2)
    return {
        "negative": (rng.uniform(-80, -1, (3000, 3)), 0.3),
        "mixed_signs": (rng.normal(0, 40, (3000, 3)), 0.7),
        "voxel_boundaries": (boundary, 0.25),
        "duplicates": (np.repeat(dup, 3, axis=0)[rng.permutation(600)], 0.5),
        "flat_z": (flat, 0.4),
        "single_point": (np.array([[-1.5, 2.25, 7.0]]), 0.1),
        "synth_corridor": (generate_scene(scene), 0.1),
        # the largest grid that fits: 2^21 x 2^21 x (2^21 - 1) cells
        "grid_just_fits": (np.array([[0.0, 0, 0], [2.0 ** 21 - 1, 2.0 ** 21 - 1,
                                                   2.0 ** 21 - 2]]), 1.0),
        "keys_far_from_zero": (np.array([[-2.0 ** 62, 2.0 ** 62, 0],
                                         [-2.0 ** 62 + 5, 2.0 ** 62 - 3, 1]]), 1.0),
    }


CLOUDS = _clouds()


class TestGlobalMap:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.zeros((4, 3))
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            GlobalMap.build(pts)

    def test_flat_input_read_as_rows_of_three(self):
        m = GlobalMap.build([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert m.points.shape == (2, 3) and len(m) == 2
        assert np.array_equal(m.points[1], [4.0, 5.0, 6.0])

    def test_index_orders_ids_by_x_cell(self):
        # the crop index is a permutation of the row ids whose keys, each
        # point's x cell, ascend; ids that share a cell keep map order
        rng = np.random.default_rng(5)
        pts = rng.uniform(-40, 40, (2000, 3))
        pts[:50, 0] = np.round(pts[:50, 0] / DEFAULT_CELL_SIZE) * DEFAULT_CELL_SIZE
        m = GlobalMap.build(pts)
        assert np.array_equal(np.sort(m._order), np.arange(2000))
        assert np.all(np.diff(m._keys) >= 0)
        assert np.array_equal(m._keys, np.floor(pts[m._order, 0] / DEFAULT_CELL_SIZE))
        same_cell = np.diff(m._keys) == 0
        assert np.all(np.diff(m._order)[same_cell] > 0)


class TestDownsample:
    def test_two_points_one_voxel_to_centroid(self):
        m = GlobalMap.build(np.array([[0.01, 0.0, 0.0], [0.03, 0.0, 0.0]]))
        d = downsample(m, 0.1)
        assert len(d) == 1
        assert np.allclose(d.points[0], [0.02, 0.0, 0.0])

    def test_separated_points_unchanged_count(self):
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]])
        assert len(downsample(GlobalMap.build(pts), 0.1)) == 4

    def test_empty_map(self):
        assert len(downsample(GlobalMap.build(np.zeros((0, 3))), 0.1)) == 0

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf, -np.inf])
    def test_invalid_resolution(self, bad):
        # NaN and inf keys used to cast to one int64 voxel for every point
        pts = np.random.default_rng(1).uniform(-5, 5, (1000, 3))
        with pytest.raises(ValueError, match="^resolution must be"):
            downsample(GlobalMap.build(pts), bad)

    @pytest.mark.parametrize("pts,resolution", [
        # 2e18 / 0.1 leaves int64; the cast used to merge it with 1e18
        ([[0.0, 0, 0], [1e18, 0, 0], [2e18, 0, 0]], 0.1),
        # every key fits in int64, but the grid has 2^21 x 2^21 x 2^21 cells
        ([[0.0, 0, 0], [2.0 ** 21 - 1] * 3], 1.0)], ids=["keys", "grid"])
    def test_voxels_outside_int64_rejected(self, pts, resolution):
        with pytest.raises(ValueError, match="^resolution must be coarse enough"):
            downsample(GlobalMap.build(pts), resolution)

    @pytest.mark.parametrize("name", CLOUDS)
    def test_matches_row_wise_reference(self, name):
        pts, resolution = CLOUDS[name]
        m = GlobalMap.build(pts)
        assert_same_map(downsample(m, resolution), reference_downsample(m, resolution))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 300),
           resolution=st.floats(1e-3, 50.0), cells=st.floats(0.0, 7.0))
    def test_matches_row_wise_reference_on_random_clouds(self, seed, n, resolution, cells):
        # clouds 1 to 1e7 voxels across, so some grids reach 2^63 cells
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.5, 0.5, (n, 3)) * 10.0 ** cells * resolution
        # snap some points onto voxel boundaries and repeat some rows
        snap = rng.random(n) < 0.3
        pts[snap] = np.floor(pts[snap] / resolution) * resolution
        pts = np.concatenate([pts, pts[: n // 4]])
        m = GlobalMap.build(pts)
        spans = np.ptp(np.floor(pts / resolution), axis=0) + 1 if len(pts) else [1]
        if math.prod(int(s) for s in spans) < 2 ** 63:
            assert_same_map(downsample(m, resolution), reference_downsample(m, resolution))
        else:
            with pytest.raises(ValueError, match="^resolution must be coarse enough"):
                downsample(m, resolution)

    def test_idempotent_point_count(self):
        rng = np.random.default_rng(2)
        m = GlobalMap.build(rng.uniform(-5, 5, (3000, 3)))
        once = downsample(m, 0.3)
        twice = downsample(once, 0.3)
        assert len(twice) == len(once)

    def test_output_order_independent_of_input_order(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5, 5, (500, 3))
        a = downsample(GlobalMap.build(pts), 0.25)
        b = downsample(GlobalMap.build(pts[rng.permutation(500)]), 0.25)
        assert np.allclose(a.points, b.points)


class TestCrop:
    def test_point_ahead_included(self):
        m = GlobalMap.build(np.array([[50.0, 0.0, 3.0]]))
        pose = _pose_looking_along_x()
        got = crop_local(m, pose, CropExtents(100.0, 10.0, 25.0))
        assert len(got) == 1

    def test_point_behind_excluded(self):
        m = GlobalMap.build(np.array([[-11.0, 0.0, 0.0]]))
        pose = _pose_looking_along_x()
        got = crop_local(m, pose, CropExtents(100.0, 10.0, 25.0))
        assert len(got) == 0

    def test_vertical_unrestricted(self):
        m = GlobalMap.build(np.array([[10.0, 0.0, 500.0]]))
        pose = _pose_looking_along_x()
        assert len(crop_local(m, pose, CropExtents(100.0, 10.0, 25.0))) == 1

    def test_empty_map(self):
        m = GlobalMap.build(np.zeros((0, 3)))
        assert len(crop_local(m, _pose_looking_along_x(), CropExtents())) == 0

    @pytest.mark.parametrize("layout", ["uniform", "corridor_x_descending", "shared_x_cells"])
    @pytest.mark.parametrize("heading", ["any", "+y", "-y"])
    def test_matches_brute_force_on_random_maps(self, layout, heading):
        # the crop returns map rows unchanged and in map order, so it must
        # equal the linear scan exactly, whatever order the ids have in x
        rng = np.random.default_rng(4)
        for trial in range(12):
            n = int(rng.integers(1, 8000))
            pts = rng.uniform(-120, 120, (n, 3))
            if layout == "corridor_x_descending":
                pts[:, 1] *= 27.0 / 120.0
                pts = pts[np.argsort(-pts[:, 0])]
            elif layout == "shared_x_cells":
                pts[:, 0] = rng.integers(-5, 5, n) * DEFAULT_CELL_SIZE
            m = GlobalMap.build(pts)
            if heading == "any":
                pose = se3_exp(rng.uniform(-1, 1, 6) * [1, 1, 1, 50, 50, 5])
            else:
                yaw = np.pi / 2 if heading == "+y" else -np.pi / 2
                yaw += rng.uniform(-0.2, 0.2) * (trial % 2)
                pose = _pose_with_yaw(yaw, rng.uniform(-60, 60, 3))
            extents = CropExtents(float(rng.uniform(20, 110)),
                                  float(rng.uniform(5, 20)),
                                  float(rng.uniform(10, 40)))
            got = crop_local(m, pose, extents)
            ref = brute_force_crop(pts, pose, extents)
            assert np.array_equal(got, ref)

    def test_box_edges_on_cell_boundaries_match_brute_force(self):
        # points and box edges on multiples of the grid's cell size: the
        # cell lookup must not lose a point that lies exactly on an edge
        c = DEFAULT_CELL_SIZE
        g = np.arange(-30, 31) * c
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
        m = GlobalMap.build(pts)
        base = _pose_looking_along_x()
        center = np.array([3 * c, -2 * c, 0.0])
        pose = PoseSE3.from_rt(base.rotation_matrix(), -base.rotation_matrix() @ center)
        extents = CropExtents(8 * c, 2 * c, 5 * c)
        got = crop_local(m, pose, extents)
        ref = brute_force_crop(pts, pose, extents)
        assert len(ref) == 11 * 11
        assert np.array_equal(got, ref)

    def test_validation(self):
        with pytest.raises(ValueError):
            CropExtents(forward=-1.0)


def _pose_looking_along_x():
    # camera at origin, optical axis along +x; columns of the cam->world
    # rotation are (right, down, forward) = (-y, -z, +x)
    R_wc = np.array([[0.0, 0.0, 1.0],
                     [-1.0, 0.0, 0.0],
                     [0.0, -1.0, 0.0]])
    return PoseSE3.from_rt(R_wc.T, np.zeros(3))


def _pose_with_yaw(yaw, center):
    # camera at center, optical axis horizontal at angle yaw from +x
    fwd = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    R_wc = np.column_stack([np.cross(down, fwd), down, fwd])
    return PoseSE3.from_rt(R_wc.T, -R_wc.T @ center)
