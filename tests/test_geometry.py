import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lidartrack.flow import FlowNoiseModel
from lidartrack.geometry import (DEFAULT_PERTURB, MIN_DEPTH, CameraIntrinsics,
                                 PerturbBounds, PoseSE3, _skew,
                                 perturb_pose, pose_error,
                                 SERIES_ANGLE, project_points, reprojection_jacobian,
                                 se3_exp, se3_exp_rows, se3_log)
from lidartrack.joint import EnergyConfig
from lidartrack.mapping import CropExtents
from lidartrack.pnp import RansacConfig
from lidartrack.synth import SceneConfig, TrajectoryConfig, VoOracleConfig
from lidartrack.tracker import TrackerConfig


def rotz(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), -math.sin(a), 0.0],
                     [math.sin(a), math.cos(a), 0.0],
                     [0.0, 0.0, 1.0]])


def project_one(K, p_cam):
    """(uv (2,), in_front) of one camera-frame point through project_points."""
    uv, in_front = project_points(K, p_cam)
    assert uv.shape == (1, 2) and in_front.shape == (1,)
    return uv[0], bool(in_front[0])


class TestProjection:
    def test_optical_axis_to_principal_point(self, K):
        uv, in_front = project_one(K, [0, 0, 10])
        assert in_front and np.allclose(uv, [480.0, 160.0])

    def test_off_axis(self, K):
        # u = 100*1/10 + 480, v = 100*2/10 + 160
        uv, in_front = project_one(K, [1, 2, 10])
        assert in_front and np.allclose(uv, [490.0, 180.0])

    def test_behind_camera_is_not_in_front(self, K):
        assert not project_one(K, [0, 0, -1.0])[1]
        assert not project_one(K, [0, 0, 0.0])[1]

    def test_no_bounds_clamping(self, K):
        uv, in_front = project_one(K, [100.0, 0, 1.0])
        assert in_front and uv[0] > K.width  # falls outside, not clamped

    # h, the full camera projection world -> pixel, is PoseSE3.apply
    # followed by project_points
    def test_h_project_identity_equals_project(self, K):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(-5, 5, 3) + [0, 0, 10]
            a, b = project_one(K, PoseSE3.identity().apply(p)), project_one(K, p)
            assert np.array_equal(a[0], b[0]) and a[1] and b[1]

    def test_h_project_translation(self, K):
        T = PoseSE3(np.eye(3), [0, 0, -5.0])
        uv, in_front = project_one(K, T.apply([0, 0, 10]))
        assert in_front and np.allclose(uv, [480.0, 160.0])

    def test_h_project_behind(self, K):
        T = PoseSE3(np.eye(3), [0, 0, -20.0])
        assert not project_one(K, T.apply([0, 0, 10.0]))[1]

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1, fy=1, cx=1, cy=1, width=10, height=10)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1, fy=1, cx=20, cy=1, width=10, height=10)

    @pytest.mark.parametrize("field,bad", [
        ("fx", float("nan")), ("fx", float("inf")), ("fy", float("nan")),
        ("fy", float("inf")), ("cx", float("nan")), ("cx", float("inf")),
        ("cy", float("nan")), ("cy", float("-inf")),
        ("width", 20.7), ("width", 20.0), ("width", True),
        ("height", 20.7), ("height", 20.0), ("height", True)])
    def test_intrinsics_reject_bad_value_naming_field(self, field, bad):
        good = dict(fx=100.0, fy=100.0, cx=10.0, cy=10.0, width=20, height=20)
        with pytest.raises(ValueError, match=field):
            CameraIntrinsics(**dict(good, **{field: bad}))

    def test_intrinsics_accept_numpy_integer_size(self):
        K = CameraIntrinsics(fx=100.0, fy=100.0, cx=10.0, cy=10.0,
                             width=np.int64(20), height=np.int32(20))
        assert K.width == 20 and K.height == 20


class TestTransform:
    def test_identity(self):
        assert np.allclose(PoseSE3.identity().apply([1, 2, 3]), [1, 2, 3])

    def test_pure_translation(self):
        T = PoseSE3(np.eye(3), [0, 0, 5.0])
        assert np.allclose(T.apply([0, 0, 0]), [0, 0, 5])

    def test_rotation_90_about_z(self):
        T = PoseSE3.from_rt(rotz(90.0), [0, 0, 0])
        assert np.allclose(T.apply([1, 0, 0]), [0, 1, 0], atol=1e-12)


class TestPoseIsImmutable:
    """The rotation matrix and ``t`` are read-only, so that a pose object
    stands for one value."""

    def test_arrays_reject_in_place_writes(self):
        T = se3_exp([0.1, -0.2, 0.3, 1.0, 2.0, -0.5])
        for a in (T.rotation_matrix(), T.t):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0

    def test_constructor_leaves_its_arguments_writeable(self):
        R, t = np.eye(3), np.array([1.0, 2.0, 3.0])
        T = PoseSE3(R, t)
        R[0, 0] = 2.0
        t[0] = 2.0
        assert T.rotation_matrix()[0, 0] == 1.0 and T.t[0] == 1.0


class TestPoseConstructors:
    @pytest.mark.parametrize("make", [PoseSE3, PoseSE3.from_rt], ids=["constructor", "from_rt"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_input_raises(self, make, bad):
        R = np.eye(3)
        R[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite rotation"):
            make(R, np.zeros(3))
        with pytest.raises(ValueError, match="non-finite rotation"):
            make(np.full((3, 3), bad), np.zeros(3))
        with pytest.raises(ValueError, match="non-finite translation"):
            make(np.eye(3), [0.0, bad, 0.0])

    def test_from_rt_projects_onto_a_rotation(self):
        # 1e-7 off a rotation is inside the KITTI loader's 1e-6 tolerance
        rng = np.random.default_rng(3)
        eps = np.finfo(float).eps
        for _ in range(200):
            R0 = se3_exp(np.concatenate([rng.uniform(-3.0, 3.0, 3), np.zeros(3)]))
            R = R0.rotation_matrix() + 1e-7 * rng.standard_normal((3, 3))
            Q = PoseSE3.from_rt(R, np.zeros(3)).rotation_matrix()
            assert np.abs(Q.T @ Q - np.eye(3)).max() <= 4 * eps
            assert np.linalg.det(Q) > 0.0
            assert np.abs(Q - R0.rotation_matrix()).max() < 1e-6

    def test_from_rt_of_a_reflection_is_a_rotation(self):
        Q = PoseSE3.from_rt(np.diag([1.0, 1.0, -1.0]), np.zeros(3)).rotation_matrix()
        assert np.linalg.det(Q) > 0.0
        assert np.abs(Q.T @ Q - np.eye(3)).max() <= 4 * np.finfo(float).eps


class TestGroupOps:
    def test_compose_identity(self):
        b = se3_exp([0.1, -0.2, 0.3, 1.0, 2.0, -0.5])
        c = PoseSE3.identity().compose(b)
        assert np.allclose(c.rotation_matrix(), b.rotation_matrix(), atol=1e-15)
        assert np.allclose(c.t, b.t, atol=1e-15)

    def test_inverse_identity(self):
        inv = PoseSE3.identity().inverse()
        assert np.allclose(inv.rotation_matrix(), np.eye(3))
        assert np.allclose(inv.t, 0)

    @settings(max_examples=300, deadline=None)
    @given(xi=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
    def test_compose_with_inverse(self, xi):
        T = se3_exp(xi)
        I = T.compose(T.inverse())
        assert np.abs(I.rotation_matrix() - np.eye(3)).max() < 1e-9
        assert pose_error(I, PoseSE3.identity())[0] < 1e-9
        assert np.linalg.norm(I.t) < 1e-9

    def test_rotation_stays_normalized(self):
        rng = np.random.default_rng(4)
        T = PoseSE3.identity()
        for _ in range(2000):
            T = T.compose(se3_exp(rng.uniform(-0.1, 0.1, 6)))
        R = T.rotation_matrix()
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12


# a rotation axis as (polar, azimuth) angles, and a translation block
AXES = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
TRANSLATIONS = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)


def twist(angle, axis, rho):
    """The twist (6,) rotating by ``angle`` about the (polar, azimuth) axis."""
    polar, azimuth = axis
    u = [math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth),
         math.cos(polar)]
    return np.concatenate([angle * np.array(u), rho])


def principal_twist(angle, axis, rho):
    """``twist``, where the rotation block's length as ``se3_exp_rows``
    rounds it stays below pi: a block that reaches pi turns by pi or more,
    and its log lies on the other side."""
    xi = twist(angle, axis, rho)
    assume(math.sqrt(xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2]) < math.pi)
    return xi


def assert_log_inverts_exp(angle, axis, rho):
    xi = principal_twist(angle, axis, rho)
    assert np.abs(se3_log(se3_exp(xi)) - xi).max() < 1e-14


class TestExpLog:
    def test_zero_is_identity(self):
        T = se3_exp(np.zeros(6))
        assert np.array_equal(T.rotation_matrix(), np.eye(3))
        assert np.allclose(T.t, 0)

    def test_zero_rotation_block_is_pure_translation(self):
        T = se3_exp([0, 0, 0, 1.0, 2.0, 3.0])
        assert np.allclose(T.t, [1, 2, 3])
        assert np.array_equal(T.rotation_matrix(), np.eye(3))

    @settings(max_examples=300, deadline=None)
    @given(angle=st.floats(0.0, math.pi, exclude_max=True), axis=AXES, rho=TRANSLATIONS)
    def test_roundtrip_random(self, angle, axis, rho):
        assert_log_inverts_exp(angle, axis, rho)

    @settings(max_examples=100, deadline=None)
    @given(angle=st.floats(math.pi - 1e-3, math.pi, exclude_max=True), axis=AXES,
           rho=TRANSLATIONS)
    def test_roundtrip_near_pi(self, angle, axis, rho):
        assert_log_inverts_exp(angle, axis, rho)

    @pytest.mark.parametrize("axis", [(0.0, 0.0), (math.pi / 2, 0.0),
                                      (math.pi / 2, math.pi / 2), (math.pi / 2, math.pi)])
    def test_roundtrip_just_below_pi(self, axis):
        # where cos < 0 the log takes the axis from the symmetric part and
        # its sign from the antisymmetric part, which is ~1e-15 here
        angle = np.nextafter(math.pi, 0.0)
        xi = twist(angle, axis, [1.0, -2.0, 0.5])
        assert np.linalg.norm(xi[:3]) == angle
        assert np.abs(se3_log(se3_exp(xi)) - xi).max() < 1e-14

    def test_small_angle_branch(self):
        xi = np.array([1e-10, -2e-10, 1e-10, 0.5, -0.5, 0.25])
        assert np.linalg.norm(se3_log(se3_exp(xi)) - xi) < 1e-15


class TestExpRows:
    """``se3_exp_rows``, the stacked exp of RANSAC's minimal fits."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-12, math.pi),
                                             st.floats(1e-6, 1e-3)),
                                   AXES, TRANSLATIONS), min_size=1, max_size=64))
    def test_rows_are_independent(self, rows):
        xi = np.array([twist(*row) for row in rows])
        R, t = se3_exp_rows(xi)
        assert R.shape == (len(rows), 3, 3) and t.shape == (len(rows), 3)
        for i in range(len(rows)):
            R_i, t_i = se3_exp_rows(xi[i:i + 1])
            assert np.array_equal(R[i], R_i[0]) and np.array_equal(t[i], t_i[0])

    @settings(max_examples=300, deadline=None)
    @given(angle=st.floats(SERIES_ANGLE, math.pi, exclude_max=True), axis=AXES,
           rho=TRANSLATIONS)
    def test_log_inverts_the_closed_form(self, angle, axis, rho):
        # (1 - cos t) / t^2 in closed form would cancel to ~eps / t^2 here,
        # ~1e-12 of error in the translation at t = 1e-4
        xi = principal_twist(angle, axis, rho)
        R, t = se3_exp_rows(xi[None])
        assert np.abs(se3_log(PoseSE3(R[0], t[0])) - xi).max() < 1e-14

    @settings(max_examples=300, deadline=None)
    @given(angle=st.floats(1e-8, SERIES_ANGLE, exclude_max=True), axis=AXES,
           rho=TRANSLATIONS)
    def test_series_keeps_small_angles_accurate(self, angle, axis, rho):
        # the closed form (1 - cos t) / t^2 would cancel to ~eps / t^2 here,
        # up to 1e-8 of error in the translation at t = 1e-8
        xi = twist(angle, axis, rho)
        R, t = se3_exp_rows(xi[None])
        assert np.abs(se3_log(PoseSE3(R[0], t[0])) - xi).max() < 1e-14


class TestPoseError:
    def test_equal_poses(self):
        T = se3_exp([0.2, 0.1, -0.3, 4, 5, 6])
        rot, transl = pose_error(T, T)
        assert rot < 1e-12 and transl < 1e-12

    def test_pure_translation_offset(self):
        a = se3_exp([0.3, -0.1, 0.2, 1, 2, 3])
        # shift the camera center 1 m along world x, same orientation
        R = a.rotation_matrix()
        b = PoseSE3(R, -(R @ (a.center() + [1.0, 0, 0])))
        rot, transl = pose_error(a, b)
        assert rot < 1e-9
        assert abs(transl - 1.0) < 1e-9

    def test_pure_rotation_about_y(self):
        a = se3_exp([0.1, 0.2, -0.1, 1, -2, 0.5])
        turn = PoseSE3.from_rotvec([0, math.radians(10.0), 0], [0, 0, 0])
        R_new = a.compose(turn).rotation_matrix()
        b = PoseSE3(R_new, -(R_new @ a.center()))  # keep the center
        rot, transl = pose_error(a, b)
        assert abs(rot - 10.0) < 1e-9
        assert transl < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = se3_exp(rng.uniform(-1, 1, 6))
            b = se3_exp(rng.uniform(-1, 1, 6))
            ra, ta = pose_error(a, b)
            rb, tb = pose_error(b, a)
            assert abs(ra - rb) < 1e-12
            assert abs(ta - tb) < 1e-12


class TestPerturb:
    def test_zero_bounds_is_identity(self):
        T = se3_exp([0.4, -0.2, 0.1, 10, -5, 2])
        P = perturb_pose(T, PerturbBounds(0.0, 0.0), seed=123)
        rot, transl = pose_error(T, P)
        assert rot < 1e-12 and transl < 1e-12

    def test_deterministic_per_seed(self):
        T = se3_exp([0.1, 0.2, 0.3, 1, 2, 3])
        a = perturb_pose(T, DEFAULT_PERTURB, seed=99)
        b = perturb_pose(T, DEFAULT_PERTURB, seed=99)
        assert np.array_equal(a.matrix(), b.matrix())
        c = perturb_pose(T, DEFAULT_PERTURB, seed=100)
        assert not np.array_equal(a.t, c.t)

    def test_generator_seed_matches_integer_seed(self):
        # a Generator passes through np.random.default_rng unchanged
        T = se3_exp([0.1, 0.2, 0.3, 1, 2, 3])
        a = perturb_pose(T, DEFAULT_PERTURB, seed=7)
        b = perturb_pose(T, DEFAULT_PERTURB, seed=np.random.default_rng(7))
        assert np.array_equal(a.matrix(), b.matrix())

    def test_error_equals_drawn_magnitudes(self):
        # the disturbance is applied about the camera center, so the
        # reported errors factor exactly into the drawn offsets
        T = se3_exp([0.5, -0.4, 0.2, 3, -7, 1])
        rng = np.random.default_rng(11)
        bounds = PerturbBounds(2.0, 10.0)
        for seed in range(20):
            P = perturb_pose(T, bounds, seed)
            rot, transl = pose_error(T, P)
            assert rot <= math.degrees(math.radians(10.0) * math.sqrt(3)) + 1e-9
            assert transl <= 2.0 * math.sqrt(3) + 1e-9

    def test_calibration_against_reported_initial_pose_errors(self):
        # mean disturbance magnitudes with the default +-2 m / +-10 deg
        # bounds must land near 9.67 deg / 182.8 cm (within +-15%)
        T = se3_exp([0.1, 0.3, -0.2, 5, 5, 1])
        errs = np.array([pose_error(T, perturb_pose(T, DEFAULT_PERTURB, s))
                         for s in range(10000)])
        mean_rot = errs[:, 0].mean()
        mean_transl_cm = errs[:, 1].mean() * 100.0
        assert 9.67 * 0.85 <= mean_rot <= 9.67 * 1.15
        assert 182.8 * 0.85 <= mean_transl_cm <= 182.8 * 1.15


def _reprojection_jacobian_reference(K, R, t, P):
    """The product form of the Jacobian: d p_cam / d xi = R @ [-[P]x | I]
    chained through d uv / d p_cam, one stacked 2x3 @ 3x6 product per
    point.  Returns J (N, 2, 6)."""
    cam = P @ R.T + t
    x, y, z = cam[:, 0], cam[:, 1], cam[:, 2]
    dcam = np.empty((len(P), 3, 6))
    dcam[:, :, :3] = R @ -_skew(P)
    dcam[:, :, 3:] = R
    dpi = np.zeros((len(P), 2, 3))
    iz = 1.0 / z
    dpi[:, 0, 0] = K.fx * iz
    dpi[:, 0, 2] = -K.fx * x * iz * iz
    dpi[:, 1, 1] = K.fy * iz
    dpi[:, 1, 2] = -K.fy * y * iz * iz
    return dpi @ dcam


_K_LONG = CameraIntrinsics(fx=1e5, fy=1e5, cx=240.0, cy=80.0, width=480, height=160)


class TestJacobian:
    @pytest.mark.parametrize("camera", ["paper", "long"])
    def test_matches_product_form(self, K, camera):
        # Each entry is a short sum of products of world coordinates and of
        # g = d uv / d p_cam . R, rounded in another order than the product
        # form rounds it.  Per point, the two must agree to 8 eps (1 + |P|) |g|,
        # |g| the largest translation-block entry; the largest gap over
        # these cases is 2.4 eps (1 + |P|) |g|, and 2.5 eps of the largest
        # |J| of a call.
        K = K if camera == "paper" else _K_LONG
        eps = np.finfo(float).eps
        rng = np.random.default_rng(21)
        for _ in range(400):
            xi = rng.uniform(-3.0, 3.0, 6) * [1, 1, 1, 10, 10, 10]
            T = se3_exp(xi)
            n = int(rng.integers(1, 60))
            cam = np.column_stack([rng.uniform(-20, 20, n), rng.uniform(-6, 6, n),
                                   10.0 ** rng.uniform(-3, 2, n)])
            P = T.inverse().apply(cam)
            uv, z, J = reprojection_jacobian(K, T, P)
            ref = _reprojection_jacobian_reference(K, T.rotation_matrix(), T.t, P)
            uv_ref, _ = project_points(K, T.apply(P))
            assert np.array_equal(uv, uv_ref) and np.array_equal(z, T.apply(P)[:, 2])
            scale = (1.0 + np.abs(P).max(axis=1)) * np.abs(ref[:, :, 3:]).max(axis=(1, 2))
            assert np.all(np.abs(J - ref).max(axis=(1, 2)) <= 8 * eps * scale)

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 64), n=st.integers(1, 50))
    def test_stacked_rows_equal_single_pose_form(self, seed, b, n):
        # points at and behind MIN_DEPTH too: their rows are undefined, but
        # still the same bits in both forms; an identity pose keeps the
        # camera-frame depths exact
        rng = np.random.default_rng(seed)
        poses = [PoseSE3.identity() if rng.random() < 0.25
                 else se3_exp(rng.uniform(-1.0, 1.0, 6) * [1, 1, 1, 5, 5, 5])
                 for _ in range(b)]
        cam = rng.uniform([-20.0, -6.0, 0.01], [20.0, 6.0, 60.0], (b, n, 3))
        special = rng.random((b, n)) < 0.2
        cam[special, 2] = rng.choice([MIN_DEPTH, 0.0, -MIN_DEPTH, -5.0], special.sum())
        P = np.array([T.inverse().apply(c) for T, c in zip(poses, cam)])
        R = np.array([T.rotation_matrix() for T in poses])
        t = np.array([T.t for T in poses])
        uv, z, J = reprojection_jacobian(_K_LONG, (R, t), P)
        assert uv.shape == (b, n, 2) and z.shape == (b, n) and J.shape == (b, n, 2, 6)
        for k, T in enumerate(poses):
            uv1, z1, J1 = reprojection_jacobian(_K_LONG, T, P[k])
            assert np.array_equal(uv[k], uv1, equal_nan=True)
            assert np.array_equal(z[k], z1)
            assert np.array_equal(J[k], J1, equal_nan=True)

    def test_matches_central_differences(self, K):
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(25):
            T = se3_exp(rng.uniform(-0.5, 0.5, 6))
            P = rng.uniform(-10, 10, (15, 3)) + [0, 0, 30]
            uv, z, J = reprojection_jacobian(K, T, P)
            assert np.all(z > 0)
            J_fd = np.zeros_like(J)
            for k in range(6):
                step = np.zeros(6)
                step[k] = h
                up, _ = project_points(K, T.compose(se3_exp(step)).apply(P))
                dn, _ = project_points(K, T.compose(se3_exp(-step)).apply(P))
                J_fd[:, :, k] = (up - dn) / (2 * h)
            rel = np.abs(J - J_fd).max() / max(np.abs(J_fd).max(), 1.0)
            assert rel < 1e-4


_K20 = CameraIntrinsics(fx=100.0, fy=100.0, cx=10.0, cy=10.0, width=20, height=20)

# one valid instance of every config dataclass
CONFIGS = [_K20, PerturbBounds(1.0, 1.0), CropExtents(), SceneConfig(),
           TrajectoryConfig(), VoOracleConfig(), FlowNoiseModel(), RansacConfig(),
           EnergyConfig(), TrackerConfig(camera=_K20)]

# values of the wrong type for each numeric annotation
WRONG = {"float": [float("nan"), float("inf"), -float("inf"), True, "1.0", None],
         "int": [2.5, 20.0, True, False, "1", None]}

FIELD_CASES = [pytest.param(cfg, f.name, bad, id=f"{type(cfg).__name__}-{f.name}-{bad!r}")
               for cfg in CONFIGS for f in dataclasses.fields(cfg)
               for bad in WRONG.get(getattr(f.type, "__name__", f.type), ())]

# the range rule every config field declares; each must name its field
RANGE_RULES = [
    (_K20, "positive", ("fx", "fy")),
    (PerturbBounds(1.0, 1.0), "non_negative", ("max_transl_per_axis", "max_rot_per_axis_deg")),
    (CropExtents(), "positive", ("forward", "backward", "lateral")),
    (SceneConfig(), "positive", ("extent",)),
    (SceneConfig(), "non_negative", ("ground_density", "facade_density", "pole_count")),
    (TrajectoryConfig(), "positive", ("frame_count",)),
    (VoOracleConfig(), "non_negative", ("rot_drift_sigma_deg", "transl_drift_sigma")),
    (FlowNoiseModel(), "non_negative", ("gaussian_sigma", "outlier_magnitude")),
    (FlowNoiseModel(), "unit", ("outlier_fraction", "dropout_fraction")),
    (RansacConfig(), "positive", ("max_iters", "inlier_threshold")),
    (RansacConfig(), "non_negative", ("min_inliers",)),
    (EnergyConfig(), "positive", ("huber_delta", "max_iters")),
    (EnergyConfig(), "non_negative", ("w_consist", "w_reproj", "lambda0", "rel_tol")),
    (TrackerConfig(camera=_K20), "positive", ("consist_point_cap", "reproj_point_cap")),
    (TrackerConfig(camera=_K20), "non_negative", ("loose_reproj_threshold", "occlusion_window")),
]

# per rule: its message, values out of range, and boundary values it accepts
# (an int field under "positive" must be at least 1)
RULE_CASES = {"positive": ("positive", (0, -1), (1,)),
              "non_negative": ("non-negative", (-1,), (0,)),
              "unit": ("in [0, 1]", (-0.1, 1.5), (0, 1))}


def _range_cases(accepted):
    """(config, field, value cast to the field's type, message end) cases."""
    cases = []
    for cfg, rule, names in RANGE_RULES:
        text, bad, good = RULE_CASES[rule]
        types = {f.name: {"float": float, "int": int}.get(f.type)
                 for f in dataclasses.fields(cfg)}
        cases += [pytest.param(cfg, name, types[name](v), text,
                               id=f"{type(cfg).__name__}-{name}-{types[name](v)!r}")
                  for name in names for v in (good if accepted else bad)]
    return cases


class TestConfigFields:
    """Every config dataclass checks its numeric fields by annotation."""

    def test_every_config_has_numeric_fields(self):
        covered = {case.values[0].__class__ for case in FIELD_CASES}
        assert covered == {type(cfg) for cfg in CONFIGS} and len(covered) == 10

    @pytest.mark.parametrize("cfg,field,bad", FIELD_CASES)
    def test_wrong_type_raises_naming_field(self, cfg, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            dataclasses.replace(cfg, **{field: bad})

    def test_range_rules_field_count(self):
        assert sum(len(names) for _, _, names in RANGE_RULES) == 31

    @pytest.mark.parametrize("cfg,field,bad,text", _range_cases(accepted=False))
    def test_out_of_range_raises_naming_field(self, cfg, field, bad, text):
        with pytest.raises(ValueError, match=rf"^{field} must be {re.escape(text)}$"):
            dataclasses.replace(cfg, **{field: bad})

    @pytest.mark.parametrize("cfg,field,value,text", _range_cases(accepted=True))
    def test_range_boundary_accepted(self, cfg, field, value, text):
        assert getattr(dataclasses.replace(cfg, **{field: value}), field) == value

    @pytest.mark.parametrize("make,field", [
        (lambda: dataclasses.replace(_K20, cx=20.0), "cx"),
        (lambda: dataclasses.replace(_K20, cy=0.0), "cy"),
        (lambda: TrajectoryConfig(profile="zigzag"), "profile"),
        (lambda: TrackerConfig(camera=_K20, mode="warp_drive"), "mode"),
        (lambda: RansacConfig(confidence=1.0), "confidence"),
        (lambda: EnergyConfig(w_consist=0.0, w_reproj=0.0), "w_consist"),
        (lambda: TrackerConfig(camera=_K20, occlusion_aperture_deg=90.0),
         "occlusion_aperture_deg")],
        ids=["cx", "cy", "profile", "mode", "confidence", "both-weights-zero",
             "aperture-90"])
    def test_other_rules_name_their_field(self, make, field):
        with pytest.raises(ValueError, match=rf"^{field} "):
            make()

    @pytest.mark.parametrize("cfg", [c for c in CONFIGS if hasattr(c, "seed")],
                             ids=lambda c: type(c).__name__)
    def test_negative_seed_rejected(self, cfg):
        with pytest.raises(ValueError, match="^seed must be non-negative"):
            dataclasses.replace(cfg, seed=-1)
        assert dataclasses.replace(cfg, seed=np.int64(7)).seed == 7

    def test_integral_values_accepted(self):
        # ints fill float fields, numpy scalars fill both
        assert CropExtents(forward=100, backward=np.float64(5.0)).forward == 100
        assert RansacConfig(max_iters=np.int32(10)).max_iters == 10
