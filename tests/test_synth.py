import numpy as np
import pytest

from lidartrack.geometry import pose_error
from lidartrack.synth import (CAMERA_HEIGHT, FACADE_HEIGHT, SceneConfig,
                              TrajectoryConfig, VoOracleConfig, generate_scene,
                              generate_trajectory, integrate_relatives,
                              vo_oracle)


class TestScene:
    def test_nonempty_and_height_bounded(self):
        pts = generate_scene(SceneConfig(extent=50.0, seed=0))
        assert len(pts) > 1000
        assert pts[:, 2].min() >= 0.0
        assert pts[:, 2].max() <= FACADE_HEIGHT

    def test_zero_densities_empty(self):
        cfg = SceneConfig(extent=50.0, ground_density=0.0, facade_density=0.0,
                          pole_count=0, seed=0)
        assert len(generate_scene(cfg)) == 0

    def test_deterministic(self):
        a = generate_scene(SceneConfig(extent=40.0, seed=7))
        b = generate_scene(SceneConfig(extent=40.0, seed=7))
        assert np.array_equal(a, b)
        c = generate_scene(SceneConfig(extent=40.0, seed=8))
        assert a.shape != c.shape or not np.allclose(a, c)

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(extent=0.0)
        with pytest.raises(ValueError):
            SceneConfig(ground_density=-1.0)


class TestTrajectory:
    def test_straight_positions(self):
        traj = generate_trajectory(TrajectoryConfig(frame_count=10, speed=1.0,
                                                    profile="straight"))
        centers = np.array([p.center() for p in traj])
        assert np.allclose(centers[:, 0], np.arange(10))
        assert np.allclose(centers[:, 1], 0.0)
        assert np.allclose(centers[:, 2], CAMERA_HEIGHT)

    def test_consecutive_step_equals_speed(self):
        traj = generate_trajectory(TrajectoryConfig(frame_count=50, speed=0.73,
                                                    turn_rate_deg=2.0, profile="arc"))
        centers = np.array([p.center() for p in traj])
        steps = np.linalg.norm(np.diff(centers, axis=0), axis=1)
        assert np.allclose(steps, 0.73, atol=1e-9)

    def test_arc_heading_closes_after_full_circle(self):
        traj = generate_trajectory(TrajectoryConfig(frame_count=361, speed=1.0,
                                                    turn_rate_deg=1.0, profile="arc"))
        rot, _ = pose_error(traj[0], traj[360])
        assert rot < 1e-6

    def test_single_frame(self):
        traj = generate_trajectory(TrajectoryConfig(frame_count=1))
        assert len(traj) == 1

    def test_s_curve_returns_to_initial_heading(self):
        traj = generate_trajectory(TrajectoryConfig(frame_count=41, speed=1.0,
                                                    turn_rate_deg=1.5,
                                                    profile="s_curve"))
        # equal and opposite turn phases cancel by the last frame
        rot, _ = pose_error(traj[0], traj[-1])
        assert rot < 1.5 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(frame_count=0)
        with pytest.raises(ValueError):
            TrajectoryConfig(profile="zigzag")


class TestVoOracle:
    def test_zero_sigma_reproduces_gt(self):
        gt = generate_trajectory(TrajectoryConfig(frame_count=30, speed=1.0,
                                                  turn_rate_deg=1.0, profile="arc"))
        rels = vo_oracle(gt, VoOracleConfig())
        assert len(rels) == 29
        rebuilt = integrate_relatives(gt[0], rels)
        for a, b in zip(rebuilt, gt):
            rot, transl = pose_error(a, b)
            assert rot < 1e-9 and transl < 1e-9

    def test_single_pose_empty(self):
        gt = generate_trajectory(TrajectoryConfig(frame_count=1))
        assert vo_oracle(gt, VoOracleConfig()) == []

    def test_deterministic(self):
        gt = generate_trajectory(TrajectoryConfig(frame_count=10, speed=1.0))
        a = vo_oracle(gt, VoOracleConfig(transl_drift_sigma=0.1, seed=3))
        b = vo_oracle(gt, VoOracleConfig(transl_drift_sigma=0.1, seed=3))
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.matrix(), rb.matrix())

    def test_drift_grows_like_sqrt_n(self):
        # random-walk accumulation: mean endpoint error at frame 400 over
        # frame 40 approaches sqrt(10), checked within +-30%
        gt = generate_trajectory(TrajectoryConfig(frame_count=401, speed=1.0))
        e40, e400 = [], []
        for seed in range(100):
            rels = vo_oracle(gt, VoOracleConfig(transl_drift_sigma=0.05, seed=seed))
            rebuilt = integrate_relatives(gt[0], rels)
            e40.append(pose_error(rebuilt[40], gt[40])[1])
            e400.append(pose_error(rebuilt[400], gt[400])[1])
        ratio = np.mean(e400) / np.mean(e40)
        assert np.sqrt(10.0) * 0.7 <= ratio <= np.sqrt(10.0) * 1.3

    def test_validation(self):
        with pytest.raises(ValueError):
            VoOracleConfig(rot_drift_sigma_deg=-0.1)
