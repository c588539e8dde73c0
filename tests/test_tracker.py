import numpy as np
import pytest

from lidartrack.flow import FlowNoiseModel
from lidartrack.geometry import (CameraIntrinsics, PerturbBounds, PoseSE3,
                                 perturb_pose, pose_error)
from lidartrack.joint import EnergyConfig
from lidartrack.mapping import CropExtents, GlobalMap, downsample
from lidartrack.pnp import RansacConfig
from lidartrack.synth import (SceneConfig, TrajectoryConfig, VoOracleConfig,
                              generate_scene, generate_trajectory,
                              integrate_relatives, vo_oracle)
from lidartrack.tracker import (DIAGNOSTIC_COLUMNS, Scenario, Tracker,
                                TrackerConfig, build_scenario,
                                write_diagnostics_csv)


@pytest.fixture(scope="module")
def small_world(K_small):
    scene = generate_scene(SceneConfig(extent=60.0, ground_density=10.0,
                                       facade_density=40.0, pole_count=30, seed=5))
    gmap = downsample(GlobalMap.build(scene), 0.1)
    gt = generate_trajectory(TrajectoryConfig(frame_count=12, speed=1.0, seed=5))
    vo = vo_oracle(gt, VoOracleConfig(seed=5))
    return gmap, gt, vo


def make_config(K, mode, **kw):
    defaults = dict(camera=K, mode=mode, crop=CropExtents(50.0, 10.0, 20.0),
                    occlusion_window=5)
    defaults.update(kw)
    return TrackerConfig(**defaults)


class TestInit:
    def test_initial_state(self, K_small):
        T0 = perturb_pose(PoseSE3.identity(), PerturbBounds(1, 5), 0)
        state = Tracker(make_config(K_small, "multi_view")).init(T0)
        assert state.history == []
        assert not state.failed
        assert np.array_equal(state.T_init_next.q, T0.q)

    def test_no_steps_empty_trajectory(self, K_small, small_world):
        gmap, gt, vo = small_world
        scen = Scenario(lidar_map=gmap, gt_poses=[], vo_relatives=[])
        res = Tracker(make_config(K_small, "multi_view")).run(scen)
        assert res.complete and len(res.trajectory) == 0


class TestMultiView:
    def test_noiseless_tracking_accuracy(self, K_small, small_world):
        gmap, gt, _ = small_world
        scen = Scenario(lidar_map=gmap, gt_poses=gt)
        res = Tracker(make_config(K_small, "multi_view")).run(scen)
        assert res.complete
        assert len(res.trajectory) == len(gt)
        errs = np.array([pose_error(a, b) for a, b in zip(res.trajectory.poses, gt)])
        assert errs[:, 0].max() < 0.1
        assert errs[:, 1].max() < 0.05

    def test_propagation_contract(self, K_small, small_world):
        # after a step, the carried initial pose is exactly T_next_star
        gmap, gt, _ = small_world
        tracker = Tracker(make_config(K_small, "multi_view"))
        state = tracker.init(gt[0])
        state, pair, _ = tracker.step_multi_view(state, gmap, gt[0], gt[1])
        assert pair is not None
        assert np.array_equal(state.T_init_next.q, pair[1].q)
        assert np.array_equal(state.T_init_next.t, pair[1].t)
        assert len(state.history) == 1

    def test_stationary_fixed_point(self, K_small, small_world):
        # all GT poses equal: the carried pose stays put apart from the
        # sub-pixel anchor quantization floor (~z/f per 0.5 px, mm scale)
        gmap, _, _ = small_world
        T = generate_trajectory(TrajectoryConfig(frame_count=1, seed=5))[0]
        gt = [T] * 6
        scen = Scenario(lidar_map=gmap, gt_poses=gt)
        res = Tracker(make_config(K_small, "multi_view")).run(scen)
        assert res.complete
        errs = [pose_error(p, T)[1] for p in res.trajectory.poses]
        assert max(errs) < 0.01
        assert errs[-1] < 2 * max(np.mean(errs[:3]), 0.005)  # no wander

    def test_total_flow_death_fails_at_frame(self, K_small, small_world):
        # all channels dead from frame 5 onward: the tracker estimates
        # frames 0..4 and declares failure at frame 5
        gmap, gt, _ = small_world
        scen = Scenario(lidar_map=gmap, gt_poses=gt,
                        flow_kill_frames=frozenset(range(5, len(gt))))
        res = Tracker(make_config(K_small, "multi_view")).run(scen)
        assert not res.complete
        assert len(res.trajectory) == 5

    def test_depth_outage_bridged_by_consistency(self, K_small, small_world):
        # image-to-depth channels die for three frames but the image flow
        # survives; tracking completes through the outage
        gmap, gt, _ = small_world
        scen = Scenario(lidar_map=gmap, gt_poses=gt,
                        outage_frames=frozenset({5, 6, 7}))
        res = Tracker(make_config(K_small, "multi_view")).run(scen)
        assert res.complete
        errs = np.array([pose_error(a, b)[1] for a, b in zip(res.trajectory.poses, gt)])
        assert errs.max() < 0.30  # coasting error during the outage stays bounded

    def test_determinism(self, K_small, small_world):
        gmap, gt, _ = small_world
        noise = FlowNoiseModel(gaussian_sigma=1.0, outlier_fraction=0.05,
                               outlier_magnitude=30.0, seed=11)
        scen = Scenario(lidar_map=gmap, gt_poses=gt)
        cfg = make_config(K_small, "multi_view", noise=noise)
        a = Tracker(cfg).run(scen)
        b = Tracker(cfg).run(scen)
        assert a.complete == b.complete
        for pa, pb in zip(a.trajectory.poses, b.trajectory.poses):
            assert np.array_equal(pa.q, pb.q)
            assert np.array_equal(pa.t, pb.t)


class TestFrameByFrame:
    def test_noiseless_accuracy(self, K_small, small_world):
        gmap, gt, _ = small_world
        scen = Scenario(lidar_map=gmap, gt_poses=gt)
        res = Tracker(make_config(K_small, "frame_by_frame")).run(scen)
        assert res.complete
        errs = np.array([pose_error(a, b) for a, b in zip(res.trajectory.poses, gt)])
        assert errs[:, 0].max() < 0.05
        assert errs[:, 1].max() < 0.02

    def test_outage_fails(self, K_small, small_world):
        gmap, gt, _ = small_world
        scen = Scenario(lidar_map=gmap, gt_poses=gt,
                        outage_frames=frozenset({4, 5, 6}))
        res = Tracker(make_config(K_small, "frame_by_frame")).run(scen)
        assert not res.complete
        assert len(res.trajectory) == 4

    def test_empty_crop_fails(self, K_small, small_world):
        gmap, gt, _ = small_world
        far = PoseSE3(gt[0].q, gt[0].t + np.array([0.0, 0.0, 5000.0]))
        scen = Scenario(lidar_map=gmap, gt_poses=gt)
        res = Tracker(make_config(K_small, "frame_by_frame")).run(scen, T0=far)
        assert not res.complete
        assert len(res.trajectory) == 0


class TestLooseCoupled:
    def test_clean_run_selects_pnp_candidate(self, K_small, small_world):
        gmap, gt, vo = small_world
        scen = Scenario(lidar_map=gmap, gt_poses=gt, vo_relatives=vo)
        res = Tracker(make_config(K_small, "loose_coupled")).run(scen)
        assert res.complete
        assert all(d["candidate"] == "pnp" for d in res.diagnostics)

    def test_outage_bridged_by_vo(self, K_small, small_world):
        gmap, gt, vo = small_world
        scen = Scenario(lidar_map=gmap, gt_poses=gt, vo_relatives=vo,
                        outage_frames=frozenset({4, 5, 6}))
        res = Tracker(make_config(K_small, "loose_coupled")).run(scen)
        assert res.complete
        picks = [d["candidate"] for d in res.diagnostics]
        assert picks[4] == "vo" and picks[5] == "vo" and picks[6] == "vo"
        errs = np.array([pose_error(a, b)[1] for a, b in zip(res.trajectory.poses, gt)])
        assert errs.max() < 0.10

    def test_zero_threshold_degenerates_to_vo(self, K_small, small_world):
        gmap, gt, vo = small_world
        scen = Scenario(lidar_map=gmap, gt_poses=gt, vo_relatives=vo)
        cfg = make_config(K_small, "loose_coupled", loose_reproj_threshold=1e-12)
        res = Tracker(cfg).run(scen)
        assert res.complete
        assert all(d["candidate"] == "vo" for d in res.diagnostics)

    def test_missing_vo_raises(self, K_small, small_world):
        gmap, gt, _ = small_world
        scen = Scenario(lidar_map=gmap, gt_poses=gt, vo_relatives=None)
        with pytest.raises(ValueError):
            Tracker(make_config(K_small, "loose_coupled")).run(scen)


class TestDiagnostics:
    def test_every_emitted_key_is_a_csv_column(self, K_small, small_world, tmp_path):
        # each mode over normal, rescued and failed frames; the CSV writer
        # drops keys that are not columns, so none may be missing
        gmap, gt, vo = small_world
        runs = {
            "multi_view": Scenario(lidar_map=gmap, gt_poses=gt,
                                   outage_frames=frozenset({3, 4}),
                                   flow_kill_frames=frozenset(range(8, len(gt)))),
            "frame_by_frame": Scenario(lidar_map=gmap, gt_poses=gt,
                                       outage_frames=frozenset({4})),
            "loose_coupled": Scenario(lidar_map=gmap, gt_poses=gt, vo_relatives=vo,
                                      outage_frames=frozenset({4})),
        }
        for mode, scen in runs.items():
            res = Tracker(make_config(K_small, mode)).run(scen)
            keys = set().union(*res.diagnostics)
            assert keys <= set(DIAGNOSTIC_COLUMNS), (mode, keys - set(DIAGNOSTIC_COLUMNS))
            hyps = [d["ransac_hyp_cur"] for d in res.diagnostics if "ransac_hyp_cur" in d]
            assert hyps[0] > 0 and hyps[4] == 0  # an outage frame runs no RANSAC
            if mode == "multi_view":
                assert not res.complete
                assert {"one_frame", "consistency_only"} & {d.get("rescued") for d in res.diagnostics}
                assert all("ransac_hyp_next" in d for d in res.diagnostics[:-1])
            elif mode == "frame_by_frame":
                assert not res.complete and len(res.diagnostics) == 5
            else:
                assert res.diagnostics[4]["candidate"] == "vo"
            path = tmp_path / f"{mode}.csv"
            write_diagnostics_csv(res.diagnostics, path)
            assert path.read_text().splitlines()[0].split(",") == DIAGNOSTIC_COLUMNS


class TestModeDominance:
    def test_multi_view_beats_frame_by_frame_under_episodic_noise(self, K_small):
        # paired seeds, heavy every-other-frame corruption of the depth
        # flows; the joint back-end median final error must not exceed the
        # frame-by-frame one
        scene = generate_scene(SceneConfig(extent=40.0, ground_density=8.0,
                                           facade_density=40.0, pole_count=25,
                                           seed=20))
        gmap = downsample(GlobalMap.build(scene), 0.1)
        gt = generate_trajectory(TrajectoryConfig(frame_count=6, speed=1.0, seed=20))
        finals = {"multi_view": [], "frame_by_frame": []}
        ransac = RansacConfig(inlier_threshold=5.0, max_iters=300)
        for seed in range(50):
            noise = FlowNoiseModel(gaussian_sigma=2.5, outlier_fraction=0.25,
                                   outlier_magnitude=40.0, seed=seed)
            for mode in finals:
                cfg = make_config(K_small, mode, noise=noise, ransac=ransac,
                                  crop=CropExtents(45.0, 8.0, 18.0))
                scen = Scenario(lidar_map=gmap, gt_poses=gt)
                res = Tracker(cfg).run(scen)
                if res.complete:
                    finals[mode].append(pose_error(res.trajectory.poses[-1], gt[-1])[1])
                else:
                    finals[mode].append(np.inf)
        med_mv = np.median(finals["multi_view"])
        med_ff = np.median(finals["frame_by_frame"])
        assert med_mv <= med_ff


class TestScenarioBuilder:
    def test_visibility_guarantee_asserted(self, K):
        scen = build_scenario(SceneConfig(extent=30.0, seed=1),
                              TrajectoryConfig(frame_count=3, speed=1.0), K)
        assert len(scen.gt_poses) == 3
        with pytest.raises(ValueError, match="visibility"):
            build_scenario(
                SceneConfig(extent=30.0, ground_density=0.0, facade_density=0.0,
                            pole_count=1, seed=1),
                TrajectoryConfig(frame_count=2, speed=1.0), K)

    def test_mode_validation(self, K_small):
        with pytest.raises(ValueError):
            TrackerConfig(camera=K_small, mode="warp_drive")

    @pytest.mark.parametrize("field", ["consist_point_cap", "reproj_point_cap"])
    def test_point_cap_below_one_rejected(self, K_small, field):
        for bad in (0, -5):
            with pytest.raises(ValueError, match=field):
                TrackerConfig(camera=K_small, **{field: bad})
        assert getattr(TrackerConfig(camera=K_small, **{field: 1}), field) == 1
