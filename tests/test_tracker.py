import logging
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lidartrack.pnp as pnp
import lidartrack.tracker as T
from lidartrack.evaluation import Trajectory
from lidartrack.flow import FlowNoiseModel, FlowTriplet
from lidartrack.geometry import PerturbBounds, PoseSE3, perturb_pose, pose_error
from lidartrack.joint import EnergyConfig, JointResult, consistency_samples
from lidartrack.mapping import CropExtents, GlobalMap, downsample
from lidartrack.pnp import RansacConfig, RefineResult, _term
from lidartrack.rendering import FlowField
from lidartrack.synth import (SceneConfig, TrajectoryConfig, VoOracleConfig,
                              generate_scene, generate_trajectory, vo_oracle)
from lidartrack.tracker import (DIAGNOSTIC_COLUMNS, Scenario, Tracker,
                                TrackerConfig, TrackerState, scenario_from_cloud,
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


def dead_flows_from(monkeypatch, gt, first):
    """Make the tracker's pair oracle return three invalid fields for every
    pair whose current frame is ``first`` or a later one.  Frames are told
    apart by the identity of their ground-truth pose."""
    dead_ids = {id(pose) for pose in gt[first:]}
    real = T.oracle_flows

    def oracle(points, K, T_init, T_gt_cur, *args, **kwargs):
        if id(T_gt_cur) not in dead_ids:
            return real(points, K, T_init, T_gt_cur, *args, **kwargs)
        dead = FlowField.invalid(K.height, K.width)
        return FlowTriplet(dead, dead, dead)

    monkeypatch.setattr(T, "oracle_flows", oracle)


class TestInit:
    def test_initial_state(self, K_small, small_world, monkeypatch):
        # the first step crops at T0, from an empty history
        seen = []
        real = T.crop_local
        monkeypatch.setattr(T, "crop_local", lambda *args: seen.append(args[1]) or real(*args))
        gmap, gt, _ = small_world
        T0 = perturb_pose(gt[0], PerturbBounds(0.1, 0.5), 0)
        res = Tracker(make_config(K_small, "frame_by_frame")).run(
            Scenario(lidar_map=gmap, gt_poses=gt[:1]), T0=T0)
        assert seen == [T0]
        assert res.complete and len(res.trajectory) == 1

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
        state = TrackerState(gt[0])
        state, pair, _ = tracker.step_multi_view(state, Scenario(lidar_map=gmap, gt_poses=gt))
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

    def test_total_flow_death_fails_at_frame(self, K_small, small_world, monkeypatch):
        # all channels dead from frame 5 onward: the tracker estimates
        # frames 0..4 and declares failure at frame 5
        gmap, gt, _ = small_world
        dead_flows_from(monkeypatch, gt, 5)
        res = Tracker(make_config(K_small, "multi_view")).run(
            Scenario(lidar_map=gmap, gt_poses=gt))
        assert not res.complete
        assert len(res.trajectory) == 5
        last = res.diagnostics[-1]
        assert last["frame"] == 5 and last["fail_reason"] == "consistency_degenerate"

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

    @pytest.mark.parametrize("w_consist", [1.0, 0.0])
    def test_consist_pts_column_counts_the_term(self, K_small, small_world, monkeypatch,
                                                w_consist):
        # the column is the size of the consistency term the joint LM got,
        # rebuilt here from the arguments the step handed optimize_pair;
        # 0 when the term is dropped
        calls = []
        real = T.optimize_pair

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(T, "optimize_pair", spy)
        gmap, gt, _ = small_world
        tracker = Tracker(make_config(K_small, "multi_view",
                                      energy=EnergyConfig(w_consist=w_consist)))
        _, _, diag = tracker.step_multi_view(TrackerState(gt[0]),
                                             Scenario(lidar_map=gmap, gt_poses=gt))
        T_cur0, T_next0, _, _, pts, f_c2n, K, _ = calls[0]
        pts, samples = consistency_samples(pts, K, f_c2n, T_cur0)
        term = _term(pts, samples, ("cur", "next"), T_cur0, T_next0, 3)
        assert term is not None
        assert diag["consist_pts"] == (len(term) if w_consist else 0)


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

    def test_nan_flow_samples_do_not_raise(self, K_small, small_world, monkeypatch):
        # a flow front-end that returns NaN at half the valid pixels must
        # not end the step in an exception from PnP
        import lidartrack.tracker as tracker_module
        real = tracker_module.oracle_depth_flow

        def nan_oracle(*args, **kwargs):
            f = real(*args, **kwargs)
            f.du[::2] = np.nan
            f.dv[::2] = np.nan
            return f

        monkeypatch.setattr(tracker_module, "oracle_depth_flow", nan_oracle)
        gmap, gt, _ = small_world
        tracker = Tracker(make_config(K_small, "frame_by_frame"))
        state, scen = TrackerState(gt[0]), Scenario(lidar_map=gmap, gt_poses=gt)
        for i in range(3):
            state, pose, diag = tracker.step_frame_by_frame(state, scen)
            assert pose is not None
            assert diag["inliers_cur"] > 0
        assert pose_error(pose, gt[2])[1] < 0.05

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

    def test_short_vo_list_raises_before_any_step(self, K_small, small_world, monkeypatch):
        # 6 frames need 5 relative poses; with 2 the run must stop up front
        # with the field's name, not with an IndexError at the third frame
        crops = []
        real = T.crop_local
        monkeypatch.setattr(T, "crop_local", lambda *args: crops.append(args) or real(*args))
        gmap, gt, vo = small_world
        scen = Scenario(lidar_map=gmap, gt_poses=gt[:6], vo_relatives=vo[:2])
        with pytest.raises(ValueError, match="vo_relatives"):
            Tracker(make_config(K_small, "loose_coupled")).run(scen)
        assert crops == []


class TestDiagnostics:
    def test_every_emitted_key_is_a_csv_column(self, K_small, small_world, tmp_path,
                                               monkeypatch):
        # each mode over normal, rescued and failed frames; the CSV writer
        # drops keys that are not columns, so none may be missing
        gmap, gt, vo = small_world
        dead_flows_from(monkeypatch, gt, 8)  # only multi_view runs the pair oracle
        runs = {
            "multi_view": Scenario(lidar_map=gmap, gt_poses=gt,
                                   outage_frames=frozenset({3, 4})),
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
            iters = [d["refine_iters_cur"] for d in res.diagnostics if "refine_iters_cur" in d]
            assert iters[0] > 0 and iters[4] == 0  # nor any refinement
            if mode == "multi_view":
                assert not res.complete
                assert {"one_frame", "consistency_only"} & {d.get("rescued") for d in res.diagnostics}
                assert all("ransac_hyp_next" in d for d in res.diagnostics[:-1])
                assert all("opt_converged" in d for d in res.diagnostics if "opt_iters" in d)
            elif mode == "frame_by_frame":
                assert not res.complete and len(res.diagnostics) == 5
            else:
                assert res.diagnostics[4]["candidate"] == "vo"
            path = tmp_path / f"{mode}.csv"
            write_diagnostics_csv(res.diagnostics, path)
            assert path.read_text().splitlines()[0].split(",") == DIAGNOSTIC_COLUMNS

    def test_benchmark_tracer_patches_every_name(self, K_small, small_world, monkeypatch):
        # perfbench/tracing.py wraps functions under the names their callers
        # look them up by; removing one of those imports, or a front-end
        # that calls a name the tracer does not patch, breaks --trace 1
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        from tracing import NAME, Tracer

        gmap, gt, _ = small_world
        front_end = {"mapping.crop_local", "rendering.render_depth",
                     "pnp.correspondences_from_flow", "pnp.solve_pnp_ransac"}
        expected = {"multi_view": front_end | {"flow.oracle_flows", "joint.optimize_pair"},
                    "frame_by_frame": front_end | {"flow.oracle_depth_flow"}}
        tracer = Tracer()
        try:
            tracer.enable()
            for mode, names in expected.items():
                first = len(tracer.spans)
                res = Tracker(make_config(K_small, mode)).run(
                    Scenario(lidar_map=gmap, gt_poses=gt[:3]))
                assert res.complete
                recorded = {span[NAME] for span in tracer.spans[first:]}
                assert names <= recorded, (mode, names - recorded)
        finally:
            tracer.disable()


def _final_errors(K, gmap, gt, seed):
    """Final translation error of multi_view and frame_by_frame (inf when
    the run stops) under one seed of heavy depth-flow corruption."""
    noise = FlowNoiseModel(gaussian_sigma=2.5, outlier_fraction=0.25,
                           outlier_magnitude=40.0, seed=seed)
    ransac = RansacConfig(inlier_threshold=5.0, max_iters=300)
    errors = []
    for mode in ("multi_view", "frame_by_frame"):
        cfg = make_config(K, mode, noise=noise, ransac=ransac,
                          crop=CropExtents(45.0, 8.0, 18.0))
        res = Tracker(cfg).run(Scenario(lidar_map=gmap, gt_poses=gt))
        errors.append(pose_error(res.trajectory.poses[-1], gt[-1])[1]
                      if res.complete else np.inf)
    return errors


@pytest.mark.slow
class TestModeDominance:
    def test_multi_view_beats_frame_by_frame_under_episodic_noise(self, K_small,
                                                                  pool_map):
        # paired seeds, heavy every-other-frame corruption of the depth
        # flows; the joint back-end median final error must not exceed the
        # frame-by-frame one
        scene = generate_scene(SceneConfig(extent=40.0, ground_density=8.0,
                                           facade_density=40.0, pole_count=25,
                                           seed=20))
        gmap = downsample(GlobalMap.build(scene), 0.1)
        gt = generate_trajectory(TrajectoryConfig(frame_count=6, speed=1.0, seed=20))
        finals = np.array(pool_map(_final_errors, range(50), K_small, gmap, gt))
        med_mv = np.median(finals[:, 0])
        med_ff = np.median(finals[:, 1])
        assert med_mv <= med_ff


class TestScenarioBuilder:
    def test_map_is_the_downsampled_cloud(self):
        cloud = generate_scene(SceneConfig(extent=30.0, seed=3))
        gt = generate_trajectory(TrajectoryConfig(frame_count=3, speed=1.0))
        scen = scenario_from_cloud(cloud, gt, map_resolution=0.2)
        ref = downsample(GlobalMap.build(cloud), 0.2)
        assert np.array_equal(scen.lidar_map.points, ref.points)
        assert scen.gt_poses is gt
        assert 0 < len(scen.lidar_map) < len(cloud)

    def test_vo_relatives_from_oracle(self):
        gt = generate_trajectory(TrajectoryConfig(frame_count=5, speed=1.0))
        vo_cfg = VoOracleConfig(seed=4)
        scen = scenario_from_cloud(np.zeros((1, 3)), gt, vo_cfg=vo_cfg,
                                   outage_frames=[2, 2, 3])
        ref = vo_oracle(gt, vo_cfg)
        assert len(scen.vo_relatives) == 4
        for a, b in zip(scen.vo_relatives, ref):
            assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)
        assert scen.outage_frames == frozenset({2, 3})
        single = scenario_from_cloud(np.zeros((1, 3)), gt[:1], vo_cfg=vo_cfg)
        assert single.vo_relatives == []

    def test_defaults_no_vo_no_events_ten_cm_map(self):
        rng = np.random.default_rng(6)
        cloud = rng.uniform(-2, 2, (3000, 3))
        scen = scenario_from_cloud(cloud, [PoseSE3.identity()])
        assert scen.vo_relatives is None
        assert scen.outage_frames == frozenset()
        ref = downsample(GlobalMap.build(cloud), 0.1)
        assert np.array_equal(scen.lidar_map.points, ref.points)

    def test_mode_validation(self, K_small):
        with pytest.raises(ValueError):
            TrackerConfig(camera=K_small, mode="warp_drive")

    @pytest.mark.parametrize("field,bad", [
        ("consist_point_cap", 2.5), ("consist_point_cap", True),
        ("reproj_point_cap", 2.5), ("occlusion_window", 2.5), ("occlusion_window", False),
        ("loose_reproj_threshold", float("nan")), ("loose_reproj_threshold", -1.0),
        ("occlusion_aperture_deg", float("nan"))])
    def test_config_rejects_bad_value_naming_field(self, K_small, field, bad):
        with pytest.raises(ValueError, match=field):
            TrackerConfig(camera=K_small, **{field: bad})

    @pytest.mark.parametrize("field", ["consist_point_cap", "reproj_point_cap"])
    def test_point_cap_below_one_rejected(self, K_small, field):
        for bad in (0, -5):
            with pytest.raises(ValueError, match=field):
                TrackerConfig(camera=K_small, **{field: bad})
        assert getattr(TrackerConfig(camera=K_small, **{field: 1}), field) == 1


class ReferenceTracker(Tracker):
    """The three step methods and the run loop as they were before the
    shared front-end, kept to compare the refactored tracker with.

    Stage functions are looked up on the tracker module at call time, so a
    test that monkeypatches them there patches both trackers alike.
    """

    def _crop_and_render(self, lidar_map, T_init):
        cfg = self.config
        t0 = time.perf_counter()
        crop = T.crop_local(lidar_map, T_init, cfg.crop)
        t1 = time.perf_counter()
        depth = None
        if len(crop):
            depth = T.render_depth(crop, cfg.camera, T_init,
                                   cfg.occlusion_aperture_deg, cfg.occlusion_window)
        t2 = time.perf_counter()
        return crop, depth, {"ms_crop": 1e3 * (t1 - t0), "ms_render": 1e3 * (t2 - t1)}

    def _frame_noise(self, frame):
        base = self.config.noise
        return replace(base, seed=T._derived_seed(base.seed, frame))

    def _solve_pnp(self, corrs, T_init, frame, side):
        cfg = replace(self.config.ransac,
                      seed=T._derived_seed(self.config.ransac.seed, frame, side))
        return T.solve_pnp_ransac(corrs, self.config.camera, T_init, cfg)

    def step_multi_view(self, state, lidar_map, T_gt_cur, T_gt_next,
                        outage_cur=False, outage_next=False):
        cfg = self.config
        K = cfg.camera
        frame = state.frame_index
        T_init = state.T_init_next
        diag = {"frame": frame, "mode": "multi_view"}

        crop, depth, times = self._crop_and_render(lidar_map, T_init)
        diag.update(times)
        if depth is None or len(depth.flat) == 0:
            state.failed = True
            return state, None, diag

        t0 = time.perf_counter()
        flows = T.oracle_flows(crop, K, T_init, T_gt_cur, T_gt_next,
                               self._frame_noise(frame),
                               cfg.occlusion_aperture_deg, cfg.occlusion_window,
                               depth_init=depth)
        dead = FlowField.invalid(K.height, K.width)
        if outage_cur:
            flows = replace(flows, f_c2d=dead)
        if outage_next:
            flows = replace(flows, f_n2d=dead)
        diag["ms_flow"] = 1e3 * (time.perf_counter() - t0)

        t0 = time.perf_counter()
        corrs_cur = T.correspondences_from_flow(depth, flows.f_c2d, crop)
        corrs_next = T.correspondences_from_flow(depth, flows.f_n2d, crop)
        pnp_cur = self._solve_pnp(corrs_cur, T_init, frame, side=0)
        pnp_next = self._solve_pnp(corrs_next, T_init, frame, side=1)
        diag["ms_pnp"] = 1e3 * (time.perf_counter() - t0)
        diag["inliers_cur"] = int(pnp_cur.inliers.sum())
        diag["inliers_next"] = int(pnp_next.inliers.sum())
        diag["ransac_hyp_cur"] = pnp_cur.hypotheses
        diag["ransac_hyp_next"] = pnp_next.hypotheses
        diag["refine_iters_cur"] = pnp_cur.refine_iters
        diag["refine_iters_next"] = pnp_next.refine_iters

        if pnp_cur.success:
            consist_pts = corrs_cur.p_world[pnp_cur.inliers]
        elif pnp_next.success:
            consist_pts = corrs_next.p_world[pnp_next.inliers]
        else:
            consist_pts = crop[depth.source]
        consist_pts = T._stride_cap(consist_pts, cfg.consist_point_cap)

        T_cur0 = pnp_cur.pose if pnp_cur.success else T_init
        if pnp_next.success:
            T_next0 = pnp_next.pose
        elif pnp_cur.success:
            T_next0 = pnp_cur.pose
        else:
            T_next0 = T_init

        cap = cfg.reproj_point_cap
        inl_cur = (corrs_cur.subset(T._stride_cap(np.nonzero(pnp_cur.inliers)[0], cap))
                   if pnp_cur.success else None)
        inl_next = (corrs_next.subset(T._stride_cap(np.nonzero(pnp_next.inliers)[0], cap))
                    if pnp_next.success else None)

        t0 = time.perf_counter()
        if pnp_cur.success or pnp_next.success:
            result = T.optimize_pair(T_cur0, T_next0, inl_cur, inl_next,
                                     consist_pts, flows.f_c2n, K, cfg.energy)
            diag["consist_pts"] = result.consist_pts
            degenerate = result.iterations == 0 and not result.converged
            if degenerate and not pnp_next.success:
                diag["ms_opt"] = 1e3 * (time.perf_counter() - t0)
                if pnp_cur.success:
                    state.history.append(T_cur0)
                state.failed = True
                return state, None, diag
            if degenerate:
                T_cur_star, T_next_star = T_cur0, T_next0
                diag["rescued"] = "coast_cur"
            else:
                T_cur_star, T_next_star = result.T_cur_star, result.T_next_star
                diag["rescued"] = "" if (pnp_cur.success and pnp_next.success) else "one_frame"
        else:
            result = T.optimize_next_only(T_init, T_init, consist_pts,
                                          flows.f_c2n, K, cfg.energy)
            diag["consist_pts"] = result.consist_pts
            if result.iterations == 0 and not result.converged:
                diag["ms_opt"] = 1e3 * (time.perf_counter() - t0)
                state.failed = True
                return state, None, diag
            T_cur_star, T_next_star = T_init, result.T_next_star
            diag["rescued"] = "consistency_only"
        diag["ms_opt"] = 1e3 * (time.perf_counter() - t0)
        diag["e_initial"] = result.initial_energy
        diag["e_final"] = result.final_energy
        diag["opt_iters"] = result.iterations
        diag["opt_converged"] = result.converged

        state.history.append(T_cur_star)
        state.T_init_next = T_next_star
        state.frame_index = frame + 1
        return state, (T_cur_star, T_next_star), diag

    def step_frame_by_frame(self, state, lidar_map, T_gt_cur, outage=False):
        cfg = self.config
        K = cfg.camera
        frame = state.frame_index
        T_init = state.T_init_next
        diag = {"frame": frame, "mode": "frame_by_frame"}

        crop, depth, times = self._crop_and_render(lidar_map, T_init)
        diag.update(times)
        if depth is None or len(depth.flat) == 0:
            state.failed = True
            return state, None, diag

        t0 = time.perf_counter()
        noise = self._frame_noise(frame)
        f_c2d = T.oracle_depth_flow(crop, K, T_init, T_gt_cur, noise, stream=0,
                                    depth=depth)
        if outage:
            f_c2d = FlowField.invalid(K.height, K.width)
        diag["ms_flow"] = 1e3 * (time.perf_counter() - t0)

        t0 = time.perf_counter()
        corrs = T.correspondences_from_flow(depth, f_c2d, crop)
        result = self._solve_pnp(corrs, T_init, frame, side=0)
        diag["ms_pnp"] = 1e3 * (time.perf_counter() - t0)
        diag["inliers_cur"] = int(result.inliers.sum())
        diag["ransac_hyp_cur"] = result.hypotheses
        diag["refine_iters_cur"] = result.refine_iters
        if not result.success:
            state.failed = True
            return state, None, diag
        state.history.append(result.pose)
        state.T_init_next = result.pose
        state.frame_index = frame + 1
        return state, result.pose, diag

    def step_loose_coupled(self, state, lidar_map, T_gt_cur, vo_relative, outage=False):
        cfg = self.config
        K = cfg.camera
        frame = state.frame_index
        T_init = state.T_init_next
        diag = {"frame": frame, "mode": "loose_coupled"}

        prev = state.history[-1] if state.history else T_init
        candidate_b = vo_relative.compose(prev) if vo_relative is not None else prev

        crop, depth, times = self._crop_and_render(lidar_map, T_init)
        diag.update(times)
        if depth is None or len(depth.flat) == 0:
            state.failed = True
            return state, None, diag

        candidate_a = None
        rmse = float("inf")
        t0 = time.perf_counter()
        f_c2d = T.oracle_depth_flow(crop, K, T_init, T_gt_cur,
                                    self._frame_noise(frame), stream=0,
                                    depth=depth)
        if outage:
            f_c2d = FlowField.invalid(K.height, K.width)
        diag["ms_flow"] = 1e3 * (time.perf_counter() - t0)
        t0 = time.perf_counter()
        corrs = T.correspondences_from_flow(depth, f_c2d, crop)
        result = self._solve_pnp(corrs, T_init, frame, side=0)
        diag["ms_pnp"] = 1e3 * (time.perf_counter() - t0)
        diag["inliers_cur"] = int(result.inliers.sum())
        diag["ransac_hyp_cur"] = result.hypotheses
        diag["refine_iters_cur"] = result.refine_iters
        if result.success:
            candidate_a = result.pose
            rmse = result.rmse
        diag["pnp_rmse"] = rmse

        if candidate_a is not None and rmse < cfg.loose_reproj_threshold:
            pose = candidate_a
            diag["candidate"] = "pnp"
        else:
            pose = candidate_b
            diag["candidate"] = "vo"
        state.history.append(pose)
        state.T_init_next = pose
        state.frame_index = frame + 1
        return state, pose, diag

    def run(self, scenario, T0=None):
        gt = list(scenario.gt_poses)
        n = len(gt)
        state = T.TrackerState(T0 if T0 is not None else (gt[0] if n else PoseSE3.identity()))
        diagnostics = []
        if n == 0:
            return T.RunResult(Trajectory(poses=[]), diagnostics, complete=True)

        mode = self.config.mode
        if mode == "multi_view" and n >= 2:
            for i in range(n - 1):
                state, _, diag = self.step_multi_view(
                    state, scenario.lidar_map, gt[i], gt[i + 1],
                    outage_cur=i in scenario.outage_frames,
                    outage_next=(i + 1) in scenario.outage_frames)
                self._note_errors(diag, state, gt)
                diagnostics.append(diag)
                if state.failed:
                    break
            if not state.failed:
                state.history.append(state.T_init_next)
                rot, transl = pose_error(state.history[n - 1], gt[n - 1])
                diagnostics.append({"frame": n - 1, "mode": "multi_view",
                                    "rot_err_deg": rot, "transl_err_cm": 100.0 * transl})
        elif mode == "loose_coupled":
            vo = scenario.vo_relatives
            if vo is None:
                raise ValueError("loose_coupled mode needs scenario.vo_relatives")
            for i in range(n):
                rel = vo[i - 1] if i >= 1 else None
                state, _, diag = self.step_loose_coupled(
                    state, scenario.lidar_map, gt[i], rel,
                    outage=i in scenario.outage_frames)
                self._note_errors(diag, state, gt)
                diagnostics.append(diag)
                if state.failed:
                    break
        else:
            for i in range(n):
                state, _, diag = self.step_frame_by_frame(
                    state, scenario.lidar_map, gt[i],
                    outage=i in scenario.outage_frames)
                self._note_errors(diag, state, gt)
                diagnostics.append(diag)
                if state.failed:
                    break

        complete = (not state.failed) and len(state.history) == n
        return T.RunResult(Trajectory(poses=list(state.history)), diagnostics, complete)


def _same_value(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def assert_same_run(new, ref):
    """Poses bit for bit, completion, and every diagnostic but the timings."""
    assert new.complete == ref.complete
    assert len(new.trajectory) == len(ref.trajectory)
    for a, b in zip(new.trajectory.poses, ref.trajectory.poses):
        assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)
    assert len(new.diagnostics) == len(ref.diagnostics)
    for d_new, d_ref in zip(new.diagnostics, ref.diagnostics):
        plain = {k: v for k, v in d_new.items() if not k.startswith("ms_") and k != "fail_reason"}
        ref_plain = {k: v for k, v in d_ref.items() if not k.startswith("ms_")}
        assert plain.keys() == ref_plain.keys(), (d_new["frame"], plain.keys() ^ ref_plain.keys())
        assert {k for k in d_new if k.startswith("ms_")} == {k for k in d_ref if k.startswith("ms_")}
        for key, value in ref_plain.items():
            assert _same_value(plain[key], value), (d_new["frame"], key, plain[key], value)
    # only the row a failed run stops at names a reason
    reasons = ["fail_reason" in d for d in new.diagnostics]
    assert reasons == [False] * (len(reasons) - 1) + [not new.complete][:len(reasons)]


FAR = np.array([0.0, 0.0, 5000.0])
NOISY = FlowNoiseModel(gaussian_sigma=1.5, outlier_fraction=0.1, outlier_magnitude=30.0, seed=3)


class TestMatchesReferenceTracker:
    @pytest.mark.parametrize("mode,scen,cfg,far_start", [
        ("multi_view", dict(outage_frames={3, 4}, flows_dead_from=8), {}, False),
        ("frame_by_frame", dict(outage_frames={4}), {}, False),
        ("loose_coupled", dict(outage_frames={4}), {}, False),
        ("multi_view", dict(outage_frames={5, 6, 7}), dict(noise=NOISY), False),
        ("frame_by_frame", {}, dict(noise=NOISY), False),
        ("loose_coupled", dict(outage_frames={2}), dict(noise=NOISY), False),
        ("multi_view", {}, {}, True),
        ("frame_by_frame", {}, {}, True),
    ])
    def test_matches_reference(self, K_small, small_world, monkeypatch, mode, scen, cfg,
                               far_start):
        # the reference looks the oracle up on the tracker module, so a
        # patched oracle serves both trackers
        gmap, gt, vo = small_world
        if "flows_dead_from" in scen:
            dead_flows_from(monkeypatch, gt, scen["flows_dead_from"])
        scenario = Scenario(lidar_map=gmap, gt_poses=gt, vo_relatives=vo,
                            outage_frames=frozenset(scen.get("outage_frames", ())))
        T0 = PoseSE3(gt[0].q, gt[0].t + FAR) if far_start else None
        config = make_config(K_small, mode, **cfg)
        new = Tracker(config).run(scenario, T0=T0)
        assert_same_run(new, ReferenceTracker(config).run(scenario, T0=T0))
        if mode == "loose_coupled":
            picks = {d["candidate"] for d in new.diagnostics}
            assert "vo" in picks and (picks == {"vo"}) == far_start

    def test_single_frame_multi_view(self, K_small, small_world):
        gmap, gt, _ = small_world
        scenario = Scenario(lidar_map=gmap, gt_poses=gt[:1])
        config = make_config(K_small, "multi_view")
        new = Tracker(config).run(scenario)
        assert new.complete and new.diagnostics[0]["mode"] == "frame_by_frame"
        assert_same_run(new, ReferenceTracker(config).run(scenario))


def _degenerate(T_cur, T_next, *args, **kwargs):
    return JointResult(T_cur, T_next, initial_energy=0.0, final_energy=0.0,
                       iterations=0, converged=False)


class TestFailReasons:
    @pytest.mark.parametrize("mode,patched,outages,far_start,reason,tracked", [
        ("multi_view", (), (), True, "no_render", 0),
        ("frame_by_frame", (), (), True, "no_render", 0),
        ("loose_coupled", (), (), True, "no_render", 0),
        ("frame_by_frame", (), (4,), False, "pnp_failed", 4),
        ("multi_view", ("optimize_pair",), (3,), False, "next_unobservable", 3),
        ("multi_view", ("optimize_next_only",), (3, 4), False, "consistency_degenerate", 3),
        ("multi_view", ("optimize_pair",), (), False, None, 12),  # coast_cur every step
    ])
    def test_reason_and_reference(self, K_small, small_world, monkeypatch, caplog,
                                  mode, patched, outages, far_start, reason, tracked):
        for name in patched:
            monkeypatch.setattr(T, name, _degenerate)
        gmap, gt, vo = small_world
        scenario = Scenario(lidar_map=gmap, gt_poses=gt, vo_relatives=vo,
                            outage_frames=frozenset(outages))
        T0 = PoseSE3(gt[0].q, gt[0].t + FAR) if far_start else None
        config = make_config(K_small, mode)
        with caplog.at_level(logging.WARNING, logger="lidartrack.tracker"):
            new = Tracker(config).run(scenario, T0=T0)
        assert len(new.trajectory) == tracked
        assert_same_run(new, ReferenceTracker(config).run(scenario, T0=T0))
        warnings = [r for r in caplog.records if r.name == "lidartrack.tracker"]
        if reason is None:
            assert new.complete and not warnings
            assert {d.get("rescued") for d in new.diagnostics[:-1]} == {"coast_cur"}
        else:
            assert not new.complete
            assert new.diagnostics[-1]["fail_reason"] == reason
            assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
            assert reason in warnings[0].getMessage()

    def test_all_outlier_flows_fail_pnp(self, K_small, small_world):
        # every flow vector replaced by a 100 px one: no pose gathers a consensus set
        gmap, gt, _ = small_world
        noise = FlowNoiseModel(outlier_fraction=1.0, outlier_magnitude=100.0, seed=3)
        config = make_config(K_small, "frame_by_frame", noise=noise)
        scenario = Scenario(lidar_map=gmap, gt_poses=gt)
        new = Tracker(config).run(scenario)
        assert not new.complete and len(new.trajectory) == 0
        row = new.diagnostics[-1]
        assert row["fail_reason"] == "pnp_failed" and row["inliers_cur"] == 0
        assert row["ransac_hyp_cur"] == config.ransac.max_iters
        assert_same_run(new, ReferenceTracker(config).run(scenario))

    @pytest.mark.parametrize("mode", ["frame_by_frame", "multi_view"])
    def test_rejected_consensus_set_is_a_failed_pnp(self, K_small, small_world,
                                                    monkeypatch, mode):
        def reject(corrs, K, T0):
            return RefineResult(pose=T0, cost=np.inf, iterations=0, converged=False)

        monkeypatch.setattr(pnp, "refine_pose", reject)
        gmap, gt, _ = small_world
        new = Tracker(make_config(K_small, mode)).run(Scenario(lidar_map=gmap, gt_poses=gt))
        rows = new.diagnostics
        # RANSAC found a consensus set, so the failed result counts its hypotheses
        assert rows[0]["ransac_hyp_cur"] > 0 and rows[0]["inliers_cur"] == 0
        if mode == "frame_by_frame":
            assert len(new.trajectory) == 0 and rows[0]["fail_reason"] == "pnp_failed"
        else:  # no PnP pose on either frame: the consistency term carries every step
            assert new.complete
            assert {d["rescued"] for d in rows[:-1]} == {"consistency_only"}
