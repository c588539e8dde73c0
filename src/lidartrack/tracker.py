"""Online pose tracking: crop, render, flow, PnP, joint optimization.

Three modes:

* ``frame_by_frame`` -- independent flow + PnP per frame, the previous
  estimate seeding the next frame's crop and rendering.
* ``loose_coupled``  -- per frame, pick between the flow-PnP candidate
  and a VO-propagated candidate by an inlier-RMSE threshold.
* ``multi_view``     -- overlapping two-frame windows refined jointly
  under the consistency + reprojection energy; the pair advances one
  frame per step and the next-frame estimate seeds the following step.

Ground-truth poses enter the steps only through the flow oracle, which
stands in for network inference.  Both frames of a pair share one crop
and one rendered depth map centered at the carried initial pose.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .evaluation import Trajectory
from .flow import FlowNoiseModel, oracle_depth_flow, oracle_flows
from .geometry import CameraIntrinsics, PoseSE3, pose_error
from .joint import EnergyConfig, optimize_next_only, optimize_pair
from .mapping import CropExtents, GlobalMap, crop_local, downsample
from .pnp import (Correspondences, DegenerateConfigurationError, PnPResult,
                  RansacConfig, TooFewCorrespondencesError,
                  correspondences_from_flow, solve_pnp_ransac)
from .rendering import (DEFAULT_OCCLUSION_APERTURE_DEG, DEFAULT_OCCLUSION_WINDOW,
                        render_depth)
# perfbench/tracing.py wraps tracker.remove_occlusions, so the name stays importable here
from .rendering import remove_occlusions  # noqa: F401

MODES = ("frame_by_frame", "loose_coupled", "multi_view")


@dataclass(frozen=True)
class TrackerConfig:
    camera: CameraIntrinsics
    mode: str = "multi_view"
    crop: CropExtents = CropExtents()
    noise: FlowNoiseModel = FlowNoiseModel()
    ransac: RansacConfig = RansacConfig()
    energy: EnergyConfig = EnergyConfig()
    loose_reproj_threshold: float = 2.0   # px
    failure_threshold_m: float = 4.0      # offline evaluation only
    occlusion_aperture_deg: float = DEFAULT_OCCLUSION_APERTURE_DEG
    occlusion_window: int = DEFAULT_OCCLUSION_WINDOW
    consist_point_cap: int = 2000
    reproj_point_cap: int = 1500  # per-frame inliers fed to the joint stage

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("loose_reproj_threshold", "failure_threshold_m",
                     "occlusion_aperture_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.loose_reproj_threshold < 0:
            raise ValueError("loose_reproj_threshold must be non-negative")
        if self.failure_threshold_m <= 0:
            raise ValueError("failure_threshold_m must be positive")
        for name in ("consist_point_cap", "reproj_point_cap", "occlusion_window"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        for name in ("consist_point_cap", "reproj_point_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class Scenario:
    """Everything a tracking run consumes.

    ``outage_frames`` kill the image-to-depth flow channels of those
    frames while the image-to-image flow survives (a depth-projection
    outage); ``flow_kill_frames`` kill every channel touching the frame.
    """

    lidar_map: GlobalMap
    gt_poses: list
    vo_relatives: list | None = None
    outage_frames: frozenset = frozenset()
    flow_kill_frames: frozenset = frozenset()


@dataclass
class TrackerState:
    T_init_next: PoseSE3
    frame_index: int = 0
    history: list = field(default_factory=list)
    failed: bool = False


@dataclass
class RunResult:
    trajectory: Trajectory
    diagnostics: list
    complete: bool


def _stride_cap(arr, cap: int):
    """Deterministic stride subsampling down to at most ``cap`` entries."""
    if len(arr) <= cap:
        return arr
    stride = -(-len(arr) // cap)
    return arr[::stride]


def _derived_seed(base: int, *key) -> int:
    return int(np.random.SeedSequence((int(base),) + tuple(int(k) for k in key))
               .generate_state(1)[0])


def _invalidate(flow_field):
    flow_field.valid[:] = False
    flow_field.du[:] = 0.0
    flow_field.dv[:] = 0.0


class Tracker:
    """Stateless-config tracking engine; state is passed through steps."""

    def __init__(self, config: TrackerConfig):
        self.config = config

    def init(self, T0: PoseSE3) -> TrackerState:
        return TrackerState(T_init_next=T0)

    # -- shared per-step plumbing -------------------------------------------

    def _crop_and_render(self, lidar_map, T_init):
        cfg = self.config
        t0 = time.perf_counter()
        crop = crop_local(lidar_map, T_init, cfg.crop)
        t1 = time.perf_counter()
        depth = None
        if len(crop):
            depth = render_depth(crop, cfg.camera, T_init,
                                 cfg.occlusion_aperture_deg, cfg.occlusion_window)
        t2 = time.perf_counter()
        return crop, depth, {"ms_crop": 1e3 * (t1 - t0), "ms_render": 1e3 * (t2 - t1)}

    def _frame_noise(self, frame: int) -> FlowNoiseModel:
        base = self.config.noise
        return replace(base, seed=_derived_seed(base.seed, frame))

    def _solve_pnp(self, corrs: Correspondences, T_init, frame: int, side: int):
        cfg = replace(self.config.ransac,
                      seed=_derived_seed(self.config.ransac.seed, frame, side))
        try:
            return solve_pnp_ransac(corrs, self.config.camera, T_init, cfg)
        except (TooFewCorrespondencesError, DegenerateConfigurationError):
            return PnPResult(pose=T_init, inliers=np.zeros(len(corrs), dtype=bool),
                             success=False, rmse=float("inf"), hypotheses=0)

    def _consist_points(self, pts):
        return _stride_cap(pts, self.config.consist_point_cap)

    # -- steps ----------------------------------------------------------------

    def step_multi_view(self, state: TrackerState, lidar_map: GlobalMap,
                        T_gt_cur: PoseSE3, T_gt_next: PoseSE3,
                        outage_cur=False, outage_next=False,
                        kill_cur=False, kill_next=False):
        """One overlapping-pair step; returns (state', (T_cur*, T_next*), diag).

        When PnP fails on one frame, the joint optimizer runs with the
        surviving reprojection term plus the consistency term.  When both
        fail but the image-to-image flow survives, the current pose is
        frozen at the carried estimate and the next pose follows from the
        consistency term alone.  With no usable constraints the state is
        marked failed.
        """
        cfg = self.config
        K = cfg.camera
        frame = state.frame_index
        T_init = state.T_init_next
        diag = {"frame": frame, "mode": "multi_view"}

        crop, depth, times = self._crop_and_render(lidar_map, T_init)
        diag.update(times)
        if depth is None or not depth.valid.any():
            state.failed = True
            return state, None, diag

        t0 = time.perf_counter()
        flows = oracle_flows(crop, K, T_init, T_gt_cur, T_gt_next,
                             self._frame_noise(frame),
                             cfg.occlusion_aperture_deg, cfg.occlusion_window,
                             depth_init=depth)
        if outage_cur or kill_cur:
            _invalidate(flows.f_c2d)
        if outage_next or kill_next:
            _invalidate(flows.f_n2d)
        if kill_cur or kill_next:
            _invalidate(flows.f_c2n)
        diag["ms_flow"] = 1e3 * (time.perf_counter() - t0)

        t0 = time.perf_counter()
        corrs_cur = correspondences_from_flow(depth, flows.f_c2d, crop)
        corrs_next = correspondences_from_flow(depth, flows.f_n2d, crop)
        pnp_cur = self._solve_pnp(corrs_cur, T_init, frame, side=0)
        pnp_next = self._solve_pnp(corrs_next, T_init, frame, side=1)
        diag["ms_pnp"] = 1e3 * (time.perf_counter() - t0)
        diag["inliers_cur"] = int(pnp_cur.inliers.sum())
        diag["inliers_next"] = int(pnp_next.inliers.sum())
        diag["ransac_hyp_cur"] = pnp_cur.hypotheses
        diag["ransac_hyp_next"] = pnp_next.hypotheses

        if pnp_cur.success:
            consist_pts = corrs_cur.p_world[pnp_cur.inliers]
        elif pnp_next.success:
            consist_pts = corrs_next.p_world[pnp_next.inliers]
        else:
            consist_pts = crop[depth.source[depth.valid]]
        consist_pts = self._consist_points(consist_pts)

        T_cur0 = pnp_cur.pose if pnp_cur.success else T_init
        if pnp_next.success:
            T_next0 = pnp_next.pose
        elif pnp_cur.success:
            T_next0 = pnp_cur.pose
        else:
            T_next0 = T_init

        cap = self.config.reproj_point_cap
        inl_cur = (corrs_cur.subset(_stride_cap(np.nonzero(pnp_cur.inliers)[0], cap))
                   if pnp_cur.success else None)
        inl_next = (corrs_next.subset(_stride_cap(np.nonzero(pnp_next.inliers)[0], cap))
                    if pnp_next.success else None)

        t0 = time.perf_counter()
        if pnp_cur.success or pnp_next.success:
            result = optimize_pair(T_cur0, T_next0, inl_cur, inl_next,
                                   consist_pts, flows.f_c2n, K, cfg.energy)
            degenerate = result.iterations == 0 and not result.converged
            if degenerate and not pnp_next.success:
                # next frame unobservable: keep the current estimate, stop
                diag["ms_opt"] = 1e3 * (time.perf_counter() - t0)
                if pnp_cur.success:
                    state.history.append(T_cur0)
                state.failed = True
                return state, None, diag
            if degenerate:
                # reprojection-only on the next frame: the current frame
                # coasts on the carried estimate and tracking continues
                T_cur_star, T_next_star = T_cur0, T_next0
                diag["rescued"] = "coast_cur"
            else:
                T_cur_star, T_next_star = result.T_cur_star, result.T_next_star
                diag["rescued"] = "" if (pnp_cur.success and pnp_next.success) else "one_frame"
        else:
            result = optimize_next_only(T_init, T_init, consist_pts,
                                        flows.f_c2n, K, cfg.energy)
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

    def step_frame_by_frame(self, state: TrackerState, lidar_map: GlobalMap,
                            T_gt_cur: PoseSE3, outage=False, kill=False):
        """Independent single-frame flow + PnP; no inter-frame constraint."""
        cfg = self.config
        K = cfg.camera
        frame = state.frame_index
        T_init = state.T_init_next
        diag = {"frame": frame, "mode": "frame_by_frame"}

        crop, depth, times = self._crop_and_render(lidar_map, T_init)
        diag.update(times)
        if depth is None or not depth.valid.any():
            state.failed = True
            return state, None, diag

        t0 = time.perf_counter()
        noise = self._frame_noise(frame)
        f_c2d = oracle_depth_flow(crop, K, T_init, T_gt_cur, noise, stream=0,
                                  depth=depth)
        if outage or kill:
            _invalidate(f_c2d)
        diag["ms_flow"] = 1e3 * (time.perf_counter() - t0)

        t0 = time.perf_counter()
        corrs = correspondences_from_flow(depth, f_c2d, crop)
        result = self._solve_pnp(corrs, T_init, frame, side=0)
        diag["ms_pnp"] = 1e3 * (time.perf_counter() - t0)
        diag["inliers_cur"] = int(result.inliers.sum())
        diag["ransac_hyp_cur"] = result.hypotheses
        if not result.success:
            state.failed = True
            return state, None, diag
        state.history.append(result.pose)
        state.T_init_next = result.pose
        state.frame_index = frame + 1
        return state, result.pose, diag

    def step_loose_coupled(self, state: TrackerState, lidar_map: GlobalMap,
                           T_gt_cur: PoseSE3, vo_relative: PoseSE3 | None,
                           outage=False, kill=False):
        """Candidate selection between flow-PnP and VO propagation.

        Candidate A is the frame-by-frame flow-PnP pose, accepted when its
        inlier reprojection RMSE beats the threshold; otherwise candidate
        B, the previous estimate composed with the VO relative pose, wins.
        """
        cfg = self.config
        K = cfg.camera
        frame = state.frame_index
        T_init = state.T_init_next
        diag = {"frame": frame, "mode": "loose_coupled"}

        prev = state.history[-1] if state.history else T_init
        candidate_b = vo_relative.compose(prev) if vo_relative is not None else prev

        crop, depth, times = self._crop_and_render(lidar_map, T_init)
        diag.update(times)
        candidate_a = None
        rmse = float("inf")
        if depth is not None and depth.valid.any():
            t0 = time.perf_counter()
            f_c2d = oracle_depth_flow(crop, K, T_init, T_gt_cur,
                                      self._frame_noise(frame), stream=0,
                                      depth=depth)
            if outage or kill:
                _invalidate(f_c2d)
            diag["ms_flow"] = 1e3 * (time.perf_counter() - t0)
            t0 = time.perf_counter()
            corrs = correspondences_from_flow(depth, f_c2d, crop)
            result = self._solve_pnp(corrs, T_init, frame, side=0)
            diag["ms_pnp"] = 1e3 * (time.perf_counter() - t0)
            diag["inliers_cur"] = int(result.inliers.sum())
            diag["ransac_hyp_cur"] = result.hypotheses
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

    # -- full runs -------------------------------------------------------------

    def run(self, scenario: Scenario, T0: PoseSE3 | None = None) -> RunResult:
        """Fold the configured step over all frames of a scenario.

        Always returns the partial trajectory on failure; per-frame
        diagnostic rows carry pose errors against the scenario ground
        truth, inlier counts, energies, and stage timings.
        """
        gt = list(scenario.gt_poses)
        n = len(gt)
        state = self.init(T0 if T0 is not None else (gt[0] if n else PoseSE3.identity()))
        diagnostics = []
        if n == 0:
            return RunResult(Trajectory(poses=[]), diagnostics, complete=True)

        mode = self.config.mode
        if mode == "multi_view" and n >= 2:
            for i in range(n - 1):
                state, _, diag = self.step_multi_view(
                    state, scenario.lidar_map, gt[i], gt[i + 1],
                    outage_cur=i in scenario.outage_frames,
                    outage_next=(i + 1) in scenario.outage_frames,
                    kill_cur=i in scenario.flow_kill_frames,
                    kill_next=(i + 1) in scenario.flow_kill_frames)
                self._note_errors(diag, state, gt)
                diagnostics.append(diag)
                if state.failed:
                    break
            if not state.failed:
                state.history.append(state.T_init_next)
                diagnostics.append(self._final_row(state, gt, n - 1))
        elif mode == "loose_coupled":
            vo = scenario.vo_relatives
            if vo is None:
                raise ValueError("loose_coupled mode needs scenario.vo_relatives")
            for i in range(n):
                rel = vo[i - 1] if i >= 1 else None
                state, _, diag = self.step_loose_coupled(
                    state, scenario.lidar_map, gt[i], rel,
                    outage=i in scenario.outage_frames,
                    kill=i in scenario.flow_kill_frames)
                self._note_errors(diag, state, gt)
                diagnostics.append(diag)
                if state.failed:
                    break
        else:  # frame_by_frame, or multi_view over a single frame
            for i in range(n):
                state, _, diag = self.step_frame_by_frame(
                    state, scenario.lidar_map, gt[i],
                    outage=i in scenario.outage_frames,
                    kill=i in scenario.flow_kill_frames)
                self._note_errors(diag, state, gt)
                diagnostics.append(diag)
                if state.failed:
                    break

        complete = (not state.failed) and len(state.history) == n
        return RunResult(Trajectory(poses=list(state.history)), diagnostics, complete)

    @staticmethod
    def _note_errors(diag, state, gt):
        i = diag["frame"]
        if i < len(state.history) and i < len(gt):
            rot, transl = pose_error(state.history[i], gt[i])
            diag["rot_err_deg"] = rot
            diag["transl_err_cm"] = 100.0 * transl
        diag.setdefault("rot_err_deg", float("nan"))
        diag.setdefault("transl_err_cm", float("nan"))

    @staticmethod
    def _final_row(state, gt, i):
        rot, transl = pose_error(state.history[i], gt[i])
        return {"frame": i, "mode": "multi_view", "rot_err_deg": rot,
                "transl_err_cm": 100.0 * transl}


def build_scenario(scene_cfg, traj_cfg, camera: CameraIntrinsics,
                   vo_cfg=None, outage_frames=(), flow_kill_frames=(),
                   map_resolution: float = 0.1,
                   min_visible: int = 500) -> Scenario:
    """Generate a scene + trajectory and wrap them as a tracking scenario.

    Asserts the visibility guarantee: every trajectory pose must see at
    least ``min_visible`` rendered pixels of the downsampled map.
    """
    from .synth import generate_scene, generate_trajectory, vo_oracle

    cloud = generate_scene(scene_cfg)
    gt = generate_trajectory(traj_cfg)
    lidar_map = downsample(GlobalMap.build(cloud), map_resolution)
    crop_box = CropExtents()
    for i, pose in enumerate(gt):
        local = crop_local(lidar_map, pose, crop_box)
        d = render_depth(local, camera, pose)
        n = int(d.valid.sum())
        if n < min_visible:
            raise ValueError(
                f"visibility guarantee violated at frame {i}: {n} < {min_visible}")
    vo_rels = vo_oracle(gt, vo_cfg) if (vo_cfg is not None and len(gt) >= 2) else None
    return Scenario(lidar_map=lidar_map, gt_poses=gt, vo_relatives=vo_rels,
                    outage_frames=frozenset(outage_frames),
                    flow_kill_frames=frozenset(flow_kill_frames))


DIAGNOSTIC_COLUMNS = ["frame", "mode", "rot_err_deg", "transl_err_cm",
                      "inliers_cur", "inliers_next", "ransac_hyp_cur",
                      "ransac_hyp_next", "e_initial", "e_final",
                      "opt_iters", "opt_converged", "rescued", "candidate", "pnp_rmse",
                      "ms_crop", "ms_render", "ms_flow", "ms_pnp", "ms_opt"]


def write_diagnostics_csv(diagnostics, path):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=DIAGNOSTIC_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in diagnostics:
            writer.writerow(row)
