"""Online pose tracking: crop, render, flow, PnP, joint optimization.

Three modes:

* ``frame_by_frame`` -- independent flow + PnP per frame, the previous
  estimate seeding the next frame's crop and rendering.
* ``loose_coupled``  -- per frame, pick between the flow-PnP candidate
  and a VO-propagated candidate by an inlier-RMSE threshold.
* ``multi_view``     -- overlapping two-frame windows refined jointly
  under the consistency + reprojection energy; the pair advances one
  frame per step and the next-frame estimate seeds the following step.

Every step method takes ``(state, scenario)`` and solves the frame at
``state.frame_index`` (with the next one, for a pair); ``Tracker.run``
picks the mode's step once and calls it once per planned step.  Each
step is one shared front-end and a back-end per mode.  The front-end
(``Tracker._front_end``) crops the map at the carried initial pose,
renders the depth map, runs the flow oracle, blanks the image-to-depth
flow of the scenario's outage frames, and turns each frame's
image-to-depth flow into correspondences and a PnP+RANSAC pose.  The
back-ends only decide: ``multi_view`` runs the joint LM and its rescue
routes, ``frame_by_frame`` accepts the PnP pose or fails, and
``loose_coupled`` chooses between the PnP and the VO candidate built
from the scenario's VO relative pose.

Ground-truth poses enter the steps only through the flow oracle, which
stands in for network inference.  Both frames of a pair share one crop
and one rendered depth map centered at the carried initial pose.
"""
from __future__ import annotations

import csv
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import mapping
from .evaluation import Trajectory
from .flow import FlowNoiseModel, oracle_depth_flow, oracle_flows
from .geometry import CameraIntrinsics, PoseSE3, check_fields, pose_error
from .joint import EnergyConfig, optimize_next_only, optimize_pair
from .mapping import CropExtents, GlobalMap, crop_local
from .pnp import (Correspondences, RansacConfig, _stride_cap, correspondences_from_flow,
                  solve_pnp_ransac)
from .rendering import (DEFAULT_OCCLUSION_APERTURE_DEG, DEFAULT_OCCLUSION_WINDOW,
                        DepthMap, FlowField, render_depth)
# perfbench/tracing.py wraps tracker.remove_occlusions, so the name stays importable here
from .rendering import remove_occlusions  # noqa: F401
from .synth import vo_oracle

MODES = ("frame_by_frame", "loose_coupled", "multi_view")

log = logging.getLogger("lidartrack.tracker")


@dataclass(frozen=True)
class TrackerConfig:
    camera: CameraIntrinsics
    mode: str = "multi_view"
    crop: CropExtents = CropExtents()
    noise: FlowNoiseModel = FlowNoiseModel()
    ransac: RansacConfig = RansacConfig()
    energy: EnergyConfig = EnergyConfig()
    loose_reproj_threshold: float = 2.0   # px
    occlusion_aperture_deg: float = DEFAULT_OCCLUSION_APERTURE_DEG
    occlusion_window: int = DEFAULT_OCCLUSION_WINDOW
    consist_point_cap: int = 2000
    reproj_point_cap: int = 1500  # per-frame inliers fed to the joint stage

    def __post_init__(self):
        check_fields(self, positive=("consist_point_cap", "reproj_point_cap"),
                     non_negative=("loose_reproj_threshold", "occlusion_window"))
        if self.occlusion_aperture_deg >= 90:  # tan flips sign: the cone hides pixels
            raise ValueError("occlusion_aperture_deg must be below 90")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}")


@dataclass
class Scenario:
    """Everything a tracking run consumes.

    ``vo_relatives[i - 1]`` is the VO relative pose from frame i - 1 to
    frame i.  ``outage_frames`` blank the image-to-depth flow channels of
    those frames while the image-to-image flow survives (a
    depth-projection outage).
    """

    lidar_map: GlobalMap
    gt_poses: list
    vo_relatives: list | None = None
    outage_frames: frozenset = frozenset()


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


@dataclass
class FrontEnd:
    """What the shared front-end hands a step's back-end."""

    crop: np.ndarray
    depth: DepthMap
    image_flow: FlowField | None  # current -> next image; pairs only
    corrs: list                   # one Correspondences per frame
    pnps: list                    # one PnPResult per frame


def _derived_seed(base: int, *key) -> int:
    return int(np.random.SeedSequence((int(base),) + tuple(int(k) for k in key))
               .generate_state(1)[0])


@contextmanager
def _stage(diag, name: str):
    """Time the block into ``diag["ms_<name>"]`` (wall-clock milliseconds)."""
    t0 = time.perf_counter()
    yield
    diag[f"ms_{name}"] = 1e3 * (time.perf_counter() - t0)


class Tracker:
    """Stateless-config tracking engine; state is passed through steps."""

    def __init__(self, config: TrackerConfig):
        self.config = config

    # -- shared per-step plumbing -------------------------------------------

    def _frame_noise(self, frame: int) -> FlowNoiseModel:
        base = self.config.noise
        return replace(base, seed=_derived_seed(base.seed, frame))

    def _solve_pnp(self, corrs: Correspondences, T_init, frame: int, side: int):
        cfg = replace(self.config.ransac,
                      seed=_derived_seed(self.config.ransac.seed, frame, side))
        return solve_pnp_ransac(corrs, self.config.camera, T_init, cfg)

    def _front_end(self, diag, state, scenario, frames: int):
        """Crop, render, flow oracle, correspondences and PnP of one step.

        The step solves ``frames`` frames from ``state.frame_index`` on:
        one, or the current and next frame of a pair.  Their ground truth
        goes to the oracle only; an outage frame's image-to-depth flow is
        replaced by an invalid field.  Writes the stage timings and the
        ``inliers_*``/``ransac_hyp_*`` columns into ``diag``.  Returns None
        when the crop renders no pixel.
        """
        cfg, K = self.config, self.config.camera
        frame, T_init = state.frame_index, state.T_init_next
        with _stage(diag, "crop"):
            crop = crop_local(scenario.lidar_map, T_init, cfg.crop)
        with _stage(diag, "render"):
            depth = (render_depth(crop, K, T_init, cfg.occlusion_aperture_deg,
                                  cfg.occlusion_window) if len(crop) else None)
        if depth is None or len(depth.flat) == 0:
            return None

        with _stage(diag, "flow"):
            noise = self._frame_noise(frame)
            gt_poses = scenario.gt_poses[frame:frame + frames]
            if frames == 2:
                flows = oracle_flows(crop, K, T_init, *gt_poses, noise,
                                     cfg.occlusion_aperture_deg, cfg.occlusion_window,
                                     depth_init=depth)
                to_depth, image_flow = [flows.f_c2d, flows.f_n2d], flows.f_c2n
            else:
                # default occlusion settings: cfg's would move single-frame trajectories
                to_depth = [oracle_depth_flow(crop, K, T_init, gt_poses[0], noise,
                                              stream=0, depth=depth)]
                image_flow = None
            to_depth = [FlowField.invalid(K.height, K.width)
                        if frame + k in scenario.outage_frames else f
                        for k, f in enumerate(to_depth)]

        with _stage(diag, "pnp"):
            corrs = [correspondences_from_flow(depth, f, crop) for f in to_depth]
            pnps = [self._solve_pnp(c, T_init, frame, side) for side, c in enumerate(corrs)]
        for side, pnp in zip(("cur", "next"), pnps):
            diag[f"inliers_{side}"] = int(pnp.inliers.sum())
            diag[f"ransac_hyp_{side}"] = pnp.hypotheses
        return FrontEnd(crop, depth, image_flow, corrs, pnps)

    @staticmethod
    def _advance(state, pose, T_next):
        state.history.append(pose)
        state.T_init_next = T_next
        state.frame_index += 1

    @staticmethod
    def _fail(state, diag, reason: str):
        state.failed = True
        diag["fail_reason"] = reason
        log.warning("%s: tracking failed at frame %d (%s)", diag["mode"], diag["frame"], reason)
        return state, None, diag

    # -- steps ----------------------------------------------------------------

    def step_multi_view(self, state: TrackerState, scenario: Scenario):
        """One overlapping-pair step; returns (state', (T_cur*, T_next*), diag).

        When PnP fails on one frame, the joint optimizer runs with the
        surviving reprojection term plus the consistency term.  When both
        fail but the image-to-image flow survives, the current pose is
        frozen at the carried estimate and the next pose follows from the
        consistency term alone.  With no usable constraints the state is
        marked failed.
        """
        cfg = self.config
        T_init = state.T_init_next
        diag = {"frame": state.frame_index, "mode": "multi_view"}
        fe = self._front_end(diag, state, scenario, 2)
        if fe is None:
            return self._fail(state, diag, "no_render")
        (corrs_cur, corrs_next), (pnp_cur, pnp_next) = fe.corrs, fe.pnps

        if pnp_cur.success:
            consist_pts = corrs_cur.p_world[pnp_cur.inliers]
        elif pnp_next.success:
            consist_pts = corrs_next.p_world[pnp_next.inliers]
        else:
            consist_pts = fe.crop[fe.depth.source]
        consist_pts = _stride_cap(consist_pts, cfg.consist_point_cap)
        T_cur0 = pnp_cur.pose if pnp_cur.success else T_init
        T_next0 = pnp_next.pose if pnp_next.success else T_cur0
        inl_cur, inl_next = (
            c.subset(_stride_cap(np.nonzero(p.inliers)[0], cfg.reproj_point_cap))
            if p.success else None for c, p in zip(fe.corrs, fe.pnps))

        with _stage(diag, "opt"):
            if pnp_cur.success or pnp_next.success:
                result = optimize_pair(T_cur0, T_next0, inl_cur, inl_next,
                                       consist_pts, fe.image_flow, cfg.camera, cfg.energy)
            else:
                result = optimize_next_only(T_init, T_init, consist_pts,
                                            fe.image_flow, cfg.camera, cfg.energy)
        diag["consist_pts"] = result.consist_pts
        degenerate = result.iterations == 0 and not result.converged
        if not (pnp_cur.success or pnp_next.success):
            if degenerate:
                return self._fail(state, diag, "consistency_degenerate")
            T_cur_star, T_next_star, rescued = T_init, result.T_next_star, "consistency_only"
        elif degenerate and not pnp_next.success:
            # next frame unobservable: keep the current estimate, stop
            state.history.append(T_cur0)
            return self._fail(state, diag, "next_unobservable")
        elif degenerate:
            # reprojection-only on the next frame: the current frame
            # coasts on the carried estimate and tracking continues
            T_cur_star, T_next_star, rescued = T_cur0, T_next0, "coast_cur"
        else:
            T_cur_star, T_next_star = result.T_cur_star, result.T_next_star
            rescued = "" if (pnp_cur.success and pnp_next.success) else "one_frame"
        diag.update(rescued=rescued, e_initial=result.initial_energy,
                    e_final=result.final_energy, opt_iters=result.iterations,
                    opt_converged=result.converged)
        self._advance(state, T_cur_star, T_next_star)
        return state, (T_cur_star, T_next_star), diag

    def step_frame_by_frame(self, state: TrackerState, scenario: Scenario):
        """Independent single-frame flow + PnP; no inter-frame constraint."""
        diag = {"frame": state.frame_index, "mode": "frame_by_frame"}
        fe = self._front_end(diag, state, scenario, 1)
        if fe is None:
            return self._fail(state, diag, "no_render")
        pnp = fe.pnps[0]
        if not pnp.success:
            return self._fail(state, diag, "pnp_failed")
        self._advance(state, pnp.pose, pnp.pose)
        return state, pnp.pose, diag

    def step_loose_coupled(self, state: TrackerState, scenario: Scenario):
        """Candidate selection between flow-PnP and VO propagation.

        Candidate A is the frame-by-frame flow-PnP pose, accepted when its
        inlier reprojection RMSE beats the threshold; otherwise candidate
        B, the previous estimate composed with the VO relative pose into
        this frame (none at frame 0), wins.  A crop that renders no pixel
        fails the run, as in the other modes.
        """
        i = state.frame_index
        diag = {"frame": i, "mode": "loose_coupled"}
        fe = self._front_end(diag, state, scenario, 1)
        if fe is None:
            return self._fail(state, diag, "no_render")
        pnp = fe.pnps[0]
        diag["pnp_rmse"] = pnp.rmse if pnp.success else float("inf")
        if diag["pnp_rmse"] < self.config.loose_reproj_threshold:
            pose, diag["candidate"] = pnp.pose, "pnp"
        else:
            prev = state.history[-1] if state.history else state.T_init_next
            pose = scenario.vo_relatives[i - 1].compose(prev) if i else prev
            diag["candidate"] = "vo"
        self._advance(state, pose, pose)
        return state, pose, diag

    # -- full runs -------------------------------------------------------------

    def run(self, scenario: Scenario, T0: PoseSE3 | None = None) -> RunResult:
        """Fold the configured step over all frames of a scenario.

        Always returns the partial trajectory on failure; per-frame
        diagnostic rows carry pose errors against the scenario ground
        truth, inlier counts, energies, and stage timings.
        """
        gt = scenario.gt_poses
        n = len(gt)
        state = TrackerState(T0 if T0 is not None else (gt[0] if n else PoseSE3.identity()))
        mode, vo = self.config.mode, scenario.vo_relatives
        if mode == "loose_coupled" and n and (vo is None or len(vo) < n - 1):
            raise ValueError("loose_coupled mode needs scenario.vo_relatives, "
                             "one per frame after the first")
        pair = mode == "multi_view" and n >= 2
        # frame_by_frame also serves multi_view over a single frame
        step = (self.step_multi_view if pair else self.step_loose_coupled
                if mode == "loose_coupled" else self.step_frame_by_frame)
        diagnostics = []
        for _ in range(n - 1 if pair else n):
            state, _, diag = step(state, scenario)
            self._note_errors(diag, state, gt)
            diagnostics.append(diag)
            if state.failed:
                break
        else:
            if pair:  # the last pair's next-frame estimate is the final pose
                state.history.append(state.T_init_next)
                diagnostics.append({"frame": n - 1, "mode": "multi_view"})
                self._note_errors(diagnostics[-1], state, gt)

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


def scenario_from_cloud(cloud, gt, map_resolution: float = 0.1, vo_cfg=None,
                        outage_frames=()) -> Scenario:
    """Downsample a cloud into the map and wrap it with ``gt`` as a scenario.

    With ``vo_cfg`` the scenario carries one VO relative pose per
    consecutive frame pair (none below two poses); without it, no VO.
    """
    # mapping.downsample by module attribute, so perfbench/tracing.py sees the call
    lidar_map = mapping.downsample(GlobalMap.build(cloud), map_resolution)
    return Scenario(lidar_map=lidar_map, gt_poses=gt,
                    vo_relatives=vo_oracle(gt, vo_cfg) if vo_cfg is not None else None,
                    outage_frames=frozenset(outage_frames))


DIAGNOSTIC_COLUMNS = ["frame", "mode", "rot_err_deg", "transl_err_cm",
                      "inliers_cur", "inliers_next", "ransac_hyp_cur",
                      "ransac_hyp_next", "e_initial", "e_final",
                      "opt_iters", "opt_converged", "consist_pts", "rescued",
                      "fail_reason", "candidate", "pnp_rmse",
                      "ms_crop", "ms_render", "ms_flow", "ms_pnp", "ms_opt"]


def write_diagnostics_csv(diagnostics, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=DIAGNOSTIC_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(diagnostics)
