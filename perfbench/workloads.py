"""The benchmark's workloads: seeded inputs, one tracking round, and checks.

Each workload builds its inputs from the benchmark seed alone, runs whole
rounds of identical tracking work, and checks every round against the
synthetic ground truth.  The checks use this file's own pose arithmetic
and KITTI reader, never ``lidartrack.evaluation``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lidartrack import cli, mapping, synth
from lidartrack.flow import FlowNoiseModel
from lidartrack.geometry import CameraIntrinsics
from lidartrack.mapping import CropExtents
from lidartrack.pnp import RansacConfig
from lidartrack.tracker import Scenario, Tracker, TrackerConfig

FLOW_SIGMA_PX = 1.0
# A frame's pose error may reach this many standard deviations of a single
# noisy ray: sigma / f radians of rotation, and that angle at the far end of
# the crop box as camera-centre error.
ERROR_SIGMAS = 3.0


def derived_seed(key) -> int:
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def variant_seeds(seed: int, count: int) -> list[int]:
    """Flow-noise and RANSAC seeds of each of a workload's round variants."""
    return [derived_seed((seed, v)) for v in range(count)]


def error_bounds(focal_px: float, crop_forward_m: float) -> tuple[float, float]:
    """(rotation deg, centre m) bounds for 1-sigma flow noise at this focal."""
    angle = ERROR_SIGMAS * FLOW_SIGMA_PX / focal_px
    return math.degrees(angle), angle * crop_forward_m


def camera_to_world(poses) -> tuple[np.ndarray, np.ndarray]:
    """World->camera PoseSE3 list to camera->world rotations and centres."""
    R = np.array([p.rotation_matrix() for p in poses]).reshape(-1, 3, 3)
    t = np.array([p.t for p in poses]).reshape(-1, 3)
    R_wc = R.transpose(0, 2, 1)
    return R_wc, -np.einsum("nij,nj->ni", R_wc, t)


def read_kitti(path) -> tuple[np.ndarray, np.ndarray]:
    """KITTI rows (camera->world [R|c], 12 reals per line) to R_wc, centres."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 12:
            raise ValueError(f"{path}:{lineno}: {len(fields)} fields, expected 12")
        rows.append([float(x) for x in fields])
    a = np.array(rows).reshape(-1, 3, 4)
    return a[:, :, :3], a[:, :, 3]


def pose_errors(R_est, c_est, R_gt, c_gt) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame rotation angle (deg) and camera-centre distance (m)."""
    rel = np.einsum("nji,njk->nik", R_est, R_gt)  # R_est^T R_gt
    cos = (np.trace(rel, axis1=1, axis2=2) - 1.0) / 2.0
    sin = np.linalg.norm(np.stack([rel[:, 2, 1] - rel[:, 1, 2],
                                   rel[:, 0, 2] - rel[:, 2, 0],
                                   rel[:, 1, 0] - rel[:, 0, 1]], axis=1), axis=1) / 2.0
    return np.degrees(np.arctan2(sin, cos)), np.linalg.norm(c_est - c_gt, axis=1)


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class RoundResult:
    """One round's estimated trajectory (camera->world) and its hash."""

    R_wc: np.ndarray
    centres: np.ndarray
    digest: str
    commands: int = 0
    failed_commands: int = 0
    problems: list = field(default_factory=list)


class Workload:
    """Common checks; subclasses build the inputs and run one round."""

    name = ""
    step_method = ""
    frames = 0            # poses per round
    variants = 1          # rounds cycle through this many noise realizations
    setup_commands = 0    # CLI commands per set-up
    outages = frozenset()  # frames whose depth flows are scripted away
    failed_setup_commands = 0
    R_gt = c_gt = None

    @property
    def planned_steps(self) -> int:
        return self.frames - 1 if self.step_method == "step_multi_view" else self.frames

    def setup(self) -> None:
        """Build the inputs; the harness times this in CPU time."""
        raise NotImplementedError

    def inputs_digest(self) -> str:
        """Hash of the built inputs; also loads the ground truth for checks."""
        raise NotImplementedError

    def run_round(self, variant: int):
        """Run one round of the program; the harness times this call."""
        raise NotImplementedError

    def outcome(self, raw) -> RoundResult:
        """The round's trajectory and outputs, read outside the timed call."""
        raise NotImplementedError

    def coasted(self) -> np.ndarray:
        """Per frame, how many frames in a row have gone without depth flow.

        A frame inside a scripted outage is carried by the image-to-image
        flow alone, so its error may grow by one frame's bound per frame.
        """
        run = np.zeros(self.frames, dtype=int)
        for i in range(self.frames):
            if i in self.outages:
                run[i] = (run[i - 1] if i else 0) + 1
        return run

    def errors(self, res: RoundResult):
        n = len(res.centres)
        return pose_errors(res.R_wc, res.centres, self.R_gt[:n], self.c_gt[:n])

    def check(self, res: RoundResult, reference_digest: str | None) -> list[str]:
        problems = list(res.problems)
        rot, transl = self.errors(res)  # untracked frames count as failed, not as wrong
        scale = np.maximum(self.coasted()[:len(rot)], 1)
        rot_bound, transl_bound = self.bounds
        for label, err, bound, unit in (("rotation", rot, rot_bound * scale, "deg"),
                                        ("centre", transl, transl_bound * scale, "m")):
            bad = np.nonzero(~(err <= bound))[0]
            if len(bad):
                i = bad[0]
                problems.append(f"{label} error {err[i]:.4g} {unit} > {bound[i]:.4g} "
                                f"at frame {i} ({len(bad)} frames over their bound)")
        if reference_digest is not None and res.digest != reference_digest:
            problems.append("trajectory differs from the first round on identical inputs")
        return problems

    def ate_cm(self, rounds, outage: bool = False) -> float:
        """Centre RMSE, pooled over rounds, of the frames with depth flow (or,
        with ``outage``, of the scripted outage frames: they have their own
        bound and are left out of the metric)."""
        sq = []
        for res in rounds:
            _, transl = self.errors(res)
            keep = (self.coasted()[:len(transl)] > 0) == outage
            sq.append(transl[keep] ** 2)
        sq = np.concatenate(sq)
        return 100.0 * float(np.sqrt(np.mean(sq))) if len(sq) else 0.0


class InMemoryWorkload(Workload):
    """``Tracker.run`` on a scenario built in memory, as criterion 7 does."""

    def __init__(self, seed: int, scene: dict, camera: CameraIntrinsics,
                 tracker: dict, noise: dict, outages=frozenset()):
        s_scene = derived_seed(seed)
        self.scene_cfg = synth.SceneConfig(extent=self.frames + 30.0, seed=s_scene, **scene)
        self.traj_cfg = synth.TrajectoryConfig(frame_count=self.frames, speed=1.0,
                                               seed=s_scene)
        self.configs = [
            TrackerConfig(camera=camera,
                          noise=FlowNoiseModel(gaussian_sigma=FLOW_SIGMA_PX, seed=s, **noise),
                          ransac=RansacConfig(inlier_threshold=3.0, seed=s), **tracker)
            for s in variant_seeds(seed, self.variants)]
        self.bounds = error_bounds(camera.fx, self.configs[0].crop.forward)
        self.outages = frozenset(outages)
        self.scenario = None

    def setup(self) -> None:
        # module-attribute lookups, so the traced run sees these calls
        cloud = synth.generate_scene(self.scene_cfg)
        lidar_map = mapping.downsample(mapping.GlobalMap.build(cloud), 0.1)
        gt = synth.generate_trajectory(self.traj_cfg)
        self.scenario = Scenario(lidar_map=lidar_map, gt_poses=gt,
                                 outage_frames=self.outages)

    def inputs_digest(self) -> str:
        self.R_gt, self.c_gt = camera_to_world(self.scenario.gt_poses)
        return array_digest(self.scenario.lidar_map.points, self.R_gt, self.c_gt)

    def run_round(self, variant: int):
        return Tracker(self.configs[variant]).run(self.scenario)

    def outcome(self, raw) -> RoundResult:
        R_wc, centres = camera_to_world(raw.trajectory.poses)
        return RoundResult(R_wc, centres, array_digest(R_wc, centres))


class MvDense(InMemoryWorkload):
    name = "mv_dense"
    step_method = "step_multi_view"
    frames = 200
    variants = 2

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(
            seed,
            scene=dict(ground_density=5.0, facade_density=25.0, pole_count=90),
            camera=CameraIntrinsics(fx=100.0, fy=100.0, cx=120.0, cy=40.0,
                                    width=240, height=80),
            tracker=dict(mode="multi_view", crop=CropExtents(40.0, 8.0, 16.0),
                         occlusion_window=5, consist_point_cap=800,
                         reproj_point_cap=800),
            noise={},
            outages=set(range(60, 63)) | set(range(130, 133)))


class FbfOutliers(InMemoryWorkload):
    name = "fbf_outliers"
    step_method = "step_frame_by_frame"
    frames = 80
    variants = 4

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(
            seed,
            scene=dict(ground_density=8.0, facade_density=40.0, pole_count=60),
            camera=CameraIntrinsics(fx=100.0, fy=100.0, cx=240.0, cy=80.0,
                                    width=480, height=160),
            tracker=dict(mode="frame_by_frame", crop=CropExtents(50.0, 8.0, 18.0),
                         occlusion_window=5),
            noise=dict(outlier_fraction=0.5, outlier_magnitude=30.0))


class CliWide(Workload):
    """``synth`` then ``track`` through ``cli.main`` on the default config."""

    name = "cli_wide"
    step_method = "step_multi_view"
    frames = 40
    variants = 4
    setup_commands = 1

    def __init__(self, seed: int, work_dir: Path):
        s_scene = derived_seed(seed)
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = work_dir / "config.json"
        self.config_path.write_text(json.dumps({
            "scene": {"seed": s_scene},
            "trajectory": {"frame_count": self.frames, "seed": s_scene},
            "noise": {"gaussian_sigma": FLOW_SIGMA_PX},
        }))
        self.track_seeds = variant_seeds(seed, self.variants)
        self.scenario_dir = work_dir / "scenario"
        self.run_dir = work_dir / "run"
        defaults = cli.DEFAULT_CONFIG
        self.bounds = error_bounds(defaults["camera"]["fx"], defaults["crop"]["forward"])

    def setup(self) -> None:
        code = cli.main(["synth", "--config", str(self.config_path),
                         "--out", str(self.scenario_dir), "--quiet"])
        self.failed_setup_commands += int(code != cli.EXIT_OK)
        if code == cli.EXIT_OK:
            # the scenario load that every ``track`` command starts with
            cli._load_scenario(cli.load_config(self.config_path), self.scenario_dir)

    def inputs_digest(self) -> str:
        gt_path = self.scenario_dir / "gt_poses.txt"
        self.R_gt, self.c_gt = read_kitti(gt_path)
        return hashlib.sha256((self.scenario_dir / "scene.xyz").read_bytes()
                              + gt_path.read_bytes()).hexdigest()

    def run_round(self, variant: int) -> int:
        # ``track --seed`` sets both the flow-noise and the RANSAC seed
        return cli.main(["track", "--config", str(self.config_path),
                         "--scenario", str(self.scenario_dir),
                         "--out", str(self.run_dir),
                         "--seed", str(self.track_seeds[variant]), "--quiet"])

    def outcome(self, code: int) -> RoundResult:
        traj_path = self.run_dir / "est_traj.txt"
        problems = []
        R_wc, centres = read_kitti(traj_path)
        if code == cli.EXIT_OK:  # a failed command is counted, not checked
            with open(self.run_dir / "diagnostics.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if [int(r["frame"]) for r in rows] != list(range(len(centres))):
                problems.append("diagnostics.csv does not hold one row per tracked frame")
            manifest = json.loads((self.run_dir / "manifest.json").read_text())
            if manifest.get("command") != "track":
                problems.append("manifest.json does not record the track command")
        return RoundResult(R_wc, centres, hashlib.sha256(traj_path.read_bytes()).hexdigest(),
                           commands=1, failed_commands=int(code != cli.EXIT_OK),
                           problems=problems)


WORKLOADS = {w.name: w for w in (MvDense, FbfOutliers, CliWide)}
