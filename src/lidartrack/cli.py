"""Command-line entry point for reproducible experiments.

Subcommands: ``synth`` (scene + trajectory generation), ``track`` (run
the tracker over a scenario), ``eval`` (trajectory metrics), ``ablate``
(the three tracking modes on identical seeds).  Every command writes a
manifest sufficient to reproduce its primary outputs bit-exactly; all
randomness flows from manifest-recorded seeds.

Exit codes: 0 on success ("complete" for track), 2 when tracking was
interrupted by a localization failure, 1 for usage/config/IO errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, evaluation, formats
from .evaluation import Trajectory, build_report, emit_report, format_report
from .flow import FlowNoiseModel
from .geometry import (CameraIntrinsics, PerturbBounds, PoseSE3, perturb_pose,
                       pose_error)
from .joint import EnergyConfig
from .mapping import CropExtents
# perfbench/tracing.py wraps cli.downsample, so the name stays importable here
from .mapping import downsample  # noqa: F401
from .pnp import RansacConfig
from .synth import (SceneConfig, TrajectoryConfig, VoOracleConfig,
                    generate_scene, generate_trajectory)
from .tracker import (MODES, Tracker, TrackerConfig, scenario_from_cloud,
                      write_diagnostics_csv)

log = logging.getLogger("lidartrack")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INTERRUPTED = 2


class ConfigError(ValueError):
    """Invalid or missing configuration value; message names the field."""


DEFAULT_CONFIG = {
    "seed": 0,
    "camera": {"fx": 100.0, "fy": 100.0, "cx": 480.0, "cy": 160.0,
               "width": 960, "height": 320},
    "scene": {"extent": 150.0, "ground_density": 0.8, "facade_density": 1.5,
              "pole_count": 40, "seed": 0},
    "trajectory": {"frame_count": 100, "speed": 1.0, "turn_rate_deg": 0.0,
                   "profile": "straight", "seed": 0},
    "crop": {"forward": 100.0, "backward": 10.0, "lateral": 25.0},
    "noise": {"gaussian_sigma": 0.0, "outlier_fraction": 0.0,
              "outlier_magnitude": 0.0, "dropout_fraction": 0.0, "seed": 0},
    "ransac": {"max_iters": 1000, "inlier_threshold": 2.0, "min_inliers": 20,
               "confidence": 0.99, "seed": 0},
    "energy": {"w_consist": 1.0, "w_reproj": 1.0, "huber_delta": 2.0,
               "max_iters": 50, "rel_tol": 1e-6, "lambda0": 1e-4},
    "vo": {"rot_drift_sigma_deg": 0.0, "transl_drift_sigma": 0.0, "seed": 0},
    "tracker": {"mode": "multi_view", "loose_reproj_threshold": 2.0,
                "occlusion_aperture_deg": 10.0, "occlusion_window": 7,
                "consist_point_cap": 2000, "reproj_point_cap": 1500},
    "init_perturb": {"max_transl_per_axis": 0.0, "max_rot_per_axis_deg": 0.0,
                     "seed": 0},
    "map_resolution": 0.1,
    "outages": [],
    "ablate_modes": list(MODES),
}


def _merge(defaults, override, prefix=""):
    out = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config field {prefix}{key}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config field {prefix}{key} must be an object")
            out[key] = _merge(defaults[key], value, prefix=f"{prefix}{key}.")
        else:
            out[key] = value
    return out


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if "config" in raw and isinstance(raw["config"], dict):
        raw = raw["config"]  # accept a manifest in place of a config
    return _merge(DEFAULT_CONFIG, raw)


def _build(cfg):
    """Instantiate typed configs; dataclass validators do the range checks."""
    try:
        camera = CameraIntrinsics(**cfg["camera"])
        scene = SceneConfig(**cfg["scene"])
        traj = TrajectoryConfig(**cfg["trajectory"])
        crop = CropExtents(**cfg["crop"])
        noise = FlowNoiseModel(**cfg["noise"])
        ransac = RansacConfig(**cfg["ransac"])
        energy = EnergyConfig(**cfg["energy"])
        vo = VoOracleConfig(**cfg["vo"])
        perturb = PerturbBounds(cfg["init_perturb"]["max_transl_per_axis"],
                                cfg["init_perturb"]["max_rot_per_axis_deg"])
        tracker = TrackerConfig(camera=camera, crop=crop, noise=noise,
                                ransac=ransac, energy=energy, **cfg["tracker"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    if cfg["map_resolution"] <= 0:
        raise ConfigError("map_resolution must be positive")
    return camera, scene, traj, tracker, vo, perturb


def _outage_frames(cfg):
    frames = set()
    for entry in cfg["outages"]:
        if isinstance(entry, (list, tuple)) and len(entry) == 2:
            start, length = entry
            frames.update(range(int(start), int(start) + int(length)))
        else:
            frames.add(int(entry))
    return frozenset(frames)


def _write_manifest(out_dir, command, cfg, artifacts, timings):
    manifest = {
        "tool": "lidartrack",
        "version": __version__,
        "command": command,
        "config": cfg,
        "seeds": {"master": cfg["seed"], "scene": cfg["scene"]["seed"],
                  "trajectory": cfg["trajectory"]["seed"],
                  "noise": cfg["noise"]["seed"], "ransac": cfg["ransac"]["seed"],
                  "vo": cfg["vo"]["seed"], "init_perturb": cfg["init_perturb"]["seed"]},
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "wall_clock_s": timings,
    }
    path = Path(out_dir) / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(config_path, out_dir, seed_override=None) -> int:
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg["scene"]["seed"] = seed_override
        cfg["trajectory"]["seed"] = seed_override
    _, scene_cfg, traj_cfg, _, _, _ = _build(cfg)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    t0 = time.perf_counter()
    cloud = generate_scene(scene_cfg)
    timings["scene"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    traj = generate_trajectory(traj_cfg)
    timings["trajectory"] = time.perf_counter() - t0

    scene_path = out / "scene.xyz"
    gt_path = out / "gt_poses.txt"
    formats.save_xyz(cloud, scene_path)
    formats.save_trajectory_poses(traj, gt_path)
    _write_manifest(out, "synth", cfg, {"scene": scene_path, "gt_poses": gt_path},
                    timings)
    log.info("synth: %d points, %d poses -> %s", len(cloud), len(traj), out)
    return EXIT_OK


def _load_scenario(cfg, scenario_dir):
    scenario_dir = Path(scenario_dir)
    scene_path = scenario_dir / "scene.xyz"
    gt_path = scenario_dir / "gt_poses.txt"
    if not scene_path.exists():
        raise ConfigError(f"missing scene file: {scene_path}")
    if not gt_path.exists():
        raise ConfigError(f"missing ground-truth poses: {gt_path}")
    return scenario_from_cloud(formats.load_cloud(scene_path),
                               formats.load_trajectory_poses(gt_path), cfg["map_resolution"],
                               VoOracleConfig(**cfg["vo"]), _outage_frames(cfg))


def _initial_pose(cfg, gt, bounds: PerturbBounds):
    T0 = gt[0] if gt else PoseSE3.identity()
    if bounds.max_transl_per_axis > 0 or bounds.max_rot_per_axis_deg > 0:
        T0 = perturb_pose(T0, bounds, cfg["init_perturb"]["seed"])
    return T0


def cmd_track(config_path, scenario_dir, out_dir, mode_override=None,
              seed_override=None) -> int:
    cfg = load_config(config_path)
    if mode_override is not None:
        cfg["tracker"]["mode"] = mode_override
    if seed_override is not None:
        cfg["noise"]["seed"] = seed_override
        cfg["ransac"]["seed"] = seed_override
    _, _, _, tracker_cfg, _, perturb = _build(cfg)
    scenario = _load_scenario(cfg, scenario_dir)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    result = Tracker(tracker_cfg).run(scenario, T0=_initial_pose(cfg, scenario.gt_poses, perturb))
    wall = time.perf_counter() - t0

    traj_path = out / "est_traj.txt"
    diag_path = out / "diagnostics.csv"
    evaluation.save_trajectory(result.trajectory, traj_path)
    write_diagnostics_csv(result.diagnostics, diag_path)
    _write_manifest(out, "track", cfg,
                    {"trajectory": traj_path, "diagnostics": diag_path,
                     "scenario": scenario_dir},
                    {"track": wall})
    frames = len(result.trajectory)
    log.info("track[%s]: %d/%d frames, complete=%s", tracker_cfg.mode, frames,
             len(scenario.gt_poses), result.complete)
    return EXIT_OK if result.complete else EXIT_INTERRUPTED


def cmd_eval(est_path, gt_path, out_dir=None, rpe_delta=1, align=False) -> int:
    est = evaluation.load_trajectory(est_path)
    gt = evaluation.load_trajectory(gt_path)
    if len(est) != len(gt):
        raise ConfigError(f"trajectory length mismatch: {len(est)} vs {len(gt)}")
    report = build_report(est, gt, rpe_delta=rpe_delta, align=align)
    text = format_report(report)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        emit_report(report, out / "metrics.csv")
        (out / "metrics.txt").write_text(text + "\n")
        evaluation.write_per_frame_csv(est, gt, out / "per_frame.csv")
    print(text)
    return EXIT_OK


def cmd_ablate(config_path, out_dir, seed_override=None) -> int:
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg["noise"]["seed"] = seed_override
        cfg["ransac"]["seed"] = seed_override
    _, scene_cfg, traj_cfg, tracker_cfg, vo_cfg, perturb = _build(cfg)
    modes = cfg["ablate_modes"]
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"unknown ablate mode {mode!r}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    scenario = scenario_from_cloud(generate_scene(scene_cfg), generate_trajectory(traj_cfg),
                                   cfg["map_resolution"], vo_cfg, _outage_frames(cfg))
    gt = scenario.gt_poses
    T0 = _initial_pose(cfg, gt, perturb)

    import csv as _csv
    rows = []
    for mode in modes:
        run_cfg = dataclasses.replace(tracker_cfg, mode=mode)
        t0 = time.perf_counter()
        result = Tracker(run_cfg).run(scenario, T0=T0)
        wall = time.perf_counter() - t0
        k = len(result.trajectory)
        errs = np.array([pose_error(a, b)
                         for a, b in zip(result.trajectory.poses, gt[:k])]).reshape(-1, 2)
        rows.append({
            "mode": mode,
            "frames": k,
            "mean_transl_cm": 100 * float(errs[:, 1].mean()) if k else float("nan"),
            "std_transl_cm": 100 * float(errs[:, 1].std()) if k else float("nan"),
            "mean_rot_deg": float(errs[:, 0].mean()) if k else float("nan"),
            "std_rot_deg": float(errs[:, 0].std()) if k else float("nan"),
            "complete": result.complete,
            "ms_per_frame": 1e3 * wall / max(k, 1),
        })
        log.info("ablate[%s]: complete=%s", mode, result.complete)

    csv_path = out / "ablation.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    _write_manifest(out, "ablate", cfg, {"ablation": csv_path}, {})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parser():
    parser = argparse.ArgumentParser(
        prog="lidartrack",
        description="camera pose tracking in LiDAR maps (synthetic pipeline)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a scene and GT trajectory")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--quiet", action="store_true")

    p_track = sub.add_parser("track", help="run the tracker over a scenario")
    p_track.add_argument("--config", required=True)
    p_track.add_argument("--scenario", required=True, help="directory from synth")
    p_track.add_argument("--out", required=True)
    p_track.add_argument("--mode", choices=MODES, default=None)
    p_track.add_argument("--seed", type=int, default=None)
    p_track.add_argument("--quiet", action="store_true")

    p_eval = sub.add_parser("eval", help="trajectory metrics (ATE/RPE/errors)")
    p_eval.add_argument("est", help="estimated trajectory, KITTI pose format")
    p_eval.add_argument("gt", help="ground-truth trajectory, KITTI pose format")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--rpe-delta", type=int, default=1)
    p_eval.add_argument("--align", action="store_true")
    p_eval.add_argument("--quiet", action="store_true")

    p_ablate = sub.add_parser("ablate", help="compare tracking modes on one scenario")
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--out", required=True)
    p_ablate.add_argument("--seed", type=int, default=None)
    p_ablate.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    level = os.environ.get("LIDARTRACK_LOG", "INFO").upper()
    logging.basicConfig(level="ERROR" if args.quiet else level,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "synth":
            return cmd_synth(args.config, args.out, args.seed)
        if args.command == "track":
            return cmd_track(args.config, args.scenario, args.out,
                             args.mode, args.seed)
        if args.command == "eval":
            return cmd_eval(args.est, args.gt, args.out, args.rpe_delta, args.align)
        if args.command == "ablate":
            return cmd_ablate(args.config, args.out, args.seed)
    except (ConfigError, formats.FormatError) as exc:
        log.error("%s", exc)
        return EXIT_ERROR
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
