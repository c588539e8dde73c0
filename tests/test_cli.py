import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lidartrack import cli
from lidartrack.cli import EXIT_ERROR, EXIT_INTERRUPTED, EXIT_OK, main


def run_program(*args):
    """``lidartrack.cli`` as a program, so that a traceback would show on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "lidartrack.cli", *args],
                          capture_output=True, text=True, env=env, timeout=300)


def write_config(path, **overrides):
    cfg = {
        "camera": {"fx": 100.0, "fy": 100.0, "cx": 240.0, "cy": 80.0,
                   "width": 480, "height": 160},
        "scene": {"extent": 40.0, "ground_density": 10.0,
                  "facade_density": 40.0, "pole_count": 25, "seed": 3},
        "trajectory": {"frame_count": 6, "speed": 1.0, "profile": "straight",
                       "seed": 3},
        "crop": {"forward": 45.0, "backward": 8.0, "lateral": 18.0},
        "tracker": {"mode": "multi_view", "occlusion_window": 5},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return path


class TestSynth:
    def test_writes_three_files(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out), "--quiet"]) == EXIT_OK
        assert (out / "scene.xyz").exists()
        assert (out / "gt_poses.txt").exists()
        assert (out / "manifest.json").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--config", str(cfg), "--out", str(a), "--quiet"])
        main(["synth", "--config", str(cfg), "--out", str(b), "--quiet"])
        assert (a / "scene.xyz").read_bytes() == (b / "scene.xyz").read_bytes()
        assert (a / "gt_poses.txt").read_bytes() == (b / "gt_poses.txt").read_bytes()

    def test_invalid_config_field(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", trajectory={"frame_count": 0})
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_ERROR

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_field": 1}))
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_ERROR

    def test_reproj_point_cap_accepted(self, tmp_path):
        assert cli.DEFAULT_CONFIG["tracker"]["reproj_point_cap"] == 1500
        cfg = write_config(tmp_path / "cfg.json", tracker={"reproj_point_cap": 1500})
        out = tmp_path / "o"
        assert main(["synth", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["tracker"]["reproj_point_cap"] == 1500

    def test_readme_config_block_is_the_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        documented = json.loads(re.sub(r"//[^\n]*", "", block))
        assert documented == cli.DEFAULT_CONFIG

    def test_fractional_width_is_a_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", camera={"width": 960.5})
        proc = run_program("synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == EXIT_ERROR
        assert "ERROR lidartrack: width must be an integer" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_zero_huber_delta_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", energy={"huber_delta": 0})
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_ERROR

    def test_removed_failure_threshold_is_unknown(self, tmp_path, caplog):
        # the field was never read; a config that still sets it is refused
        cfg = write_config(tmp_path / "cfg.json", tracker={"failure_threshold_m": 4.0})
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_ERROR
        assert "unknown config field tracker.failure_threshold_m" in caplog.text

    def test_zero_point_cap_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", tracker={"consist_point_cap": 0})
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_ERROR

    def test_removed_top_level_seed_is_unknown(self, tmp_path, caplog):
        # the top-level seed was never read; each section carries its own
        cfg = write_config(tmp_path / "cfg.json", seed=1)
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_ERROR
        assert "unknown config field seed" in caplog.text

    def test_negative_seed_is_a_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        proc = run_program("synth", "--config", str(cfg), "--out", str(tmp_path / "o"),
                           "--seed", "-1")
        assert proc.returncode == EXIT_ERROR
        assert "ERROR lidartrack: seed must be non-negative" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_config_that_is_not_an_object_is_a_config_error(self, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_ERROR
        assert "config must be a JSON object" in caplog.text


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("scenario")
    cfg = write_config(base / "cfg.json")
    out = base / "scen"
    assert main(["synth", "--config", str(cfg), "--out", str(out), "--quiet"]) == EXIT_OK
    return cfg, out


# a 10 m scene and 30 frames 1 m apart: the camera drives off the map
OFF_MAP = {"camera": {"fx": 50.0, "fy": 50.0, "cx": 120.0, "cy": 40.0,
                      "width": 240, "height": 80},
           "scene": {"extent": 10.0}, "trajectory": {"frame_count": 30}}


@pytest.fixture(scope="module")
def off_map_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("off_map")
    cfg = write_config(base / "cfg.json", **copy.deepcopy(OFF_MAP))
    out = base / "scen"
    assert main(["synth", "--config", str(cfg), "--out", str(out), "--quiet"]) == EXIT_OK
    return out


class TestTrack:
    @pytest.mark.parametrize("mode", ["multi_view", "frame_by_frame", "loose_coupled"])
    def test_trajectory_that_leaves_the_map_interrupts(self, off_map_dir, tmp_path, mode):
        cfg = write_config(tmp_path / "cfg.json", **copy.deepcopy(OFF_MAP),
                           tracker={"mode": mode, "occlusion_window": 5})
        out = tmp_path / "run"
        code = main(["track", "--config", str(cfg), "--scenario", str(off_map_dir),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_INTERRUPTED
        rows = (out / "diagnostics.csv").read_text().splitlines()
        reason = rows[0].split(",").index("fail_reason")
        reasons = [r.split(",")[reason] for r in rows[1:]]
        assert reasons[-1] in ("no_render", "pnp_failed", "next_unobservable",
                               "consistency_degenerate")
        assert not any(reasons[:-1])
        poses = (out / "est_traj.txt").read_text().strip().splitlines()
        assert 0 < len(poses) < OFF_MAP["trajectory"]["frame_count"]

    def test_noiseless_multi_view_completes(self, scenario_dir, tmp_path):
        cfg, scen = scenario_dir
        out = tmp_path / "run"
        code = main(["track", "--config", str(cfg), "--scenario", str(scen),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        assert (out / "est_traj.txt").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "manifest.json").exists()

    def test_forced_outage_frame_by_frame_interrupts(self, scenario_dir, tmp_path):
        cfg_path, scen = scenario_dir
        cfg = write_config(tmp_path / "cfg2.json", outages=[[3, 2]],
                           tracker={"mode": "frame_by_frame", "occlusion_window": 5})
        out = tmp_path / "run"
        code = main(["track", "--config", str(cfg), "--scenario", str(scen),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_INTERRUPTED
        est = (out / "est_traj.txt").read_text().strip().splitlines()
        assert len(est) == 3  # partial trajectory
        rows = (out / "diagnostics.csv").read_text().splitlines()
        reason = rows[0].split(",").index("fail_reason")
        assert [r.split(",")[reason] for r in rows[1:]] == ["", "", "", "pnp_failed"]

    def test_all_outlier_flows_interrupt(self, scenario_dir, tmp_path):
        # every flow vector replaced by a 100 px one: PnP finds no pose
        _, scen = scenario_dir
        cfg = write_config(tmp_path / "cfg.json",
                           noise={"outlier_fraction": 1.0, "outlier_magnitude": 100.0},
                           tracker={"mode": "frame_by_frame", "occlusion_window": 5})
        out = tmp_path / "run"
        code = main(["track", "--config", str(cfg), "--scenario", str(scen),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_INTERRUPTED
        assert (out / "est_traj.txt").read_text() == ""
        rows = (out / "diagnostics.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].split(",")[rows[0].split(",").index("fail_reason")] == "pnp_failed"

    def test_outages_past_the_end_are_ignored(self, scenario_dir, tmp_path):
        _, scen = scenario_dir
        cfg = write_config(tmp_path / "cfg.json", outages=[[5, 10**6], 2, [40, 3]])
        assert cli._load_scenario(cli.load_config(cfg), scen).outage_frames == {2, 5}
        assert cli._outage_frames([[5, 10**6]], 10) == frozenset(range(5, 10))
        # frames past the end are never listed, so no length can exhaust memory
        assert cli._outage_frames([[0, 2**63]], 10) == frozenset(range(10))

    @pytest.mark.parametrize("command,bad_file", [
        ("track", "scene.xyz"), ("track", "gt_poses.txt"), ("eval", "gt_poses.txt")])
    def test_non_finite_input_is_a_format_error(self, scenario_dir, tmp_path,
                                                command, bad_file):
        cfg, scen = scenario_dir
        bad = tmp_path / "scen"
        shutil.copytree(scen, bad)
        lines = (bad / bad_file).read_text().splitlines()
        fields = lines[1].split()
        fields[-1] = "nan" if bad_file == "scene.xyz" else "1e400"
        lines[1] = " ".join(fields)
        (bad / bad_file).write_text("\n".join(lines) + "\n")
        if command == "track":
            proc = run_program("track", "--config", str(cfg), "--scenario", str(bad),
                               "--out", str(tmp_path / "run"))
        else:
            proc = run_program("eval", str(bad / bad_file), str(scen / "gt_poses.txt"))
        assert proc.returncode == EXIT_ERROR
        assert f"ERROR lidartrack: {bad / bad_file}: line 2: non-finite value" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_pose_that_is_not_a_rotation_is_a_format_error(self, scenario_dir, tmp_path):
        _, scen = scenario_dir
        est = tmp_path / "est_poses.txt"
        lines = (scen / "gt_poses.txt").read_text().splitlines()
        lines[1] = " ".join(["0"] * 12)
        est.write_text("\n".join(lines) + "\n")
        proc = run_program("eval", str(est), str(scen / "gt_poses.txt"))
        assert proc.returncode == EXIT_ERROR
        assert f"ERROR lidartrack: {est}: line 2: not a rotation" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_scene_errors_without_outputs(self, scenario_dir, tmp_path):
        cfg, _ = scenario_dir
        out = tmp_path / "run"
        code = main(["track", "--config", str(cfg), "--scenario",
                     str(tmp_path / "nowhere"), "--out", str(out), "--quiet"])
        assert code == EXIT_ERROR
        assert not (out / "est_traj.txt").exists()

    def test_negative_seed_is_a_config_error(self, scenario_dir, tmp_path):
        cfg, scen = scenario_dir
        proc = run_program("track", "--config", str(cfg), "--scenario", str(scen),
                           "--out", str(tmp_path / "run"), "--seed", "-1")
        assert proc.returncode == EXIT_ERROR
        assert "ERROR lidartrack: seed must be non-negative" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("section,field,bad", [
        ("energy", "max_iters", 2.5),
        ("tracker", "consist_point_cap", 2.5),
        ("tracker", "reproj_point_cap", 2.5),
        ("tracker", "occlusion_window", 2.5),
        ("tracker", "occlusion_window", -1),
        ("tracker", "loose_reproj_threshold", float("nan")),
        ("tracker", "occlusion_aperture_deg", float("nan")),
        ("tracker", "occlusion_aperture_deg", 90.0),
        (None, "outages", ["x"]),
        (None, "outages", [[1, 2, 3]]),
        (None, "outages", "x"),
        (None, "outages", [[-3, 2]]),
        (None, "outages", [-1]),
        (None, "outages", [[5, 0]]),
        (None, "outages", [[5, -2]]),
        (None, "map_resolution", "0.1"),
        (None, "map_resolution", float("nan")),
        (None, "map_resolution", 0.0),
        (None, "map_resolution", 1e-15),  # the scene's voxel grid leaves int64
        (None, "ablate_modes", "multi_view"),
        (None, "ablate_modes", ["warp_drive"]),
        (None, "ablate_modes", []),
        ("init_perturb", "seed", -1),
        ("init_perturb", "max_transl_per_axis", float("nan")),
        ("scene", "extent", float("nan")),
        ("trajectory", "frame_count", 2.5),
        ("trajectory", "speed", float("nan")),
        ("vo", "transl_drift_sigma", float("nan")),
        ("crop", "forward", float("nan")),
        ("noise", "seed", 2.5),
        ("tracker", "mode", "warp_drive"),
        ("trajectory", "profile", "zigzag"),
        ("camera", "cx", 2000.0)])
    def test_bad_value_is_a_config_error_naming_field(self, scenario_dir, tmp_path,
                                                      section, field, bad):
        # each of these values used to end in a traceback, a run that
        # tracks nothing, a silently wrong run or a misleading message
        _, scen = scenario_dir
        override = {section: {field: bad}} if section else {field: bad}
        cfg = write_config(tmp_path / "cfg.json", **override)
        proc = run_program("track", "--config", str(cfg), "--scenario", str(scen),
                           "--out", str(tmp_path / "run"))
        assert proc.returncode == EXIT_ERROR
        assert f"ERROR lidartrack: {field} must be" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_seed_override_leaves_defaults_unchanged(self, scenario_dir, tmp_path):
        # the scenario config sets no noise or RANSAC section, so both come
        # from the defaults that --seed must not write into
        cfg, scen = scenario_dir
        before = copy.deepcopy(cli.DEFAULT_CONFIG)
        assert cli.cmd_track(cfg, scen, tmp_path / "run", seed_override=77) == EXIT_OK
        assert cli.DEFAULT_CONFIG == before
        assert cli.load_config(cfg)["noise"]["seed"] == 0

    def test_mode_override_flag(self, scenario_dir, tmp_path):
        cfg, scen = scenario_dir
        out = tmp_path / "run"
        code = main(["track", "--config", str(cfg), "--scenario", str(scen),
                     "--out", str(out), "--mode", "frame_by_frame", "--quiet"])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["tracker"]["mode"] == "frame_by_frame"

    def test_rerun_from_manifest_byte_identical(self, scenario_dir, tmp_path):
        cfg, scen = scenario_dir
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["track", "--config", str(cfg), "--scenario", str(scen),
                     "--out", str(out1), "--quiet"]) == EXIT_OK
        manifest = out1 / "manifest.json"
        assert main(["track", "--config", str(manifest), "--scenario", str(scen),
                     "--out", str(out2), "--quiet"]) == EXIT_OK
        assert (out1 / "est_traj.txt").read_bytes() == (out2 / "est_traj.txt").read_bytes()


class TestEval:
    def test_identical_trajectories_zero(self, scenario_dir, tmp_path, capsys):
        _, scen = scenario_dir
        gt = scen / "gt_poses.txt"
        out = tmp_path / "metrics"
        code = main(["eval", str(gt), str(gt), "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "ATE RMSE" in text
        row = (out / "metrics.csv").read_text().strip().splitlines()[1]
        assert float(row.split(",")[0]) < 1e-12
        per_frame = (out / "per_frame.csv").read_text().strip().splitlines()
        assert per_frame[0] == "frame,x,y,z,rot_err,transl_err"
        assert len(per_frame) == 7  # header + 6 frames

    def test_constant_offset_ate(self, scenario_dir, tmp_path):
        from lidartrack.evaluation import load_trajectory, save_trajectory
        from lidartrack.geometry import PoseSE3
        _, scen = scenario_dir
        gt = load_trajectory(scen / "gt_poses.txt")
        shifted = [PoseSE3(p.rotation_matrix(),
                           -(p.rotation_matrix() @ (p.center() + [2.0, 0, 0])))
                   for p in gt.poses]
        est_path = tmp_path / "est.txt"
        save_trajectory(shifted, est_path)
        out = tmp_path / "m"
        assert main(["eval", str(est_path), str(scen / "gt_poses.txt"),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        row = (out / "metrics.csv").read_text().strip().splitlines()[1]
        assert abs(float(row.split(",")[0]) - 2.0) < 1e-9

    def test_mismatched_lengths_error(self, scenario_dir, tmp_path):
        _, scen = scenario_dir
        short = tmp_path / "short.txt"
        lines = (scen / "gt_poses.txt").read_text().strip().splitlines()
        short.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["eval", str(short), str(scen / "gt_poses.txt"),
                     "--quiet"]) == EXIT_ERROR

    @pytest.mark.parametrize("delta,frames", [(0, 6), (-2, 6), (6, 6), (9, 6), (None, 1)])
    def test_bad_rpe_delta_is_a_config_error(self, scenario_dir, tmp_path, delta, frames):
        # RPE needs a delta in [1, frames - 1]
        _, scen = scenario_dir
        traj = tmp_path / "traj.txt"
        lines = (scen / "gt_poses.txt").read_text().strip().splitlines()
        assert len(lines) >= frames
        traj.write_text("\n".join(lines[:frames]) + "\n")
        flag = [] if delta is None else [f"--rpe-delta={delta}"]
        proc = run_program("eval", str(traj), str(traj), *flag)
        assert proc.returncode == EXIT_ERROR
        assert "ERROR lidartrack: rpe_delta must be" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_align_flag(self, scenario_dir, tmp_path):
        from lidartrack.evaluation import load_trajectory, save_trajectory
        from lidartrack.geometry import PoseSE3
        _, scen = scenario_dir
        gt = load_trajectory(scen / "gt_poses.txt")
        shifted = [PoseSE3(p.rotation_matrix(),
                           -(p.rotation_matrix() @ (p.center() + [2.0, 0, 0])))
                   for p in gt.poses]
        est_path = tmp_path / "est.txt"
        save_trajectory(shifted, est_path)
        out = tmp_path / "m"
        assert main(["eval", str(est_path), str(scen / "gt_poses.txt"),
                     "--out", str(out), "--align", "--quiet"]) == EXIT_OK
        row = (out / "metrics.csv").read_text().strip().splitlines()[1]
        assert float(row.split(",")[0]) < 1e-9


class TestAblate:
    def test_three_modes_complete_noiseless(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 modes
        for row in lines[1:]:
            fields = row.split(",")
            assert fields[6] == "True"  # complete
            assert float(fields[2]) < 5.0  # mean translation error, cm

    def test_single_mode_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", ablate_modes=["frame_by_frame"])
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_map_resolution_too_fine_is_a_config_error(self, tmp_path):
        # 1e-15 m passes the range rule, but the voxel grid of the scene
        # ablate generates has more cells than int64 counts
        cfg = write_config(tmp_path / "cfg.json", map_resolution=1e-15)
        proc = run_program("ablate", "--config", str(cfg), "--out", str(tmp_path / "ablate"))
        assert proc.returncode == EXIT_ERROR
        assert "ERROR lidartrack: map_resolution must be coarse enough" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "ablate" / "ablation.csv").exists()
