import numpy as np
import pytest

from lidartrack.evaluation import (REPORT_COLUMNS, MetricsReport, Trajectory, ate,
                                   build_report, emit_report, format_report,
                                   load_trajectory, pose_error_stats, rpe,
                                   save_trajectory, write_per_frame_csv)
from lidartrack.geometry import PoseSE3, pose_error, se3_exp


def random_trajectory(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    poses = []
    T = se3_exp(rng.uniform(-1, 1, 6) * scale)
    for _ in range(n):
        T = se3_exp(rng.uniform(-0.1, 0.1, 6) * scale).compose(T)
        poses.append(T)
    return Trajectory(poses=poses)


def shift_centers(traj, offset):
    out = []
    for p in traj.poses:
        R = p.rotation_matrix()
        out.append(PoseSE3(R, -(R @ (p.center() + offset))))
    return Trajectory(poses=out)


class TestAte:
    def test_identical(self):
        t = random_trajectory(20, 0)
        assert ate(t, t) == 0.0

    def test_constant_offset_unaligned(self):
        t = random_trajectory(25, 1)
        shifted = shift_centers(t, np.array([1.0, 0.0, 0.0]))
        assert abs(ate(shifted, t, align=False) - 1.0) < 1e-9

    def test_constant_offset_aligned_absorbs(self):
        t = random_trajectory(25, 2)
        shifted = shift_centers(t, np.array([1.0, 0.0, 0.0]))
        assert ate(shifted, t, align=True) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ate(random_trajectory(5, 3), random_trajectory(6, 3))

    def test_empty_is_zero(self):
        assert ate([], []) == 0.0
        assert ate(Trajectory(poses=[]), Trajectory(poses=[]), align=True) == 0.0

    def test_aligned_absorbs_rigid_motion(self):
        # moving every estimated center by one rigid transform is undone
        # by the alignment, not by the unaligned RMSE
        t = random_trajectory(30, 5, scale=3.0)
        G = se3_exp([0.3, -0.5, 0.8, 2.0, -1.0, 0.5])
        centers = G.apply(np.array([p.center() for p in t.poses]))
        moved = Trajectory(poses=[
            PoseSE3(p.rotation_matrix(), -(p.rotation_matrix() @ c))
            for p, c in zip(t.poses, centers)])
        assert ate(moved, t, align=False) > 0.5
        assert ate(moved, t, align=True) < 1e-9

    def test_equals_rmse_of_perturbation_norms(self):
        # brute-force reference: perturb each pose's center by a known
        # offset and compare with the norm RMSE
        rng = np.random.default_rng(4)
        t = random_trajectory(40, 4)
        offsets = rng.normal(0, 0.3, (40, 3))
        shifted = Trajectory(poses=[
            PoseSE3(p.rotation_matrix(), -(p.rotation_matrix() @ (p.center() + o)))
            for p, o in zip(t.poses, offsets)])
        expected = float(np.sqrt(np.mean(np.linalg.norm(offsets, axis=1) ** 2)))
        assert abs(ate(shifted, t) - expected) < 1e-9


class TestRpe:
    def test_identical_zero(self):
        t = random_trajectory(15, 5)
        (tm, ts), (rm, rs) = rpe(t, t, delta=1)
        assert max(tm, ts, rm, rs) < 1e-9

    def test_common_transform_invariance(self):
        t = random_trajectory(15, 6)
        G = se3_exp([0.3, -0.2, 0.5, 10, -4, 2])
        moved = Trajectory(poses=[p.compose(G) for p in t.poses])
        (tm, ts), (rm, rs) = rpe(moved, t, delta=1)
        assert max(tm, ts, rm, rs) < 1e-9

    def test_single_corrupted_pose_localized(self):
        # only index pairs touching the corrupted pose contribute error;
        # verified against a brute-force scan over all pairs
        t = random_trajectory(12, 7)
        k = 5
        est_poses = list(t.poses)
        est_poses[k] = se3_exp([0, 0, 0, 0.5, 0, 0]).compose(est_poses[k])
        est = Trajectory(poses=est_poses)
        delta = 2
        errs = []
        for i in range(len(t.poses) - delta):
            rel_e = est.poses[i].compose(est.poses[i + delta].inverse())
            rel_g = t.poses[i].compose(t.poses[i + delta].inverse())
            err = rel_g.inverse().compose(rel_e)
            errs.append(np.linalg.norm(err.t))
        errs = np.array(errs)
        touching = {k - delta, k}
        for i, e in enumerate(errs):
            if i in touching:
                assert e > 1e-6
            else:
                assert e < 1e-9
        (tm, _), _ = rpe(est, t, delta=delta)
        assert abs(tm - errs.mean()) < 1e-9

    def test_too_short(self):
        with pytest.raises(ValueError):
            rpe(random_trajectory(3, 8), random_trajectory(3, 8), delta=3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            rpe(random_trajectory(4, 8), random_trajectory(5, 8))


class TestPoseErrorStats:
    def test_identical(self):
        t = random_trajectory(10, 9)
        mean_rot, med_rot, mean_t, med_t, fail = pose_error_stats(t, t)
        assert max(mean_rot, med_rot, mean_t, med_t, fail) < 1e-12

    def test_failure_rate_hand_count(self):
        t = random_trajectory(4, 10)
        offsets = [1.0, 5.0, 3.0, 6.0]
        est = Trajectory(poses=[
            PoseSE3(p.rotation_matrix(), -(p.rotation_matrix() @ (p.center() + [o, 0, 0])))
            for p, o in zip(t.poses, offsets)])
        _, _, mean_t, med_t, fail = pose_error_stats(est, t)
        assert fail == 0.5
        assert abs(mean_t - np.mean(offsets)) < 1e-9
        assert abs(med_t - np.median(offsets)) < 1e-9

    def test_exactly_at_threshold_is_not_failure(self):
        # a signed permutation and small integers keep every center exact,
        # so the distance is 4.0 m by construction
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        gt = Trajectory(poses=[PoseSE3(R, [1.0, -2.0, 3.0])])
        c = gt.poses[0].center()

        def shifted(dx):
            return Trajectory(poses=[PoseSE3(R, -(R @ (c + [dx, 0, 0])))])

        est = shifted(4.0)
        assert pose_error(est.poses[0], gt.poses[0])[1] == 4.0
        assert pose_error_stats(est, gt)[4] == 0.0
        assert pose_error_stats(shifted(3.9), gt)[4] == 0.0
        assert pose_error_stats(shifted(4.0001), gt)[4] == 1.0

    def test_stats_match_sorted_brute_force(self):
        t = random_trajectory(31, 12)
        est = random_trajectory(31, 13)
        errs = np.array([pose_error(a, b) for a, b in zip(est.poses, t.poses)])
        mean_rot, med_rot, mean_t, med_t, _ = pose_error_stats(est, t)
        assert abs(mean_rot - errs[:, 0].mean()) < 1e-12
        assert abs(med_rot - np.sort(errs[:, 0])[15]) < 1e-12
        assert abs(med_t - np.sort(errs[:, 1])[15]) < 1e-12


    def test_empty_is_zero(self):
        assert pose_error_stats([], []) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pose_error_stats(random_trajectory(2, 12), random_trajectory(3, 12))


class TestTrajectoryIO:
    def test_roundtrip_bit_faithful(self, tmp_path):
        t = random_trajectory(100, 14, scale=3.0)
        path = tmp_path / "traj.txt"
        save_trajectory(t, path)
        back = load_trajectory(path)
        assert len(back) == 100
        for a, b in zip(back.poses, t.poses):
            rot, transl = pose_error(a, b)
            assert rot < 1e-9 and transl < 1e-9

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert len(load_trajectory(path)) == 0

    def test_malformed_line_reports_number(self, tmp_path):
        from lidartrack.formats import FormatError
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 0 0 1 0 0 0 0 1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_trajectory(path)

    def test_non_numeric_field(self, tmp_path):
        from lidartrack.formats import FormatError
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 x\n")
        with pytest.raises(FormatError, match="line 1"):
            load_trajectory(path)


class TestPerFrameCsv:
    def test_columns_and_values(self, tmp_path):
        t = random_trajectory(5, 30)
        est = shift_centers(t, np.array([0.5, 0.0, 0.0]))
        path = tmp_path / "per_frame.csv"
        write_per_frame_csv(est, t, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frame,x,y,z,rot_err,transl_err"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert abs(float(first[5]) - 0.5) < 1e-9
        c = est.poses[0].center()
        assert abs(float(first[1]) - c[0]) < 1e-12


    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "per_frame.csv"
        with pytest.raises(ValueError, match="length mismatch"):
            write_per_frame_csv(random_trajectory(3, 31), random_trajectory(4, 31), path)


class TestReport:
    def test_emit_report_writes_csv(self, tmp_path):
        est = random_trajectory(20, 16)
        gt = random_trajectory(20, 16)
        report = build_report(est, gt)
        path = tmp_path / "metrics.csv"
        assert emit_report(report, path) is None
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split(",") == REPORT_COLUMNS
        assert float(lines[1].split(",")[0]) == report.ate_rmse

    def test_build_report_combines_the_metrics(self):
        # est's centers sit 1 to 7 m from gt's: half of the frames lie
        # beyond the 4 m failure threshold
        gt = random_trajectory(12, 18)
        offsets = np.linspace(1.0, 7.0, 12)
        est = Trajectory(poses=[
            PoseSE3(r.rotation_matrix(), -(r.rotation_matrix() @ (g.center() + [o, 0, 0])))
            for r, g, o in zip(random_trajectory(12, 17).poses, gt.poses, offsets)])
        report = build_report(est, gt, rpe_delta=2, align=True)
        (t_mean, t_std), (r_mean, r_std) = rpe(est, gt, delta=2)
        stats = pose_error_stats(est, gt)
        assert report.ate_rmse == ate(est, gt, align=True)
        assert (report.rpe_transl_mean, report.rpe_transl_std,
                report.rpe_rot_mean, report.rpe_rot_std) == (t_mean, t_std, r_mean, r_std)
        assert (report.mean_rot_deg, report.median_rot_deg, report.mean_transl_m,
                report.median_transl_m, report.failure_rate) == stats
        assert report.failure_rate == 0.5

    def test_format_report_units(self):
        # translations print in cm, rotations in degrees, the rate in percent
        text = format_report(MetricsReport(ate_rmse=0.0123, rpe_rot_mean=1.5,
                                           failure_rate=0.25))
        lines = text.splitlines()
        assert len(lines) == 7
        assert lines[0] == "trajectory metrics"
        assert lines[1].split(":")[1].split() == ["1.230", "cm"]
        assert lines[3].split(":")[1].split()[0] == "1.5000"
        assert lines[6].split(":")[1].split() == ["25.00", "%"]
