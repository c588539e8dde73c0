"""Offline trajectory metrics: ATE, RPE, per-frame pose-error statistics.

All functions take trajectories of world->camera extrinsics; translation
errors are measured between camera centers.  A frame counts as a failure
when its translation error is strictly greater than
``FAILURE_THRESHOLD_M`` (4 m).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from . import formats
from .geometry import PoseSE3, pose_error

FAILURE_THRESHOLD_M = 4.0


@dataclass
class Trajectory:
    """Time-ordered pose sequence."""

    poses: list

    def __len__(self):
        return len(self.poses)


@dataclass
class MetricsReport:
    ate_rmse: float = 0.0
    rpe_transl_mean: float = 0.0
    rpe_transl_std: float = 0.0
    rpe_rot_mean: float = 0.0
    rpe_rot_std: float = 0.0
    mean_rot_deg: float = 0.0
    median_rot_deg: float = 0.0
    mean_transl_m: float = 0.0
    median_transl_m: float = 0.0
    failure_rate: float = 0.0


def _as_poses(traj):
    return traj.poses if isinstance(traj, Trajectory) else list(traj)


def _align_rigid(src, dst):
    """Best-fit rotation+translation mapping src points onto dst (no scale)."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    H = (src - mu_s).T @ (dst - mu_d)
    U, _, Vt = np.linalg.svd(H)
    S = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ S @ U.T
    t = mu_d - R @ mu_s
    return src @ R.T + t


def ate(est, gt, align: bool = False) -> float:
    """RMSE of camera-center differences over corresponding frames.

    With ``align=True`` a best-fit rigid transform is applied to the
    estimate first (useful for VO-style comparisons; maps here are
    georeferenced, so the default is off).
    """
    est_p, gt_p = _as_poses(est), _as_poses(gt)
    if len(est_p) != len(gt_p):
        raise ValueError(f"trajectory length mismatch: {len(est_p)} vs {len(gt_p)}")
    if not est_p:
        return 0.0
    ec = np.array([p.center() for p in est_p])
    gc = np.array([p.center() for p in gt_p])
    if align:
        ec = _align_rigid(ec, gc)
    d = np.linalg.norm(ec - gc, axis=1)
    return float(np.sqrt(np.mean(d ** 2)))


def rpe(est, gt, delta: int = 1):
    """Relative pose error over a fixed frame offset.

    Compares the camera-frame relative motions of estimate and ground
    truth over every index pair (i, i+delta); returns
    ((transl_mean, transl_std), (rot_mean_deg, rot_std_deg)).
    """
    est_p, gt_p = _as_poses(est), _as_poses(gt)
    if len(est_p) != len(gt_p):
        raise ValueError("trajectory length mismatch")
    if delta < 1 or len(est_p) <= delta:
        raise ValueError(f"trajectory too short for delta={delta}")
    t_errs, r_errs = [], []
    for i in range(len(est_p) - delta):
        # relative motions in camera-to-world form: M_i^-1 M_{i+delta}
        rel_est = est_p[i].compose(est_p[i + delta].inverse())
        rel_gt = gt_p[i].compose(gt_p[i + delta].inverse())
        err = rel_gt.inverse().compose(rel_est)
        rot_deg, _ = pose_error(err, PoseSE3.identity())
        t_errs.append(float(np.linalg.norm(err.t)))
        r_errs.append(rot_deg)
    t_errs = np.asarray(t_errs)
    r_errs = np.asarray(r_errs)
    return ((float(t_errs.mean()), float(t_errs.std())),
            (float(r_errs.mean()), float(r_errs.std())))


def pose_error_stats(est, gt):
    """Per-frame pose errors reduced to mean/median and a failure rate.

    Returns (mean_rot, median_rot, mean_transl, median_transl,
    failure_rate); failures are frames with translation error strictly
    greater than ``FAILURE_THRESHOLD_M``.
    """
    est_p, gt_p = _as_poses(est), _as_poses(gt)
    if len(est_p) != len(gt_p):
        raise ValueError("trajectory length mismatch")
    if not est_p:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    errs = np.array([pose_error(a, b) for a, b in zip(est_p, gt_p)])
    rot, transl = errs[:, 0], errs[:, 1]
    failure_rate = float(np.mean(transl > FAILURE_THRESHOLD_M))
    return (float(rot.mean()), float(np.median(rot)),
            float(transl.mean()), float(np.median(transl)), failure_rate)


def build_report(est, gt, rpe_delta: int = 1, align: bool = False) -> MetricsReport:
    mean_rot, med_rot, mean_t, med_t, fail = pose_error_stats(est, gt)
    (t_mean, t_std), (r_mean, r_std) = rpe(est, gt, rpe_delta)
    return MetricsReport(
        ate_rmse=ate(est, gt, align=align),
        rpe_transl_mean=t_mean, rpe_transl_std=t_std,
        rpe_rot_mean=r_mean, rpe_rot_std=r_std,
        mean_rot_deg=mean_rot, median_rot_deg=med_rot,
        mean_transl_m=mean_t, median_transl_m=med_t,
        failure_rate=fail)


REPORT_COLUMNS = [f.name for f in fields(MetricsReport)]


def emit_report(report: MetricsReport, path):
    """Write the report as a one-row CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        writer.writerow([getattr(report, c) for c in REPORT_COLUMNS])


def format_report(report: MetricsReport) -> str:
    lines = [
        "trajectory metrics",
        f"  ATE RMSE          : {report.ate_rmse * 100:10.3f} cm",
        f"  RPE translation   : {report.rpe_transl_mean * 100:10.3f} +- {report.rpe_transl_std * 100:.3f} cm",
        f"  RPE rotation      : {report.rpe_rot_mean:10.4f} +- {report.rpe_rot_std:.4f} deg",
        f"  mean/median transl: {report.mean_transl_m * 100:10.3f} / {report.median_transl_m * 100:.3f} cm",
        f"  mean/median rot   : {report.mean_rot_deg:10.4f} / {report.median_rot_deg:.4f} deg",
        f"  failure rate      : {report.failure_rate * 100:10.2f} %",
    ]
    return "\n".join(lines)


def write_per_frame_csv(est, gt, path):
    """Plot-ready per-frame rows: frame, x, y, z, rot_err, transl_err.

    Positions are the estimated camera centers in world coordinates;
    errors are against the ground truth at the same index.
    """
    est_p, gt_p = _as_poses(est), _as_poses(gt)
    if len(est_p) != len(gt_p):
        raise ValueError("trajectory length mismatch")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "x", "y", "z", "rot_err", "transl_err"])
        for i, (a, b) in enumerate(zip(est_p, gt_p)):
            c = a.center()
            rot, transl = pose_error(a, b)
            writer.writerow([i, c[0], c[1], c[2], rot, transl])


def save_trajectory(traj, path):
    formats.save_trajectory_poses(_as_poses(traj), path)


def load_trajectory(path) -> Trajectory:
    return Trajectory(poses=formats.load_trajectory_poses(path))
