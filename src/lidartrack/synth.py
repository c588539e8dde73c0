"""Deterministic synthetic scenes, trajectories, and a drifting VO oracle.

Scenes are corridor-style: a ground plane, two facades flanking the
corridor, fronto-parallel panels at graded depths, and vertical poles.
The graded depth structure keeps flow-based pose estimation observable
in all six degrees of freedom (a lone plane would be degenerate).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PoseSE3, check_fields

CAMERA_HEIGHT = 1.7           # m above ground
CORRIDOR_HALF_WIDTH = 12.0    # m, facade distance from the center line
FACADE_HEIGHT = 8.0           # m
PANEL_SPACING = 40.0          # m between fronto-parallel panels
PANEL_HEIGHT = 6.0            # m
POLE_HEIGHT = 6.0             # m
POLE_POINT_STEP = 0.1         # m between points along a pole

PROFILES = ("straight", "arc", "s_curve")


@dataclass(frozen=True)
class SceneConfig:
    extent: float = 200.0         # corridor length, m
    ground_density: float = 25.0  # points / m^2
    facade_density: float = 60.0  # points / m^2
    pole_count: int = 40
    seed: int = 0

    def __post_init__(self):
        check_fields(self, positive=("extent",),
                     non_negative=("ground_density", "facade_density", "pole_count"))


@dataclass(frozen=True)
class TrajectoryConfig:
    frame_count: int = 100
    speed: float = 1.0            # m / frame
    turn_rate_deg: float = 0.0    # deg / frame
    profile: str = "straight"     # one of PROFILES
    seed: int = 0                 # not read: trajectories draw no randomness

    def __post_init__(self):
        check_fields(self, positive=("frame_count",))
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {', '.join(PROFILES)}")


@dataclass(frozen=True)
class VoOracleConfig:
    rot_drift_sigma_deg: float = 0.0   # deg / frame, per axis
    transl_drift_sigma: float = 0.0    # m / frame, per axis
    seed: int = 0

    def __post_init__(self):
        check_fields(self, non_negative=("rot_drift_sigma_deg", "transl_drift_sigma"))


def generate_scene(cfg: SceneConfig) -> np.ndarray:
    """Deterministic corridor point cloud, world frame, (N, 3)."""
    rng = np.random.default_rng(cfg.seed)
    parts = []

    x_lo, x_hi = -20.0, cfg.extent + 20.0
    y_half = CORRIDOR_HALF_WIDTH + 15.0

    # ground plane z = 0
    area = (x_hi - x_lo) * 2 * y_half
    n_ground = int(round(cfg.ground_density * area))
    if n_ground:
        g = np.empty((n_ground, 3))
        g[:, 0] = rng.uniform(x_lo, x_hi, n_ground)
        g[:, 1] = rng.uniform(-y_half, y_half, n_ground)
        g[:, 2] = 0.0
        parts.append(g)

    # two facades along the corridor
    wall_area = (x_hi - x_lo) * FACADE_HEIGHT
    n_wall = int(round(cfg.facade_density * wall_area))
    for side in (-1.0, 1.0):
        if n_wall:
            wpts = np.empty((n_wall, 3))
            wpts[:, 0] = rng.uniform(x_lo, x_hi, n_wall)
            wpts[:, 1] = side * CORRIDOR_HALF_WIDTH
            wpts[:, 2] = rng.uniform(0.0, FACADE_HEIGHT, n_wall)
            parts.append(wpts)

    # fronto-parallel panels offset from the drive line, alternating sides
    x = PANEL_SPACING / 2.0
    side = 1.0
    while x < cfg.extent + PANEL_SPACING:
        y_lo, y_hi = (3.0, CORRIDOR_HALF_WIDTH - 1.0)
        if side < 0:
            y_lo, y_hi = -y_hi, -y_lo
        n_panel = int(round(cfg.facade_density * (y_hi - y_lo) * PANEL_HEIGHT))
        if n_panel:
            p = np.empty((n_panel, 3))
            p[:, 0] = x
            p[:, 1] = rng.uniform(y_lo, y_hi, n_panel)
            p[:, 2] = rng.uniform(0.0, PANEL_HEIGHT, n_panel)
            parts.append(p)
        x += PANEL_SPACING
        side = -side

    # vertical poles in the margins
    for _ in range(cfg.pole_count):
        px = rng.uniform(0.0, cfg.extent)
        py = rng.uniform(2.5, CORRIDOR_HALF_WIDTH - 0.5) * (1.0 if rng.random() < 0.5 else -1.0)
        zs = np.arange(0.0, POLE_HEIGHT, POLE_POINT_STEP)
        pole = np.column_stack([np.full_like(zs, px), np.full_like(zs, py), zs])
        parts.append(pole)

    if not parts:
        return np.zeros((0, 3))
    return np.vstack(parts)


def _pose_from_heading(center, heading_rad) -> PoseSE3:
    """Extrinsic pose of a level camera at ``center`` looking along heading.

    Camera axes: x right, y down, z forward (optical axis).
    """
    c, s = math.cos(heading_rad), math.sin(heading_rad)
    forward = np.array([c, s, 0.0])
    right = np.array([s, -c, 0.0])
    down = np.array([0.0, 0.0, -1.0])
    R_wc = np.column_stack([right, down, forward])
    R = R_wc.T
    return PoseSE3(R, -(R @ np.asarray(center, dtype=float)))


def generate_trajectory(cfg: TrajectoryConfig) -> list[PoseSE3]:
    """Smooth camera trajectory along the corridor; one pose per frame.

    Consecutive camera centers are exactly ``speed`` apart.  Poses are
    world->camera extrinsics at the standard camera height.
    """
    rate = math.radians(cfg.turn_rate_deg)
    headings = np.zeros(cfg.frame_count)
    if cfg.profile == "arc":
        headings = rate * np.arange(cfg.frame_count)
    elif cfg.profile == "s_curve":
        half = cfg.frame_count // 2
        increments = np.concatenate([np.full(half, rate),
                                     np.full(cfg.frame_count - half, -rate)])
        headings = np.concatenate([[0.0], np.cumsum(increments)[:-1]])

    centers = np.zeros((cfg.frame_count, 3))
    centers[:, 2] = CAMERA_HEIGHT
    for i in range(1, cfg.frame_count):
        h = headings[i - 1]
        centers[i, 0] = centers[i - 1, 0] + cfg.speed * math.cos(h)
        centers[i, 1] = centers[i - 1, 1] + cfg.speed * math.sin(h)
    return [_pose_from_heading(centers[i], headings[i]) for i in range(cfg.frame_count)]


def vo_oracle(traj_gt: list[PoseSE3], cfg: VoOracleConfig) -> list[PoseSE3]:
    """Relative poses between consecutive frames with seeded Gaussian drift.

    Each output maps frame i-1's camera frame to frame i's
    (``rel_i = T_i o T_{i-1}^-1``); integrating the outputs from the
    first pose reproduces the ground truth exactly when the sigmas are
    zero.
    """
    rng = np.random.default_rng(cfg.seed)
    rels = []
    for prev, cur in zip(traj_gt[:-1], traj_gt[1:]):
        rel = cur.compose(prev.inverse())
        rv = np.radians(rng.normal(0.0, cfg.rot_drift_sigma_deg, 3))
        dt = rng.normal(0.0, cfg.transl_drift_sigma, 3)
        noise = PoseSE3.from_rotvec(rv, dt)
        rels.append(noise.compose(rel))
    return rels


def integrate_relatives(T0: PoseSE3, relatives) -> list[PoseSE3]:
    """Chain relative poses from an initial absolute pose."""
    out = [T0]
    for rel in relatives:
        out.append(rel.compose(out[-1]))
    return out
