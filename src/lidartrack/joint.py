"""Two-frame joint pose refinement: consistency + reprojection energy.

Minimizes, over the stacked 12-dim local parameterization of
(T_cur, T_next),

    w_consist * ||E_consist||^2 + w_reproj * (||E_reproj_cur||^2
                                              + ||E_reproj_next||^2)

with Huber weighting, where E_consist couples the two poses through the
predicted image-to-image flow: per point,
proj(T_next, P) - proj(T_cur, P) - f_c2n(P).  The f_c2n sample of each
point is looked up once at its T_cur0 projection and frozen during the
optimization, keeping the residuals smooth and the Jacobian analytic.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import (CameraIntrinsics, PoseSE3, project_points,
                       reprojection_jacobian)
# perfbench/tracing.py counts calls of joint.se3_exp, so the name stays importable here
from .geometry import se3_exp  # noqa: F401
from .flow import sample_flow
from .pnp import Correspondences, _huber_lm, _ReprojTerm
from .rendering import FlowField

# points closer than this to a camera plane are dropped at setup and make
# trial steps infeasible during iteration (keeps Jacobians bounded)
ZMIN = 1e-3


@dataclass(frozen=True)
class EnergyConfig:
    w_consist: float = 1.0
    w_reproj: float = 1.0
    huber_delta: float = 2.0   # px
    max_iters: int = 50
    rel_tol: float = 1e-6
    lambda0: float = 1e-4

    def __post_init__(self):
        for name in ("w_consist", "w_reproj"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and non-negative")
        if not (math.isfinite(self.huber_delta) and self.huber_delta > 0):
            raise ValueError("huber_delta must be finite and positive")
        for name in ("lambda0", "rel_tol"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and non-negative")
        if self.w_consist == 0 and self.w_reproj == 0:
            raise ValueError("at least one energy term must be active")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer >= 1")


@dataclass
class JointResult:
    T_cur_star: PoseSE3
    T_next_star: PoseSE3
    initial_energy: float
    final_energy: float
    iterations: int
    converged: bool
    energy_trace: list = field(default_factory=list)


class ConsistencyTerm:
    """Co-visible points with frozen per-point optical-flow samples."""

    def __init__(self, pts, samples):
        self.pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        self.samples = np.asarray(samples, dtype=float).reshape(-1, 2)
        if len(self.pts) != len(self.samples):
            raise ValueError("points and samples length mismatch")

    @classmethod
    def from_field(cls, pts, K: CameraIntrinsics, f_c2n: FlowField,
                   T_cur: PoseSE3) -> "ConsistencyTerm":
        """Sample the flow field at each point's T_cur projection."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        uv, front = project_points(K, T_cur.apply(pts))
        values, ok = sample_flow(f_c2n, uv)
        keep = front & ok
        return cls(pts[keep], values[keep])

    def __len__(self):
        return len(self.pts)

    def restrict_visible(self, K, T_cur, T_next) -> "ConsistencyTerm":
        """Drop points behind (or grazing) the camera under either pose."""
        z_cur = T_cur.apply(self.pts)[:, 2]
        z_next = T_next.apply(self.pts)[:, 2]
        keep = (z_cur > ZMIN) & (z_next > ZMIN)
        return ConsistencyTerm(self.pts[keep], self.samples[keep])

    def residual(self, K, T_cur, T_next):
        """(M, 2) residuals; None if any point grazes a camera plane."""
        cam_c = T_cur.apply(self.pts)
        cam_n = T_next.apply(self.pts)
        if np.any(cam_c[:, 2] <= ZMIN) or np.any(cam_n[:, 2] <= ZMIN):
            return None
        return project_points(K, cam_n)[0] - project_points(K, cam_c)[0] - self.samples

    def residual_jacobians(self, K, T_cur, T_next):
        """Residuals plus Jacobian blocks w.r.t. both local updates."""
        uv_c, z_c, J_c = reprojection_jacobian(K, T_cur, self.pts)
        uv_n, z_n, J_n = reprojection_jacobian(K, T_next, self.pts)
        if np.any(z_c <= ZMIN) or np.any(z_n <= ZMIN):
            return None
        r = uv_n - uv_c - self.samples
        return r, -J_c, J_n


def e_consist(T_cur: PoseSE3, T_next: PoseSE3, pts, K: CameraIntrinsics,
              f_c2n) -> np.ndarray:
    """Cross-modal consistency residuals for a set of world points.

    ``f_c2n`` is a FlowField (samples looked up at the T_cur projections)
    or an (N, 2) array of precomputed per-point flow samples.  Points
    losing visibility under either pose are dropped.
    """
    term = _make_consistency_term(pts, f_c2n, K, T_cur)
    term = term.restrict_visible(K, T_cur, T_next)
    if len(term) == 0:
        raise ValueError("empty consistency residual set")
    return term.residual(K, T_cur, T_next)


def _make_consistency_term(pts, f_c2n, K, T_cur):
    if isinstance(f_c2n, FlowField):
        return ConsistencyTerm.from_field(pts, K, f_c2n, T_cur)
    return ConsistencyTerm(pts, f_c2n)


def e_reproj(T: PoseSE3, corrs: Correspondences, K: CameraIntrinsics):
    """Reprojection residuals; returns (residuals, kept mask).

    Points behind the camera are dropped; the mask reports which
    correspondences contributed.
    """
    if len(corrs) == 0:
        raise ValueError("empty correspondence set")
    uv, kept = project_points(K, T.apply(corrs.p_world))
    return uv[kept] - corrs.x_img[kept], kept


def optimize_pair(T_cur0: PoseSE3, T_next0: PoseSE3,
                  corrs_cur, corrs_next, consist_pts, f_c2n,
                  K: CameraIntrinsics, cfg: EnergyConfig,
                  free=("cur", "next")) -> JointResult:
    """Jointly refine two adjacent-frame poses with the LM core ``pnp._huber_lm``.

    ``corrs_cur``/``corrs_next`` may be None or empty when a frame's PnP
    stage failed; the surviving terms still constrain both poses through
    the consistency residuals.  ``f_c2n`` is a FlowField (sampled at the
    T_cur0 projections, frozen) or per-point (N, 2) samples.  A rank-
    deficient system returns the input poses with ``converged=False``.
    """
    terms = []
    if cfg.w_reproj > 0:
        for corrs, which, T0 in ((corrs_cur, "cur", T_cur0),
                                 (corrs_next, "next", T_next0)):
            if corrs is None or len(corrs) == 0:
                continue
            # drop points behind the camera at the initial pose
            kept = corrs.subset(T0.apply(corrs.p_world)[:, 2] > ZMIN)
            if len(kept) >= 4:
                terms.append((cfg.w_reproj, _ReprojTerm(kept, which, ZMIN)))
    if cfg.w_consist > 0 and consist_pts is not None and len(consist_pts) > 0:
        term = _make_consistency_term(consist_pts, f_c2n, K, T_cur0)
        term = term.restrict_visible(K, T_cur0, T_next0)
        if len(term) >= 3:
            terms.append((cfg.w_consist, term))

    # a rank-deficient system (e.g. the consistency-only gauge) is
    # reported, not optimized
    out = _huber_lm(terms, K, T_cur0, T_next0, free, cfg.huber_delta,
                    cfg.max_iters, cfg.rel_tol, cfg.lambda0, attempts=15,
                    grad_tol=1e-10, rank_gate=True) if terms else None
    if out is None:
        return JointResult(T_cur_star=T_cur0, T_next_star=T_next0,
                           initial_energy=np.inf, final_energy=np.inf,
                           iterations=0, converged=False, energy_trace=[])
    T_cur, T_next, trace, it, converged = out
    return JointResult(T_cur_star=T_cur, T_next_star=T_next,
                       initial_energy=trace[0], final_energy=trace[-1],
                       iterations=it, converged=converged, energy_trace=trace)


def optimize_next_only(T_cur: PoseSE3, T_next0: PoseSE3,
                       consist_pts, f_c2n, K: CameraIntrinsics,
                       cfg: EnergyConfig) -> JointResult:
    """Consistency-only solve for T_next with T_cur held fixed.

    Used when both frames lack 2D-3D correspondences but the image-to-
    image flow survives: the current pose is frozen at its carried
    estimate and the next pose follows from the coupling term alone.
    """
    return optimize_pair(T_cur, T_next0, None, None, consist_pts, f_c2n,
                         K, cfg, free=("next",))
