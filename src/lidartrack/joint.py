"""Two-frame joint pose refinement: consistency + reprojection energy.

Minimizes, over the stacked 12-dim local parameterization of
(T_cur, T_next),

    w_consist * ||E_consist||^2 + w_reproj * (||E_reproj_cur||^2
                                              + ||E_reproj_next||^2)

with Huber weighting, where E_consist couples the two poses through the
predicted image-to-image flow: per point,
proj(T_next, P) - proj(T_cur, P) - f_c2n(P).  The f_c2n sample of each
point is looked up once at its T_cur0 projection (``consistency_samples``)
and frozen during the optimization, keeping the residuals smooth and the
Jacobian analytic.  All three terms are ``pnp._Term`` blocks built by
``pnp._term``, and ``pnp._huber_lm`` minimizes their energy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraIntrinsics, PoseSE3, check_fields, project_points
# perfbench/tracing.py counts calls of joint.se3_exp and
# joint.reprojection_jacobian, so both names stay importable here
from .geometry import reprojection_jacobian, se3_exp  # noqa: F401
from .flow import sample_flow
from .pnp import _huber_lm, _term
from .rendering import FlowField


@dataclass(frozen=True)
class EnergyConfig:
    w_consist: float = 1.0
    w_reproj: float = 1.0
    huber_delta: float = 2.0   # px
    max_iters: int = 50
    rel_tol: float = 1e-6
    lambda0: float = 1e-4

    def __post_init__(self):
        check_fields(self, positive=("huber_delta", "max_iters"),
                     non_negative=("w_consist", "w_reproj", "lambda0", "rel_tol"))
        if self.w_consist == 0 and self.w_reproj == 0:
            raise ValueError("w_consist and w_reproj must not both be zero")


@dataclass
class JointResult:
    T_cur_star: PoseSE3
    T_next_star: PoseSE3
    initial_energy: float
    final_energy: float
    iterations: int
    converged: bool
    consist_pts: int = 0   # consistency points in the LM; 0 when the term was dropped
    energy_trace: list = field(default_factory=list)


def consistency_samples(pts, K: CameraIntrinsics, f_c2n: FlowField, T_cur: PoseSE3):
    """(pts, samples): the points whose T_cur projection samples ``f_c2n``,
    with their (M, 2) flow samples."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    uv, front = project_points(K, T_cur.apply(pts))
    values, ok = sample_flow(f_c2n, uv)
    keep = front & ok
    return pts[keep], values[keep]


def optimize_pair(T_cur0: PoseSE3, T_next0: PoseSE3,
                  corrs_cur, corrs_next, consist_pts, f_c2n,
                  K: CameraIntrinsics, cfg: EnergyConfig,
                  free=("cur", "next")) -> JointResult:
    """Jointly refine two adjacent-frame poses with the LM core ``pnp._huber_lm``.

    ``corrs_cur``/``corrs_next`` may be None or empty when a frame's PnP
    stage failed; the surviving terms still constrain both poses through
    the consistency residuals.  ``f_c2n`` is a FlowField (sampled at the
    T_cur0 projections, frozen) or per-point (N, 2) samples.  A rank-
    deficient system, or a non-finite initial energy, returns the input
    poses with infinite energy, 0 iterations and ``converged=False``.
    """
    terms, n_consist = [], 0
    if cfg.w_reproj > 0:
        for corrs, which in ((corrs_cur, "cur"), (corrs_next, "next")):
            term = None if corrs is None else _term(corrs.p_world, corrs.x_img, (which,),
                                                    T_cur0, T_next0, 4)
            if term is not None:
                terms.append((cfg.w_reproj, term))
    if cfg.w_consist > 0 and consist_pts is not None and len(consist_pts) > 0:
        pts, samples = (consistency_samples(consist_pts, K, f_c2n, T_cur0)
                        if isinstance(f_c2n, FlowField) else (consist_pts, f_c2n))
        term = _term(pts, samples, ("cur", "next"), T_cur0, T_next0, 3)
        if term is not None:
            terms.append((cfg.w_consist, term))
            n_consist = len(term)

    # a rank-deficient system (e.g. the consistency-only gauge) is
    # reported, not optimized
    out = _huber_lm(terms, K, T_cur0, T_next0, free, cfg.huber_delta,
                    cfg.max_iters, cfg.rel_tol, cfg.lambda0) if terms else None
    if out is None:
        return JointResult(T_cur_star=T_cur0, T_next_star=T_next0,
                           initial_energy=np.inf, final_energy=np.inf,
                           iterations=0, converged=False, consist_pts=n_consist,
                           energy_trace=[])
    T_cur, T_next, trace, it, converged = out
    return JointResult(T_cur_star=T_cur, T_next_star=T_next,
                       initial_energy=trace[0], final_energy=trace[-1],
                       iterations=it, converged=converged, consist_pts=n_consist,
                       energy_trace=trace)


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
