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
from dataclasses import dataclass, field

import numpy as np

from .geometry import (MIN_DEPTH, CameraIntrinsics, PoseSE3,
                       reprojection_jacobian, se3_exp)
from .flow import sample_flow
from .pnp import Correspondences, _huber_cost, _huber_weights
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
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (math.isfinite(self.huber_delta) and self.huber_delta > 0):
            raise ValueError("huber_delta must be finite and positive")
        for name in ("lambda0", "rel_tol"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and non-negative")
        if self.w_consist < 0 or self.w_reproj < 0:
            raise ValueError("term weights must be non-negative")
        if self.w_consist == 0 and self.w_reproj == 0:
            raise ValueError("at least one energy term must be active")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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
        cam = T_cur.apply(pts)
        front = cam[:, 2] > MIN_DEPTH
        uv = np.empty((len(pts), 2))
        zs = np.where(front, cam[:, 2], 1.0)
        uv[:, 0] = K.fx * cam[:, 0] / zs + K.cx
        uv[:, 1] = K.fy * cam[:, 1] / zs + K.cy
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
        uv_c = np.stack([K.fx * cam_c[:, 0] / cam_c[:, 2] + K.cx,
                         K.fy * cam_c[:, 1] / cam_c[:, 2] + K.cy], axis=1)
        uv_n = np.stack([K.fx * cam_n[:, 0] / cam_n[:, 2] + K.cx,
                         K.fy * cam_n[:, 1] / cam_n[:, 2] + K.cy], axis=1)
        return uv_n - uv_c - self.samples

    residual_only = residual

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
    cam = T.apply(corrs.p_world)
    kept = cam[:, 2] > MIN_DEPTH
    sub = corrs.subset(kept)
    uv = np.stack([K.fx * cam[kept, 0] / cam[kept, 2] + K.cx,
                   K.fy * cam[kept, 1] / cam[kept, 2] + K.cy], axis=1)
    return uv - sub.x_img, kept


class _ReprojTerm:
    def __init__(self, corrs, which):
        self.corrs = corrs
        self.which = which  # "cur" or "next"

    def __len__(self):
        return len(self.corrs)

    def residual_jacobians(self, K, T_cur, T_next):
        T = T_cur if self.which == "cur" else T_next
        uv, z, J = reprojection_jacobian(K, T, self.corrs.p_world)
        if np.any(z <= ZMIN):
            return None
        r = uv - self.corrs.x_img
        if self.which == "cur":
            return r, J, None
        return r, None, J

    def residual_only(self, K, T_cur, T_next):
        T = T_cur if self.which == "cur" else T_next
        cam = T.apply(self.corrs.p_world)
        z = cam[:, 2]
        if np.any(z <= ZMIN):
            return None
        uv = np.empty((len(self.corrs), 2))
        uv[:, 0] = K.fx * cam[:, 0] / z + K.cx
        uv[:, 1] = K.fy * cam[:, 1] / z + K.cy
        return uv - self.corrs.x_img


def _assemble(terms, K, T_cur, T_next, delta):
    """Residuals/Jacobians of all terms, or None if a pose is infeasible."""
    rows = []
    for weight, term in terms:
        got = term.residual_jacobians(K, T_cur, T_next)
        if got is None:
            return None
        r, Jc, Jn = got
        norms = np.linalg.norm(r, axis=1)
        irls = _huber_weights(norms, delta)
        if hasattr(term, "corrs"):
            irls = irls * term.corrs.weight
        rows.append((r, Jc, Jn, irls, weight))
    return rows


def _energy(terms, K, T_cur, T_next, delta):
    e = 0.0
    for weight, term in terms:
        r = term.residual_only(K, T_cur, T_next)
        if r is None:
            return np.inf
        norms = np.linalg.norm(r, axis=1)
        per = _huber_cost(norms, delta)
        if hasattr(term, "corrs"):
            per = per * term.corrs.weight
        e += weight * float(np.sum(per))
    return e


def optimize_pair(T_cur0: PoseSE3, T_next0: PoseSE3,
                  corrs_cur, corrs_next, consist_pts, f_c2n,
                  K: CameraIntrinsics, cfg: EnergyConfig,
                  free=("cur", "next")) -> JointResult:
    """Jointly refine two adjacent-frame poses by Levenberg-Marquardt.

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
                terms.append((cfg.w_reproj, _ReprojTerm(kept, which)))
    if cfg.w_consist > 0 and consist_pts is not None and len(consist_pts) > 0:
        term = _make_consistency_term(consist_pts, f_c2n, K, T_cur0)
        term = term.restrict_visible(K, T_cur0, T_next0)
        if len(term) >= 3:
            terms.append((cfg.w_consist, term))

    n_free = 6 * len(free)
    failure = JointResult(T_cur_star=T_cur0, T_next_star=T_next0,
                          initial_energy=np.inf, final_energy=np.inf,
                          iterations=0, converged=False, energy_trace=[])
    if not terms:
        return failure

    cols = {}
    off = 0
    for name in free:
        cols[name] = slice(off, off + 6)
        off += 6

    def build_system(T_cur, T_next):
        rows = _assemble(terms, K, T_cur, T_next, cfg.huber_delta)
        if rows is None:
            return None
        H = np.zeros((n_free, n_free))
        g = np.zeros(n_free)
        for r, Jc, Jn, irls, weight in rows:
            m = len(r)
            J = np.zeros((m, 2, n_free))
            if Jc is not None and "cur" in cols:
                J[:, :, cols["cur"]] = Jc
            if Jn is not None and "next" in cols:
                J[:, :, cols["next"]] = Jn
            sw = np.sqrt(weight * irls)[:, None]
            A = (J * sw[:, :, None]).reshape(-1, n_free)
            b = (r * sw).reshape(-1)
            H += A.T @ A
            g += A.T @ b
        return H, g

    built = build_system(T_cur0, T_next0)
    if built is None:
        return failure
    H, g = built
    # rank of J equals rank of H = J^T J; a deficient system (e.g. the
    # consistency-only gauge) is reported, not optimized
    s = np.linalg.svd(H, compute_uv=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if len(s) and s[0] > 0 else 0
    if rank < n_free:
        return failure

    T_cur, T_next = T_cur0, T_next0
    energy = _energy(terms, K, T_cur, T_next, cfg.huber_delta)
    trace = [energy]
    lam = cfg.lambda0
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if it > 1:
            built = build_system(T_cur, T_next)
            if built is None:
                break
            H, g = built
        if np.linalg.norm(g, ord=np.inf) < 1e-10:
            converged = True
            break
        stepped = False
        for _ in range(15):
            D = H + lam * np.diag(np.diag(H)) + 1e-15 * np.eye(n_free)
            try:
                delta = np.linalg.solve(D, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial_cur = T_cur.compose(se3_exp(delta[cols["cur"]])) if "cur" in cols else T_cur
            trial_next = T_next.compose(se3_exp(delta[cols["next"]])) if "next" in cols else T_next
            trial_energy = _energy(terms, K, trial_cur, trial_next, cfg.huber_delta)
            if trial_energy < energy:
                rel_drop = (energy - trial_energy) / max(energy, 1e-300)
                T_cur, T_next, energy = trial_cur, trial_next, trial_energy
                trace.append(energy)
                lam = max(lam / 2.0, 1e-12)
                stepped = True
                if rel_drop < cfg.rel_tol:
                    converged = True
                break
            lam *= 10.0
        if not stepped:
            converged = True  # no descent step available: stationary
            break
        if converged:
            break
    return JointResult(T_cur_star=T_cur, T_next_star=T_next,
                       initial_energy=trace[0], final_energy=energy,
                       iterations=it, converged=converged, energy_trace=trace)


def save_energy_trace(result: JointResult, path):
    """Per-iteration accepted-energy trace as CSV (diagnostics)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "energy"])
        for i, e in enumerate(result.energy_trace):
            writer.writerow([i, e])


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
