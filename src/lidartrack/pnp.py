"""2D-3D correspondences from depth + flow, RANSAC PnP, and the LM core.

``_huber_lm`` is the one Levenberg-Marquardt loop, split as in Ceres
(Agarwal et al.): terms give residuals and Jacobians, one solver iterates.
``refine_pose`` runs it on one reprojection term and one free pose,
``joint.optimize_pair`` on reprojection and consistency terms.

The minimal solver inside RANSAC is damped Gauss-Newton started from the
tracking prior rather than a closed-form P3P: tracking always supplies a
near-correct initial pose, which makes local iteration reliable.

RANSAC fits and scores its hypotheses in batches, the batch scoring of
preemptive RANSAC (Nister 2005) applied to plain RANSAC (Fischler and
Bolles 1981).  A fit batch is one stacked Gauss-Newton fit over B minimal
samples: ``RANSAC_BATCH`` for the first batch, whose scores set how many
hypotheses are needed, and up to ``_FIT_BATCH`` after it, since a stacked
fit costs little more for four times the samples.  Each fit batch is
scored in chunks of ``RANSAC_BATCH`` rows, one (B, N) reprojection-error
matrix per chunk, and scoring stops at the early-stop count, so memory
grows with ``RANSAC_BATCH`` alone.  The camera-frame points of a chunk
are one (B, 3, N) product, ``R @ P^T``, whose x, y and z rows are
contiguous.  Every batched operation makes the same floating-point
operations per hypothesis as a one-at-a-time fit, and the random samples
are drawn in the same order, so the pose, inliers and counters are
bit-identical to fitting and scoring one hypothesis at a time
(``tests/test_pnp.py`` keeps that sequential loop as the reference).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (MIN_DEPTH, CameraIntrinsics, PoseSE3, check_fields,
                       compose_batch, project_points, quat_to_matrix_batch,
                       reprojection_jacobian, se3_exp, se3_exp_batch)
from .rendering import DepthMap, FlowField, lookup


class TooFewCorrespondencesError(ValueError):
    """PnP needs at least four 2D-3D correspondences."""


class DegenerateConfigurationError(ValueError):
    """All 3D points are collinear; the pose is unobservable."""


@dataclass
class Correspondences:
    """Vectorized set of 2D-3D matches."""

    p_world: np.ndarray   # (N, 3)
    x_img: np.ndarray     # (N, 2)

    @classmethod
    def from_arrays(cls, p_world, x_img) -> "Correspondences":
        p_world = np.asarray(p_world, dtype=float).reshape(-1, 3)
        x_img = np.asarray(x_img, dtype=float).reshape(-1, 2)
        if len(p_world) != len(x_img):
            raise ValueError("p_world and x_img length mismatch")
        return cls(p_world, x_img)

    def __len__(self):
        return len(self.p_world)

    def subset(self, idx) -> "Correspondences":
        return Correspondences(self.p_world[idx], self.x_img[idx])


# final refinement uses at most this many inliers (deterministic stride);
# beyond a few thousand points the accuracy gain is negligible
REFINE_POINT_CAP = 4000

# RANSAC fits its first batch of hypotheses, and scores every batch, this
# many at a time; the (B, N) scoring temporaries, and with them peak
# memory, grow with it
RANSAC_BATCH = 16

# RANSAC fits up to this many hypotheses at a time after the first batch
_FIT_BATCH = 64


def _stride_cap(arr, cap: int):
    """Deterministic stride subsampling down to at most ``cap`` entries."""
    if len(arr) <= cap:
        return arr
    stride = -(-len(arr) // cap)
    return arr[::stride]


@dataclass(frozen=True)
class RansacConfig:
    max_iters: int = 1000
    inlier_threshold: float = 2.0   # px
    min_inliers: int = 20
    confidence: float = 0.99
    seed: int = 0

    def __post_init__(self):
        check_fields(self, positive=("max_iters", "inlier_threshold"),
                     non_negative=("min_inliers",))
        if not (0.0 < self.confidence < 1.0):
            raise ValueError("confidence must be in (0, 1)")


@dataclass
class RefineResult:
    pose: PoseSE3
    cost: float
    iterations: int
    converged: bool


@dataclass
class PnPResult:
    pose: PoseSE3
    inliers: np.ndarray
    success: bool
    rmse: float            # inlier reprojection RMSE, px
    hypotheses: int


def correspondences_from_flow(d: DepthMap, f: FlowField, points) -> Correspondences:
    """Pair each jointly valid pixel's source point with pixel + flow.

    Pairs whose pixel or point is not finite (a NaN flow sample) are
    dropped: RANSAC cannot score them, and one would end the fit.
    """
    if d.shape != f.shape:
        raise ValueError("depth map and flow field dimensions differ")
    at, m = lookup(d.flat, f.flat)
    rows, cols = np.divmod(f.flat[m], f.shape[1])
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    p_world = pts[d.source[at[m]]]
    x_img = np.stack([cols + f.du[m], rows + f.dv[m]], axis=1)
    if not (np.isfinite(x_img).all() and np.isfinite(p_world).all()):
        finite = np.isfinite(x_img).all(axis=1) & np.isfinite(p_world).all(axis=1)
        p_world, x_img = p_world[finite], x_img[finite]
    return Correspondences.from_arrays(p_world, x_img)


def _huber_weights(norms, delta):
    w = np.ones_like(norms)
    big = norms > delta
    w[big] = delta / norms[big]
    return w


def _huber_cost(norms, delta):
    c = norms ** 2
    big = norms > delta
    c[big] = 2.0 * delta * norms[big] - delta * delta
    return c


class _ReprojTerm:
    """One frame's reprojection residuals under the pose ``which`` ("cur" or
    "next"); a pose putting a point within ``zmin`` of its camera plane is infeasible."""

    def __init__(self, corrs, which, zmin):
        self.corrs = corrs
        self.which = which
        self.zmin = zmin

    def residual(self, K, T_cur, T_next):
        """(N, 2) residuals, or None at an infeasible pose."""
        cam = (T_cur if self.which == "cur" else T_next).apply(self.corrs.p_world)
        if np.any(cam[:, 2] <= self.zmin):
            return None
        return project_points(K, cam)[0] - self.corrs.x_img

    def residual_jacobians(self, K, T_cur, T_next):
        """Residuals plus the (N, 2, 6) Jacobian of the term's own pose."""
        T = T_cur if self.which == "cur" else T_next
        uv, z, J = reprojection_jacobian(K, T, self.corrs.p_world)
        if np.any(z <= self.zmin):
            return None
        r = uv - self.corrs.x_img
        return (r, J, None) if self.which == "cur" else (r, None, J)


def _huber_energy(terms, K, T_cur, T_next, delta):
    """Weighted Huber energy of ``terms``; inf at an infeasible pose."""
    e = 0.0
    for weight, term in terms:
        r = term.residual(K, T_cur, T_next)
        if r is None:
            return np.inf
        e += weight * float(np.sum(_huber_cost(np.linalg.norm(r, axis=1), delta)))
    return e


def _normal_equations(terms, K, T_cur, T_next, free, delta):
    """Gauss-Newton system (H, g) over the poses named in ``free``, or None
    at an infeasible pose."""
    n = 6 * len(free)
    H = np.zeros((n, n))
    g = np.zeros(n)
    for weight, term in terms:
        got = term.residual_jacobians(K, T_cur, T_next)
        if got is None:
            return None
        r, Jc, Jn = got
        blocks = {"cur": Jc, "next": Jn}
        if len(free) == 1 and blocks[free[0]] is not None:
            J = blocks[free[0]]  # used as is: a zero-filled copy costs time
        else:
            J = np.zeros((len(r), 2, n))
            for k, name in enumerate(free):
                if blocks[name] is not None:
                    J[:, :, 6 * k:6 * k + 6] = blocks[name]
        irls = _huber_weights(np.linalg.norm(r, axis=1), delta)
        sw = np.sqrt(weight * irls)[:, None]
        A = (J * sw[:, :, None]).reshape(-1, n)
        b = (r * sw).reshape(-1)
        H += A.T @ A
        g += A.T @ b
    return H, g


def _huber_lm(terms, K, T_cur, T_next, free, delta, max_iters, rel_tol, lambda0,
              attempts, grad_tol, rank_gate):
    """Levenberg-Marquardt on the weighted Huber energy of ``terms``.

    ``terms`` are ``(weight, term)`` pairs; a term gives ``residual`` and
    ``residual_jacobians`` -> ``(r, J_cur, J_next)`` (None for a pose it
    does not depend on), or None at an infeasible pose.  The poses named
    in ``free`` move by right-multiplicative steps that strictly lower the
    energy; each iteration tries up to ``attempts`` dampings.  Returns
    ``(T_cur, T_next, energy_trace, iterations, converged)``, or None when
    the initial poses are infeasible or ``rank_gate`` finds the initial
    system rank-deficient.
    """
    built = _normal_equations(terms, K, T_cur, T_next, free, delta)
    if built is None:
        return None
    H, g = built
    n = len(H)
    if rank_gate:
        # rank of J equals rank of H = J^T J
        s = np.linalg.svd(H, compute_uv=False)
        if s[0] <= 0 or int(np.sum(s > s[0] * 1e-12)) < n:
            return None
    energy = _huber_energy(terms, K, T_cur, T_next, delta)
    trace = [energy]
    lam = lambda0
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        if it > 1:
            built = _normal_equations(terms, K, T_cur, T_next, free, delta)
            if built is None:
                break
            H, g = built
        if np.linalg.norm(g, ord=np.inf) < grad_tol:
            converged = True
            break
        stepped = False
        for _ in range(attempts):
            D = H + lam * np.diag(np.diag(H)) + 1e-15 * np.eye(n)
            try:
                step = np.linalg.solve(D, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = {"cur": T_cur, "next": T_next}
            for k, name in enumerate(free):
                trial[name] = trial[name].compose(se3_exp(step[6 * k:6 * k + 6]))
            trial_energy = _huber_energy(terms, K, trial["cur"], trial["next"], delta)
            if trial_energy < energy:
                rel_drop = (energy - trial_energy) / max(energy, 1e-300)
                T_cur, T_next, energy = trial["cur"], trial["next"], trial_energy
                trace.append(energy)
                lam = max(lam / 2.0, 1e-12)
                stepped = True
                if rel_drop < rel_tol:
                    converged = True
                break
            lam *= 10.0
        if not stepped:
            converged = True  # no descent step left: stationary
            break
        if converged:
            break
    return T_cur, T_next, trace, it, converged


def refine_pose(corrs: Correspondences, K: CameraIntrinsics, T0: PoseSE3,
                huber_delta: float = 2.0, max_iters: int = 30,
                rel_tol: float = 1e-12, lambda0: float = 1e-4) -> RefineResult:
    """Minimize the Huber reprojection cost from T0.

    ``_huber_lm`` on one reprojection term with T0 free; accepted steps
    never increase the cost.  Points behind the camera at T0 are dropped
    up front, and trial steps that would push a retained point behind the
    camera are rejected.  Raises TooFewCorrespondencesError below four
    points (in all, or in front of the camera at T0) and
    DegenerateConfigurationError on collinear points.
    """
    if len(corrs) < 4:
        raise TooFewCorrespondencesError(f"need >= 4 correspondences, got {len(corrs)}")
    if _collinear(corrs.p_world):
        raise DegenerateConfigurationError("3D points are collinear")
    kept = corrs.subset(T0.apply(corrs.p_world)[:, 2] > MIN_DEPTH)
    if len(kept) < 4:
        raise TooFewCorrespondencesError("fewer than 4 correspondences in front of camera")
    pose, _, trace, it, converged = _huber_lm(
        [(1.0, _ReprojTerm(kept, "cur", MIN_DEPTH))], K, T0, None, ("cur",),
        huber_delta, max_iters, rel_tol, lambda0,
        attempts=12, grad_tol=1e-12, rank_gate=False)
    return RefineResult(pose=pose, cost=trace[-1], iterations=it, converged=converged)


def _collinear(p_world) -> bool:
    c = p_world - p_world.mean(axis=0)
    s = np.linalg.svd(c, compute_uv=False)
    return bool(s[1] <= 1e-9 * max(s[0], 1.0))


def _fit_minimal_batch(P, x, K, T0):
    """Quick unweighted Gauss-Newton fits on B minimal samples at once.

    Sample b holds world points ``P[b]`` (4, 3) and pixels ``x[b]`` (4, 2);
    every fit starts from T0 and runs up to six steps.  A fit leaves the
    batch when its step falls below 1e-8; it fails when a point lands
    behind the camera, when its normal equations are singular or when its
    step or new translation is not finite.

    Returns (R (B, 3, 3), t (B, 3), fitted (B,)): every row is a finite
    pose, the last one reached.
    """
    b = len(P)
    q = np.tile(T0.q, (b, 1))
    R = np.tile(T0.rotation_matrix(), (b, 1, 1))
    t = np.tile(T0.t, (b, 1))
    fitted = np.ones(b, dtype=bool)
    live = np.arange(b)
    for _ in range(6):
        uv, z, J = reprojection_jacobian(K, (R[live], t[live]), P[live])
        front = ~np.any(z <= MIN_DEPTH, axis=1)
        fitted[live[~front]] = False
        live, uv, J = live[front], uv[front], J[front]
        if not len(live):
            break
        r = (uv - x[live]).reshape(len(live), -1, 1)
        A = J.reshape(len(live), -1, 6)
        At = A.transpose(0, 2, 1)
        H = At @ A + 1e-9 * np.eye(6)
        delta, solved = _solve_stack(H, -(At @ r))
        fitted[live[~solved]] = False
        live, delta = live[solved], delta[solved, :, 0]

        finite = np.all(np.isfinite(delta), axis=1)
        fitted[live[~finite]] = False
        live, delta = live[finite], delta[finite]
        dq, dt = se3_exp_batch(delta)
        q_new, t_new = compose_batch(q[live], R[live], t[live], dq, dt)
        finite = np.all(np.isfinite(t_new), axis=1)
        fitted[live[~finite]] = False
        live, delta = live[finite], delta[finite]
        q[live], t[live] = q_new[finite], t_new[finite]
        R[live] = quat_to_matrix_batch(q[live])
        live = live[np.abs(delta).max(axis=1) >= 1e-8]
        if not len(live):
            break
    return R, t, fitted


def _solve_stack(H, g):
    """np.linalg.solve over a stack, flagging the singular systems.

    A stacked solve raises for the whole stack when one system is
    singular; only then is each system solved on its own.
    """
    try:
        return np.linalg.solve(H, g), np.ones(len(H), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.zeros_like(g)
    solved = np.ones(len(H), dtype=bool)
    for i in range(len(H)):
        try:
            out[i] = np.linalg.solve(H[i:i + 1], g[i:i + 1])[0]
        except np.linalg.LinAlgError:
            solved[i] = False
    return out, solved


def _failed(T_init, n, hypotheses) -> PnPResult:
    """The one "no pose" result of ``solve_pnp_ransac``."""
    return PnPResult(pose=T_init, inliers=np.zeros(n, dtype=bool), success=False,
                     rmse=float("inf"), hypotheses=hypotheses)


def _reproj_errors(PT, u, v, K, R, t, cam=None):
    """Reprojection error (B, N) of every correspondence under B poses.

    ``PT`` (3, N) holds the world points as rows x, y, z and ``u``, ``v``
    (N,) the pixels' columns, all contiguous.  ``R`` (B, 3, 3) and ``t``
    (B, 3) are the poses' rotations and translations; points at or behind
    the camera plane score inf.  ``cam`` is an optional (B, 3, N) buffer
    for the camera-frame points.  Each row is the float expression of
    projecting with one PoseSE3 and taking
    ``np.linalg.norm(uv - x_img, axis=1)``, bit for bit.
    """
    cam = np.matmul(R, PT, out=cam)
    cam += t[:, :, None]
    x, y, z = cam[:, 0], cam[:, 1], cam[:, 2]
    zs = np.where(z > MIN_DEPTH, z, 1.0)
    du = K.fx * x
    du /= zs
    du += K.cx
    du -= u
    dv = K.fy * y
    dv /= zs
    dv += K.cy
    dv -= v
    du *= du
    dv *= dv
    du += dv
    err = np.sqrt(du, out=du)
    err[z <= MIN_DEPTH] = np.inf
    return err


def solve_pnp_ransac(corrs: Correspondences, K: CameraIntrinsics, T_init: PoseSE3,
                     cfg: RansacConfig) -> PnPResult:
    """RANSAC over minimal 4-point fits, then Huber refinement on inliers.

    Hypotheses are fitted in batches: ``RANSAC_BATCH`` first, then up to
    ``_FIT_BATCH`` (one stacked Gauss-Newton fit per batch).  Each batch
    is scored in chunks of ``RANSAC_BATCH`` (one (B, N) error matrix per
    chunk) and walked in order with the sequential best-count and
    early-stop rule; no chunk past the early stop is scored.  Samples are
    drawn one hypothesis at a time from a generator local to the call, so
    hypotheses drawn past the early stop change nothing: the samples, the
    pose, the inliers, ``rmse`` and ``hypotheses`` are those of fitting
    one hypothesis at a time.

    Raises nothing on bad input: ``success=False``, with T_init as the
    pose and no inliers, is the one "no pose" answer.  It is returned
    with no hypothesis drawn for fewer than four or collinear points, and
    after RANSAC when the best consensus set stays below ``min_inliers``
    or ``refine_pose`` rejects it.  Deterministic for a fixed seed.
    """
    n = len(corrs)
    if n < 4 or _collinear(corrs.p_world):
        return _failed(T_init, n, 0)
    rng = np.random.default_rng(cfg.seed)

    PT = np.ascontiguousarray(corrs.p_world.T)
    u = np.ascontiguousarray(corrs.x_img[:, 0])
    v = np.ascontiguousarray(corrs.x_img[:, 1])
    best_count = 0
    best_mask = np.zeros(n, dtype=bool)
    needed = cfg.max_iters
    it = 0
    cam = np.empty((min(RANSAC_BATCH, cfg.max_iters), 3, n))
    while it < needed:
        b = min(RANSAC_BATCH if it == 0 else _FIT_BATCH, needed - it)
        samples = np.array([rng.choice(n, size=4, replace=False) for _ in range(b)])
        R, t, fitted = _fit_minimal_batch(corrs.p_world[samples], corrs.x_img[samples],
                                          K, T_init)
        for lo in range(0, b, RANSAC_BATCH):
            if it >= needed:
                break
            hi = min(lo + RANSAC_BATCH, b)
            # rows that did not fit are scored too, but count no inliers
            masks = _reproj_errors(PT, u, v, K, R[lo:hi], t[lo:hi],
                                   cam[:hi - lo]) < cfg.inlier_threshold
            counts = np.where(fitted[lo:hi], np.count_nonzero(masks, axis=1), 0)
            for k in range(hi - lo):
                if it >= needed:
                    break
                it += 1
                count = int(counts[k])
                if count > best_count:
                    best_count = count
                    best_mask = masks[k]
                    ratio = count / n
                    if ratio >= 1.0:
                        needed = it
                    else:
                        p_good = max(ratio ** 4, 1e-12)
                        needed = min(needed, math.ceil(math.log(1.0 - cfg.confidence)
                                                       / math.log(1.0 - p_good)))

    if best_count < max(cfg.min_inliers, 4):
        return _failed(T_init, n, it)

    refine_idx = _stride_cap(np.nonzero(best_mask)[0], REFINE_POINT_CAP)
    try:
        pose = refine_pose(corrs.subset(refine_idx), K, T_init).pose
    except (TooFewCorrespondencesError, DegenerateConfigurationError):
        return _failed(T_init, n, it)
    err = _reproj_errors(PT, u, v, K, pose.rotation_matrix()[None], pose.t[None])[0]
    final_mask = err < cfg.inlier_threshold
    if int(final_mask.sum()) < max(cfg.min_inliers, 4):
        final_mask = best_mask
    rmse = float(np.sqrt(np.mean(err[final_mask] ** 2)))
    return PnPResult(pose=pose, inliers=final_mask, success=True,
                     rmse=rmse, hypotheses=it)
