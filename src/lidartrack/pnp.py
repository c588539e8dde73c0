"""2D-3D correspondences from depth + flow, RANSAC PnP, and the LM core.

``_huber_lm`` is the one Levenberg-Marquardt loop, split as in Ceres
(Agarwal et al.): one residual block type gives residuals and Jacobians,
one solver iterates.  The block is ``_Term``, a projection minus a target
under one pose or the difference of two poses' projections, and ``_term``
builds every one with the one initial-pose depth filter.
``refine_pose`` runs the loop on one reprojection term and one free pose,
``joint.optimize_pair`` on reprojection and consistency terms; both run
it with the one set of ``LM_*`` settings below.

Every LM quantity is stored component-major, points as contiguous rows:
a ``_Term`` holds its points as (3, N) and its targets as (2, N), its
camera-frame points are one ``R @ P^T`` product, and the Jacobian of each
pose is (6, 2, N) rows (see ``geometry.reprojection_jacobian``).  The
normal equations of a term are then one product each, ``H = A A^T`` and
``g = A b``, over the (6 k, 2 N) matrix A of its k free poses.

The minimal solver inside RANSAC is damped Gauss-Newton started from the
tracking prior rather than a closed-form P3P: tracking always supplies a
near-correct initial pose, which makes local iteration reliable.

RANSAC fits and scores its hypotheses in batches, the batch scoring of
preemptive RANSAC (Nister 2005) applied to plain RANSAC (Fischler and
Bolles 1981).  A fit batch is one stacked Gauss-Newton fit over B minimal
samples: ``RANSAC_BATCH`` for the first batch, whose scores set how many
hypotheses are needed, and up to ``_FIT_BATCH`` after it, since a stacked
fit costs little more for four times the samples.  It steps plain
rotation matrices and translations by ``geometry.se3_exp_rows`` and builds
no quaternion, as a hypothesis is only scored.  Each fit batch is scored
in chunks of ``RANSAC_BATCH`` rows, one (B, N) reprojection-error matrix
of (B, 3, N) camera-frame points per chunk, up to the early-stop count,
so memory grows with ``RANSAC_BATCH`` alone.  Rows are independent (every
batched operation is elementwise over them or a stacked matmul) and the
samples are drawn in sequence, so batch sizes never change a result: the
pose, inliers and counters equal fitting and scoring one hypothesis at a
time (``tests/test_pnp.py`` keeps that loop as the reference).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (MIN_DEPTH, CameraIntrinsics, PoseSE3, check_fields,
                       project_points, reprojection_jacobian, se3_exp, se3_exp_rows)
from .rendering import DepthMap, FlowField, lookup


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

# the one set of LM settings, shared by refine_pose and joint.optimize_pair:
# dampings tried per iteration, the gradient norm that ends the iteration,
# and the depth (m) a point must keep in front of its camera plane; points
# within it at the initial pose are dropped, and a step that brings a kept
# point within it is infeasible (keeps Jacobians bounded)
LM_ATTEMPTS = 12
LM_GRAD_TOL = 1e-12
LM_MIN_DEPTH = 1e-3


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
    refine_iters: int = 0           # refine_pose's iterations; 0 when it did not run
    refine_converged: bool = False  # refine_pose's convergence flag


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


def _poses(which, T_cur, T_next):
    """The poses named in ``which``, in its order."""
    return [T_cur if name == "cur" else T_next for name in which]


class _Term:
    """One LM residual block over ``pts`` (N, 3) and ``target`` (N, 2).

    ``which`` names the poses it uses: ``("cur",)`` or ``("next",)`` gives
    the projection under that pose minus ``target`` (a reprojection term),
    ``("cur", "next")`` the next pose's projection minus the current pose's
    minus ``target`` (the consistency term).  A pose putting a point within
    ``LM_MIN_DEPTH`` of its camera plane is infeasible.

    Both arrays are stored component-major, ``PT`` (3, N) and ``TT``
    (2, N); ``pts`` and ``target`` are their transposed views.
    """

    def __init__(self, pts, target, which):
        self.PT = np.ascontiguousarray(pts.T)
        self.TT = np.ascontiguousarray(target.T)
        self.which = which

    pts = property(lambda self: self.PT.T)
    target = property(lambda self: self.TT.T)

    def __len__(self):
        return self.PT.shape[1]

    def residual(self, K, T_cur, T_next):
        """(N, 2) residuals, or None at an infeasible pose."""
        cams = []
        for T in _poses(self.which, T_cur, T_next):
            cam = T.rotation_matrix() @ self.PT
            cam += T.t[:, None]
            cams.append(cam)
        if any(np.any(cam[2] <= LM_MIN_DEPTH) for cam in cams):
            return None
        uv = [project_points(K, cam, axis=-2)[0] for cam in cams]
        return ((uv[1] - uv[0] if len(uv) == 2 else uv[0]) - self.TT).T

    def residual_jacobians(self, K, T_cur, T_next):
        """Residuals plus the (N, 2, 6) Jacobian blocks of the current and
        the next pose (None for a pose the term does not use)."""
        got = [reprojection_jacobian(K, T, self.pts)
               for T in _poses(self.which, T_cur, T_next)]
        if any(np.any(z <= LM_MIN_DEPTH) for _, z, _ in got):
            return None
        if len(got) == 2:
            (uv_c, _, J_c), (uv_n, _, J_n) = got
            return uv_n - uv_c - self.target, -J_c, J_n
        uv, _, J = got[0]
        r = uv - self.target
        return (r, J, None) if self.which == ("cur",) else (r, None, J)


def _term(pts, target, which, T_cur0, T_next0, min_points):
    """The ``_Term`` of the points beyond ``LM_MIN_DEPTH`` under each of
    its poses at (T_cur0, T_next0), or None when fewer than ``min_points``
    are."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    target = np.asarray(target, dtype=float).reshape(-1, 2)
    if len(pts) != len(target):
        raise ValueError("points and targets length mismatch")
    keep = np.ones(len(pts), dtype=bool)
    for T in _poses(which, T_cur0, T_next0):
        keep &= T.apply(pts)[:, 2] > LM_MIN_DEPTH
    if np.count_nonzero(keep) < min_points:
        return None
    return _Term(pts[keep], target[keep], which)


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
    """Gauss-Newton system (H, g) over the poses named in ``free``, at
    poses where every term is feasible.

    Each term's weighted Jacobian is one (6 k, 2 N) matrix A, its rows the
    component-major Jacobian rows of the k free poses (zero for a pose the
    term does not use); H gains A A^T and g gains A b, one product each.
    """
    n = 6 * len(free)
    H = np.zeros((n, n))
    g = np.zeros(n)
    for weight, term in terms:
        r, Jc, Jn = term.residual_jacobians(K, T_cur, T_next)
        blocks = {"cur": Jc, "next": Jn}
        m = len(r)
        if len(free) == 1 and blocks[free[0]] is not None:
            A = blocks[free[0]].T  # the term's own new array: no zero-filled copy
        else:
            A = np.zeros((n, 2, m))
            for k, name in enumerate(free):
                if blocks[name] is not None:
                    A[6 * k:6 * k + 6] = blocks[name].T
        sw = np.sqrt(weight * _huber_weights(np.linalg.norm(r, axis=1), delta))
        A *= sw
        A = A.reshape(n, 2 * m)
        b = (r.T * sw).reshape(2 * m)
        H += A @ A.T
        g += A @ b
    return H, g


def _rank(H):
    """Numerical rank of each system of the stack H (B, n, n) = J J^T.

    The count of singular values above 1e-12 times the largest, 0 for a
    system that is not finite: the rank of J, a test that does not hang
    on whether a solve meets an exact zero pivot.
    """
    rank = np.zeros(len(H), dtype=int)
    ok = np.all(np.isfinite(H), axis=(-2, -1))
    s = np.linalg.svd(H[ok], compute_uv=False)
    rank[ok] = np.count_nonzero(s > 1e-12 * s[:, :1], axis=1)
    return rank


def _huber_lm(terms, K, T_cur, T_next, free, delta, max_iters, rel_tol, lambda0):
    """Levenberg-Marquardt on the weighted Huber energy of ``terms``.

    ``terms`` are ``(weight, term)`` pairs; a term gives ``residual`` and
    ``residual_jacobians`` -> ``(r, J_cur, J_next)`` (None for a pose it
    does not depend on), or None at an infeasible pose.  The poses named
    in ``free`` move by right-multiplicative steps that strictly lower the
    energy; each iteration tries up to ``LM_ATTEMPTS`` dampings, and a
    gradient below ``LM_GRAD_TOL`` ends the iteration.  Returns
    ``(T_cur, T_next, energy_trace, iterations, converged)``, or None when
    the initial poses are infeasible, the initial energy is not finite (a
    non-finite pixel, point or flow sample) or the initial system is
    rank-deficient (an unobservable pose direction).
    """
    energy = _huber_energy(terms, K, T_cur, T_next, delta)
    if not np.isfinite(energy):
        return None  # infeasible, or no step could lower it
    H, g = _normal_equations(terms, K, T_cur, T_next, free, delta)
    n = len(H)
    if _rank(H[None])[0] < n:
        return None
    trace = [energy]
    lam = lambda0
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        if it > 1:
            H, g = _normal_equations(terms, K, T_cur, T_next, free, delta)
        if np.linalg.norm(g, ord=np.inf) < LM_GRAD_TOL:
            converged = True
            break
        stepped = False
        for _ in range(LM_ATTEMPTS):
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


def refine_pose(corrs: Correspondences, K: CameraIntrinsics, T0: PoseSE3) -> RefineResult:
    """Minimize the Huber reprojection cost (delta 2 px) from T0.

    ``_huber_lm`` on one reprojection term with T0 free, for up to 30
    iterations; accepted steps never increase the cost.  Points within
    ``LM_MIN_DEPTH`` of the camera plane at T0 are dropped up front, and
    trial steps that bring a kept point within it are rejected.

    Raises nothing: fewer than four kept points, a non-finite pixel or
    point, or a rank-deficient system (collinear points, or points too
    far for the translation to show) give ``RefineResult(pose=T0,
    cost=inf, iterations=0, converged=False)``, the failure shape of
    ``joint.JointResult``.
    """
    term = _term(corrs.p_world, corrs.x_img, ("cur",), T0, None, 4)
    # Huber delta 2 px, 30 iterations, relative tolerance 1e-12, damping 1e-4
    out = (_huber_lm([(1.0, term)], K, T0, None, ("cur",), 2.0, 30, 1e-12, 1e-4)
           if term is not None else None)
    if out is None:
        return RefineResult(pose=T0, cost=np.inf, iterations=0, converged=False)
    pose, _, trace, it, converged = out
    return RefineResult(pose=pose, cost=trace[-1], iterations=it, converged=converged)


def _collinear(p_world) -> bool:
    """True for fewer than four finite points, or finite points on one line."""
    p_world = p_world[np.isfinite(p_world).all(axis=1)]
    if len(p_world) < 4:
        return True
    c = p_world - p_world.mean(axis=0)
    s = np.linalg.svd(c, compute_uv=False)
    return bool(s[1] <= 1e-9 * max(s[0], 1.0))


def _fit_minimal_batch(P, x, K, T0):
    """Quick unweighted Gauss-Newton fits on B minimal samples at once.

    Sample b holds world points ``P[b]`` (4, 3) and pixels ``x[b]`` (4, 2);
    every fit starts from T0 and runs up to six steps.  A fit leaves the
    batch when its step falls below 1e-8.  It fails when its sample is
    degenerate, its normal equations at T0 fixing fewer than five pose
    directions (``_rank``): four points on one line fix five, and the
    damping holds the sixth, the rotation about the line, at T0, while
    coincident points fix two.  It fails too when a point lands behind
    the camera, when a damped system is singular, or when its step or
    new translation is not finite.

    Returns (R (B, 3, 3), t (B, 3), fitted (B,)): every row is a finite
    pose, the last one reached.
    """
    b = len(P)
    R = np.tile(T0.rotation_matrix(), (b, 1, 1))
    t = np.tile(T0.t, (b, 1))
    fitted = np.ones(b, dtype=bool)
    live = np.arange(b)
    for step in range(6):
        uv, z, J = reprojection_jacobian(K, (R[live], t[live]), P[live])
        front = ~np.any(z <= MIN_DEPTH, axis=1)
        fitted[live[~front]] = False
        live, uv, J = live[front], uv[front], J[front]
        if not len(live):
            break
        # component-major rows: A (B, 6, 8) and r (B, 8, 1)
        A = np.swapaxes(J, -1, -3).reshape(len(live), 6, -1)
        r = np.swapaxes(uv - x[live], -1, -2).reshape(len(live), -1, 1)
        H = A @ np.swapaxes(A, -1, -2)
        if step == 0:
            posed = _rank(H) >= 5
            fitted[live[~posed]] = False
            live, A, r, H = live[posed], A[posed], r[posed], H[posed]
        delta, solved = _solve_stack(H + 1e-9 * np.eye(6), -(A @ r))
        fitted[live[~solved]] = False
        live, delta = live[solved], delta[solved, :, 0]

        finite = np.all(np.isfinite(delta), axis=1)
        fitted[live[~finite]] = False
        live, delta = live[finite], delta[finite]
        dR, dt = se3_exp_rows(delta)
        t_new = (R[live] @ dt[:, :, None])[:, :, 0] + t[live]
        finite = np.all(np.isfinite(t_new), axis=1)
        fitted[live[~finite]] = False
        live, delta = live[finite], delta[finite]
        R[live] = R[live] @ dR[finite]
        t[live] = t_new[finite]
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
    refined = refine_pose(corrs.subset(refine_idx), K, T_init)
    if refined.cost == np.inf:
        return _failed(T_init, n, it)
    pose = refined.pose
    err = _reproj_errors(PT, u, v, K, pose.rotation_matrix()[None], pose.t[None])[0]
    final_mask = err < cfg.inlier_threshold
    if int(final_mask.sum()) < max(cfg.min_inliers, 4):
        final_mask = best_mask
    rmse = float(np.sqrt(np.mean(err[final_mask] ** 2)))
    return PnPResult(pose=pose, inliers=final_mask, success=True, rmse=rmse,
                     hypotheses=it, refine_iters=refined.iterations,
                     refine_converged=refined.converged)
