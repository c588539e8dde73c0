"""SE(3) pose algebra, pinhole camera projection, and pose perturbation.

Conventions used throughout the package:

* A ``PoseSE3`` maps world coordinates into the camera frame,
  ``p_cam = R @ p_world + t`` (the extrinsic convention).  The camera
  center in world coordinates is therefore ``-R^T t``.
* Rotations are stored as unit quaternions ``(w, x, y, z)`` and
  renormalized after every composition so long tracking runs do not
  accumulate drift.
* The local parameterization for optimizers is right-multiplicative:
  a 6-vector ``xi = (wx, wy, wz, tx, ty, tz)`` updates a pose as
  ``T <- T * exp(xi)`` (rotation block first).
* A ``PoseSE3`` is immutable: ``q``, ``t`` and the rotation matrix it
  caches are read-only arrays, so a pose object stands for one value and
  its cached rotation matrix stays that of ``q``.
* The least-squares code stores points component-major: a block of N
  points is (..., 3, N), with the x, y and z rows contiguous, and
  ``reprojection_jacobian`` writes its Jacobian as (..., 6, 2, N) rows,
  one contiguous row per (parameter, pixel axis).  Every such product is
  elementwise over the points, so a row of a stacked call equals the
  single-pose call bit for bit.  The public functions still return the
  point-major shapes, (N, 2) and (N, 2, 6), as transposed views of that
  storage.
* RANSAC's stacked fits hold no ``PoseSE3``: ``se3_exp_rows`` maps each
  twist of a (B, 6) stack to a plain rotation matrix and translation.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Below these rotation angles (radians) exp/log and se3_exp_rows switch to
# series expansions.
SMALL_ANGLE = 1e-8
SERIES_ANGLE = 1e-4

# Points closer than this to the camera plane count as "behind".
MIN_DEPTH = 1e-9


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z)
# ---------------------------------------------------------------------------

def _quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def _quat_conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _quat_normalize(q):
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    q = q / n
    # canonical sign keeps log/rotvec single-valued
    if q[0] < 0.0:
        q = -q
    return q


def _quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _matrix_to_quat(R):
    # Shepperd's method: pick the largest diagonal combination for stability.
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s,
                      0.25 * s,
                      (R[0, 1] + R[1, 0]) / s,
                      (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] > R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s,
                      (R[0, 1] + R[1, 0]) / s,
                      0.25 * s,
                      (R[1, 2] + R[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s,
                      (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s,
                      0.25 * s])
    return _quat_normalize(q)


def _quat_from_rotvec(rv):
    rv = np.asarray(rv, dtype=float)
    angle = np.linalg.norm(rv)
    if angle < SMALL_ANGLE:
        # sin(a/2)/a ~ 1/2 - a^2/48
        w, s = 1.0 - angle * angle / 8.0, 0.5 - angle * angle / 48.0
    else:
        half = 0.5 * angle
        w, s = math.cos(half), math.sin(half) / angle
    return _quat_normalize(np.array([w, rv[0] * s, rv[1] * s, rv[2] * s]))


def _rotvec_from_quat(q):
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < SMALL_ANGLE:
        # theta/s -> 2/w * (1 - s^2/(3 w^2)) as s -> 0
        scale = 2.0 / w * (1.0 - s * s / (3.0 * w * w))
    else:
        scale = 2.0 * math.atan2(s, w) / s
    return np.array([x, y, z]) * scale


def _skew(v):
    """Cross-product matrix [v]x of a vector (3,), or of each row of (..., 3)."""
    v = np.asarray(v, dtype=float)
    W = np.zeros(v.shape[:-1] + (3, 3))
    W[..., 0, 1] = -v[..., 2]
    W[..., 0, 2] = v[..., 1]
    W[..., 1, 0] = v[..., 2]
    W[..., 1, 2] = -v[..., 0]
    W[..., 2, 0] = -v[..., 1]
    W[..., 2, 1] = v[..., 0]
    return W


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

# The range rules a config field may declare: (test, end of the message).
# An int field with "positive" must be at least 1.
_RULES = {"positive": (lambda v: v > 0, "positive"),
          "non_negative": (lambda v: v >= 0, "non-negative"),
          "unit": (lambda v: 0 <= v <= 1, "in [0, 1]")}


def check_number(name: str, value, kind, rule=None) -> None:
    """Raise ``ValueError("<name> must be ...")`` unless ``value`` is a finite
    real (``kind`` float) or an integer (``kind`` int), and not a bool, and
    then unless it meets ``rule`` (a key of ``_RULES``).  A ``seed`` must be
    non-negative, as numpy refuses it otherwise."""
    if kind in (float, "float"):
        try:
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"{name} must be a finite number")
    elif kind in (int, "int"):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer")
        if name == "seed":
            rule = "non_negative"
    if rule is not None:
        test, text = _RULES[rule]
        if not test(value):
            raise ValueError(f"{name} must be {text}")


def check_fields(config, positive=(), non_negative=(), unit=()) -> None:
    """``check_number`` on every field of a config dataclass, by its
    annotation, with the range rule each field is named under."""
    rules = {**dict.fromkeys(positive, "positive"),
             **dict.fromkeys(non_negative, "non_negative"),
             **dict.fromkeys(unit, "unit")}
    for f in dataclasses.fields(config):
        check_number(f.name, getattr(config, f.name), f.type, rules.get(f.name))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera matrix K plus the image size in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        check_fields(self, positive=("fx", "fy"))
        for name, size in (("cx", self.width), ("cy", self.height)):
            if not 0 < getattr(self, name) < size:
                raise ValueError(f"{name} must be inside the image")

    @property
    def mean_focal(self):
        return 0.5 * (self.fx + self.fy)


@dataclass(frozen=True)
class PerturbBounds:
    """Per-axis bounds of the uniform pose disturbance (meters / degrees)."""

    max_transl_per_axis: float
    max_rot_per_axis_deg: float

    def __post_init__(self):
        check_fields(self, non_negative=("max_transl_per_axis", "max_rot_per_axis_deg"))


# Default disturbance used to draw initial poses; calibrated so that the
# mean rotation/translation offsets land near 9.67 deg / 182.8 cm.
DEFAULT_PERTURB = PerturbBounds(max_transl_per_axis=2.0, max_rot_per_axis_deg=10.0)


def _read_only(a):
    a.flags.writeable = False
    return a


class PoseSE3:
    """Rigid transform world -> camera stored as (unit quaternion, translation).

    ``q``, ``t`` and the rotation matrix, built on first use and kept, are
    read-only.
    """

    __slots__ = ("q", "t", "_R")

    def __init__(self, q, t):
        self.q = _read_only(_quat_normalize(np.asarray(q, dtype=float)))
        self.t = _read_only(np.asarray(t, dtype=float).reshape(3).copy())
        self._R = None
        if not np.all(np.isfinite(self.t)):
            raise ValueError("non-finite translation")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls):
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @classmethod
    def from_rt(cls, R, t):
        return cls(_matrix_to_quat(R), t)

    @classmethod
    def from_rotvec(cls, rv, t):
        return cls(_quat_from_rotvec(rv), t)

    # -- group operations ----------------------------------------------------

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """self applied after other: (self*other)(p) = self(other(p))."""
        q = _quat_multiply(self.q, other.q)
        t = self.rotation_matrix() @ other.t + self.t
        return PoseSE3(q, t)

    def inverse(self) -> "PoseSE3":
        qc = _quat_conjugate(self.q)
        Rt = self.rotation_matrix().T
        return PoseSE3(qc, -Rt @ self.t)

    def apply(self, pts):
        """Transform one point (3,) or an array of points (N, 3)."""
        R = self.rotation_matrix()
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            return R @ pts + self.t
        return pts @ R.T + self.t

    # -- views ---------------------------------------------------------------

    def rotation_matrix(self):
        if self._R is None:
            self._R = _read_only(_quat_to_matrix(self.q))
        return self._R

    def matrix(self):
        """3x4 row-major [R|t]."""
        return np.hstack([self.rotation_matrix(), self.t.reshape(3, 1)])

    def center(self):
        """Camera center in world coordinates, -R^T t."""
        return -(self.rotation_matrix().T @ self.t)

    def rotvec(self):
        return _rotvec_from_quat(self.q)

    def __repr__(self):
        return f"PoseSE3(q={np.round(self.q, 6)}, t={np.round(self.t, 6)})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def project_points(K: CameraIntrinsics, pts_cam, axis=-1):
    """Vectorized pinhole projection of points (..., 3); a 1-D input is
    read as rows of 3.

    u = fx * X / Z + cx,  v = fy * Y / Z + cy.  Returns (uv, in_front): uv
    is (..., 2) with rows undefined where in_front is False.  No bounds
    clamping: callers mask out-of-image projections themselves.  ``axis``
    is the axis that holds (X, Y, Z), and uv holds (u, v) on the same
    axis: -2 projects a component-major (..., 3, N) block to (..., 2, N).
    """
    pts_cam = np.asarray(pts_cam, dtype=float)
    if pts_cam.ndim == 1:
        pts_cam = pts_cam.reshape(-1, 3)
    x, y, z = np.moveaxis(pts_cam, axis, 0)
    in_front = z > MIN_DEPTH
    zs = np.where(in_front, z, 1.0)
    uv = np.empty((2,) + z.shape)
    uv[0] = K.fx * x / zs + K.cx
    uv[1] = K.fy * y / zs + K.cy
    return np.moveaxis(uv, 0, axis), in_front


def pixel_index(K: CameraIntrinsics, uv, in_front):
    """(px, ok): the nearest pixel (N, 2) of each projection, and the mask
    of those in front of the camera that fall inside the image."""
    px = np.rint(uv).astype(np.int64)
    ok = (in_front & (px[:, 0] >= 0) & (px[:, 0] < K.width)
          & (px[:, 1] >= 0) & (px[:, 1] < K.height))
    return px, ok


def se3_exp(xi) -> PoseSE3:
    """Exponential map; xi = (rotation block, translation block)."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    omega, rho = xi[:3], xi[3:]
    theta = np.linalg.norm(omega)
    W = _skew(omega)
    # V = I + A [w]x + B [w]x^2
    if theta < SMALL_ANGLE:
        A, B = 0.5, 1.0 / 6.0
    else:
        A = (1.0 - math.cos(theta)) / theta ** 2
        B = (theta - math.sin(theta)) / theta ** 3
    V = np.eye(3) + A * W + B * (W @ W)
    return PoseSE3(_quat_from_rotvec(omega), V @ rho)


def se3_exp_rows(xi):
    """Exponential map of each row of xi (B, 6): (R (B, 3, 3), t (B, 3)).

    R is Rodrigues' formula, I + a [w]x + b [w]x^2, and t = V rho with
    V = I + b [w]x + c [w]x^2.  Below ``SERIES_ANGLE`` the scalars a, b
    and c come from their Taylor series (Sola et al., "A micro Lie theory",
    2018): ``(1 - cos theta) / theta^2`` cancels to ~eps / theta^2 above it.
    Every operation is elementwise over the rows or one stacked matmul,
    so a row does not depend on the others in the stack.
    """
    omega, rho = xi[:, :3], xi[:, 3:]
    w0, w1, w2 = omega.T
    theta2 = w0 * w0 + w1 * w1 + w2 * w2
    theta = np.sqrt(theta2)
    small = theta < SERIES_ANGLE
    th = np.where(small, 1.0, theta)
    sin, cos = np.sin(th), np.cos(th)
    a = np.where(small, 1.0 - theta2 / 6.0, sin / th)
    b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - cos) / th ** 2)
    c = np.where(small, 1.0 / 6.0 - theta2 / 120.0, (th - sin) / th ** 3)
    W = _skew(omega)
    W2 = W @ W
    R = np.eye(3) + a[:, None, None] * W + b[:, None, None] * W2
    V = np.eye(3) + b[:, None, None] * W + c[:, None, None] * W2
    return R, (V @ rho[:, :, None])[:, :, 0]


def se3_log(T: PoseSE3) -> np.ndarray:
    """Logarithm map, inverse of :func:`se3_exp` for rotation angles < pi."""
    omega = T.rotvec()
    theta = np.linalg.norm(omega)
    W = _skew(omega)
    if theta < SMALL_ANGLE:
        Vinv = np.eye(3) - 0.5 * W + (1.0 / 12.0) * (W @ W)
    else:
        half = 0.5 * theta
        C = (1.0 - half * math.cos(half) / math.sin(half)) / theta ** 2
        Vinv = np.eye(3) - 0.5 * W + C * (W @ W)
    return np.concatenate([omega, Vinv @ T.t])


def pose_error(a: PoseSE3, b: PoseSE3) -> tuple[float, float]:
    """(rotation error deg, translation error m) between two poses.

    Translation is measured between camera centers (-R^T t); rotation is
    the geodesic angle of the relative rotation.
    """
    rel = _quat_multiply(a.q, _quat_conjugate(b.q))
    s = np.linalg.norm(rel[1:])
    angle = 2.0 * math.atan2(s, abs(rel[0]))
    transl = float(np.linalg.norm(a.center() - b.center()))
    return math.degrees(angle), transl


def perturb_pose(T: PoseSE3, bounds: PerturbBounds, seed) -> PoseSE3:
    """Apply an independent uniform per-axis disturbance to a pose.

    The rotation vector has each component drawn from +-max_rot, the
    camera-center offset each component from +-max_transl, so
    ``pose_error(T, perturbed)`` returns exactly the drawn magnitudes.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    dt = rng.uniform(-bounds.max_transl_per_axis, bounds.max_transl_per_axis, 3)
    rv = np.radians(rng.uniform(-bounds.max_rot_per_axis_deg,
                                bounds.max_rot_per_axis_deg, 3))
    dq = _quat_from_rotvec(rv)
    q_new = _quat_multiply(T.q, dq)
    R_new = _quat_to_matrix(_quat_normalize(q_new))
    c_new = T.center() + dt
    return PoseSE3(q_new, -(R_new @ c_new))


def reprojection_jacobian(K: CameraIntrinsics, pose, pts_world):
    """Projection with its Jacobian w.r.t. the right-multiplicative update.

    For r(xi) = project(K, pose * exp(xi), P) evaluated at xi = 0, let g be
    a row of d uv / d p_cam times R.  The closed form (Blanco 2010; Sola et
    al., "A micro Lie theory", 2018) gives g as that row's translation block
    and the cross product P x g as its rotation block.  Both are written
    elementwise over the points, as (..., 6, 2, N) rows.

    ``pose`` is a PoseSE3 with ``pts_world`` (N, 3), or ``(R, t)``: one
    rotation (3, 3) and translation (3,) with ``pts_world`` (N, 3), or a
    stack of B of them, (B, 3, 3) and (B, 3), with ``pts_world`` (B, N, 3);
    the outputs then gain the leading B axis, and row b equals the one-pose
    call for pose b bit for bit.

    Returns (uv (N, 2), z (N,), J (N, 2, 6)), transposed views of the
    component-major (..., 2, N) and (..., 6, 2, N) arrays.  Rows with
    z <= MIN_DEPTH are undefined; callers discard them.
    """
    if isinstance(pose, PoseSE3):
        R, t = pose.rotation_matrix(), pose.t
        P = np.asarray(pts_world, dtype=float).reshape(-1, 3)
    else:
        R, t = pose
        P = np.asarray(pts_world, dtype=float)
    PT = np.ascontiguousarray(np.swapaxes(P, -1, -2))
    cam = R @ PT
    cam += t[..., :, None]
    uv, _ = project_points(K, cam, axis=-2)
    x, y, z = cam[..., 0, :], cam[..., 1, :], cam[..., 2, :]
    px, py, pz = PT[..., 0, :], PT[..., 1, :], PT[..., 2, :]

    iz = 1.0 / z
    J = np.empty(cam.shape[:-2] + (6, 2, cam.shape[-1]))
    # row of d uv / d p_cam: (f/z at column k, -f x_k/z^2 at column 2)
    for k, (f, xk) in enumerate(((K.fx, x), (K.fy, y))):
        g = J[..., 3:, k, :]
        np.multiply((f * iz)[..., None, :], R[..., k, :, None], out=g)
        g += (-f * xk * iz * iz)[..., None, :] * R[..., 2, :, None]
        gx, gy, gz = g[..., 0, :], g[..., 1, :], g[..., 2, :]
        np.subtract(py * gz, pz * gy, out=J[..., 0, k, :])
        np.subtract(pz * gx, px * gz, out=J[..., 1, k, :])
        np.subtract(px * gy, py * gx, out=J[..., 2, k, :])
    return np.swapaxes(uv, -1, -2), z, np.swapaxes(J, -1, -3)
