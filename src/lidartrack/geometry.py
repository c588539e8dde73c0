"""SE(3) pose algebra, pinhole camera projection, and pose perturbation.

Conventions used throughout the package:

* A ``PoseSE3`` maps world coordinates into the camera frame,
  ``p_cam = R @ p_world + t`` (the extrinsic convention).  The camera
  center in world coordinates is therefore ``-R^T t``.
* Rotations are stored as 3x3 matrices.  Composition multiplies them and
  does not renormalize: the product of two orthonormal matrices is
  orthonormal to rounding, and 1e5 random compositions of 0.1 rad stay
  within 4e-14 of it.  Matrices read from outside go through
  ``PoseSE3.from_rt``, which projects them onto SO(3).
* The local parameterization for optimizers is right-multiplicative:
  a 6-vector ``xi = (wx, wy, wz, tx, ty, tz)`` updates a pose as
  ``T <- T * exp(xi)`` (rotation block first).
* A ``PoseSE3`` is immutable: its rotation matrix and ``t`` are read-only
  arrays, so a pose object stands for one value.
* The least-squares code stores points component-major: a block of N
  points is (..., 3, N), with the x, y and z rows contiguous, and
  ``reprojection_jacobian`` writes its Jacobian as (..., 6, 2, N) rows,
  one contiguous row per (parameter, pixel axis).  Every such product is
  elementwise over the points, so a row of a stacked call equals the
  single-pose call bit for bit.  The public functions still return the
  point-major shapes, (N, 2) and (N, 2, 6), as transposed views of that
  storage.
* Every exponential map goes through ``se3_exp_rows``, which maps each
  twist of a (B, 6) stack to a rotation matrix and a translation;
  ``se3_exp`` is its one-row case.  RANSAC's stacked fits step its plain
  (R, t) stacks and hold no ``PoseSE3``.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Below these rotation angles (radians) the logs (``PoseSE3.rotvec``,
# ``se3_log``) and ``se3_exp_rows`` switch to series expansions.
SMALL_ANGLE = 1e-8
SERIES_ANGLE = 1e-4

# Points closer than this to the camera plane count as "behind".
MIN_DEPTH = 1e-9


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
    """Rigid transform world -> camera stored as (rotation matrix, translation).

    The rotation matrix and ``t`` are read-only copies of the arguments.
    The constructor takes R as given; ``from_rt`` projects a matrix that is
    only near a rotation onto SO(3).
    """

    __slots__ = ("_R", "t")

    def __init__(self, R, t):
        self._R = _read_only(np.array(R, dtype=float, order="C").reshape(3, 3))
        self.t = _read_only(np.array(t, dtype=float).reshape(3))
        if not np.isfinite(self._R).all():
            raise ValueError("non-finite rotation")
        if not np.isfinite(self.t).all():
            raise ValueError("non-finite translation")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_rt(cls, R, t):
        """The nearest rotation to R, with translation t: the SVD polar
        factor Q = U V^T, with U's last column flipped where det Q < 0.
        One Newton-Schulz step, Q + Q (I - Q^T Q) / 2, then takes Q from up
        to 14 eps off orthonormal (the SVD factors' rounding) to 2 eps."""
        R = np.asarray(R, dtype=float)
        if not np.isfinite(R).all():
            raise ValueError("non-finite rotation")
        U, _, Vt = np.linalg.svd(R)
        if np.linalg.det(U) * np.linalg.det(Vt) < 0.0:
            U[:, 2] = -U[:, 2]
        Q = U @ Vt
        return cls(Q + 0.5 * Q @ (np.eye(3) - Q.T @ Q), t)

    @classmethod
    def from_rotvec(cls, rv, t):
        R, _ = se3_exp_rows(np.concatenate([np.asarray(rv, dtype=float), np.zeros(3)])[None])
        return cls(R[0], t)

    # -- group operations ----------------------------------------------------

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """self applied after other: (self*other)(p) = self(other(p))."""
        return PoseSE3(self._R @ other._R, self._R @ other.t + self.t)

    def inverse(self) -> "PoseSE3":
        Rt = self._R.T
        return PoseSE3(Rt, -(Rt @ self.t))

    def apply(self, pts):
        """Transform one point (3,) or an array of points (N, 3)."""
        R = self._R
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            return R @ pts + self.t
        return pts @ R.T + self.t

    # -- views ---------------------------------------------------------------

    def rotation_matrix(self):
        return self._R

    def matrix(self):
        """3x4 row-major [R|t]."""
        return np.hstack([self._R, self.t.reshape(3, 1)])

    def center(self):
        """Camera center in world coordinates, -R^T t."""
        return -(self._R.T @ self.t)

    def rotvec(self):
        """The SO(3) log of R: angle theta in [0, pi] times the unit axis."""
        theta, c, v = _angle(self._R)
        if theta < SMALL_ANGLE:
            # v = 2 sin(theta) axis, and theta / sin(theta) ~ 1 + theta^2 / 6
            return 0.5 * (1.0 + theta * theta / 6.0) * v
        if c >= 0.0:
            return theta / math.sqrt(v @ v) * v
        # near pi v vanishes: (R + R^T) / 2 = c I + (1 - c) u u^T gives the
        # axis u from its largest diagonal entry, and v gives its sign
        B = 0.5 * (self._R + self._R.T) - c * np.eye(3)
        k = int(np.argmax(np.diag(B)))
        u = B[k] / math.sqrt(B[k, k] * (1.0 - c))
        return theta * (u if u @ v >= 0.0 else -u)

    def __repr__(self):
        return f"PoseSE3(rotvec={np.round(self.rotvec(), 6)}, t={np.round(self.t, 6)})"


def _angle(R):
    """(theta, c, v) of a rotation matrix: c = (tr R - 1) / 2 = cos(theta),
    v = vee(R - R^T) = 2 sin(theta) axis, and theta = atan2(|v| / 2, c) in
    [0, pi]."""
    v = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    c = 0.5 * (np.trace(R) - 1.0)
    return math.atan2(0.5 * math.sqrt(v @ v), c), c, v


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
    R, t = se3_exp_rows(np.asarray(xi, dtype=float).reshape(1, 6))
    return PoseSE3(R[0], t[0])


def se3_exp_rows(xi):
    """Exponential map of each row of xi (B, 6): (R (B, 3, 3), t (B, 3)).

    R is Rodrigues' formula, I + a [w]x + b [w]x^2, and t = V rho with
    V = I + b [w]x + c [w]x^2 (Sola et al., "A micro Lie theory", 2018).
    b = (1 - cos theta) / theta^2 is computed as 2 (sin(theta/2) / theta)^2,
    which does not cancel.  Below ``SERIES_ANGLE`` a, b and c come from
    their Taylor series: (theta - sin theta) / theta^3 cancels to
    ~eps / theta^2 there.  Every operation is elementwise over the rows or
    one stacked matmul, so a row does not depend on the others in the stack.
    """
    omega, rho = xi[:, :3], xi[:, 3:]
    w0, w1, w2 = omega.T
    theta2 = w0 * w0 + w1 * w1 + w2 * w2
    theta = np.sqrt(theta2)
    small = theta < SERIES_ANGLE
    th = np.where(small, 1.0, theta)
    sin = np.sin(th)
    a = np.where(small, 1.0 - theta2 / 6.0, sin / th)
    b = np.where(small, 0.5 - theta2 / 24.0, 2.0 * (np.sin(0.5 * th) / th) ** 2)
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
    angle = _angle(a.rotation_matrix() @ b.rotation_matrix().T)[0]
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
    R_new = T.rotation_matrix() @ PoseSE3.from_rotvec(rv, np.zeros(3)).rotation_matrix()
    return PoseSE3(R_new, -(R_new @ (T.center() + dt)))


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
