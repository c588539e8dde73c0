"""Flow-field arithmetic and the synthetic flow oracle.

The oracle replaces the learned flow front-end: it derives image-to-depth
flows for the current/next frames and the induced image-to-image flow
from ground-truth poses over the co-visible cropped points, then applies
a configurable noise model (Gaussian jitter, outliers, dropout).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, PoseSE3, check_fields, pixel_index, project_points
from .rendering import (DEFAULT_OCCLUSION_APERTURE_DEG, DEFAULT_OCCLUSION_WINDOW,
                        DepthMap, FlowField, _depth_flow_lists, _flow_field, _pixel_lists,
                        render_depth)
# perfbench/tracing.py wraps flow.remove_occlusions, so the name stays importable here
from .rendering import remove_occlusions  # noqa: F401


class EmptyMaskError(ValueError):
    """A masked reduction was requested over an empty validity mask."""


@dataclass
class FlowTriplet:
    """The three flow channels coupling an adjacent frame pair."""

    f_c2d: FlowField  # current image <-> depth map
    f_n2d: FlowField  # next image <-> depth map
    f_c2n: FlowField  # current image -> next image

    def __post_init__(self):
        if not (self.f_c2d.shape == self.f_n2d.shape == self.f_c2n.shape):
            raise ValueError("flow triplet fields must share dimensions")


@dataclass(frozen=True)
class FlowNoiseModel:
    """Stand-in for flow-network prediction error; deterministic per seed."""

    gaussian_sigma: float = 0.0       # px
    outlier_fraction: float = 0.0     # of valid pixels
    outlier_magnitude: float = 0.0    # px
    dropout_fraction: float = 0.0     # of valid pixels
    seed: int = 0

    def __post_init__(self):
        check_fields(self, non_negative=("gaussian_sigma", "outlier_magnitude"),
                     unit=("outlier_fraction", "dropout_fraction"))


def warp(field: FlowField, base: FlowField) -> FlowField:
    """Backward-warp ``field`` by ``base``: out(p) = field(p + base(p)).

    Bilinear interpolation over valid samples only; the output is invalid
    where the base is invalid, where any of the four interpolation corners
    is invalid, or where the sample point leaves the image.
    """
    if field.shape != base.shape:
        raise ValueError(f"dimension mismatch: {field.shape} vs {base.shape}")
    h, w = base.shape
    out = FlowField.invalid(h, w)
    rows, cols = np.nonzero(base.valid)
    if len(rows) == 0:
        return out
    pos = np.stack([cols + base.du[rows, cols], rows + base.dv[rows, cols]], axis=1)
    values, ok = sample_flow(field, pos)
    out.du[rows[ok], cols[ok]] = values[ok, 0]
    out.dv[rows[ok], cols[ok]] = values[ok, 1]
    out.valid[rows[ok], cols[ok]] = True
    return out


def sample_flow(field: FlowField, positions) -> tuple[np.ndarray, np.ndarray]:
    """Bilinearly sample a flow field at sub-pixel (u, v) positions.

    Returns (values (N, 2), ok (N,)); a sample is rejected when any of
    its four interpolation corners is invalid or out of the image.
    """
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    h, w = field.shape
    n = len(pos)
    values = np.zeros((n, 2))
    ok = np.zeros(n, dtype=bool)
    if n == 0:
        return values, ok
    x0 = np.floor(pos[:, 0]).astype(np.int64)
    y0 = np.floor(pos[:, 1]).astype(np.int64)
    inside = (x0 >= 0) & (x0 + 1 <= w - 1) & (y0 >= 0) & (y0 + 1 <= h - 1)
    xi, yi = x0[inside], y0[inside]
    corners_ok = (field.valid[yi, xi] & field.valid[yi, xi + 1]
                  & field.valid[yi + 1, xi] & field.valid[yi + 1, xi + 1])
    sel = np.nonzero(inside)[0][corners_ok]
    if len(sel) == 0:
        return values, ok
    xi, yi = x0[sel], y0[sel]
    wx = pos[sel, 0] - xi
    wy = pos[sel, 1] - yi
    w00 = (1 - wx) * (1 - wy)
    w10 = wx * (1 - wy)
    w01 = (1 - wx) * wy
    w11 = wx * wy
    for k, comp in enumerate((field.du, field.dv)):
        values[sel, k] = (w00 * comp[yi, xi] + w10 * comp[yi, xi + 1]
                          + w01 * comp[yi + 1, xi] + w11 * comp[yi + 1, xi + 1])
    ok[sel] = True
    return values, ok


def consistency_residual(t: FlowTriplet) -> FlowField:
    """Cross-modal consistency residual of a flow triplet, per pixel.

    The difference of the two image-to-depth flows equals, point for
    point, the image-to-image flow of the shared 3D point; the optical
    flow lives on the current-image raster, so it is warped onto the
    depth-map anchoring by the current image-to-depth flow before
    comparing:

        residual = (f_n2d - f_c2d) - warp(f_c2n, f_c2d)

    Valid where both depth flows and the warped sample are valid.  For
    noiseless pose-consistent flows, the residual is sub-pixel.
    """
    warped = warp(t.f_c2n, t.f_c2d)
    res = FlowField.invalid(*t.f_c2d.shape)
    res.valid[:] = t.f_c2d.valid & t.f_n2d.valid & warped.valid
    m = res.valid
    res.du[m] = (t.f_n2d.du[m] - t.f_c2d.du[m]) - warped.du[m]
    res.dv[m] = (t.f_n2d.dv[m] - t.f_c2d.dv[m]) - warped.dv[m]
    return res


def epe(f_pre: FlowField, f_gt: FlowField) -> float:
    """Masked average endpoint error between predicted and GT flow.

    The mask selects pixels carrying a ground-truth flow sample (and a
    prediction); a genuinely zero GT flow still counts.
    """
    if f_pre.shape != f_gt.shape:
        raise ValueError("dimension mismatch")
    mask = f_gt.valid & f_pre.valid
    if not mask.any():
        raise EmptyMaskError("no jointly valid pixels for EPE")
    du = f_pre.du[mask] - f_gt.du[mask]
    dv = f_pre.dv[mask] - f_gt.dv[mask]
    return float(np.mean(np.hypot(du, dv)))


def _noise_lists(du, dv, model: FlowNoiseModel, rng: np.random.Generator):
    """Jitter, outliers, then dropout on row-major per-pixel flow values.

    Returns (du, dv, keep); dropped pixels read 0 in du and dv and False
    in ``keep``.  May write into the arrays it is given.  The draws
    depend only on the number of pixels, so a list in ``np.flatnonzero``
    order draws what the dense field's valid pixels would.
    """
    n = len(du)
    keep = np.ones(n, dtype=bool)
    if model.gaussian_sigma > 0:
        du = du + rng.normal(0.0, model.gaussian_sigma, n)
        dv = dv + rng.normal(0.0, model.gaussian_sigma, n)
    if model.outlier_fraction > 0:
        k = int(round(model.outlier_fraction * n))
        if k > 0:
            pick = rng.choice(n, size=k, replace=False)
            phi = rng.uniform(0.0, 2.0 * math.pi, k)
            du[pick] = model.outlier_magnitude * np.cos(phi)
            dv[pick] = model.outlier_magnitude * np.sin(phi)
    if model.dropout_fraction > 0:
        k = int(round(model.dropout_fraction * n))
        if k > 0:
            pick = rng.choice(n, size=k, replace=False)
            keep[pick] = False
            du[pick] = 0.0
            dv[pick] = 0.0
    return du, dv, keep


def apply_noise(field: FlowField, model: FlowNoiseModel, rng: np.random.Generator) -> FlowField:
    """One noisy draw of a flow field: jitter, outliers, then dropout."""
    out = field.copy()
    flat = np.flatnonzero(out.valid)
    if len(flat) == 0:
        return out
    du, dv, keep = _noise_lists(out.du.ravel()[flat], out.dv.ravel()[flat], model, rng)
    out.du.reshape(-1)[flat] = du
    out.dv.reshape(-1)[flat] = dv
    out.valid.reshape(-1)[flat[~keep]] = False
    return out


def _covisible(pts, K: CameraIntrinsics, T_gt: PoseSE3, ids, depth_gt: DepthMap,
               aperture_deg: float) -> np.ndarray:
    """Keep-mask of the points ``pts[ids]`` that are not occluded under T_gt.

    A point stays when the occlusion-removed render at T_gt is valid at
    the point's projected pixel with a depth within the visibility-cone
    gap of the point's own depth; anything nearer there occludes it.
    """
    cam = T_gt.apply(pts[ids])
    z = cam[:, 2]
    px, inb = pixel_index(K, *project_points(K, cam))
    visible = np.zeros(len(ids), dtype=bool)
    sel = np.nonzero(inb)[0]
    d_at = depth_gt.depth[px[sel, 1], px[sel, 0]]
    v_at = depth_gt.valid[px[sel, 1], px[sel, 0]]
    gap_allowed = d_at / (K.mean_focal * math.tan(math.radians(aperture_deg)))
    visible[sel] = v_at & (z[sel] - d_at <= gap_allowed)
    return visible


def oracle_depth_flow(points, K: CameraIntrinsics, T_init: PoseSE3, T_gt: PoseSE3,
                      noise: FlowNoiseModel, stream: int = 0,
                      occlusion_aperture_deg: float = DEFAULT_OCCLUSION_APERTURE_DEG,
                      occlusion_window: int = DEFAULT_OCCLUSION_WINDOW,
                      depth=None, depth_gt=None) -> FlowField:
    """A single noisy image-to-depth flow channel of the oracle.

    Pixels whose source point is occluded under the target pose are
    masked: the true displacement of an invisible point is not something
    a flow network could observe, and keeping it would poison the
    cross-modal identity.  Depth flow, co-visibility and noise run on
    row-major pixel lists; the dense field is built once, at return.
    """
    if depth is None:
        depth = render_depth(points, K, T_init, occlusion_aperture_deg, occlusion_window)
    flat, ids = _pixel_lists(depth, K)
    if len(flat) == 0:
        return FlowField.invalid(K.height, K.width)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    keep, du, dv = _depth_flow_lists(pts, K, T_init, T_gt, flat, ids)
    flat, ids = flat[keep], ids[keep]
    if len(flat) and not occlusion_aperture_deg <= 0:  # a NaN aperture masks every pixel
        if depth_gt is None:
            depth_gt = render_depth(points, K, T_gt, occlusion_aperture_deg, occlusion_window)
        keep = _covisible(pts, K, T_gt, ids, depth_gt, occlusion_aperture_deg)
        flat, du, dv = flat[keep], du[keep], dv[keep]
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, stream)))
    du, dv, keep = _noise_lists(du, dv, noise, rng)
    return _flow_field(K.height, K.width, flat[keep], du[keep], dv[keep])


def oracle_flows(points, K: CameraIntrinsics, T_init: PoseSE3,
                 T_gt_cur: PoseSE3, T_gt_next: PoseSE3,
                 noise: FlowNoiseModel,
                 occlusion_aperture_deg: float = DEFAULT_OCCLUSION_APERTURE_DEG,
                 occlusion_window: int = DEFAULT_OCCLUSION_WINDOW,
                 depth_init=None) -> FlowTriplet:
    """Ground-truth-derived flow triplet with independent per-channel noise.

    f_c2d and f_n2d are depth flows from the shared T_init rendering to
    the two GT poses; f_c2n is the exact induced image flow between the
    GT camera poses over the co-visible points (computed as a depth flow
    whose initial pose is the current GT pose, so it is anchored on the
    current-image raster).
    """
    if depth_init is None:
        depth_init = render_depth(points, K, T_init, occlusion_aperture_deg, occlusion_window)
    depth_cur = render_depth(points, K, T_gt_cur, occlusion_aperture_deg, occlusion_window)
    depth_next = render_depth(points, K, T_gt_next, occlusion_aperture_deg, occlusion_window)
    f_c2d = oracle_depth_flow(points, K, T_init, T_gt_cur, noise, stream=0,
                              occlusion_aperture_deg=occlusion_aperture_deg,
                              depth=depth_init, depth_gt=depth_cur)
    f_n2d = oracle_depth_flow(points, K, T_init, T_gt_next, noise, stream=1,
                              occlusion_aperture_deg=occlusion_aperture_deg,
                              depth=depth_init, depth_gt=depth_next)
    f_c2n = oracle_depth_flow(points, K, T_gt_cur, T_gt_next, noise, stream=2,
                              occlusion_aperture_deg=occlusion_aperture_deg,
                              depth=depth_cur, depth_gt=depth_next)
    return FlowTriplet(f_c2d=f_c2d, f_n2d=f_n2d, f_c2n=f_c2n)
