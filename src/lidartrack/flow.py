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
                        DepthMap, FlowField, lookup, render_depth)
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
    rows, cols = np.divmod(base.flat, base.shape[1])
    values, ok = sample_flow(field, np.stack([cols + base.du, rows + base.dv], axis=1))
    return FlowField(base.shape, base.flat[ok], values[ok, 0], values[ok, 1])


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
    x0 = np.floor(pos[:, 0]).astype(np.int64)
    y0 = np.floor(pos[:, 1]).astype(np.int64)
    inside = (x0 >= 0) & (x0 + 1 <= w - 1) & (y0 >= 0) & (y0 + 1 <= h - 1)
    sel = np.nonzero(inside)[0]
    # corner rows: (x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1)
    corners = y0[sel] * w + x0[sel] + np.array([[0], [1], [w], [w + 1]])
    at, found = lookup(field.flat, corners)
    full = found.all(axis=0)
    sel, at = sel[full], at[:, full]
    xi, yi = x0[sel], y0[sel]
    wx = pos[sel, 0] - xi
    wy = pos[sel, 1] - yi
    w00 = (1 - wx) * (1 - wy)
    w10 = wx * (1 - wy)
    w01 = (1 - wx) * wy
    w11 = wx * wy
    for k, comp in enumerate((field.du, field.dv)):
        values[sel, k] = (w00 * comp[at[0]] + w10 * comp[at[1]]
                          + w01 * comp[at[2]] + w11 * comp[at[3]])
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
    at_c, in_c = lookup(t.f_c2d.flat, warped.flat)
    at_n, in_n = lookup(t.f_n2d.flat, warped.flat)
    m = in_c & in_n
    c, n = at_c[m], at_n[m]
    return FlowField(warped.shape, warped.flat[m],
                     (t.f_n2d.du[n] - t.f_c2d.du[c]) - warped.du[m],
                     (t.f_n2d.dv[n] - t.f_c2d.dv[c]) - warped.dv[m])


def epe(f_pre: FlowField, f_gt: FlowField) -> float:
    """Masked average endpoint error between predicted and GT flow.

    The mask selects pixels carrying a ground-truth flow sample (and a
    prediction); a genuinely zero GT flow still counts.
    """
    if f_pre.shape != f_gt.shape:
        raise ValueError("dimension mismatch")
    at, m = lookup(f_pre.flat, f_gt.flat)
    if not m.any():
        raise EmptyMaskError("no jointly valid pixels for EPE")
    du = f_pre.du[at[m]] - f_gt.du[m]
    dv = f_pre.dv[at[m]] - f_gt.dv[m]
    return float(np.mean(np.hypot(du, dv)))


def apply_noise(field: FlowField, model: FlowNoiseModel, rng: np.random.Generator) -> FlowField:
    """One noisy draw of a flow field: jitter, outliers, then dropout.

    Dropped pixels become invalid.  The draws depend only on the number
    of valid pixels, and the result keeps the field's dtype.
    """
    n = len(field.flat)
    du, dv = field.du.copy(), field.dv.copy()
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
            keep[rng.choice(n, size=k, replace=False)] = False
    return FlowField(field.shape, field.flat[keep], du[keep].astype(field.du.dtype, copy=False),
                     dv[keep].astype(field.dv.dtype, copy=False))


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
    at, found = lookup(depth_gt.flat, px[inb, 1] * K.width + px[inb, 0])
    sel = np.nonzero(inb)[0][found]
    d_at = depth_gt.depth[at[found]]
    gap_allowed = d_at / (K.mean_focal * math.tan(math.radians(aperture_deg)))
    visible[sel] = z[sel] - d_at <= gap_allowed
    return visible


def oracle_depth_flow(points, K: CameraIntrinsics, T_init: PoseSE3, T_gt: PoseSE3,
                      noise: FlowNoiseModel, stream: int = 0,
                      occlusion_aperture_deg: float = DEFAULT_OCCLUSION_APERTURE_DEG,
                      occlusion_window: int = DEFAULT_OCCLUSION_WINDOW,
                      depth=None, depth_gt=None) -> FlowField:
    """A single noisy image-to-depth flow channel of the oracle.

    Renders the cloud at ``T_init`` (with occlusion removal unless the
    aperture is <= 0, as in ``render_depth``) unless ``depth`` carries
    that map, then stores at each valid pixel the displacement between
    the source point's projections under ``T_gt`` and ``T_init``.  Pixels
    whose point is behind the camera under either pose are dropped, and
    so are those whose point is occluded under ``T_gt`` (in ``depth_gt``,
    rendered when not given): the true displacement of an invisible
    point is not something a flow network could observe, and keeping it
    would poison the cross-modal identity.
    """
    if depth is None:
        depth = render_depth(points, K, T_init, occlusion_aperture_deg, occlusion_window)
    elif depth.shape != (K.height, K.width):
        raise ValueError("depth map and camera dimensions differ")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    P = pts[depth.source]
    uv_init, front_init = project_points(K, T_init.apply(P))
    uv_gt, front_gt = project_points(K, T_gt.apply(P))
    keep = front_init & front_gt
    du, dv = uv_gt[keep, 0] - uv_init[keep, 0], uv_gt[keep, 1] - uv_init[keep, 1]
    flat, ids = depth.flat[keep], depth.source[keep]
    if len(flat) and not occlusion_aperture_deg <= 0:  # a NaN aperture masks every pixel
        if depth_gt is None:
            depth_gt = render_depth(points, K, T_gt, occlusion_aperture_deg, occlusion_window)
        keep = _covisible(pts, K, T_gt, ids, depth_gt, occlusion_aperture_deg)
        flat, du, dv = flat[keep], du[keep], dv[keep]
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, stream)))
    return apply_noise(FlowField(depth.shape, flat, du, dv), noise, rng)


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
