"""Synthetic depth maps from point clouds and ground-truth depth flows.

Points rasterize to their round-to-nearest pixel with a minimum-depth
z-buffer; ties within 1e-9 m break toward the smaller point id so the
output is bit-identical regardless of input ordering.  Flow fields are
anchored at integer pixel positions but store real-valued displacements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MIN_DEPTH, CameraIntrinsics, PoseSE3, project_points

# z-buffer ties are resolved for depth gaps below this (meters)
DEPTH_TIE_EPS = 1e-9

DEFAULT_OCCLUSION_APERTURE_DEG = 10.0
DEFAULT_OCCLUSION_WINDOW = 7


@dataclass
class DepthMap:
    """Per-pixel depth with validity mask and source-point back-pointers.

    ``source`` holds the row index of the winning cloud point (-1 where
    invalid).  ``focal`` is the mean focal length of the rendering camera,
    kept so occlusion removal can convert pixel distances to meters.
    """

    depth: np.ndarray
    valid: np.ndarray
    source: np.ndarray
    focal: float

    @property
    def height(self):
        return self.depth.shape[0]

    @property
    def width(self):
        return self.depth.shape[1]

    def copy(self) -> "DepthMap":
        return DepthMap(self.depth.copy(), self.valid.copy(), self.source.copy(), self.focal)


@dataclass
class FlowField:
    """Per-pixel 2D displacement (du, dv) with a validity mask."""

    du: np.ndarray
    dv: np.ndarray
    valid: np.ndarray

    @property
    def shape(self):
        return self.du.shape

    @classmethod
    def invalid(cls, height: int, width: int) -> "FlowField":
        return cls(np.zeros((height, width)), np.zeros((height, width)),
                   np.zeros((height, width), dtype=bool))

    def copy(self) -> "FlowField":
        return FlowField(self.du.copy(), self.dv.copy(), self.valid.copy())


def render_depth(points, K: CameraIntrinsics, T: PoseSE3) -> DepthMap:
    """Project a world-frame cloud into a depth map at pose T.

    Every point with positive depth that lands inside the image competes
    for its nearest pixel; the minimum-depth point wins.
    """
    h, w = K.height, K.width
    depth = np.zeros((h, w))
    valid = np.zeros((h, w), dtype=bool)
    source = np.full((h, w), -1, dtype=np.int64)
    d = DepthMap(depth, valid, source, K.mean_focal)

    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return d
    cam = T.apply(pts)
    z = cam[:, 2]
    uv, in_front = project_points(K, cam)
    px = np.rint(uv).astype(np.int64)
    ok = in_front & (px[:, 0] >= 0) & (px[:, 0] < w) & (px[:, 1] >= 0) & (px[:, 1] < h)
    idx = np.nonzero(ok)[0]
    if len(idx) == 0:
        return d
    flat = px[idx, 1] * w + px[idx, 0]
    qz = np.round(z[idx] / DEPTH_TIE_EPS).astype(np.int64)
    order = np.lexsort((idx, qz, flat))
    flat_sorted = flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    win = idx[order[first]]
    fw = flat_sorted[first]
    depth.reshape(-1)[fw] = z[win]
    valid.reshape(-1)[fw] = True
    source.reshape(-1)[fw] = win
    return d


def remove_occlusions(d: DepthMap,
                      cone_aperture_deg: float = DEFAULT_OCCLUSION_APERTURE_DEG,
                      window: int = DEFAULT_OCCLUSION_WINDOW) -> DepthMap:
    """Invalidate pixels hidden behind nearer surfaces (visibility-cone test).

    A valid pixel dies when some closer valid neighbor within the window
    subtends it: the depth gap exceeds the gap a cone of the given
    half-aperture allows at that pixel distance,
    (z - z_n) * tan(aperture) > dist_px * z_n / focal.
    Never adds valid pixels.  Every pixel is tested against the input map
    alone, so the result does not depend on scan order.

    Neighbors are gathered only at valid pixels, from a NaN-padded copy of
    the depths (NaN marks an invalid or out-of-image neighbor and fails
    every comparison), so the cost of the window loop grows with the
    number of valid pixels, not with the image area.  Only the padded
    grid, the outputs and one ``np.nonzero`` pass are image-sized.
    """
    rows, cols = np.nonzero(d.valid)
    if len(rows) == 0 or cone_aperture_deg <= 0:
        return d.copy()
    scale = 1.0 / (d.focal * math.tan(math.radians(cone_aperture_deg)))
    half = max(window // 2, 0)
    h, w = d.depth.shape
    z = d.depth[rows, cols]
    wp = w + 2 * half
    zpad = np.full((h + 2 * half) * wp, np.nan, dtype=z.dtype)
    at = (rows + half) * wp + (cols + half)
    zpad[at] = z
    kill = np.zeros(len(z), dtype=bool)
    for di in range(-half, half + 1):
        for dj in range(-half, half + 1):
            if di == 0 and dj == 0:
                continue
            c = math.hypot(di, dj) * scale
            zn = zpad[at - (di * wp + dj)]
            kill |= z - zn > c * zn
    keep = ~kill
    rows, cols = rows[keep], cols[keep]
    out = DepthMap(np.zeros_like(d.depth), np.zeros_like(d.valid),
                   np.full_like(d.source, -1), d.focal)
    out.depth[rows, cols] = z[keep]
    out.valid[rows, cols] = True
    out.source[rows, cols] = d.source[rows, cols]
    return out


def gt_depth_flow(points, K: CameraIntrinsics, T_init: PoseSE3, T_gt: PoseSE3,
                  occlusion_aperture_deg: float = DEFAULT_OCCLUSION_APERTURE_DEG,
                  occlusion_window: int = DEFAULT_OCCLUSION_WINDOW,
                  apply_occlusion: bool = True,
                  depth: DepthMap | None = None) -> FlowField:
    """Ground-truth image-to-LiDAR depth flow between two poses.

    Renders the cloud at ``T_init`` (with occlusion removal), then stores
    at each valid pixel the displacement between the source point's
    projections under ``T_gt`` and ``T_init``.  Pixels whose point falls
    behind the camera under ``T_gt`` are invalidated.  ``depth`` may carry
    a pre-rendered (already occlusion-filtered) T_init depth map to avoid
    re-rendering.
    """
    if depth is not None:
        d = depth
    else:
        d = render_depth(points, K, T_init)
        if apply_occlusion:
            d = remove_occlusions(d, occlusion_aperture_deg, occlusion_window)
    field = FlowField.invalid(K.height, K.width)
    if not d.valid.any():
        return field
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    rows, cols = np.nonzero(d.valid)
    ids = d.source[rows, cols]
    P = pts[ids]
    uv_init, front_init = project_points(K, T_init.apply(P))
    uv_gt, front_gt = project_points(K, T_gt.apply(P))
    ok = front_init & front_gt
    rows, cols = rows[ok], cols[ok]
    field.du[rows, cols] = uv_gt[ok, 0] - uv_init[ok, 0]
    field.dv[rows, cols] = uv_gt[ok, 1] - uv_init[ok, 1]
    field.valid[rows, cols] = True
    return field
