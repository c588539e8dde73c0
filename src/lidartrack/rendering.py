"""Synthetic depth maps from point clouds and ground-truth depth flows.

Points rasterize to their round-to-nearest pixel with a minimum-depth
z-buffer; ties within 1e-9 m break toward the smaller point id so the
output is bit-identical regardless of input ordering.  Flow fields are
anchored at integer pixel positions but store real-valued displacements.

The z-buffer winners, the visibility-cone occlusion filter and the depth
flow all work on row-major lists of the valid pixels (flat pixel index,
value, source point); a dense ``DepthMap`` or ``FlowField`` is built once,
when a public function returns.  ``render_depth`` takes the filter's
``occlusion_aperture_deg``/``occlusion_window`` keywords: with a positive
aperture it returns what ``remove_occlusions`` would make of its
unfiltered map, without building that map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, PoseSE3, pixel_index, project_points

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




def _render_lists(points, K: CameraIntrinsics, T: PoseSE3,
                  occlusion_aperture_deg: float, occlusion_window: int):
    """z-buffer winners as row-major lists: (flat pixel index, depth, point id).

    The lexsort's primary key is the flat index, so the winners come out
    in the order ``np.flatnonzero`` gives over the rendered mask.  A
    positive aperture keeps only the winners that pass ``_visible``.
    """
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64))
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return empty
    h, w = K.height, K.width
    cam = T.apply(pts)
    z = cam[:, 2]
    px, ok = pixel_index(K, *project_points(K, cam))
    idx = np.nonzero(ok)[0]
    if len(idx) == 0:
        return empty
    flat = px[idx, 1] * w + px[idx, 0]
    qz = np.round(z[idx] / DEPTH_TIE_EPS).astype(np.int64)
    order = np.lexsort((idx, qz, flat))
    flat_sorted = flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    win = idx[order[first]]
    flat, z, win = flat_sorted[first], z[win], win
    if occlusion_aperture_deg > 0:
        keep = _visible(flat, z, h, w, K.mean_focal, occlusion_aperture_deg, occlusion_window)
        flat, z, win = flat[keep], z[keep], win[keep]
    return flat, z, win


def _visible(flat, z, height: int, width: int, focal: float,
             cone_aperture_deg: float, window: int) -> np.ndarray:
    """Keep-mask of the visibility-cone test over row-major valid pixels.

    Neighbors are gathered from a NaN-padded copy of the depths (NaN marks
    an invalid or out-of-image neighbor and fails every comparison), so
    the window loop costs per valid pixel, not per image pixel.
    """
    scale = 1.0 / (focal * math.tan(math.radians(cone_aperture_deg)))
    half = max(window // 2, 0)
    rows, cols = flat // width, flat % width
    wp = width + 2 * half
    zpad = np.full((height + 2 * half) * wp, np.nan, dtype=z.dtype)
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
    return ~kill


def _densify(height: int, width: int, flat, z, source, focal: float) -> DepthMap:
    """The dense map of row-major pixel lists: 0 / False / -1 elsewhere."""
    depth = np.zeros(height * width, dtype=z.dtype)
    valid = np.zeros(height * width, dtype=bool)
    src = np.full(height * width, -1, dtype=source.dtype)
    depth[flat] = z
    valid[flat] = True
    src[flat] = source
    shape = (height, width)
    return DepthMap(depth.reshape(shape), valid.reshape(shape), src.reshape(shape), focal)


def render_depth(points, K: CameraIntrinsics, T: PoseSE3,
                 occlusion_aperture_deg: float = 0.0,
                 occlusion_window: int = DEFAULT_OCCLUSION_WINDOW) -> DepthMap:
    """Project a world-frame cloud into a depth map at pose T.

    Every point with positive depth that lands inside the image competes
    for its nearest pixel; the minimum-depth point wins.  A positive
    ``occlusion_aperture_deg`` also applies the visibility-cone filter of
    ``remove_occlusions`` to the winners, with the same result as
    ``remove_occlusions(render_depth(points, K, T), aperture, window)``
    but without building the unfiltered map.
    """
    flat, z, source = _render_lists(points, K, T, occlusion_aperture_deg, occlusion_window)
    return _densify(K.height, K.width, flat, z, source, K.mean_focal)


def remove_occlusions(d: DepthMap,
                      cone_aperture_deg: float = DEFAULT_OCCLUSION_APERTURE_DEG,
                      window: int = DEFAULT_OCCLUSION_WINDOW) -> DepthMap:
    """Invalidate pixels hidden behind nearer surfaces (visibility-cone test).

    A valid pixel dies when some closer valid neighbor within the window
    subtends it: the depth gap exceeds the gap a cone of the given
    half-aperture allows at that pixel distance,
    (z - z_n) * tan(aperture) > dist_px * z_n / focal.
    Never adds valid pixels.  Every pixel is tested against the input map
    alone, so the result does not depend on scan order.  Its cost grows
    with the number of valid pixels; only the padded neighbor grid, the
    outputs and one ``np.flatnonzero`` pass are image-sized.
    """
    flat = np.flatnonzero(d.valid)
    if len(flat) == 0 or cone_aperture_deg <= 0:
        return d.copy()
    h, w = d.depth.shape
    z = d.depth.ravel()[flat]
    keep = _visible(flat, z, h, w, d.focal, cone_aperture_deg, window)
    flat = flat[keep]
    return _densify(h, w, flat, z[keep], d.source.ravel()[flat], d.focal)


def _pixel_lists(d: DepthMap, K: CameraIntrinsics):
    """Row-major (flat pixel index, source point id) of a map's valid pixels."""
    if d.depth.shape != (K.height, K.width):
        raise ValueError("depth map and camera dimensions differ")
    flat = np.flatnonzero(d.valid)
    return flat, d.source.ravel()[flat]


def _depth_flow_lists(pts, K: CameraIntrinsics, T_init: PoseSE3, T_gt: PoseSE3,
                      flat, ids):
    """Depth flow over row-major pixels whose source points are ``pts[ids]``.

    Returns (keep, du, dv): ``keep`` drops the pixels whose point is
    behind the camera under either pose; du, dv hold the kept pixels'
    displacements between the point's projections under T_gt and T_init.
    """
    P = pts[ids]
    uv_init, front_init = project_points(K, T_init.apply(P))
    uv_gt, front_gt = project_points(K, T_gt.apply(P))
    keep = front_init & front_gt
    return keep, uv_gt[keep, 0] - uv_init[keep, 0], uv_gt[keep, 1] - uv_init[keep, 1]


def _flow_field(height: int, width: int, flat, du, dv) -> FlowField:
    """The dense field of row-major pixel lists: zero and invalid elsewhere."""
    field = FlowField.invalid(height, width)
    field.du.reshape(-1)[flat] = du
    field.dv.reshape(-1)[flat] = dv
    field.valid.reshape(-1)[flat] = True
    return field


def gt_depth_flow(points, K: CameraIntrinsics, T_init: PoseSE3, T_gt: PoseSE3,
                  occlusion_aperture_deg: float = DEFAULT_OCCLUSION_APERTURE_DEG,
                  occlusion_window: int = DEFAULT_OCCLUSION_WINDOW,
                  depth: DepthMap | None = None) -> FlowField:
    """Ground-truth image-to-LiDAR depth flow between two poses.

    Renders the cloud at ``T_init`` (with occlusion removal unless the
    aperture is <= 0, as in ``render_depth``), then stores
    at each valid pixel the displacement between the source point's
    projections under ``T_gt`` and ``T_init``.  Pixels whose point falls
    behind the camera under ``T_gt`` are invalidated.  ``depth`` may carry
    a pre-rendered (already occlusion-filtered) T_init depth map to avoid
    re-rendering.
    """
    if depth is not None:
        flat, ids = _pixel_lists(depth, K)
    else:
        flat, _, ids = _render_lists(points, K, T_init, occlusion_aperture_deg,
                                     occlusion_window)
    if len(flat) == 0:
        return FlowField.invalid(K.height, K.width)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    keep, du, dv = _depth_flow_lists(pts, K, T_init, T_gt, flat, ids)
    return _flow_field(K.height, K.width, flat[keep], du, dv)
