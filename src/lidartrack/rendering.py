"""Synthetic depth maps from point clouds, and the depth and flow rasters.

Points rasterize to their round-to-nearest pixel with a minimum-depth
z-buffer; ties within 1e-9 m break toward the smaller point id so the
output is bit-identical regardless of input ordering: stable 16-bit
radix passes group the points by pixel and keep ascending ids within a
group, and the first point at the group's minimum quantized depth wins.
Flow fields are anchored at integer pixel positions but store
real-valued displacements.

There is one raster format.  A ``DepthMap`` or ``FlowField`` holds only
its valid pixels: their row-major indices ``flat`` in ascending order (the
order ``np.flatnonzero`` gives over a mask) and one value per pixel in
each per-pixel array.  A projected LiDAR scan covers under 1 % of a
960x320 image, and sparse ground-truth flow is stored per valid pixel in
the same way (KITTI flow, Menze & Geiger 2015).  Every random-access read
of a raster is one binary search over ``flat``: ``lookup``.
``render_depth`` takes the occlusion filter's ``occlusion_aperture_deg``/
``occlusion_window`` keywords and applies ``remove_occlusions`` to its
winners.  The ground-truth depth flow over a rendered map is built by
``flow.oracle_depth_flow``.
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


@dataclass(frozen=True)
class DepthMap:
    """Depth and source point of the valid pixels of a (height, width) raster.

    ``source`` holds the row index of each pixel's winning cloud point.
    ``focal`` is the mean focal length of the rendering camera, kept so
    occlusion removal can convert pixel distances to meters.
    """

    shape: tuple
    flat: np.ndarray
    depth: np.ndarray
    source: np.ndarray
    focal: float


@dataclass(frozen=True)
class FlowField:
    """2D displacement (du, dv) of the valid pixels of a (height, width) raster."""

    shape: tuple
    flat: np.ndarray
    du: np.ndarray
    dv: np.ndarray

    @classmethod
    def invalid(cls, height: int, width: int) -> "FlowField":
        return cls((height, width), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))


def lookup(flat, pixels):
    """Where each row-major pixel index of ``pixels`` sits in the ascending ``flat``.

    Returns (at, found), both shaped like ``pixels``:
    ``flat[at[found]] == pixels[found]``, and ``at`` indexes ``flat``
    wherever ``flat`` is not empty.
    """
    at = np.searchsorted(flat, pixels)
    if len(flat) == 0:
        return at, np.zeros(at.shape, dtype=bool)
    np.minimum(at, len(flat) - 1, out=at)
    return at, flat[at] == pixels


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
    hidden = np.zeros(len(z), dtype=bool)
    for di in range(-half, half + 1):
        for dj in range(-half, half + 1):
            if di == 0 and dj == 0:
                continue
            c = math.hypot(di, dj) * scale
            zn = zpad[at - (di * wp + dj)]
            hidden |= z - zn > c * zn
    return ~hidden


def render_depth(points, K: CameraIntrinsics, T: PoseSE3,
                 occlusion_aperture_deg: float = 0.0,
                 occlusion_window: int = DEFAULT_OCCLUSION_WINDOW) -> DepthMap:
    """Project a world-frame cloud into a depth map at pose T.

    Every point with positive depth that lands inside the image competes
    for its nearest pixel; the minimum-depth point wins.  Stable radix
    passes over the flat index, one per 16-bit digit of ``h * w - 1``,
    order the points by pixel and keep ascending ids within a pixel; the
    winner is the first point at its pixel's minimum quantized depth, and
    the winners come out in ascending pixel order.  A positive
    ``occlusion_aperture_deg`` also applies ``remove_occlusions`` to the
    winners, with the given window.
    """
    h, w = K.height, K.width
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    cam = T.apply(pts)
    z = cam[:, 2]
    px, ok = pixel_index(K, *project_points(K, cam))
    idx = np.nonzero(ok)[0]
    flat = px[idx, 1] * w + px[idx, 0]
    qz = np.round(z[idx] / DEPTH_TIE_EPS).astype(np.int64)
    order = np.arange(len(idx))
    for shift in range(0, (h * w - 1).bit_length(), 16):
        digit = (flat[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    flat_sorted, qz_sorted = flat[order], qz[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    at_min = np.flatnonzero(qz_sorted == np.minimum.reduceat(qz_sorted, starts)[group])
    lead = np.ones(len(at_min), dtype=bool)
    lead[1:] = group[at_min[1:]] != group[at_min[:-1]]
    win = idx[order[at_min[lead]]]
    d = DepthMap((h, w), flat_sorted[starts], z[win], win, K.mean_focal)
    return remove_occlusions(d, occlusion_aperture_deg, occlusion_window)


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
    with the number of valid pixels; only the padded neighbor grid is
    image-sized.  An aperture <= 0 returns the map itself.
    """
    if len(d.flat) == 0 or cone_aperture_deg <= 0:
        return d
    keep = _visible(d.flat, d.depth, *d.shape, d.focal, cone_aperture_deg, window)
    return DepthMap(d.shape, d.flat[keep], d.depth[keep], d.source[keep], d.focal)
