"""Global LiDAR map handling: voxel downsampling and local crops.

Point clouds are plain float64 arrays of shape (N, 3) in world coordinates;
a point's id is its row index.  ``GlobalMap`` sorts its ids by x cell on
its first crop, so a local crop box-tests only the points in its x range
(the maps built here are corridors along x); a map that is only
downsampled never sorts.  Crops are unbounded vertically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import PoseSE3, check_fields, check_number

# Width in x of the crop index's cells, meters.  A crop box-tests every point
# of the cells its x range touches; the box test alone decides the output.
DEFAULT_CELL_SIZE = 110.0 / 32.0


@dataclass(frozen=True)
class CropExtents:
    """Box half-lengths for local crops, meters (vertical is unbounded)."""

    forward: float = 100.0
    backward: float = 10.0
    lateral: float = 25.0

    def __post_init__(self):
        check_fields(self, positive=("forward", "backward", "lateral"))


def _x_cells(x):
    return np.floor(x / DEFAULT_CELL_SIZE).astype(np.int64)


@dataclass
class GlobalMap:
    """Immutable map; its crop index is built on the first crop."""

    points: np.ndarray

    @classmethod
    def build(cls, points) -> "GlobalMap":
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(points)):
            raise ValueError("map points must be finite")
        return cls(points)

    @cached_property
    def _order(self):
        """Point ids in stable order of x cell."""
        return np.argsort(_x_cells(self.points[:, 0]), kind="stable")

    @cached_property
    def _keys(self):
        """The x cell of each id in ``_order``."""
        return _x_cells(self.points[self._order, 0])

    def __len__(self):
        return len(self.points)


def downsample(gmap: GlobalMap, resolution: float) -> GlobalMap:
    """Voxel-grid downsample keeping one centroid per occupied voxel.

    Centroids come out in ascending (x, y, z) order of their voxels, so the
    output does not depend on the input order.  Raises ``ValueError`` naming
    ``resolution`` unless it is a finite positive number whose voxel keys,
    and the grid they span, fit in int64.
    """
    check_number("resolution", resolution, float, "positive")
    pts = gmap.points
    _, inverse, counts = np.unique(_voxel_keys(pts, resolution),
                                   return_inverse=True, return_counts=True)
    out = np.zeros((len(counts), 3))
    for axis in range(3):
        out[:, axis] = np.bincount(inverse, weights=pts[:, axis]) / counts
    return GlobalMap.build(out)


def _voxel_keys(points, resolution):
    """One int64 key per point, packed from its (kx, ky, kz) voxel."""
    # one row per axis, so the reductions and the packing run on contiguous rows
    voxels = np.floor(np.divide(points.T, resolution, order="C"))
    # a float outside int64 casts to garbage, so the floats are tested first
    if np.all((voxels >= -2.0 ** 63) & (voxels < 2.0 ** 63)):
        keys = voxels.astype(np.int64)
        lo = keys.min(axis=1, initial=np.iinfo(np.int64).max)
        hi = keys.max(axis=1, initial=np.iinfo(np.int64).min)
        # exact spans; the empty map's reversed extrema give 1
        spans = [max(int(h) - int(l) + 1, 1) for l, h in zip(lo, hi)]
        if math.prod(spans) < 2 ** 63:
            # each offset lies in [0, span) of its axis, so this mixed-radix
            # key orders points as their (kx, ky, kz) rows do, lexicographically,
            # and every partial sum stays below the grid's cell count
            dx, dy, dz = keys - lo[:, None]
            return (dx * spans[1] + dy) * spans[2] + dz
    raise ValueError("resolution must be coarse enough for the voxel grid "
                     "to fit in int64")


def _crop_axes(pose: PoseSE3):
    """Horizontal forward/lateral axes of the crop box for a camera pose.

    Forward is the camera optical axis (+Z of the camera frame) projected
    onto the horizontal plane, i.e. the box is yaw-aligned only.
    """
    R = pose.rotation_matrix()
    fwd = R[2, :].copy()  # camera z-axis expressed in world coordinates
    fwd[2] = 0.0
    n = np.linalg.norm(fwd)
    if n < 1e-12:
        fwd = np.array([1.0, 0.0, 0.0])
    else:
        fwd /= n
    lat = np.array([-fwd[1], fwd[0], 0.0])
    return fwd, lat


def crop_local(gmap: GlobalMap, pose: PoseSE3, extents: CropExtents) -> np.ndarray:
    """Points inside the yaw-aligned crop box centered on a pose.

    Keeps exactly the points whose forward component lies in
    [-backward, forward] and whose |lateral| component is <= lateral;
    heights are unrestricted.  Output preserves map order.
    """
    pts = gmap.points
    fwd, lat = _crop_axes(pose)
    center = pose.center()
    # the box's x range, in cells; its points are one slice of _order
    xs = [center[0] + a * fwd[0] + b * lat[0]
          for a in (-extents.backward, extents.forward)
          for b in (-extents.lateral, extents.lateral)]
    lo, hi = _x_cells(np.array([min(xs), max(xs)]))
    start = np.searchsorted(gmap._keys, lo, side="left")
    stop = np.searchsorted(gmap._keys, hi, side="right")
    cand = np.sort(gmap._order[start:stop])
    d = pts[cand] - center
    a = d @ fwd
    b = d @ lat
    keep = (a >= -extents.backward) & (a <= extents.forward) & (np.abs(b) <= extents.lateral)
    return pts[cand[keep]]
