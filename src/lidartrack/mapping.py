"""Global LiDAR map handling: voxel downsampling and local crops.

Point clouds are plain float64 arrays of shape (N, 3) in world coordinates;
a point's id is its row index.  ``GlobalMap`` adds a 2D (x, y) cell index
used to accelerate local crops, whose vertical extent is unbounded.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import PoseSE3, check_fields

# Cell size of the crop-acceleration grid: max default crop dimension
# (100 m forward + 10 m backward) divided by 32.
DEFAULT_CELL_SIZE = 110.0 / 32.0


@dataclass(frozen=True)
class CropExtents:
    """Box half-lengths for local crops, meters (vertical is unbounded)."""

    forward: float = 100.0
    backward: float = 10.0
    lateral: float = 25.0

    def __post_init__(self):
        check_fields(self, positive=("forward", "backward", "lateral"))


@dataclass
class GlobalMap:
    """Immutable map with a uniform (x, y) cell hash."""

    points: np.ndarray
    _cells: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, points) -> "GlobalMap":
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(points)):
            raise ValueError("map points must be finite")
        cells = {}
        if len(points):
            keys = np.floor(points[:, :2] / DEFAULT_CELL_SIZE).astype(np.int64)
            order = np.lexsort((keys[:, 1], keys[:, 0]))
            sk = keys[order]
            breaks = np.nonzero(np.any(sk[1:] != sk[:-1], axis=1))[0] + 1
            starts = np.concatenate([[0], breaks, [len(order)]])
            for a, b in zip(starts[:-1], starts[1:]):
                idx = order[a:b]
                k = (int(keys[idx[0], 0]), int(keys[idx[0], 1]))
                cells[k] = np.sort(idx)
        return cls(points=points, _cells=cells)

    def __len__(self):
        return len(self.points)


def downsample(gmap: GlobalMap, resolution: float) -> GlobalMap:
    """Voxel-grid downsample keeping one centroid per occupied voxel."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    pts = gmap.points
    if len(pts) == 0:
        return GlobalMap.build(pts)
    keys = np.floor(pts / resolution).astype(np.int64)
    # np.unique sorts voxel keys, so the output order is deterministic
    # regardless of input ordering
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                   return_counts=True)
    out = np.zeros((len(counts), 3))
    for axis in range(3):
        out[:, axis] = np.bincount(inverse, weights=pts[:, axis]) / counts
    return GlobalMap.build(out)


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
    if len(pts) == 0:
        return np.zeros((0, 3))
    fwd, lat = _crop_axes(pose)
    center = pose.center()

    cand = _candidate_indices(gmap, center, fwd, lat, extents)
    if cand is None:
        cand = np.arange(len(pts))
    if len(cand) == 0:
        return np.zeros((0, 3))
    d = pts[cand] - center
    a = d @ fwd
    b = d @ lat
    keep = (a >= -extents.backward) & (a <= extents.forward) & (np.abs(b) <= extents.lateral)
    return pts[cand[keep]]


def _candidate_indices(gmap, center, fwd, lat, extents):
    """Gather candidate point indices from cells overlapped by the box AABB."""
    if not gmap._cells:
        return None
    corners = []
    for a in (-extents.backward, extents.forward):
        for b in (-extents.lateral, extents.lateral):
            corners.append(center[:2] + a * fwd[:2] + b * lat[:2])
    corners = np.array(corners)
    lo = np.floor(corners.min(axis=0) / DEFAULT_CELL_SIZE).astype(int)
    hi = np.floor(corners.max(axis=0) / DEFAULT_CELL_SIZE).astype(int)
    n_cells = (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
    if n_cells > 4 * len(gmap._cells):
        # box covers most of the map; linear scan is cheaper
        return None
    chunks = []
    for i in range(lo[0], hi[0] + 1):
        for j in range(lo[1], hi[1] + 1):
            got = gmap._cells.get((i, j))
            if got is not None:
                chunks.append(got)
    if not chunks:
        return np.zeros(0, dtype=int)
    return np.sort(np.concatenate(chunks))
