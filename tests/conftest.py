import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from lidartrack.geometry import CameraIntrinsics
from lidartrack.mapping import GlobalMap, downsample
from lidartrack.rendering import DepthMap, FlowField
from lidartrack.synth import SceneConfig, TrajectoryConfig, generate_scene, generate_trajectory


@pytest.fixture(scope="session")
def K():
    """Paper-resolution camera used by most fixtures."""
    return CameraIntrinsics(fx=100.0, fy=100.0, cx=480.0, cy=160.0,
                            width=960, height=320)


@pytest.fixture(scope="session")
def K_small():
    return CameraIntrinsics(fx=100.0, fy=100.0, cx=240.0, cy=80.0,
                            width=480, height=160)


@pytest.fixture(scope="session")
def corridor():
    """Shared small corridor world: (map, gt trajectory at slow speed)."""
    scene = generate_scene(SceneConfig(extent=60.0, seed=1))
    gmap = downsample(GlobalMap.build(scene), 0.1)
    traj = generate_trajectory(TrajectoryConfig(frame_count=4, speed=0.25, seed=1))
    return gmap, traj


# arguments every worker of a pool_map call shares, inherited through fork
_SHARED = ()


def _set_shared(shared):
    global _SHARED
    _SHARED = shared


def _call_shared(fn, item):
    return fn(*_SHARED, item)


@pytest.fixture(scope="session")
def pool_map():
    """``pool_map(fn, items, *shared)`` is ``[fn(*shared, item) for item in items]``
    computed in up to four forked worker processes, one per available core.

    For long acceptance loops whose items are independent seeded runs: each
    item's result is the one the serial loop gives.  ``fn`` must be a module-
    level function; ``shared`` reaches the workers through fork, unpickled.
    Falls back to the serial loop on one core or where fork is unavailable.
    """
    def pool_map(fn, items, *shared):
        items = list(items)
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        workers = min(4, cores, len(items))
        if workers < 2 or "fork" not in mp.get_all_start_methods():
            return [fn(*shared, item) for item in items]
        with ProcessPoolExecutor(workers, mp_context=mp.get_context("fork"),
                                 initializer=_set_shared, initargs=(shared,)) as pool:
            return list(pool.map(_call_shared, [fn] * len(items), items))
    return pool_map


# -- dense rasters: full-image arrays with a validity mask ---------------------
#
# The package holds a raster as its valid pixels only.  Tests build inputs
# and inspect outputs as full images, and keep the dense forms of the
# raster functions as references, through these two types and converters.

@dataclass
class DenseDepth:
    """A depth map as full images: 0 / False / -1 at invalid pixels."""

    depth: np.ndarray
    valid: np.ndarray
    source: np.ndarray
    focal: float

    @property
    def shape(self):
        return self.depth.shape

    def copy(self):
        return DenseDepth(self.depth.copy(), self.valid.copy(), self.source.copy(), self.focal)


@dataclass
class DenseFlow:
    """A flow field as full images: zero and invalid outside the mask."""

    du: np.ndarray
    dv: np.ndarray
    valid: np.ndarray

    @property
    def shape(self):
        return self.du.shape

    @classmethod
    def invalid(cls, height, width):
        return cls(np.zeros((height, width)), np.zeros((height, width)),
                   np.zeros((height, width), dtype=bool))

    def copy(self):
        return DenseFlow(self.du.copy(), self.dv.copy(), self.valid.copy())


def dense(raster):
    """The full-image form of a ``DepthMap`` or ``FlowField``."""
    n = raster.shape[0] * raster.shape[1]
    valid = np.zeros(n, dtype=bool)
    valid[raster.flat] = True
    if isinstance(raster, DepthMap):
        depth = np.zeros(n, dtype=raster.depth.dtype)
        source = np.full(n, -1, dtype=raster.source.dtype)
        depth[raster.flat] = raster.depth
        source[raster.flat] = raster.source
        return DenseDepth(depth.reshape(raster.shape), valid.reshape(raster.shape),
                          source.reshape(raster.shape), raster.focal)
    du = np.zeros(n, dtype=raster.du.dtype)
    dv = np.zeros(n, dtype=raster.dv.dtype)
    du[raster.flat] = raster.du
    dv[raster.flat] = raster.dv
    return DenseFlow(du.reshape(raster.shape), dv.reshape(raster.shape),
                     valid.reshape(raster.shape))


def sparse(raster):
    """The package form of a ``DenseDepth`` or ``DenseFlow``: its valid pixels;
    whatever the arrays hold at invalid pixels is dropped."""
    flat = np.flatnonzero(raster.valid)
    if isinstance(raster, DenseDepth):
        return DepthMap(raster.shape, flat, raster.depth.ravel()[flat],
                        raster.source.ravel()[flat], raster.focal)
    return FlowField(raster.shape, flat, raster.du.ravel()[flat], raster.dv.ravel()[flat])
