"""File codecs: point clouds and KITTI pose files.

Trajectory files follow the KITTI odometry convention (12 reals per line,
row-major 3x4 [R|t], camera-to-world); in memory the package tracks
world->camera extrinsics, so trajectory save/load invert at the boundary.
"""
from __future__ import annotations

import struct

import numpy as np

from .geometry import PoseSE3

CLOUD_MAGIC = b"XMPC"
FORMAT_VERSION = 1

# shortest round-trip float formatting keeps reruns byte-identical
_FLOAT_FMT = "%.17g"


class FormatError(ValueError):
    """Malformed input file (wrong field count, bad header, non-numeric or
    non-finite value, a pose whose rotation block is not a rotation)."""


# largest |R^T R - I| entry a stored rotation may show
_ROTATION_TOL = 1e-6


def _line_error(path, row, what) -> FormatError:
    """The error for the ``row``-th non-blank line of a text file."""
    with open(path) as fh:
        lineno = [k for k, line in enumerate(fh, start=1) if line.split()][row]
    return FormatError(f"{path}: line {lineno}: {what}")


def _rows(path, fields) -> np.ndarray:
    """(N, fields) reals of the non-blank text lines; every value finite."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != fields:
                raise FormatError(f"{path}: line {lineno}: expected {fields} fields, "
                                  f"got {len(parts)}")
            try:
                rows.append([float(x) for x in parts])
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: non-numeric value") from exc
    out = np.asarray(rows, dtype=float).reshape(-1, fields)
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise _line_error(path, np.argmax(bad), "non-finite value")
    return out


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------

def save_xyz(points, path):
    """Whitespace-separated text: one "x y z" triple per line, meters."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    with open(path, "w") as fh:
        for p in points:
            fh.write(f"{_FLOAT_FMT % p[0]} {_FLOAT_FMT % p[1]} {_FLOAT_FMT % p[2]}\n")


def load_xyz(path) -> np.ndarray:
    return _rows(path, 3)


def load_cloud_binary(path) -> np.ndarray:
    """Little-endian float32 triples behind a 16-byte header: magic XMPC,
    u32 version, u64 point count."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:4] != CLOUD_MAGIC:
            raise FormatError(f"{path}: not an XMPC cloud file")
        version, = struct.unpack("<I", header[4:8])
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        count, = struct.unpack("<Q", header[8:16])
        buf = fh.read()
        data = np.frombuffer(buf[:len(buf) - len(buf) % 4], dtype="<f4")
    if len(data) != 3 * count:
        raise FormatError(f"{path}: expected {3 * count} floats, got {len(data)}")
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: non-finite value")
    return data.reshape(-1, 3).astype(float)


def load_cloud(path) -> np.ndarray:
    """Sniff binary magic, fall back to text xyz."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == CLOUD_MAGIC:
        return load_cloud_binary(path)
    return load_xyz(path)


# ---------------------------------------------------------------------------
# KITTI pose files
# ---------------------------------------------------------------------------

def save_kitti_poses(transforms, path):
    """Write raw [R|t] transforms, 12 reals per line, row-major."""
    with open(path, "w") as fh:
        for T in transforms:
            fh.write(" ".join(_FLOAT_FMT % v for v in T.matrix().reshape(-1)) + "\n")


def load_kitti_poses(path) -> list[PoseSE3]:
    """Read raw [R|t] transforms exactly as stored in the file.

    Every R must be a rotation: no entry of R^T R - I above
    ``_ROTATION_TOL`` and det R > 0.
    """
    rt = _rows(path, 12).reshape(-1, 3, 4)
    R = rt[:, :, :3]
    off = np.abs(np.swapaxes(R, 1, 2) @ R - np.eye(3)).max(axis=(1, 2))
    bad = (off > _ROTATION_TOL) | (np.linalg.det(R) <= 0)
    if bad.any():
        raise _line_error(path, np.argmax(bad), "not a rotation")
    return [PoseSE3.from_rt(m[:, :3], m[:, 3]) for m in rt]


def save_trajectory_poses(extrinsics, path):
    """Store world->camera poses as KITTI camera-to-world rows."""
    save_kitti_poses([T.inverse() for T in extrinsics], path)


def load_trajectory_poses(path) -> list[PoseSE3]:
    """Read KITTI camera-to-world rows back into world->camera poses."""
    return [T.inverse() for T in load_kitti_poses(path)]

