import struct

import numpy as np
import pytest

from lidartrack import formats
from lidartrack.formats import FormatError
from lidartrack.geometry import pose_error, se3_exp


def write_xmpc(path, points, version=1, count=None):
    """An XMPC cloud file: 16-byte header, then little-endian float32 triples."""
    points = np.asarray(points, dtype="<f4").reshape(-1, 3)
    count = len(points) if count is None else count
    path.write_bytes(b"XMPC" + struct.pack("<IQ", version, count) + points.tobytes())


class TestCloudIO:
    def test_xyz_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(0, 100, (500, 3))
        path = tmp_path / "cloud.xyz"
        formats.save_xyz(pts, path)
        assert np.array_equal(formats.load_xyz(path), pts)

    def test_xyz_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(FormatError, match="line 2"):
            formats.load_xyz(path)

    def test_xyz_non_numeric(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 five 6\n")
        with pytest.raises(FormatError, match="line 2: non-numeric"):
            formats.load_xyz(path)

    def test_xyz_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "gaps.xyz"
        path.write_text("1 2 3\n\n   \n4 5 6\n\n")
        assert np.array_equal(formats.load_xyz(path), [[1.0, 2, 3], [4, 5, 6]])
        path.write_text("1 2 3\n\n4 5\n")
        with pytest.raises(FormatError, match="line 3"):
            formats.load_xyz(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e400"])
    def test_xyz_non_finite(self, tmp_path, value):
        path = tmp_path / "bad.xyz"
        path.write_text(f"1 2 3\n\n{value} 1 2\n")
        with pytest.raises(FormatError) as err:
            formats.load_xyz(path)
        assert str(err.value) == f"{path}: line 3: non-finite value"

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.normal(0, 50, (321, 3)).astype(np.float32).astype(float)
        path = tmp_path / "cloud.xmpc"
        write_xmpc(path, pts)
        assert np.allclose(formats.load_cloud_binary(path), pts, atol=1e-6)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNK" + b"\x00" * 20)
        with pytest.raises(FormatError):
            formats.load_cloud_binary(path)

    def test_binary_short_header(self, tmp_path):
        path = tmp_path / "short.xmpc"
        path.write_bytes(b"XMPC" + struct.pack("<I", 1))
        with pytest.raises(FormatError, match="not an XMPC cloud file"):
            formats.load_cloud_binary(path)

    def test_binary_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.xmpc"
        write_xmpc(path, np.zeros((0, 3)))
        cloud = formats.load_cloud(path)
        assert cloud.shape == (0, 3) and cloud.dtype == float

    def test_binary_bad_version(self, tmp_path):
        path = tmp_path / "cloud.xmpc"
        write_xmpc(path, np.zeros((2, 3)), version=2)
        with pytest.raises(FormatError, match="version 2"):
            formats.load_cloud_binary(path)

    def test_binary_count_mismatch(self, tmp_path):
        path = tmp_path / "cloud.xmpc"
        write_xmpc(path, np.zeros((2, 3)), count=3)
        with pytest.raises(FormatError, match="expected 9 floats, got 6"):
            formats.load_cloud_binary(path)

    def test_binary_non_finite(self, tmp_path):
        path = tmp_path / "bad.xmpc"
        write_xmpc(path, [[1.0, 2.0, 3.0], [np.inf, 1.0, 2.0]])
        with pytest.raises(FormatError) as err:
            formats.load_cloud(path)
        assert str(err.value) == f"{path}: non-finite value"

    def test_sniffing_loader(self, tmp_path):
        pts = np.arange(12.0).reshape(4, 3)
        t = tmp_path / "a.xyz"
        b = tmp_path / "b.bin"
        formats.save_xyz(pts, t)
        write_xmpc(b, pts)
        assert np.allclose(formats.load_cloud(t), pts)
        assert np.allclose(formats.load_cloud(b), pts, atol=1e-6)


class TestKittiPoses:
    def test_raw_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        poses = [se3_exp(rng.uniform(-2, 2, 6)) for _ in range(50)]
        path = tmp_path / "poses.txt"
        formats.save_kitti_poses(poses, path)
        back = formats.load_kitti_poses(path)
        for a, b in zip(back, poses):
            rot, transl = pose_error(a, b)
            assert rot < 1e-9 and transl < 1e-9

    def test_trajectory_poses_invert_at_boundary(self, tmp_path):
        # the file stores camera-to-world rows; loading returns extrinsics
        T = se3_exp([0.2, -0.1, 0.4, 3, -2, 1])
        path = tmp_path / "traj.txt"
        formats.save_trajectory_poses([T], path)
        raw = formats.load_kitti_poses(path)[0]
        rot, transl = pose_error(raw, T.inverse())
        assert rot < 1e-9 and transl < 1e-9
        back = formats.load_trajectory_poses(path)[0]
        rot, transl = pose_error(back, T)
        assert rot < 1e-9 and transl < 1e-9


    @pytest.mark.parametrize("value", ["nan", "1e400"])
    def test_non_finite_value(self, tmp_path, value):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n"
                        f"1 0 0 {value} 0 1 0 0 0 0 1 0\n")
        for load in (formats.load_kitti_poses, formats.load_trajectory_poses):
            with pytest.raises(FormatError) as err:
                load(path)
            assert str(err.value) == f"{path}: line 2: non-finite value"

    @pytest.mark.parametrize("rotation", [
        "0 0 0 0 0 0 0 0 0",                       # twelve zeros: no rotation at all
        "2 0 0 0 2 0 0 0 2",                       # a scaled rotation
        "1 0 0 0 1 0 0 0 -1",                      # a reflection, det R = -1
        "-1 0 0 0 -1 0 0 0 -1",                    # orthogonal, det R = -1
        "1 0 0 0 1 0 0 0 1.00001"])                # off by 1e-5
    def test_rotation_block_must_be_a_rotation(self, tmp_path, rotation):
        # line 1 holds a rotation with rounding error far below the
        # tolerance, so the error must name line 3
        R = se3_exp([0.3, -0.2, 0.1, 0, 0, 0]).rotation_matrix() * (1.0 + 1e-9)
        good = " ".join(repr(float(v)) for v in np.hstack([R, np.ones((3, 1))]).ravel())
        r = rotation.split()
        path = tmp_path / "poses.txt"
        path.write_text(good + "\n\n"
                        + " ".join(r[0:3] + ["4"] + r[3:6] + ["5"] + r[6:9] + ["6"]) + "\n")
        for load in (formats.load_kitti_poses, formats.load_trajectory_poses):
            with pytest.raises(FormatError) as err:
                load(path)
            assert str(err.value) == f"{path}: line 3: not a rotation"
