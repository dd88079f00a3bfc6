import struct

import numpy as np
import pytest

from scenecast import dataio
from scenecast.dataio import FormatError
from scenecast.fusion import BlockVisibility, FusedVolume, SceneGrid, SceneRange
from scenecast.geom import FrameBundle, Se3Pose, se3_exp


def random_grid(rng, dims=(8, 8, 4)):
    labels = rng.integers(0, 5, size=dims).astype(np.uint8)
    return SceneGrid(SceneRange((0.0, 0.0, 0.0), tuple(d * 0.25 for d in dims), 0.25), labels)


class TestGridFile:
    def test_round_trip_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = random_grid(rng)
        path = tmp_path / "g.vxg"
        dataio.write_grid(path, grid)
        first = path.read_bytes()
        again = dataio.read_grid(path)
        assert np.array_equal(again.labels, grid.labels)
        dataio.write_grid(path, again)
        assert path.read_bytes() == first

    def test_layout_x_slowest(self, tmp_path):
        labels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        grid = SceneGrid(SceneRange((0, 0, 0), (1.0, 1.0, 1.0), 0.5), labels)
        path = tmp_path / "g.vxg"
        dataio.write_grid(path, grid)
        payload = path.read_bytes()[32:]
        assert list(payload) == list(range(8))  # z fastest, x slowest

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.vxg"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(FormatError, match="offset 0"):
            dataio.read_grid(path)

    def test_zero_dim_names_offset(self, tmp_path):
        path = tmp_path / "g.vxg"
        path.write_bytes(b"VXG1" + struct.pack("<IIIf3f", 2, 0, 2, 0.5, 0.0, 0.0, 0.0))
        with pytest.raises(FormatError, match="zero grid dim at offset 8"):
            dataio.read_grid(path)

    def test_non_finite_origin_names_offset(self, tmp_path):
        path = tmp_path / "g.vxg"
        header = struct.pack("<IIIf3f", 1, 1, 1, 0.5, 0.0, float("nan"), 0.0)
        path.write_bytes(b"VXG1" + header + bytes(1))
        with pytest.raises(FormatError, match="non-finite origin nan at offset 24"):
            dataio.read_grid(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "g.vxg"
        dataio.write_grid(path, random_grid(rng))
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(FormatError, match="offset 32"):
            dataio.read_grid(path)


class TestDepthFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        depth = (rng.random((6, 9)) * 40).astype(np.float32).astype(np.float64)
        path = tmp_path / "d.dpt"
        dataio.write_depth(path, depth)
        assert np.array_equal(dataio.read_depth(path), depth)

    def test_bytes_stable(self, tmp_path):
        rng = np.random.default_rng(3)
        depth = rng.random((4, 4))
        path = tmp_path / "d.dpt"
        dataio.write_depth(path, depth)
        first = path.read_bytes()
        dataio.write_depth(path, dataio.read_depth(path))
        assert path.read_bytes() == first

    def test_nan_rejected_on_write(self, tmp_path):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            dataio.write_depth(tmp_path / "d.dpt", bad)

    def test_nan_rejected_on_read(self, tmp_path):
        path = tmp_path / "d.dpt"
        dataio.write_depth(path, np.zeros((2, 2)))
        data = bytearray(path.read_bytes())
        data[12:16] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="offset 12"):
            dataio.read_depth(path)

    def test_negative_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match=">= 0"):
            dataio.write_depth(tmp_path / "d.dpt", np.full((2, 2), -1.0))
        assert not (tmp_path / "d.dpt").exists()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_zero_size_rejected_on_write(self, tmp_path, shape):
        with pytest.raises(ValueError, match="H, W >= 1"):
            dataio.write_depth(tmp_path / "d.dpt", np.zeros(shape))
        assert not (tmp_path / "d.dpt").exists()

    def test_negative_rejected_on_read(self, tmp_path):
        path = tmp_path / "d.dpt"
        dataio.write_depth(path, np.zeros((2, 2)))
        data = bytearray(path.read_bytes())
        data[20:24] = np.array([-1.0], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="depth value -1.0 at offset 20"):
            dataio.read_depth(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "d.dpt"
        dataio.write_depth(path, np.zeros((2, 2)))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            dataio.read_depth(path)


class TestImageFile:
    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.random((5, 7, 3))
        path = tmp_path / "i.ppm"
        dataio.write_image(path, img)
        back = dataio.read_image(path)
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12

    def test_standard_header(self, tmp_path):
        path = tmp_path / "i.ppm"
        dataio.write_image(path, np.zeros((3, 4, 3)))
        assert path.read_bytes().startswith(b"P6\n4 3\n255\n")

    def test_values_round_half_up(self, tmp_path):
        img = np.full((1, 1, 3), 1.0 / 255.0 * 0.5)  # exactly half a level
        path = tmp_path / "i.ppm"
        dataio.write_image(path, img)
        assert path.read_bytes()[-3:] == b"\x01\x01\x01"

    def test_comment_tolerant_reader(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P6\n# comment line\n2 1\n255\n" + bytes(6))
        img = dataio.read_image(path)
        assert img.shape == (1, 2, 3)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes(6) + b"\n")
        with pytest.raises(FormatError, match="offset 17"):
            dataio.read_image(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P6\n1 1\n255X" + bytes(3), "expected whitespace after header at offset 10"),
            (b"P6\n1 1\n255", "truncated header at offset 10"),
        ],
        ids=["not_whitespace", "missing"],
    )
    def test_byte_after_maxval_names_offset(self, tmp_path, data, message):
        path = tmp_path / "i.ppm"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"i.ppm: {message}"):
            dataio.read_image(path)

    @pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3), (0, 0, 3)])
    def test_zero_size_image_not_written(self, tmp_path, shape):
        # read_image rejects a zero width or height, so the writer refuses it
        path = tmp_path / "i.ppm"
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]}, {shape[1]}, 3\)"):
            dataio.write_image(path, np.zeros(shape))
        assert not path.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_not_written(self, tmp_path, bad):
        # refused before any cast, so no numpy RuntimeWarning either
        img = np.zeros((2, 3, 3))
        img[1, 2, 0] = bad
        path = tmp_path / "i.ppm"
        with pytest.raises(ValueError, match="finite"):
            dataio.write_image(path, img)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_zero_size_pgm_not_written(self, tmp_path, shape):
        path = tmp_path / "m.pgm"
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]}, {shape[1]}\)"):
            dataio.write_pgm(path, np.zeros(shape, np.uint8))
        assert not path.exists()

    def test_pgm_mask(self, tmp_path):
        path = tmp_path / "m.pgm"
        dataio.write_pgm(path, np.array([[True, False]]))
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 1\n255\n")
        assert data[-2:] == b"\xff\x00"

    def test_pgm_values_at_both_ends(self, tmp_path):
        path = tmp_path / "m.pgm"
        dataio.write_pgm(path, np.array([[0.0, 255.0, 7.0]]))
        assert path.read_bytes() == b"P5\n3 1\n255\n\x00\xff\x07"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values, message",
        [
            ([[np.nan, 300.0]], "^map values must be finite$"),
            ([[0.0, np.inf]], "^map values must be finite$"),
            ([[0.0, 300.0]], r"^map values must lie in 0\.\.255, got 0\.0\.\.300\.0$"),
            ([[-1, 5]], r"^map values must lie in 0\.\.255, got -1\.\.5$"),
            ([[0, 256]], r"^map values must lie in 0\.\.255, got 0\.\.256$"),
        ],
    )
    def test_pgm_refuses_values_a_byte_cannot_hold(self, tmp_path, values, message):
        # refused before any cast, so nothing wraps and no file is written
        path = tmp_path / "m.pgm"
        with pytest.raises(ValueError, match=message):
            dataio.write_pgm(path, np.array(values))
        assert not path.exists()


class TestPoseFile:
    def test_kitti_identity_line(self):
        pose = dataio.parse_pose_line("1 0 0 0 0 1 0 0 0 0 1 0")
        assert np.array_equal(pose.rotation, np.eye(3))
        assert np.array_equal(pose.translation, np.zeros(3))

    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(5)
        poses = [se3_exp(rng.normal(scale=1.0, size=6)) for _ in range(5)]
        path = tmp_path / "poses.txt"
        dataio.write_poses(path, poses)
        back = dataio.read_poses(path)
        for a, b in zip(poses, back):
            assert np.abs(a.matrix34() - b.matrix34()).max() < 1e-9

    def test_write_parse_write_stable(self, tmp_path):
        rng = np.random.default_rng(6)
        poses = [se3_exp(rng.normal(scale=1.0, size=6)) for _ in range(3)]
        path = tmp_path / "poses.txt"
        dataio.write_poses(path, poses)
        first = path.read_text()
        dataio.write_poses(path, dataio.read_poses(path))
        assert path.read_text() == first

    def test_parse_reorthonormalizes(self):
        line = "1.000001 0 0 1 0 0.999999 0 2 0 0 1 3"
        pose = dataio.parse_pose_line(line)
        assert np.abs(pose.rotation @ pose.rotation.T - np.eye(3)).max() < 1e-12

    def test_reflected_rotation_names_line(self):
        with pytest.raises(FormatError, match="line 3: rotation must have determinant"):
            dataio.parse_pose_line("1 0 0 0 0 1 0 0 0 0 -1 0", lineno=3)

    def test_singular_rotation_rejected(self):
        # projecting an all-zero block onto SO(3) would yield the identity
        with pytest.raises(FormatError, match="line 2: rotation must have determinant"):
            dataio.parse_pose_line("0 0 0 1 0 0 0 2 0 0 0 3", lineno=2)

    def test_non_utf8_byte_names_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        identity = b"1 0 0 0 0 1 0 0 0 0 1 0\n"
        path.write_bytes(identity + identity[:22] + b"\xff\n")
        with pytest.raises(FormatError, match="poses.txt: line 2: invalid UTF-8 byte at offset 46"):
            dataio.read_poses(path)

    def test_read_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_bytes(b"1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 0 0 1 0 0 0 0 -1 0\n")
        with pytest.raises(FormatError, match="poses.txt: line 2: rotation must have determinant"):
            dataio.read_poses(path)

    def test_errors_name_line(self):
        with pytest.raises(FormatError, match="line 4"):
            dataio.parse_pose_line("1 2 3", lineno=4)
        with pytest.raises(FormatError, match="line 2"):
            dataio.parse_pose_line("1 0 0 0 0 1 0 0 0 0 x 0", lineno=2)


class TestFusedAndBlockVis:
    def test_fused_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        feats = rng.random((3, 4, 2, 16)).astype(np.float32).astype(np.float64)
        fused = FusedVolume(feats, 8)
        path = tmp_path / "f.fvx"
        dataio.write_fused(path, fused)
        back = dataio.read_fused(path, 8)
        assert np.array_equal(back.features, feats)
        assert back.block_dims == (3, 4, 2)

    def test_fused_channels_per_frame_must_divide(self, tmp_path):
        path = tmp_path / "f.fvx"
        dataio.write_fused(path, FusedVolume(np.zeros((1, 1, 1, 4)), 4))
        with pytest.raises(FormatError, match="offset 16"):
            dataio.read_fused(path, 3)

    def test_fused_zero_channels_need_channels_per_frame(self, tmp_path):
        path = tmp_path / "f.fvx"
        dataio.write_fused(path, FusedVolume(np.zeros((1, 1, 1, 0)), 4))
        assert dataio.read_fused(path, 4).features.shape == (1, 1, 1, 0)
        with pytest.raises(FormatError, match="offset 16"):
            dataio.read_fused(path)

    def test_inconsistent_volumes_rejected_before_writing(self, tmp_path):
        # both were once written as files their readers reject
        with pytest.raises(ValueError, match="proj_uv_d"):
            dataio.write_blockvis(tmp_path / "b.bvx", BlockVisibility(
                np.ones((1, 2, 2, 2), dtype=bool), np.ones((1, 1, 1, 1, 3)), (0,), 8, 8))
        with pytest.raises(ValueError, match="multiple of 4"):
            dataio.write_fused(tmp_path / "f.fvx", FusedVolume(np.zeros((1, 1, 1, 6)), 4))
        assert not list(tmp_path.iterdir())
        with pytest.raises(ValueError, match="frame indices"):
            BlockVisibility(np.ones((2, 1, 1, 1), dtype=bool), np.ones((2, 1, 1, 1, 3)), (0,), 8, 8)
        with pytest.raises(ValueError, match="visible"):
            BlockVisibility(np.ones((1, 1, 1), dtype=bool), np.ones((1, 1, 1, 3)), (0,), 8, 8)
        with pytest.raises(ValueError, match="features"):
            FusedVolume(np.zeros((1, 1, 4)), 4)
        with pytest.raises(ValueError, match="multiple of 0"):
            FusedVolume(np.zeros((1, 1, 1, 4)), 0)

    def test_fused_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.fvx"
        dataio.write_fused(path, FusedVolume(np.zeros((1, 2, 1, 4)), 4))
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(FormatError, match="offset 52"):
            dataio.read_fused(path, 4)

    def test_blockvis_trailing_bytes_rejected(self, tmp_path):
        bv = BlockVisibility(np.ones((2, 1, 1, 1), dtype=bool),
                             np.ones((2, 1, 1, 1, 3)), (0, 5), 8, 8)
        path = tmp_path / "b.bvx"
        dataio.write_blockvis(path, bv)
        path.write_bytes(path.read_bytes() + b"\0")
        # 28 header + 16 frame indices + 2 visibility + 24 projection bytes
        with pytest.raises(FormatError, match="offset 70"):
            dataio.read_blockvis(path)

    def test_blockvis_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        vis = rng.random((2, 3, 3, 2)) < 0.5
        proj = (rng.random((2, 3, 3, 2, 3)) * 30).astype(np.float32).astype(np.float64)
        proj[~vis] = 0.0
        bv = BlockVisibility(vis, proj, (0, 5), 128, 96)
        path = tmp_path / "b.bvx"
        dataio.write_blockvis(path, bv)
        back = dataio.read_blockvis(path)
        assert np.array_equal(back.visible, vis)
        assert np.array_equal(back.proj_uv_d, proj)
        assert back.frame_indices == (0, 5)
        assert (back.image_width, back.image_height) == (128, 96)


class TestFrameSequence:
    def _write(self, tmp_path, indices, interval=5):
        rng = np.random.default_rng(9)
        frames = []
        for i in indices:
            img = rng.random((4, 4, 3))
            depth = rng.random((4, 4)) + 0.5
            frames.append(FrameBundle(img, depth, Se3Pose.identity(), i))
        dataio.write_frame_sequence(tmp_path, frames)
        return frames

    def test_interval_selection(self, tmp_path):
        self._write(tmp_path, range(0, 21))
        frames = dataio.load_frame_sequence(tmp_path, 5)
        assert [f.frame_index for f in frames] == [0, 5, 10, 15, 20]

    def test_interval_one_loads_all(self, tmp_path):
        self._write(tmp_path, range(0, 4), interval=1)
        frames = dataio.load_frame_sequence(tmp_path, 1)
        assert [f.frame_index for f in frames] == [0, 1, 2, 3]

    def test_missing_file_named(self, tmp_path):
        self._write(tmp_path, [0, 5, 10])
        (tmp_path / "000005.dpt").unlink()
        with pytest.raises(FileNotFoundError, match="000005.dpt"):
            dataio.load_frame_sequence(tmp_path, 5)

    def test_missing_pose_line(self, tmp_path):
        self._write(tmp_path, [0, 5])
        (tmp_path / "poses.txt").write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(FormatError, match="frame 5"):
            dataio.load_frame_sequence(tmp_path, 5)


class TestFuzzedRoundTrips:
    def test_grids(self, tmp_path):
        rng = np.random.default_rng(10)
        for i in range(20):
            dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
            grid = random_grid(rng, dims)
            path = tmp_path / f"g{i}.vxg"
            dataio.write_grid(path, grid)
            back = dataio.read_grid(path)
            assert np.array_equal(back.labels, grid.labels)
            dataio.write_grid(path, back)
            assert dataio.read_grid(path).range.dims == dims

    def test_depths(self, tmp_path):
        rng = np.random.default_rng(11)
        for i in range(20):
            h, w = rng.integers(1, 12, size=2)
            depth = (rng.random((h, w)) * 80).astype(np.float32)
            path = tmp_path / f"d{i}.dpt"
            dataio.write_depth(path, depth)
            assert np.array_equal(dataio.read_depth(path), depth.astype(np.float64))

    def test_poses(self, tmp_path):
        rng = np.random.default_rng(12)
        poses = [se3_exp(rng.normal(scale=2.0, size=6)) for _ in range(50)]
        path = tmp_path / "poses.txt"
        dataio.write_poses(path, poses)
        back = dataio.read_poses(path)
        for a, b in zip(poses, back):
            assert np.abs(a.matrix34() - b.matrix34()).max() < 1e-9
