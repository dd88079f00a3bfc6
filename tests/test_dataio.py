import contextlib
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenecast import dataio
from scenecast.cli import main
from scenecast.dataio import FormatError
from scenecast.fusion import BlockVisibility, FusedVolume, SceneGrid, SceneRange
from scenecast.geom import FrameBundle, Se3Pose, se3_exp


def random_grid(rng, dims=(8, 8, 4)):
    labels = rng.integers(0, 5, size=dims).astype(np.uint8)
    return SceneGrid(SceneRange((0.0, 0.0, 0.0), tuple(d * 0.25 for d in dims), 0.25), labels)


def _with_f32(data: bytes, offset: int, value: float) -> bytes:
    """`data` with the f32 at `offset` replaced by `value`."""
    return data[:offset] + np.array([value], dtype="<f4").tobytes() + data[offset + 4:]


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

    @pytest.mark.parametrize("vs", [0.0, -0.5, float("nan")], ids=["zero", "negative", "nan"])
    def test_invalid_voxel_size_names_offset(self, tmp_path, vs):
        path = tmp_path / "g.vxg"
        path.write_bytes(b"VXG1" + struct.pack("<IIIf3f", 1, 1, 1, vs, 0.0, 0.0, 0.0) + bytes(1))
        with pytest.raises(FormatError, match=rf"g.vxg: invalid voxel_size {vs} at offset 16$"):
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

    def test_read_is_a_read_only_f32_view(self, tmp_path):
        depth = np.array([[0.5, 0.0, 7.25]], dtype=np.float32)
        path = tmp_path / "d.dpt"
        dataio.write_depth(path, depth)
        back = dataio.read_depth(path)
        assert back.dtype == np.float32 and back.tobytes() == depth.tobytes()
        assert not back.flags.writeable

    def test_tiny_negative_rejected_on_write(self, tmp_path):
        # -1e-50 is -0.0 as f32: the sign is read before the cast, as
        # FrameBundle reads it
        with pytest.raises(ValueError, match="depth values must be finite and >= 0"):
            dataio.write_depth(tmp_path / "d.dpt", [[-1e-50, 1.0]])
        with pytest.raises(ValueError, match="depth entries must be finite and >= 0"):
            FrameBundle(np.zeros((1, 2, 3)), [[-1e-50, 1.0]], Se3Pose.identity(), 0)
        assert not (tmp_path / "d.dpt").exists()

    def test_beyond_f32_rejected_on_write(self, tmp_path):
        # finite as f64 but inf as f32: refused without a numpy cast warning
        with pytest.raises(ValueError, match="depth values must be finite"):
            dataio.write_depth(tmp_path / "d.dpt", np.full((2, 2), 1e39))
        assert not (tmp_path / "d.dpt").exists()

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
        assert back.dtype == np.uint8
        assert np.abs(back / 255.0 - img).max() <= 0.5 / 255 + 1e-12

    def test_frame_on_the_byte_grid_round_trips_byte_for_byte(self, tmp_path):
        # every level k / 255, over more rows than one write band: the
        # constructor quantizes them back to k, and the PPM holds k
        gen = np.random.default_rng(14)
        shape = (dataio._IMAGE_BAND + 9, 31, 3)
        levels = gen.integers(0, 256, size=shape)
        levels.reshape(-1)[:256] = np.arange(256)
        frame = FrameBundle(levels / 255.0, np.ones(shape[:2]), Se3Pose.identity(), 0)
        assert frame.pixels.dtype == np.uint8
        assert np.array_equal(frame.pixels, levels)
        dataio.write_image(tmp_path / "bytes.ppm", frame.pixels)
        dataio.write_image(tmp_path / "floats.ppm", levels / 255.0)
        data = (tmp_path / "bytes.ppm").read_bytes()
        assert data == (tmp_path / "floats.ppm").read_bytes()
        assert data.endswith(frame.pixels.tobytes())
        back = dataio.read_image(tmp_path / "bytes.ppm")
        assert back.dtype == np.uint8 and np.array_equal(back, frame.pixels)

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

    def test_unterminated_comment_names_offset(self, tmp_path):
        path = tmp_path / "i.ppm"
        path.write_bytes(b"P6\n2 1 # no newline after this comment")
        with pytest.raises(FormatError, match="i.ppm: unterminated comment at offset 7$"):
            dataio.read_image(path)

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
        # refused before any cast, so no numpy RuntimeWarning either; in an
        # image of several bands, a bad value in a later band still leaves no file
        band = dataio._IMAGE_BAND
        for shape, at in [((2, 3, 3), (1, 2, 0)), ((2 * band + 2, 3, 3), (band, 2, 1)),
                          ((2 * band + 2, 3, 3), (2 * band + 1, 0, 2))]:
            img = np.zeros(shape)
            img[at] = bad
            with pytest.raises(ValueError, match="finite"):
                dataio.write_image(tmp_path / "i.ppm", img)
            assert not any(tmp_path.iterdir())

    def test_quantised_band_by_band(self, tmp_path):
        # three bands and a partial fourth; exact levels k/255 and half levels
        # (k + 0.5)/255, each also 1 ulp either side, fill the image, and the
        # rows either side of each band boundary hold out-of-range values
        band = dataio._IMAGE_BAND
        gen = np.random.default_rng(9)
        shape = (3 * band + 5, 6, 3)
        levels = (gen.integers(0, 256, size=shape) + gen.choice([0.0, 0.5], size=shape)) / 255.0
        img = np.nextafter(levels, levels + gen.choice([-1.0, 0.0, 1.0], size=shape))
        edges = [-1.0, -1e-300, -0.0, 1.0 + 1e-15, 2.0, 1e300]
        for r in range(band, shape[0], band):
            img[r - 1, :, 0] = img[r, :, 1] = edges
        path = tmp_path / "i.ppm"
        dataio.write_image(path, img)
        want = np.floor(img * 255.0 + 0.5).clip(0, 255).astype(np.uint8)
        data = path.read_bytes()
        assert data == f"P6\n6 {shape[0]}\n255\n".encode() + want.tobytes()
        assert list(want[band, :, 1]) == [0, 0, 0, 255, 255, 255]

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

    @pytest.mark.parametrize(
        "line, drift",
        [("2 0 0 0 0 3 0 0 0 0 4 0", "1.500e\\+01"), ("1e+300 0 0 0 0 1 0 0 0 0 1 0", "inf")],
        ids=["scaled", "overflowing"],
    )
    def test_rotation_far_from_orthonormal_names_line(self, line, drift):
        # both were once projected onto SO(3) and read as the identity
        with pytest.raises(FormatError, match=f"line 2: rotation drift {drift} exceeds 1e-02"):
            dataio.parse_pose_line(line, lineno=2)

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

    @pytest.mark.parametrize("end", ["\x0c", "\x85", "\x0b", "\u2028"])
    def test_lines_end_at_newline_only(self, tmp_path, end):
        # a form feed or NEL before the newline neither ends a line nor
        # shifts the next line's number, and separates values as a tab does
        path = tmp_path / "poses.txt"
        identity = "1 0 0 0 0 1 0 0 0 0 1 0"
        path.write_text(identity.replace(" ", end, 1) + end + "\nx\n", encoding="utf-8")
        with pytest.raises(FormatError, match="poses.txt: line 2: expected 12 pose values, got 1"):
            dataio.read_poses(path)
        path.write_text(identity + end + "\n" + identity + "\n", encoding="utf-8")
        assert len(dataio.read_poses(path)) == 2

    def test_crlf_lines(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_bytes(b"1 0 0 0 0 1 0 0 0 0 1 0\r\n1 0 0 1 0 1 0 0 0 0 1 0\r\n")
        back = dataio.read_poses(path)
        assert [p.translation.tolist() for p in back] == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        path.write_bytes(b"1 0 0 0 0 1 0 0 0 0 1 0\r\nx\r\n")
        with pytest.raises(FormatError, match="line 2: expected 12 pose values"):
            dataio.read_poses(path)

    def test_errors_name_line(self):
        with pytest.raises(FormatError, match="line 4"):
            dataio.parse_pose_line("1 2 3", lineno=4)
        with pytest.raises(FormatError, match="line 2"):
            dataio.parse_pose_line("1 0 0 0 0 1 0 0 0 0 x 0", lineno=2)

    # every format prints a float that reads back to the same bits
    FORMATS = ("{:.17e}", "{:.17E}", "{!r}", "{:.17g}", "{:+.16e}")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        twist=st.tuples(*[st.floats(-1.5, 1.5)] * 3, *[st.floats(-100.0, 100.0)] * 3),
        formats=st.lists(st.sampled_from(FORMATS), min_size=12, max_size=12),
        gaps=st.lists(st.text(" \t", min_size=1, max_size=3), min_size=11, max_size=11),
        lead=st.text(" \t", max_size=3),
        trail=st.sampled_from(["", " ", "\t", "\r", " \t\r"]),
    )
    def test_any_exact_float_text_reads_back_bit_for_bit(self, twist, formats, gaps, lead, trail):
        pose = se3_exp(twist)
        fields = [fmt.format(v) for fmt, v in zip(formats, pose.matrix34().ravel().tolist())]
        line = lead + "".join(f + g for f, g in zip(fields, gaps + [""])) + trail
        back = dataio.parse_pose_line(line)
        assert back.rotation.tobytes() == pose.rotation.tobytes()
        assert back.translation.tobytes() == pose.translation.tobytes()
        assert dataio.format_pose_line(back) == dataio.format_pose_line(pose)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39], ids=["nan", "inf", "beyond_f32"])
    def test_non_finite_rejected_on_write(self, tmp_path, bad):
        feats = np.zeros((1, 1, 1, 4))
        feats[0, 0, 0, 2] = bad
        with pytest.raises(ValueError, match="feature values must be finite as f32"):
            dataio.write_fused(tmp_path / "f.fvx", FusedVolume(feats, 4))
        proj = np.zeros((1, 1, 1, 1, 3))
        proj[..., 1] = bad
        with pytest.raises(ValueError, match="projection values must be finite as f32"):
            dataio.write_blockvis(tmp_path / "b.bvx", BlockVisibility(
                np.ones((1, 1, 1, 1), dtype=bool), proj, (0,), 8, 8))
        assert not list(tmp_path.iterdir())

    def test_non_finite_rejected_on_read(self, tmp_path):
        fvx, bvx = tmp_path / "f.fvx", tmp_path / "b.bvx"
        dataio.write_fused(fvx, FusedVolume(np.zeros((1, 2, 1, 4)), 4))
        # 20 header + 4 bytes per feature: the sixth sits at offset 40
        fvx.write_bytes(_with_f32(fvx.read_bytes(), 40, np.nan))
        with pytest.raises(FormatError, match="f.fvx: feature value nan at offset 40"):
            dataio.read_fused(fvx, 4)
        bv = BlockVisibility(np.ones((2, 1, 1, 1), dtype=bool),
                             np.ones((2, 1, 1, 1, 3)), (0, 5), 8, 8)
        dataio.write_blockvis(bvx, bv)
        # 28 header + 16 frame indices + 2 visibility bytes: the payload starts at 46
        bvx.write_bytes(_with_f32(bvx.read_bytes(), 50, -np.inf))
        with pytest.raises(FormatError, match="b.bvx: projection value -inf at offset 50"):
            dataio.read_blockvis(bvx)

    def test_visibility_byte_other_than_0_or_1_rejected(self, tmp_path):
        bvx = tmp_path / "b.bvx"
        dataio.write_blockvis(bvx, BlockVisibility(np.array([True, False]).reshape(1, 1, 1, 2),
                                                   np.ones((1, 1, 1, 2, 3)), (0,), 8, 8))
        # 28 header + 8 frame index bytes: the visibility bytes sit at 36 and 37;
        # a 7 would read as True and write back as 1
        for offset, byte in ((36, 7), (37, 2), (37, 255)):
            data = bytearray(bvx.read_bytes())
            data[offset] = byte
            bad = tmp_path / f"bad{offset}_{byte}.bvx"
            bad.write_bytes(bytes(data))
            with pytest.raises(FormatError, match=f"visibility byte {byte} at offset {offset} "):
                dataio.read_blockvis(bad)

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

    def test_kitti_size_frames_hold_their_file_bytes(self, tmp_path):
        # a 1216x368 frame holds the 1.3 MB its PPM holds, not 10.7 MB of floats
        h, w = 368, 1216
        gen = np.random.default_rng(15)
        for i in (0, 5):
            image = gen.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            frame = FrameBundle(image, np.full((h, w), 4.0), Se3Pose.identity(), i)
            assert frame.pixels is image
            dataio.write_frame_sequence(tmp_path, [frame])
        for frame in dataio.load_frame_sequence(tmp_path, 5):
            assert frame.pixels.dtype == np.uint8 and frame.pixels.nbytes == h * w * 3
            ppm = (tmp_path / f"{frame.frame_index:06d}.ppm").read_bytes()
            assert ppm == f"P6\n{w} {h}\n255\n".encode() + frame.pixels.tobytes()

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
            assert dataio.read_depth(path).tobytes() == depth.tobytes()

    def test_poses(self, tmp_path):
        rng = np.random.default_rng(12)
        poses = [se3_exp(rng.normal(scale=2.0, size=6)) for _ in range(50)]
        path = tmp_path / "poses.txt"
        dataio.write_poses(path, poses)
        back = dataio.read_poses(path)
        for a, b in zip(poses, back):
            assert np.abs(a.matrix34() - b.matrix34()).max() < 1e-9


def _valid_files(tmp_path) -> dict:
    """One small valid file of each kind, as name -> (reader, bytes)."""
    rng = np.random.default_rng(13)
    vis = rng.random((2, 2, 1, 2)) < 0.5
    proj = (rng.random(vis.shape + (3,)) * 30).astype(np.float32)
    writes = {
        "g.vxg": (dataio.write_grid, dataio.read_grid, random_grid(rng, (2, 3, 2))),
        "d.dpt": (dataio.write_depth, dataio.read_depth, rng.random((2, 3)) * 10),
        "f.fvx": (dataio.write_fused, dataio.read_fused,
                  FusedVolume(rng.normal(size=(1, 2, 2, 4)).astype(np.float32), 4)),
        "b.bvx": (dataio.write_blockvis, dataio.read_blockvis,
                  BlockVisibility(vis, proj, (0, 5), 16, 8)),
        "i.ppm": (dataio.write_image, dataio.read_image, rng.random((2, 3, 3))),
        "poses.txt": (dataio.write_poses, dataio.read_poses,
                      [se3_exp(rng.normal(size=6)) for _ in range(2)]),
    }
    files = {}
    for name, (write, read, value) in writes.items():
        write(tmp_path / name, value)
        files[name] = (read, (tmp_path / name).read_bytes())
    return files


class TestReaderSweep:
    """Every reader on every truncation and on seeded single-byte flips of a
    valid file returns a value or raises FormatError; any other exception or
    warning (an error under the test settings) fails."""

    FLIPS = 500

    def _read(self, tmp_path, name, read, data):
        path = tmp_path / "sweep" / name
        path.write_bytes(data)
        try:
            read(path)
        except FormatError:
            return False
        return True

    def test_truncations_and_flips(self, tmp_path):
        (tmp_path / "sweep").mkdir()
        rng = np.random.default_rng(14)
        for name, (read, data) in _valid_files(tmp_path).items():
            assert self._read(tmp_path, name, read, data), name
            for n in range(len(data)):
                self._read(tmp_path, name, read, data[:n])
            for at, mask in zip(rng.integers(0, len(data), self.FLIPS),
                                rng.integers(1, 256, self.FLIPS)):
                flipped = bytearray(data)
                flipped[at] ^= int(mask)
                self._read(tmp_path, name, read, bytes(flipped))

    def test_non_finite_payloads_and_corrupt_rotations_rejected(self, tmp_path):
        (tmp_path / "sweep").mkdir()
        files = _valid_files(tmp_path)
        identity = b"1 0 0 0 0 1 0 0 0 0 1 0\n"
        cases = [
            # a NaN in the last projection value
            ("b.bvx", _with_f32(files["b.bvx"][1], len(files["b.bvx"][1]) - 4, np.nan)),
            ("f.fvx", _with_f32(files["f.fvx"][1], 20, np.inf)),
            ("poses.txt", identity + b"2 0 0 0 0 3 0 0 0 0 4 0\n"),
            ("poses.txt", identity + b"1e+300 0 0 0 0 1 0 0 0 0 1 0\n"),
        ]
        for name, data in cases:
            assert not self._read(tmp_path, name, files[name][0], data), name



# what a FormatError's message must name
AT_FAULT = re.compile(r"(offset|line) \d+")

CUTS = st.none() | st.integers(0, 2**16)
# a flip's offset: often in the header, which the first 64 bytes hold
FLIPS = st.lists(st.tuples(st.integers(0, 63) | st.integers(0, 2**16), st.integers(0, 255)),
                 max_size=3)


def _corrupt(data: bytes, cut, flips) -> bytes:
    """`data` cut to its first cut % (len + 1) bytes (uncut when `cut` is
    None), then for each (at, value) of `flips` its byte at % len set to value."""
    out = bytearray(data if cut is None else data[:cut % (len(data) + 1)])
    for at, value in flips:
        if out:
            out[at % len(out)] = value
    return bytes(out)


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """(root, files): a directory holding one valid file of each kind, as
    `_valid_files` gives them, a copy of the grid as gt.vxg and a two-frame
    tree under frames/."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(17)
    dataio.write_frame_sequence(root / "frames", [
        FrameBundle(rng.random((6, 8, 3)), rng.random((6, 8)) + 1.0, Se3Pose.identity(), i)
        for i in (0, 5)
    ])
    files = _valid_files(root)
    (root / "gt.vxg").write_bytes(files["g.vxg"][1])
    return root, files


class TestReaderFuzz:
    """Cut and byte-flipped files: each reader returns a value or raises a
    FormatError naming an offset or line, and a command reading the file
    fails with exit 1 and that message as its one error line."""

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(name=st.sampled_from(["g.vxg", "d.dpt", "f.fvx", "b.bvx", "i.ppm", "poses.txt"]),
           cut=CUTS, flips=FLIPS)
    def test_readers_return_or_name_the_fault(self, fuzz_root, name, cut, flips):
        root, files = fuzz_root
        read, data = files[name]
        path = root / "corrupt" / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(_corrupt(data, cut, flips))
        try:
            read(path)
        except FormatError as exc:
            assert AT_FAULT.search(str(exc)), str(exc)

    # the file each command reads, its reader, and the command's arguments
    COMMANDS = {
        "eval": ("g.vxg", dataio.read_grid,
                 ["eval", "--pred", "{file}", "--gt", "{root}/gt.vxg"]),
        "forecast": ("poses.txt", dataio.read_poses, ["forecast", "--poses", "{file}"]),
        "fuse_poses": ("frames/poses.txt", dataio.read_poses,
                       ["fuse", "--frames-dir", "{root}/frames", "--out-dir", "{out}"]),
        "fuse_ppm": ("frames/000005.ppm", dataio.read_image,
                     ["fuse", "--frames-dir", "{root}/frames", "--out-dir", "{out}"]),
        "fuse_dpt": ("frames/000000.dpt", dataio.read_depth,
                     ["fuse", "--frames-dir", "{root}/frames", "--out-dir", "{out}"]),
    }

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(command=st.sampled_from(sorted(COMMANDS)), cut=CUTS, flips=FLIPS)
    def test_commands_fail_with_the_readers_one_line(self, fuzz_root, command, cut, flips):
        root = fuzz_root[0]
        name, read, argv = self.COMMANDS[command]
        path = root / name
        data = path.read_bytes()
        out = root / "out"
        path.write_bytes(_corrupt(data, cut, flips))
        try:
            try:
                read(path)
            except FormatError as exc:
                message = str(exc)
            else:
                return  # a command given a readable file may succeed
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([a.format(file=path, root=root, out=out) for a in argv])
            assert (code, err.getvalue()) == (1, f"error: {message}\n")
            assert not out.exists()
        finally:
            path.write_bytes(data)
