import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from scenecast import cli, dataio, defaults, warp
from scenecast.cli import demo_pipeline, main
from scenecast.forecast import PoseSequence, forecast_next
from scenecast.fusion import SceneRange, fuse_pipeline, resample_to_range
from scenecast.geom import CameraIntrinsics, FrameBundle, Se3Pose
from scenecast.metrics import confusion, coverage, iou_geometry, majority_complete
from scenecast.synth import (
    SceneSpec,
    TrajectorySpec,
    build_scene,
    canonical_camera_pose,
    desk_intrinsics,
    extract_features,
    make_trajectory,
    render_frame,
)
from scenecast.warp import compose_pseudo_future, fill_refiner, forward_splat


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def bv_range():
    return SceneRange((-12.8, 0.0, -2.0), (25.6, 25.6, 6.4), defaults.DESK_VOXEL_SIZE)


@pytest.fixture()
def small_frames_dir(tmp_path, capsys):
    out = tmp_path / "frames"
    code, _, err = run(
        capsys,
        "synth",
        "--seed", "3",
        "--dims", "64,96,16",
        "--frames", "6",
        "--speed", "1.0",
        "--start-y", "2.0",
        "--out-dir", str(out),
    )
    assert code == 0, err
    return out


class TestSynth:
    def test_outputs_exist(self, small_frames_dir):
        assert (small_frames_dir / "scene.vxg").exists()
        assert (small_frames_dir / "poses.txt").exists()
        assert (small_frames_dir / "000000.ppm").exists()
        assert (small_frames_dir / "000025.dpt").exists()

    def test_byte_identical_rerun(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, err = run(capsys, "synth", "--seed", "5", "--dims", "32,32,8",
                               "--frames", "2", "--out-dir", str(out))
            assert code == 0, err
        assert tree_bytes(a) == tree_bytes(b)


class TestForecast:
    def test_exact_on_constant_velocity(self, small_frames_dir, capsys, tmp_path):
        code, out, err = run(
            capsys, "forecast",
            "--poses", str(small_frames_dir / "poses.txt"),
            "--interval", "5",
            "--gt",
            "--out", str(tmp_path / "pred.txt"),
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert len(lines) == 2
        mse = float(lines[1].split(",")[1])
        assert mse < 1e-18
        assert (tmp_path / "pred.txt").exists()

    def test_half_turn_step_is_one_line_error_naming_frames(self, tmp_path, capsys):
        path = tmp_path / "poses.txt"
        # the last step (frame 1 -> 2, lines 2 -> 3) yaws 180 degrees
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n"
                        "1 0 0 0 0 1 0 0 0 0 1 1\n"
                        "-1 0 0 0 0 1 0 0 0 0 -1 2\n")
        code, out, err = run(capsys, "forecast", "--poses", str(path), "--interval", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: step from frame 1 to frame 2: rotation angle 3.14")
        assert len(err.splitlines()) == 1

    def test_needs_history(self, tmp_path, capsys):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
        code, _, err = run(capsys, "forecast", "--poses", str(path))
        assert code == 1
        assert err.startswith("error:")


class TestWarp:
    def test_outputs_and_monotone_coverage(self, small_frames_dir, tmp_path, capsys):
        out = tmp_path / "warp"
        code, _, err = run(
            capsys, "warp",
            "--frames-dir", str(small_frames_dir),
            "--interval", "5",
            "--out-dir", str(out),
        )
        assert code == 0, err
        for name in ("warped.ppm", "warped.dpt", "hit_mask.pgm",
                     "source_index.pgm", "coverage.csv", "target_pose.txt"):
            assert (out / name).exists(), name
        rows = (out / "coverage.csv").read_text().strip().splitlines()[1:]
        hits = [int(r.split(",")[1]) for r in rows]
        assert hits == sorted(hits)

    def test_target_index_mode(self, small_frames_dir, tmp_path, capsys):
        out = tmp_path / "warp2"
        code, _, err = run(
            capsys, "warp",
            "--frames-dir", str(small_frames_dir),
            "--interval", "5",
            "--target-index", "25",
            "--refiner", "fill",
            "--out-dir", str(out),
        )
        assert code == 0, err
        depth = dataio.read_depth(out / "warped.dpt")
        assert (depth > 0).all()  # fill refiner leaves no holes

    def test_target_inside_sequence_breaks_ties_toward_it(self, small_frames_dir, tmp_path, capsys):
        # sources 0, 5, 15, 20, 25 splat to frame 10: depth ties go to the
        # source nearest frame 10, in the mask of sources and in the image
        out = tmp_path / "warp10"
        code, _, err = run(capsys, "warp", "--frames-dir", str(small_frames_dir),
                           "--interval", "5", "--target-index", "10", "--out-dir", str(out))
        assert code == 0, err
        frames = dataio.load_frame_sequence(small_frames_dir, 5)
        sources = [f for f in frames if f.frame_index != 10]
        ref = forward_splat(sources, frames[2].pose, desk_intrinsics(), dst_frame_index=10)
        src_vis = np.where(ref.source_index < 0, 255, ref.source_index).astype(np.uint8)
        dataio.write_pgm(tmp_path / "source_index.pgm", src_vis)
        dataio.write_image(tmp_path / "warped.ppm", ref.image)
        dataio.write_depth(tmp_path / "warped.dpt", ref.depth)
        for name in ("source_index.pgm", "warped.ppm", "warped.dpt"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_negative_target_index_is_one_line_error(self, small_frames_dir, tmp_path, capsys):
        out = tmp_path / "warp_neg"
        code, _, err = run(capsys, "warp", "--frames-dir", str(small_frames_dir),
                           "--interval", "5", "--target-index", "-1", "--out-dir", str(out))
        assert code == 1
        assert err == "error: target index -1 outside pose file (26 lines)\n"
        assert not out.exists()

    def test_more_sources_than_the_index_map_names_is_one_line_error(
        self, monkeypatch, tmp_path, capsys
    ):
        # source_index.pgm is 8-bit with 255 for "no source": 256 sources cannot
        # be named, and the command stops before it splats
        frames = tmp_path / "many"
        image, depth = np.full((8, 8, 3), 0.5), np.full((8, 8), 3.0)
        dataio.write_frame_sequence(
            frames, [FrameBundle(image, depth, Se3Pose.identity(), i) for i in range(256)]
        )

        def no_splat(*args, **kwargs):
            raise AssertionError("splat reached")

        monkeypatch.setattr(cli, "forward_splat", no_splat)
        out = tmp_path / "warp_many"
        code, _, err = run(capsys, "warp", "--frames-dir", str(frames), "--interval", "1",
                           "--out-dir", str(out))
        assert code == 1
        assert err == "error: warp takes at most 255 source frames, got 256\n"
        assert not out.exists()

    def test_one_frame_names_the_poses_a_forecast_needs(self, tmp_path, capsys):
        # no --window is passed: the error names the default window and the poses it needs
        frames = tmp_path / "one"
        image, depth = np.full((8, 8, 3), 0.5), np.full((8, 8), 3.0)
        dataio.write_frame_sequence(frames, [FrameBundle(image, depth, Se3Pose.identity(), 0)])
        out = tmp_path / "warp_one"
        code, _, err = run(capsys, "warp", "--frames-dir", str(frames), "--out-dir", str(out))
        assert code == 1
        assert err == "error: need at least 2 poses for window 1, got 1\n"
        assert not out.exists()

    def test_outputs_match_single_splats(self, small_frames_dir, tmp_path, capsys):
        # one splat gives the image, mask and sources; coverage row m is the
        # hit count of splatting the first m sources alone
        out = tmp_path / "warp3"
        code, _, err = run(capsys, "warp", "--frames-dir", str(small_frames_dir),
                           "--interval", "5", "--target-index", "25", "--out-dir", str(out))
        assert code == 0, err
        frames = dataio.load_frame_sequence(small_frames_dir, 5)
        sources, target = frames[:-1], frames[-1]
        k = desk_intrinsics()
        pseudo = compose_pseudo_future(sources, target.pose, k, frame_interval=5)
        full = forward_splat(sources, target.pose, k, dst_frame_index=25)
        assert np.array_equal(dataio.read_depth(out / "warped.dpt"),
                              pseudo.depth.astype(np.float32).astype(np.float64))
        mask = (out / "hit_mask.pgm").read_bytes()[-full.hit_mask.size:]
        assert np.array_equal(np.frombuffer(mask, np.uint8).reshape(full.hit_mask.shape) > 0,
                              full.hit_mask)
        rows = (out / "coverage.csv").read_text().strip().splitlines()[1:]
        for m, row in enumerate(rows, start=1):
            hits = forward_splat(sources[:m], target.pose, k, dst_frame_index=25).hit_mask.sum()
            assert row.split(",")[:3] == [str(m), str(hits), str(k.width * k.height)]

    @pytest.mark.parametrize("target", [(), ("--target-index", "25")])
    def test_each_source_is_lifted_once(self, small_frames_dir, tmp_path, capsys, monkeypatch,
                                        target):
        # the coverage rows come from the splat's own lifts: N sources, N lifts
        lifted = []
        lift = warp.reprojection_flow

        def counted(src, *args):
            lifted.append(src.frame_index)
            return lift(src, *args)

        monkeypatch.setattr(warp, "reprojection_flow", counted)
        # and any binding of the lift in the command line itself
        monkeypatch.setattr(cli, "reprojection_flow", counted, raising=False)
        code, _, err = run(capsys, "warp", "--frames-dir", str(small_frames_dir),
                           "--interval", "5", *target, "--out-dir", str(tmp_path / "warp"))
        assert code == 0, err
        assert lifted == ([0, 5, 10, 15, 20] if target else [0, 5, 10, 15, 20, 25])


def small_size_tree(root: Path, width: int, height: int) -> Path:
    """A frame tree rendered at a width x height desk camera."""
    grid = build_scene(SceneSpec(seed=2, dims=(64, 96, 16)))
    k = CameraIntrinsics(64.0, 64.0, (width - 1) / 2.0, (height - 1) / 2.0, width, height)
    traj = make_trajectory(TrajectorySpec(frames=4, start=canonical_camera_pose((0.0, 2.0, 0.0))))
    bundles = [render_frame(grid, p, k, i) for p, i in zip(traj.poses, traj.frame_indices)]
    dataio.write_frame_sequence(root, bundles)
    return root


class TestFuse:
    def test_accepts_any_image_size(self, tmp_path, capsys):
        frames_dir = small_size_tree(tmp_path / "frames", 64, 48)
        out = tmp_path / "fuse"
        # the tree's 4 frames are 3 past and the current one
        code, _, err = run(capsys, "fuse", "--frames-dir", str(frames_dir), "--past", "3",
                           "--future", "pseudo", "--range-dims", "64,64,16",
                           "--range-origin=-12.8,0,-2.0", "--out-dir", str(out))
        assert code == 0, err
        bv = dataio.read_blockvis(out / "blockvis.bvx")
        assert (bv.image_width, bv.image_height, bv.num_frames) == (64, 48, 5)
        frames = dataio.load_frame_sequence(frames_dir, 5)
        _, ref = fuse_pipeline(frames, bv_range(), desk_intrinsics(64, 48),
                               defaults.THETA_D, extract_features, 3)
        assert np.array_equal(bv.visible[:4], ref.visible)
        code, _, err = run(capsys, "warp", "--frames-dir", str(frames_dir),
                           "--out-dir", str(tmp_path / "warp"))
        assert code == 0, err


    def test_pseudo_future_outputs(self, small_frames_dir, tmp_path, capsys):
        out = tmp_path / "fuse"
        code, _, err = run(
            capsys, "fuse",
            "--frames-dir", str(small_frames_dir),
            "--interval", "5",
            "--past", "3",
            "--future", "pseudo",
            "--refiner", "fill",
            "--range-dims", "64,64,16",
            "--range-origin=-12.8,0,-2.0",
            "--out-dir", str(out),
        )
        assert code == 0, err
        fused = dataio.read_fused(out / "fused.fvx")
        bv = dataio.read_blockvis(out / "blockvis.bvx")
        assert fused.block_dims == (16, 16, 4)
        assert bv.num_frames == 5  # 3 past + current + pseudo-future
        lines = (out / "coverage.csv").read_text().strip().splitlines()
        assert lines[0] == "frame,visible_blocks"
        assert lines[-1].startswith("union,")

    def test_future_gt_uses_final_frame(self, small_frames_dir, tmp_path, capsys):
        out = tmp_path / "fuse_gt"
        code, _, err = run(
            capsys, "fuse",
            "--frames-dir", str(small_frames_dir),
            "--interval", "5",
            "--past", "2",
            "--future", "gt",
            "--range-dims", "64,64,16",
            "--range-origin=-12.8,0,-2.0",
            "--out-dir", str(out),
        )
        assert code == 0, err
        bv = dataio.read_blockvis(out / "blockvis.bvx")
        assert bv.frame_indices[-1] == 25


class TestEval:
    def test_self_comparison_is_perfect(self, small_frames_dir, tmp_path, capsys):
        grid = small_frames_dir / "scene.vxg"
        code, out, err = run(capsys, "eval", "--pred", str(grid), "--gt", str(grid))
        assert code == 0, err
        lines = dict(
            line.split(",", 1) for line in out.strip().splitlines()[1:]
        )
        assert float(lines["iou"]) == 1.0
        assert float(lines["miou"]) == 1.0

    def test_missing_file_is_one_line_error(self, capsys):
        code, out, err = run(capsys, "eval", "--pred", "/nonexistent.vxg",
                             "--gt", "/nonexistent.vxg")
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


IDENTITY_LINE = b"1 0 0 0 0 1 0 0 0 0 1 0\n"


def _poses_file(tmp_path, second_line: bytes):
    path = tmp_path / "poses.txt"
    path.write_bytes(IDENTITY_LINE + second_line + IDENTITY_LINE)
    return ["forecast", "--poses", str(path), "--interval", "1"]


def _grid_file(tmp_path, dims, origin):
    path = tmp_path / "g.vxg"
    header = struct.pack("<IIIf3f", *dims, 0.5, *origin)
    path.write_bytes(b"VXG1" + header + bytes(int(np.prod(dims))))
    return ["eval", "--pred", str(path), "--gt", str(path)]


def _negative_depth_tree(tmp_path):
    frames = [
        FrameBundle(np.zeros((4, 4, 3)), np.ones((4, 4)), Se3Pose.identity(), i)
        for i in range(2)
    ]
    dataio.write_frame_sequence(tmp_path / "frames", frames)
    dpt = tmp_path / "frames" / "000001.dpt"
    data = bytearray(dpt.read_bytes())
    data[20:24] = np.array([-1.0], dtype="<f4").tobytes()
    dpt.write_bytes(bytes(data))
    return ["warp", "--frames-dir", str(tmp_path / "frames"), "--interval", "1",
            "--out-dir", str(tmp_path / "out")]


def _bad_ppm_header_tree(tmp_path):
    frames = [
        FrameBundle(np.zeros((1, 1, 3)), np.ones((1, 1)), Se3Pose.identity(), i)
        for i in range(2)
    ]
    dataio.write_frame_sequence(tmp_path / "frames", frames)
    (tmp_path / "frames" / "000001.ppm").write_bytes(b"P6\n1 1\n255X" + bytes(3))
    return ["warp", "--frames-dir", str(tmp_path / "frames"), "--interval", "1",
            "--out-dir", str(tmp_path / "out")]


def _zero_size_tree(tmp_path, name, data):
    """A two-frame warp tree whose frame 1 file `name` holds `data`."""
    frames = [
        FrameBundle(np.zeros((1, 1, 3)), np.ones((1, 1)), Se3Pose.identity(), i)
        for i in range(2)
    ]
    dataio.write_frame_sequence(tmp_path / "frames", frames)
    (tmp_path / "frames" / name).write_bytes(data)
    return ["warp", "--frames-dir", str(tmp_path / "frames"), "--interval", "1",
            "--out-dir", str(tmp_path / "out")]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "make_argv, expected",
        [
            (lambda d: _poses_file(d, b"1 0 0 0 0 1 0 0 0 0 -1 0\n"),
             "poses.txt: line 2: rotation must have determinant +1"),
            (lambda d: _poses_file(d, b"0 0 0 1 0 0 0 2 0 0 0 3\n"),
             "poses.txt: line 2: rotation must have determinant +1"),
            (lambda d: _poses_file(d, b"2 0 0 0 0 3 0 0 0 0 4 0\n"),
             "poses.txt: line 2: rotation drift 1.500e+01 exceeds 1e-02"),
            (lambda d: _poses_file(d, b"1e+300 0 0 0 0 1 0 0 0 0 1 0\n"),
             "poses.txt: line 2: rotation drift inf exceeds 1e-02"),
            (lambda d: _poses_file(d, b"1 0 0 0 0 1 0 0 0 0 1 \xff\n"),
             "poses.txt: line 2: invalid UTF-8 byte at offset 46"),
            (lambda d: _grid_file(d, (2, 2, 2), (0.0, 0.0, float("nan"))),
             "g.vxg: non-finite origin nan at offset 28"),
            (lambda d: _grid_file(d, (2, 2, 0), (0.0, 0.0, 0.0)),
             "g.vxg: zero grid dim at offset 12"),
            (_negative_depth_tree, "000001.dpt: depth value -1.0 at offset 20"),
            (_bad_ppm_header_tree, "000001.ppm: expected whitespace after header at offset 10"),
            (lambda d: _zero_size_tree(d, "000001.ppm", b"P6\n0 0\n255\n"),
             "000001.ppm: zero image dim at offset 3"),
            (lambda d: _zero_size_tree(d, "000001.dpt", b"DPT1" + struct.pack("<II", 1, 0)),
             "000001.dpt: zero depth dim at offset 8"),
        ],
        ids=["reflected_rotation", "zero_rotation", "scaled_rotation", "overflowing_rotation",
             "non_utf8_pose", "nan_origin",
             "zero_dim", "negative_depth", "ppm_maxval_separator", "zero_image_size",
             "zero_depth_size"],
    )
    def test_one_error_line_naming_offset_or_line(self, tmp_path, capsys, make_argv, expected):
        code, out, err = run(capsys, *make_argv(tmp_path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert expected in err


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["demo", "--theta-d", "nan"], "theta_d"),
            (["demo", "--speed", "nan"], "speed"),
            (["synth", "--speed", "nan"], "speed"),
            (["synth", "--kind", "constant_turn", "--turn-rate", "inf"], "turn_rate"),
        ],
        ids=["demo_theta_d", "demo_speed", "synth_speed", "synth_turn_rate"],
    )
    def test_one_error_line_naming_the_input(self, tmp_path, capsys, argv, name):
        code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {name} must be finite")

    def test_fuse_nan_theta_d_is_one_error_line(self, small_frames_dir, tmp_path, capsys):
        out = tmp_path / "fuse"
        code, _, err = run(capsys, "fuse", "--frames-dir", str(small_frames_dir),
                           "--theta-d", "nan", "--out-dir", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: theta_d must be finite")
        assert not (out / "fused.fvx").exists()

    @pytest.mark.parametrize(
        "argv", [["demo"], ["fuse", "--frames-dir", "frames"]], ids=["demo", "fuse"]
    )
    def test_bad_theta_d_fails_before_any_render_or_load(self, monkeypatch, tmp_path, capsys, argv):
        def unreachable(*args, **kwargs):
            raise AssertionError("rendered or loaded a frame")

        monkeypatch.setattr(cli, "render_frames", unreachable)
        monkeypatch.setattr(dataio, "load_frame_sequence", unreachable)
        code, out, err = run(capsys, *argv, "--theta-d", "nan", "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == "error: theta_d must be finite and positive, got nan\n"


class TestOutOfRangeFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["grad-check", "--volumes", "0"], "num_volumes must be >= 1, got 0"),
            (["grad-check", "--volumes", "-1"], "num_volumes must be >= 1, got -1"),
            (["synth", "--box-count", "-3", "--out-dir", "{tmp}/o"], "box_count must be >= 0, got -3"),
            (["demo", "--box-count", "-1", "--out-dir", "{tmp}/o"], "box_count must be >= 0, got -1"),
            (["synth", "--voxel-size", "nan", "--out-dir", "{tmp}/o"],
             "voxel_size must be finite and positive, got nan"),
            (["forecast", "--poses", "{tmp}/poses.txt", "--interval", "0"],
             "frame_interval must be >= 1, got 0"),
            (["forecast", "--poses", "{tmp}/poses.txt", "--interval", "-1"],
             "frame_interval must be >= 1, got -1"),
            (["demo", "--interval", "0", "--out-dir", "{tmp}/o"], "frame_interval must be >= 1, got 0"),
            # the frames dir does not exist: the range is checked before any load
            (["fuse", "--frames-dir", "{tmp}/none", "--range-voxel-size", "nan", "--out-dir", "{tmp}/o"],
             "voxel_size must be finite and positive, got nan"),
            (["fuse", "--frames-dir", "{tmp}/none", "--range-voxel-size", "inf", "--out-dir", "{tmp}/o"],
             "voxel_size must be finite and positive, got inf"),
            (["fuse", "--frames-dir", "{tmp}/none", "--past", "-1", "--out-dir", "{tmp}/o"],
             "past must be >= 0, got -1"),
            (["fuse", "--frames-dir", "{tmp}/none", "--past", "0", "--future", "pseudo",
              "--out-dir", "{tmp}/o"], "past must be >= 1 to forecast a pose, got 0"),
            (["demo", "--past", "-1", "--out-dir", "{tmp}/o"],
             "past must be >= 1 to forecast a pose, got -1"),
            (["demo", "--past", "0", "--out-dir", "{tmp}/o"],
             "past must be >= 1 to forecast a pose, got 0"),
            # the pose file does not exist: the window is checked before any read
            (["forecast", "--poses", "{tmp}/none", "--window", "0"], "window must be >= 1, got 0"),
            (["warp", "--frames-dir", "{tmp}/none", "--window", "0", "--out-dir", "{tmp}/o"],
             "window must be >= 1, got 0"),
            (["fuse", "--frames-dir", "{tmp}/none", "--window", "0", "--out-dir", "{tmp}/o"],
             "window must be >= 1, got 0"),
            (["demo", "--window", "0", "--out-dir", "{tmp}/o"], "window must be >= 1, got 0"),
            (["synth", "--frames", "0", "--out-dir", "{tmp}/o"], "frames must be >= 1, got 0"),
            (["synth", "--dims", "0,4,4", "--out-dir", "{tmp}/o"], "dims must be positive, got (0, 4, 4)"),
            (["synth", "--num-classes", "1", "--out-dir", "{tmp}/o"],
             "num_classes must be in [2, 16], got 1"),
            (["synth", "--seed", "-1", "--out-dir", "{tmp}/o"], "seed must be >= 0, got -1"),
            (["demo", "--seed", "-1", "--out-dir", "{tmp}/o"], "seed must be >= 0, got -1"),
            (["grad-check", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["fuse", "--frames-dir", "{tmp}/none", "--range-dims", "0,4,4", "--out-dir", "{tmp}/o"],
             "range_dims must be positive multiples of 4, got (0, 4, 4)"),
            (["fuse", "--frames-dir", "{tmp}/none", "--range-dims", "5,4,4", "--out-dir", "{tmp}/o"],
             "range_dims must be positive multiples of 4, got (5, 4, 4)"),
            (["fuse", "--frames-dir", "{tmp}/none", "--range-dims", "5,4,4", "--future", "pseudo",
              "--out-dir", "{tmp}/o"], "range_dims must be positive multiples of 4, got (5, 4, 4)"),
            (["fuse", "--frames-dir", "{tmp}/none", "--range-origin", "nan,0,0", "--out-dir", "{tmp}/o"],
             "origin must be finite, got [nan, 0.0, 0.0]"),
            (["synth", "--origin", "0,inf,0", "--out-dir", "{tmp}/o"],
             "origin must be finite, got [0.0, inf, 0.0]"),
            # the two-frame tree loads: past is checked against the frames it has
            (["fuse", "--frames-dir", "{tmp}/seq", "--interval", "1", "--past", "2",
              "--out-dir", "{tmp}/o"], "need 3 frames for past 2, the tree has 2"),
            (["fuse", "--frames-dir", "{tmp}/seq", "--interval", "1", "--past", "2",
              "--future", "pseudo", "--out-dir", "{tmp}/o"], "need 3 frames for past 2, the tree has 2"),
            (["fuse", "--frames-dir", "{tmp}/seq", "--interval", "1", "--past", "1",
              "--future", "gt", "--out-dir", "{tmp}/o"],
             "need 3 frames for past 1 and future gt, the tree has 2"),
        ],
        ids=["volumes_0", "volumes_neg", "synth_box_count", "demo_box_count", "synth_voxel_nan",
             "forecast_interval_0", "forecast_interval_neg", "demo_interval_0",
             "fuse_range_voxel_nan", "fuse_range_voxel_inf", "fuse_past_neg", "fuse_pseudo_past_0",
             "demo_past_neg", "demo_past_0", "forecast_window_0", "warp_window_0", "fuse_window_0",
             "demo_window_0", "synth_frames_0", "synth_dims_0", "synth_num_classes_1",
             "synth_seed_neg", "demo_seed_neg", "grad_check_seed_neg", "fuse_range_dims_0",
             "fuse_range_dims_5", "fuse_pseudo_range_dims_5", "fuse_range_origin_nan",
             "synth_origin_inf", "fuse_past_above_tree", "fuse_pseudo_past_above_tree",
             "fuse_gt_past_above_tree"],
    )
    def test_one_error_line_naming_the_value(self, monkeypatch, tmp_path, capsys, argv, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("rendered a frame")

        monkeypatch.setattr(cli, "render_frames", unreachable)
        # the pose file is valid, so forecast's interval is the only fault
        dataio.write_poses(tmp_path / "poses.txt", [Se3Pose.identity()] * 12)
        dataio.write_frame_sequence(tmp_path / "seq", [
            FrameBundle(np.zeros((1, 1, 3)), np.ones((1, 1)), Se3Pose.identity(), i)
            for i in range(2)
        ])
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--voxel-size", "1e308", "--origin", "0,0,0"],
            ["fuse", "--frames-dir", "{tmp}/none", "--range-voxel-size", "1e308",
             "--range-origin", "0,0,0"],
        ],
        ids=["synth", "fuse"],
    )
    def test_overflowing_voxel_size_is_one_error_line(self, tmp_path, capsys, recwarn, argv):
        # 1e308 m voxels overflow the box extents before any numpy arithmetic warns
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--out-dir", str(tmp_path / "o")]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: extents must be finite and positive, got [inf, inf, inf]\n"
        assert not recwarn.list
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (["synth", "--dims", "4,4"], "--dims", "4,4"),
            (["synth", "--origin", "1,2,3,4"], "--origin", "1,2,3,4"),
            (["fuse", "--frames-dir", "none", "--range-dims", "4,4"], "--range-dims", "4,4"),
            (["fuse", "--frames-dir", "none", "--range-origin", "1"], "--range-origin", "1"),
        ],
        ids=["synth_dims", "synth_origin", "fuse_range_dims", "fuse_range_origin"],
    )
    def test_triple_flags_take_three_values(self, tmp_path, capsys, argv, flag, text):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected 3 comma-separated" in err and repr(text) in err
        assert not (tmp_path / "o").exists()


class TestGradCheck:
    def test_passes_at_tolerance(self, capsys):
        code, out, err = run(capsys, "grad-check", "--volumes", "3", "--seed", "1")
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "loss,max_relative_error"
        for line in lines[1:]:
            assert float(line.split(",")[1]) <= 1e-4


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "conf"
        cfg.write_text("seed=9\ndims=32,32,8\nframes=2\n")
        out_a = tmp_path / "a"
        code, _, err = run(capsys, "synth", "--config", str(cfg),
                           "--out-dir", str(out_a))
        assert code == 0, err
        out_b = tmp_path / "b"
        code, _, _ = run(capsys, "synth", "--config", str(cfg), "--seed", "10",
                         "--out-dir", str(out_b))
        assert code == 0
        a = dataio.read_grid(out_a / "scene.vxg")
        b = dataio.read_grid(out_b / "scene.vxg")
        assert a.labels.shape == (32, 32, 8)
        assert not np.array_equal(a.labels, b.labels)  # flag overrode the seed


    @pytest.mark.parametrize(
        "command, lines, key",
        [
            ("synth", "seed=1\nthetad=9\n", "thetad"),
            ("fuse", "# past and future\npast=2\nfuture=bogus\n", "future"),
            ("demo", "future=none\n", "future"),
            ("warp", "refiner=foo\n", "refiner"),
            ("synth", "seed=x\n", "seed"),
            ("synth", "dims=64,a,16\n", "dims"),
            ("forecast", "gt=maybe\n", "gt"),
        ],
    )
    def test_bad_key_or_value_is_one_line_error(self, tmp_path, capsys, command, lines, key):
        cfg = tmp_path / "conf"
        cfg.write_text(lines)
        required = {
            "synth": ["--out-dir", str(tmp_path / "o")],
            "demo": ["--out-dir", str(tmp_path / "o")],
            "fuse": ["--frames-dir", str(tmp_path), "--out-dir", str(tmp_path / "o")],
            "warp": ["--frames-dir", str(tmp_path), "--out-dir", str(tmp_path / "o")],
            "forecast": ["--poses", str(tmp_path / "poses.txt")],
        }[command]
        code, _, err = run(capsys, command, "--config", str(cfg), *required)
        line = len(lines.splitlines())
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {cfg}:{line}: ")
        assert repr(key) in err or f": {key}: " in err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_byte_names_file_line_and_offset(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed=1\n\xff=2\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert err == f"error: {cfg}:2: invalid UTF-8 byte at offset 7\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("end", ["\x0c", "\x85", "\u2028"])
    def test_lines_end_at_newline_only(self, tmp_path, capsys, end):
        # a form feed or NEL before the newline does not shift the next line's number
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"seed=1{end}\nbogus=2\n", encoding="utf-8")
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith(f"error: {cfg}:2: unknown key 'bogus'")

    def test_crlf_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"seed=5\r\ndims=32,32,8\r\nframes=2\r\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--out-dir", str(tmp_path / "a"))
        assert code == 0, err
        code, _, err = run(capsys, "synth", "--seed", "5", "--dims", "32,32,8", "--frames", "2",
                           "--out-dir", str(tmp_path / "b"))
        assert code == 0, err
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_config_reaches_every_option(self, small_frames_dir, tmp_path, capsys):
        cfg = tmp_path / "conf"
        cfg.write_text("interval=5\npast=2\nfuture=gt\nrange-dims=64,64,16\n"
                       "range-origin=-12.8,0,-2.0\n")
        code, _, err = run(capsys, "fuse", "--config", str(cfg),
                           "--frames-dir", str(small_frames_dir), "--out-dir", str(tmp_path / "a"))
        assert code == 0, err
        code, _, err = run(capsys, "fuse", "--frames-dir", str(small_frames_dir), "--interval", "5",
                           "--past", "2", "--future", "gt", "--range-dims", "64,64,16",
                           "--range-origin=-12.8,0,-2.0", "--out-dir", str(tmp_path / "b"))
        assert code == 0, err
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_eval_reads_config(self, small_frames_dir, tmp_path, capsys):
        cfg = tmp_path / "conf"
        cfg.write_text("num-classes=10\n")
        grid = str(small_frames_dir / "scene.vxg")
        code, out, err = run(capsys, "eval", "--config", str(cfg), "--pred", grid, "--gt", grid)
        assert code == 0, err
        names = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert names == ["iou", "miou"] + [f"iou_class_{c}" for c in range(1, 10)]

    def test_origin_is_a_flag_and_a_key(self, tmp_path, capsys):
        cfg = tmp_path / "conf"
        cfg.write_text("origin=-6.4,0,-1.2\n")
        base = ["synth", "--dims", "32,32,8", "--frames", "1"]
        code, _, err = run(capsys, *base, "--origin=-6.4,0,-1.2", "--out-dir", str(tmp_path / "a"))
        assert code == 0, err
        code, _, err = run(capsys, *base, "--config", str(cfg), "--out-dir", str(tmp_path / "b"))
        assert code == 0, err
        grid = dataio.read_grid(tmp_path / "a" / "scene.vxg")
        assert np.allclose(grid.range.origin, (-6.4, 0.0, -1.2))
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def _hand_wired_corridor_run(seed: int):
    """The standard corridor run wired by hand, one fusion per frame set."""
    past = defaults.PAST_FRAMES
    interval = defaults.FRAME_INTERVAL
    speed = defaults.DEMO_SPEED
    voxel = defaults.DESK_VOXEL_SIZE
    k = desk_intrinsics()
    step = speed * interval
    ny = int(np.ceil((2.0 + past * step + 51.2 + step + 2.0) / voxel / 4) * 4)
    spec = SceneSpec(
        seed=seed,
        layout="corridor",
        dims=(128, ny, 16),
        origin=(-25.6, 0.0, -2.0),
        box_count=defaults.DEMO_BOX_COUNT,
    )
    grid = build_scene(spec)
    traj = make_trajectory(
        TrajectorySpec(
            frames=past + 2,
            speed=speed,
            frame_interval=interval,
            start=canonical_camera_pose((0.0, 2.0, 0.0)),
        )
    )
    bundles = [
        render_frame(grid, p, k, i) for p, i in zip(traj.poses, traj.frame_indices)
    ]
    past_current = bundles[: past + 1]
    current = past_current[-1]
    history = PoseSequence(traj.poses[: past + 1], traj.frame_indices[: past + 1], interval)
    predicted = forecast_next(history)
    pseudo = compose_pseudo_future(
        past_current, predicted, k, refiner=fill_refiner, frame_interval=interval
    )
    rng = SceneRange((-25.6, 0.0, -2.0), tuple(d * voxel for d in defaults.DESK_SCENE_DIMS), voxel)
    gt_range = resample_to_range(grid, rng, current.pose)
    unions, ious = [], []
    for frames, ci in (
        ([current], 0),
        (past_current, past),
        (past_current + [pseudo], past),
    ):
        _, bv = fuse_pipeline(frames, rng, k, defaults.THETA_D, extract_features, ci)
        unions.append(coverage(bv).union)
        completed = majority_complete(bv, gt_range)
        ious.append(iou_geometry(confusion(completed, gt_range, spec.num_classes)))
    return unions, ious


class TestDemo:
    def test_summary_and_coverage_ordering(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code, stdout, err = run(capsys, "demo", "--seed", "0", "--out-dir", str(out))
        assert code == 0, err
        rows = (out / "summary.csv").read_text().strip().splitlines()[1:]
        by_name = {r.split(",")[0]: r.split(",")[1:] for r in rows}
        cur = int(by_name["current"][0])
        past = int(by_name["past_current"][0])
        full = int(by_name["past_current_future"][0])
        assert cur < past < full
        assert (full - past) / past >= 0.10
        ious = [float(by_name[k][1]) for k in ("current", "past_current", "past_current_future")]
        assert ious[0] < ious[1] < ious[2]
        for name in ("scene.vxg", "gt_range.vxg", "pseudo_future.ppm",
                     "predicted_pose.txt", "pose_error.csv"):
            assert (out / name).exists(), name

    def test_fuse_of_its_frame_tree_reproduces_its_fused_volume(self, tmp_path, capsys):
        # demo fuses the frames it writes, bytes and all: a fuse of the written
        # tree with the ground-truth future gives the same file
        demo, out = tmp_path / "demo", tmp_path / "fuse"
        code, _, err = run(capsys, "demo", "--seed", "1", "--future", "gt", "--out-dir", str(demo))
        assert code == 0, err
        code, _, err = run(capsys, "fuse", "--frames-dir", str(demo / "frames"), "--future", "gt",
                           "--out-dir", str(out))
        assert code == 0, err
        assert (out / "fused.fvx").read_bytes() == (demo / "fused_past_current_future.fvx").read_bytes()

    @staticmethod
    def past_and_current_tree(capsys, tmp_path):
        """The default demo at seed 0, and a copy of its frame tree without the
        ground-truth future: (demo dir, tree dir)."""
        demo, tree = tmp_path / "demo", tmp_path / "tree"
        code, _, err = run(capsys, "demo", "--seed", "0", "--out-dir", str(demo))
        assert code == 0, err
        shutil.copytree(demo / "frames", tree)
        future = max(tree.glob("*.ppm"))
        future.unlink()
        future.with_suffix(".dpt").unlink()
        return demo, tree

    def test_pseudo_future_is_warp_and_fuse_of_its_frame_tree(self, tmp_path, capsys):
        # the default demo splats and fuses the depth its tree stores: warp and
        # fuse of the past and current frames give its pseudo-future and volume
        demo, tree = self.past_and_current_tree(capsys, tmp_path)
        for argv in (["warp", "--refiner", "fill", "--out-dir", str(tmp_path / "warp")],
                     ["fuse", "--future", "pseudo", "--refiner", "fill",
                      "--out-dir", str(tmp_path / "fuse")]):
            code, _, err = run(capsys, *argv, "--frames-dir", str(tree))
            assert code == 0, err
        for mine, theirs in (("pseudo_future.ppm", "warp/warped.ppm"),
                             ("pseudo_future.dpt", "warp/warped.dpt"),
                             ("fused_past_current_future.fvx", "fuse/fused.fvx")):
            assert (demo / mine).read_bytes() == (tmp_path / theirs).read_bytes(), mine

    def test_other_sets_are_fuse_and_eval_of_its_frame_tree(self, tmp_path, capsys):
        # fuse with no future of the current frame, and of the past and current
        # frames, gives the smaller sets' files; eval of each completed grid
        # prints the iou and miou of its summary row
        demo, tree = self.past_and_current_tree(capsys, tmp_path)
        for name, past in (("current", 0), ("past_current", defaults.PAST_FRAMES)):
            out = tmp_path / name
            code, _, err = run(capsys, "fuse", "--frames-dir", str(tree), "--past", str(past),
                               "--future", "none", "--out-dir", str(out))
            assert code == 0, err
            for mine, theirs in ((f"fused_{name}.fvx", "fused.fvx"),
                                 (f"blockvis_{name}.bvx", "blockvis.bvx")):
                assert (demo / mine).read_bytes() == (out / theirs).read_bytes(), mine
        rows = (demo / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            name, _, iou, miou = row.split(",")
            code, stdout, err = run(capsys, "eval", "--pred", str(demo / f"completed_{name}.vxg"),
                                    "--gt", str(demo / "gt_range.vxg"))
            assert code == 0, err
            assert stdout.splitlines()[1:3] == [f"iou,{iou}", f"miou,{miou}"], name

    def test_window_above_past_fails_before_any_render(self, monkeypatch, tmp_path, capsys):
        # past 4 gives 5 poses to forecast from: the forecast rejects window 5
        # before the scene is built or a frame rendered
        def unreachable(*args, **kwargs):
            raise AssertionError("built a scene or rendered a frame")

        monkeypatch.setattr(cli, "build_scene", unreachable)
        monkeypatch.setattr(cli, "render_frames", unreachable)
        out = tmp_path / "demo"
        code, stdout, err = run(capsys, "demo", "--window", "5", "--out-dir", str(out))
        assert (code, stdout) == (1, "")
        assert err == "error: need at least 6 poses for window 5, got 5\n"
        assert not out.exists()

    def test_sets_are_slices_of_separate_fusions(self):
        past = defaults.PAST_FRAMES
        theta_d = defaults.THETA_D
        result = demo_pipeline(
            seed=0, layout="corridor", past=past, interval=defaults.FRAME_INTERVAL,
            speed=defaults.DEMO_SPEED, theta_d=theta_d, box_count=defaults.DEMO_BOX_COUNT,
            refiner_name="fill", future_mode="pseudo",
        )
        bundles, rng, k = result["bundles"], result["gt_range"].range, desk_intrinsics()
        separate = {
            "current": fuse_pipeline([bundles[past]], rng, k, theta_d, extract_features, 0),
            "past_current": fuse_pipeline(bundles[: past + 1], rng, k, theta_d, extract_features, past),
        }
        for name, (fused_ref, bv_ref) in separate.items():
            fused, bv = result["sets"][name][:2]
            assert np.array_equal(bv.visible, bv_ref.visible), name
            assert np.array_equal(bv.proj_uv_d, bv_ref.proj_uv_d), name
            assert bv.frame_indices == bv_ref.frame_indices, name
            assert np.array_equal(fused.features, fused_ref.features), name

    def test_matches_independent_corridor_wiring(self):
        result = demo_pipeline(
            seed=0, layout="corridor", past=defaults.PAST_FRAMES, interval=defaults.FRAME_INTERVAL,
            speed=defaults.DEMO_SPEED, theta_d=defaults.THETA_D, box_count=defaults.DEMO_BOX_COUNT,
            refiner_name="fill", future_mode="pseudo",
        )
        unions, ious = _hand_wired_corridor_run(0)
        assert [row["union_blocks"] for row in result["summary"]] == unions
        assert [row["iou"] for row in result["summary"]] == ious
