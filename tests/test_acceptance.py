"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance and budget is pinned here.
"""
import contextlib
import time

import numpy as np

from oracles import classify_palette, visibility_bruteforce
from scenecast import dataio, defaults
from scenecast.cli import demo_pipeline, main
from scenecast.forecast import PoseSequence, forecast_next, pose_mse
from scenecast.fusion import SceneRange, visibility
from scenecast.geom import FrameBundle, Se3Pose, compose, se3_exp
from scenecast.gradcheck import random_volume_pair, run_gradient_checks
from scenecast.losses import (
    LabelVolume,
    ProbVolume,
    scal_geo,
    scal_sem,
    weighted_ce,
)
from scenecast.synth import (
    SceneSpec,
    TrajectorySpec,
    build_scene,
    desk_intrinsics,
    make_trajectory,
    render_frames,
)
from scenecast.warp import forward_splat
from oracles import scal_bruteforce


@contextlib.contextmanager
def criterion(number: int, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS ({time.time() - start:.1f}s)")


def test_criterion_1_visibility_oracle_equivalence():
    """Fast visibility equals scalar brute force on >=100 random scenes."""
    with criterion(1, "visibility oracle equivalence"):
        from scenecast.geom import CameraIntrinsics

        k = CameraIntrinsics(40.0, 40.0, 19.5, 14.5, 40, 30)
        rng = np.random.default_rng(100)
        start = time.time()
        for _ in range(100):
            dims = (
                int(rng.integers(4, 33)),
                int(rng.integers(4, 33)),
                int(rng.integers(4, 17)),
            )
            vs = float(rng.uniform(0.2, 0.8))
            origin = np.array(
                [rng.uniform(-6.0, -2.0), rng.uniform(0.0, 2.0), rng.uniform(-3.0, -1.0)]
            )
            srange = SceneRange(origin, np.array(dims) * vs, vs)
            depth = rng.uniform(0.0, 14.0, size=(30, 40))
            depth[depth < 1.0] = 0.0
            frame = FrameBundle(
                np.zeros((30, 40, 3)),
                depth,
                se3_exp(rng.normal(scale=0.3, size=6)),
                0,
            )
            current = se3_exp(rng.normal(scale=0.3, size=6))
            idx, uvd = visibility(srange, frame, current, k, defaults.THETA_D)
            vis_ref, proj_ref = visibility_bruteforce(
                srange, frame, current, k, defaults.THETA_D
            )
            assert np.array_equal(idx, np.flatnonzero(vis_ref))
            assert np.array_equal(uvd, proj_ref[vis_ref])
        elapsed = time.time() - start
        assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_2_paper_constant_conformance():
    """Default configuration carries the published constants."""
    with criterion(2, "paper-constant conformance"):
        rng = SceneRange.default()
        assert tuple(rng.extents) == (51.2, 51.2, 6.4)
        assert rng.voxel_size == 0.2
        assert rng.dims == (256, 256, 32)
        assert rng.block_dims == (64, 64, 8)
        assert defaults.THETA_D == 0.5
        assert defaults.FRAME_INTERVAL == 5
        assert defaults.POSE_LOSS_WEIGHT == 0.1
        assert defaults.PAST_FRAMES == 4
        from scenecast.losses import LossWeights

        w = LossWeights()
        assert w.w_pose == 0.1
        assert w.w_img == w.w_feat == w.w_ssim == w.w_depth == 1.0
        seq = make_trajectory(TrajectorySpec(frames=3))
        assert seq.frame_indices == (0, 5, 10)


def test_criterion_3_warp_round_trip():
    """Splatting render(A) to pose B matches the direct render at B."""
    with criterion(3, "warp round-trip vs direct render"):
        k = desk_intrinsics()
        down = np.diag([1.0, -1.0, -1.0])
        interval = defaults.FRAME_INTERVAL
        rng = np.random.default_rng(300)
        start = time.time()
        for seed in range(20):
            spec = SceneSpec(
                seed=seed,
                layout="corridor",
                dims=(128, 192, 16),
                origin=(-25.6, 0.0, -2.0),
            )
            grid = build_scene(spec)
            ya = float(rng.uniform(20.0, 55.0))
            pa = Se3Pose(down, [float(rng.uniform(-1.0, 1.0)), ya, 10.4])
            pb = Se3Pose(
                down,
                [
                    pa.translation[0] + float(rng.uniform(-1.5, 1.5)),
                    ya + float(rng.uniform(0.5, 2.0)),
                    10.4,
                ],
            )
            fa, fb = render_frames(grid, PoseSequence((pa, pb), (0, interval), interval), k)
            warped = forward_splat([fa], pb, k, dst_frame_index=interval)
            both = warped.hit_mask & (fb.depth > 0)
            assert both.sum() > 1000
            depth_ok = np.abs(warped.depth - fb.depth)[both] <= 0.05
            class_ok = (
                classify_palette(warped.image)[both] == classify_palette(fb.image)[both]
            )
            frac = (depth_ok & class_ok).mean()
            assert frac >= 0.95, f"seed {seed}: match fraction {frac:.4f}"
        elapsed = time.time() - start
        assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"


def _standard_corridor_run(seed: int):
    """The shipped demo on the standard corridor: 4 past + current, interval 5."""
    summary = demo_pipeline(
        seed, "corridor", defaults.PAST_FRAMES, defaults.FRAME_INTERVAL, defaults.DEMO_SPEED,
        defaults.THETA_D, defaults.DEMO_BOX_COUNT, "fill", "pseudo",
    )["summary"]
    return [row["union_blocks"] for row in summary], [row["iou"] for row in summary]


def test_criterion_4_pseudo_future_coverage_gain():
    """Adding the forecast-and-warp future frame lifts coverage >= 10%."""
    with criterion(4, "pseudo-future coverage gain and IoU ordering"):
        start = time.time()
        gain_hits = 0
        order_hits = 0
        for seed in range(20):
            unions, ious = _standard_corridor_run(seed)
            cur, past, full = unions
            assert past >= cur  # union monotonicity is unconditional
            if (full - past) / past >= 0.10:
                gain_hits += 1
            if ious[0] < ious[1] < ious[2]:
                order_hits += 1
        elapsed = time.time() - start
        assert gain_hits >= 18, f"coverage gain held in only {gain_hits}/20 seeds"
        assert order_hits >= 18, f"IoU ordering held in only {order_hits}/20 seeds"
        assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_5_loss_correctness():
    """Gradients match finite differences; perfect predictions cost zero."""
    with criterion(5, "loss gradients and oracles"):
        results = dict(run_gradient_checks(num_volumes=50, seed=500))
        for name, err in results.items():
            assert err <= 1e-4, f"{name}: max relative error {err:.2e}"

        # perfect one-hot predictions cost exactly zero after clamping
        labels = np.array([[[0, 1], [2, 1]], [[1, 0], [2, 2]]])
        probs = np.zeros(labels.shape + (3,))
        flat = probs.reshape(-1, 3)
        flat[np.arange(labels.size), labels.ravel()] = 1.0
        pred, gt = ProbVolume(probs), LabelVolume(labels)
        assert abs(scal_sem(pred, gt)[0]) < 1e-9
        assert abs(scal_geo(pred, gt)[0]) < 1e-9
        assert abs(weighted_ce(pred, gt, np.ones(3))[0]) < 1e-9

        # vectorized SCAL equals the independent scalar transcription
        rng = np.random.default_rng(501)
        for _ in range(20):
            p, g = random_volume_pair(rng, (3, 3, 2, 3))
            valid = g.valid
            loss, _ = scal_sem(p, g)
            oracle = scal_bruteforce(p.probs[valid].tolist(), g.labels[valid].tolist())
            assert abs(loss - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_criterion_6_pose_forecast_exactness():
    """Constant-twist trajectories extrapolate to < 1e-9 pose-entry error."""
    with criterion(6, "pose forecasting exactness"):
        rng = np.random.default_rng(600)
        for trial in range(50):
            if trial % 2 == 0:
                xi = np.zeros(6)
                xi[5] = rng.uniform(0.5, 3.0)  # straight
            else:
                w = rng.normal(size=3)
                w *= rng.uniform(0.01, 0.3) / np.linalg.norm(w)
                xi = np.concatenate([w, rng.normal(scale=2.0, size=3)])  # turn
            poses = [se3_exp(rng.normal(scale=0.5, size=6))]
            for _ in range(5):
                poses.append(compose(poses[-1], se3_exp(xi)))
            seq = PoseSequence(tuple(poses), tuple(range(0, 30, 5)), 5)
            predicted = forecast_next(seq)
            gt = compose(poses[-1], se3_exp(xi))
            err = np.abs(predicted.matrix34() - gt.matrix34()).max()
            assert err < 1e-9, f"trial {trial}: error {err:.2e}"
            assert pose_mse(gt, gt) == 0.0


def test_criterion_7_demo_determinism(tmp_path):
    """Two demo runs with one seed produce byte-identical output trees."""
    with criterion(7, "demo determinism"):
        dirs = [tmp_path / "run_a", tmp_path / "run_b"]
        for out in dirs:
            code = main(["demo", "--seed", "17", "--out-dir", str(out)])
            assert code == 0
        files_a = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel


def test_criterion_8_format_round_trips(tmp_path):
    """Every dataio format round-trips exactly (binary) or to 1e-9 (pose text)."""
    with criterion(8, "format round-trips"):
        from scenecast.fusion import BlockVisibility, FusedVolume, SceneGrid

        rng = np.random.default_rng(800)
        for i in range(25):
            dims = tuple(int(d) for d in rng.integers(1, 10, size=3))
            vs = float(np.float32(rng.uniform(0.1, 1.0)))
            origin = np.float32(rng.uniform(-10, 10, size=3)).astype(np.float64)
            grid = SceneGrid(
                SceneRange(origin, tuple(d * vs for d in dims), vs),
                rng.integers(0, 256, size=dims).astype(np.uint8),
            )
            path = tmp_path / f"g{i}.vxg"
            dataio.write_grid(path, grid)
            first = path.read_bytes()
            back = dataio.read_grid(path)
            assert np.array_equal(back.labels, grid.labels)
            dataio.write_grid(path, back)
            assert path.read_bytes() == first

            h, w = (int(v) for v in rng.integers(1, 16, size=2))
            depth = (rng.random((h, w)) * 80).astype(np.float32)
            dpath = tmp_path / f"d{i}.dpt"
            dataio.write_depth(dpath, depth)
            dfirst = dpath.read_bytes()
            dback = dataio.read_depth(dpath)
            assert np.array_equal(dback, depth.astype(np.float64))
            dataio.write_depth(dpath, dback)
            assert dpath.read_bytes() == dfirst

            img = rng.random((h, w, 3))
            ipath = tmp_path / f"i{i}.ppm"
            dataio.write_image(ipath, img)
            ifirst = ipath.read_bytes()
            dataio.write_image(ipath, dataio.read_image(ipath))
            assert ipath.read_bytes() == ifirst

            pose = se3_exp(rng.normal(scale=2.0, size=6))
            ppath = tmp_path / f"p{i}.txt"
            dataio.write_poses(ppath, [pose])
            pback = dataio.read_poses(ppath)[0]
            assert np.abs(pback.matrix34() - pose.matrix34()).max() < 1e-9
            dataio.write_poses(ppath, [pback])
            assert np.abs(
                dataio.read_poses(ppath)[0].matrix34() - pose.matrix34()
            ).max() < 1e-9

            bx, by, bz, f = (int(v) for v in rng.integers(1, 5, size=4))
            feats = (rng.random((bx, by, bz, f * 4)) * 3).astype(np.float32).astype(np.float64)
            fused = FusedVolume(feats, 4)
            fpath = tmp_path / f"f{i}.fvx"
            dataio.write_fused(fpath, fused)
            ffirst = fpath.read_bytes()
            fback = dataio.read_fused(fpath, 4)
            assert np.array_equal(fback.features, feats)
            dataio.write_fused(fpath, fback)
            assert fpath.read_bytes() == ffirst

            vis = rng.random((f, bx, by, bz)) < 0.5
            proj = (rng.random((f, bx, by, bz, 3)) * 20).astype(np.float32).astype(np.float64)
            bv = BlockVisibility(vis, proj, tuple(range(f)), 128, 96)
            bpath = tmp_path / f"b{i}.bvx"
            dataio.write_blockvis(bpath, bv)
            bfirst = bpath.read_bytes()
            bback = dataio.read_blockvis(bpath)
            assert np.array_equal(bback.visible, vis)
            assert np.array_equal(bback.proj_uv_d, proj)
            dataio.write_blockvis(bpath, bback)
            assert bpath.read_bytes() == bfirst
