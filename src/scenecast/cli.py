"""Command-line entry point: synth, forecast, warp, fuse, eval, grad-check, demo.

Every subcommand validates its inputs, writes output files atomically, and
exits 0 on success or 1 with a single machine-parsable `error: ...` line on
stderr. Given identical flags and seeds, output files are byte-identical
across runs. An optional `--config key=value` file supplies defaults; flags
always win.
"""
from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

from . import dataio, defaults
from .forecast import PoseSequence, forecast_next, pose_mse
from .fusion import SceneRange, fuse_pipeline, resample_to_range
from .gradcheck import REL_TOLERANCE, run_gradient_checks
from .metrics import confusion, coverage, iou_geometry, majority_complete, miou_semantic
from .synth import (
    SceneSpec,
    TrajectorySpec,
    build_scene,
    canonical_camera_pose,
    desk_intrinsics,
    extract_features,
    make_trajectory,
    render_frame,
)
from .warp import compose_pseudo_future, fill_refiner, forward_splat, identity_refiner

REFINERS = {"identity": identity_refiner, "fill": fill_refiner}


def _load_config(path: str) -> dict:
    cfg = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {s!r}")
        key, val = s.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


class Settings:
    """Flag > config-file > built-in default resolution."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._cfg = _load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default, cast=None):
        val = self._args.get(key.replace("-", "_"))
        if val is None and key in self._cfg:
            val = self._cfg[key]
        if val is None:
            return default
        if isinstance(val, str) and cast is not None and cast is not str:
            return cast(val)
        return val


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    dataio.atomic_write_text(path, buf.getvalue())


def _scene_spec(s: Settings) -> SceneSpec:
    dims = s.get("dims", list(defaults.DESK_SCENE_DIMS), lambda v: [int(x) for x in v.split(",")])
    origin = s.get("origin", None, lambda v: [float(x) for x in v.split(",")])
    return SceneSpec(
        seed=s.get("seed", 0, int),
        layout=s.get("layout", "corridor", str),
        num_classes=s.get("num-classes", 8, int),
        dims=tuple(dims),
        voxel_size=s.get("voxel-size", defaults.DESK_VOXEL_SIZE, float),
        origin=tuple(origin) if origin is not None else None,
        box_count=s.get("box-count", 20, int),
    )


def _trajectory_spec(s: Settings, frames: int, start_y: float) -> TrajectorySpec:
    return TrajectorySpec(
        kind=s.get("kind", "straight", str),
        speed=s.get("speed", 1.0, float),
        turn_rate=s.get("turn-rate", 0.0, float),
        frames=frames,
        frame_interval=s.get("interval", defaults.FRAME_INTERVAL, int),
        start=canonical_camera_pose((0.0, start_y, 0.0)),
    )


# ----------------------------------------------------------------- subcommands

def cmd_synth(args) -> int:
    s = Settings(args)
    out_dir = Path(args.out_dir)
    spec = _scene_spec(s)
    frames_n = s.get("frames", defaults.PAST_FRAMES + 2, int)
    traj = _trajectory_spec(s, frames_n, s.get("start-y", 0.0, float))
    grid = build_scene(spec)
    k = desk_intrinsics()
    seq = make_trajectory(traj)
    bundles = [
        render_frame(grid, pose, k, idx)
        for pose, idx in zip(seq.poses, seq.frame_indices)
    ]
    dataio.write_grid(out_dir / "scene.vxg", grid)
    dataio.write_frame_sequence(out_dir, bundles)
    print(f"wrote scene and {len(bundles)} frames to {out_dir}")
    return 0


def cmd_forecast(args) -> int:
    s = Settings(args)
    interval = s.get("interval", defaults.FRAME_INTERVAL, int)
    window = s.get("window", None, int)
    # pose files carry one line per raw frame; the forecaster consumes every
    # interval-th line
    poses = dataio.read_poses(args.poses)[::interval]
    gt = None
    if args.gt:
        if len(poses) < 3:
            raise ValueError("--gt needs at least 3 sampled poses (history of 2 plus target)")
        gt = poses[-1]
        poses = poses[:-1]
    if len(poses) < 2:
        raise ValueError("need at least 2 history poses to extrapolate")
    seq = PoseSequence(
        tuple(poses), tuple(i * interval for i in range(len(poses))), interval
    )
    predicted = forecast_next(seq, window)
    print(dataio.format_pose_line(predicted))
    if gt is not None:
        print(f"pose_mse,{pose_mse(predicted, gt)!r}")
    if args.out:
        dataio.write_poses(args.out, [predicted])
    return 0


def _splat_coverage_rows(sources, dst_pose, k, dst_index):
    rows = []
    total = k.width * k.height
    for m in range(1, len(sources) + 1):
        result = forward_splat(sources[:m], dst_pose, k, dst_frame_index=dst_index)
        hits = int(result.hit_mask.sum())
        rows.append((m, hits, total, hits / total))
    return rows


def cmd_warp(args) -> int:
    s = Settings(args)
    out_dir = Path(args.out_dir)
    interval = s.get("interval", defaults.FRAME_INTERVAL, int)
    frames = dataio.load_frame_sequence(args.frames_dir, interval)
    k = desk_intrinsics()
    h, w = frames[0].shape
    if (w, h) != (k.width, k.height):
        from .geom import CameraIntrinsics

        k = CameraIntrinsics(
            defaults.DESK_FOCAL, defaults.DESK_FOCAL, (w - 1) / 2.0, (h - 1) / 2.0, w, h
        )
    refiner = REFINERS[s.get("refiner", "identity", str)]
    if args.target_index is not None:
        poses = dataio.read_poses(Path(args.frames_dir) / "poses.txt")
        if args.target_index >= len(poses):
            raise ValueError(
                f"target index {args.target_index} outside pose file ({len(poses)} lines)"
            )
        target_pose = poses[args.target_index]
        target_index = args.target_index
        sources = [f for f in frames if f.frame_index != target_index]
    else:
        seq = PoseSequence(
            tuple(f.pose for f in frames),
            tuple(f.frame_index for f in frames),
            interval,
        )
        target_pose = forecast_next(seq, s.get("window", None, int))
        target_index = frames[-1].frame_index + interval
        sources = frames
    pseudo = compose_pseudo_future(
        sources, target_pose, k, refiner=refiner, frame_interval=interval
    )
    result = forward_splat(sources, target_pose, k, dst_frame_index=target_index)
    dataio.write_image(out_dir / "warped.ppm", pseudo.image)
    dataio.write_depth(out_dir / "warped.dpt", pseudo.depth)
    dataio.write_pgm(out_dir / "hit_mask.pgm", result.hit_mask)
    src_vis = np.where(result.source_index < 0, 255, result.source_index).astype(np.uint8)
    dataio.write_pgm(out_dir / "source_index.pgm", src_vis)
    dataio.write_poses(out_dir / "target_pose.txt", [target_pose])
    _write_csv(
        out_dir / "coverage.csv",
        ("num_sources", "hit_pixels", "total_pixels", "coverage"),
        _splat_coverage_rows(sources, target_pose, k, target_index),
    )
    print(f"wrote warp outputs to {out_dir}")
    return 0


def _fusion_range(s: Settings, voxel: float) -> SceneRange:
    dims = s.get("range-dims", None, lambda v: [int(x) for x in v.split(",")])
    if dims is None:
        dims = list(defaults.DESK_SCENE_DIMS) if voxel != defaults.VOXEL_SIZE else [256, 256, 32]
    extents = tuple(d * voxel for d in dims)
    origin = s.get("range-origin", None, lambda v: [float(x) for x in v.split(",")])
    if origin is None:
        origin = (-extents[0] / 2.0, 0.0, -defaults.GROUND_CLEARANCE)
    return SceneRange(tuple(origin), extents, voxel)


def _select_frames(frames, past: int, future_mode: str, k, refiner, window, interval):
    """Pick past+current (+future) from a loaded sequence per the future mode."""
    if future_mode == "gt":
        if len(frames) < 2:
            raise ValueError("future=gt needs the future frame in the sequence")
        current_pos = len(frames) - 2
    else:
        current_pos = len(frames) - 1
    first = max(0, current_pos - past)
    selected = list(frames[first: current_pos + 1])
    current_index = len(selected) - 1
    if future_mode == "gt":
        selected.append(frames[current_pos + 1])
    elif future_mode == "pseudo":
        seq = PoseSequence(
            tuple(f.pose for f in selected),
            tuple(f.frame_index for f in selected),
            interval,
        )
        predicted = forecast_next(seq, window)
        selected.append(
            compose_pseudo_future(selected, predicted, k, refiner=refiner,
                                  frame_interval=interval)
        )
    return selected, current_index


def cmd_fuse(args) -> int:
    s = Settings(args)
    out_dir = Path(args.out_dir)
    interval = s.get("interval", defaults.FRAME_INTERVAL, int)
    frames = dataio.load_frame_sequence(args.frames_dir, interval)
    k = desk_intrinsics()
    theta_d = s.get("theta-d", defaults.THETA_D, float)
    voxel = s.get("range-voxel-size", defaults.DESK_VOXEL_SIZE, float)
    rng = _fusion_range(s, voxel)
    refiner = REFINERS[s.get("refiner", "identity", str)]
    selected, current_index = _select_frames(
        frames,
        s.get("past", defaults.PAST_FRAMES, int),
        s.get("future", "none", str),
        k,
        refiner,
        s.get("window", None, int),
        interval,
    )
    fused, bv = fuse_pipeline(selected, rng, k, theta_d, extract_features, current_index)
    dataio.write_fused(out_dir / "fused.fvx", fused)
    dataio.write_blockvis(out_dir / "blockvis.bvx", bv)
    cov = coverage(bv)
    rows = [
        (idx, n) for idx, n in zip(cov.frame_indices, cov.per_frame)
    ] + [("union", cov.union)]
    _write_csv(out_dir / "coverage.csv", ("frame", "visible_blocks"), rows)
    print(f"wrote fused volume ({fused.features.shape}) to {out_dir}")
    return 0


def cmd_eval(args) -> int:
    pred = dataio.read_grid(args.pred)
    gt = dataio.read_grid(args.gt)
    cm = confusion(pred, gt, args.num_classes)
    geo = iou_geometry(cm)
    sem = miou_semantic(cm)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("metric", "value"))
    writer.writerow(("iou", repr(geo.value)))
    writer.writerow(("miou", repr(sem.value)))
    for ci in range(1, cm.num_classes):
        v = sem.per_class[ci]
        writer.writerow((f"iou_class_{ci}", "" if np.isnan(v) else repr(float(v))))
    return 0


def cmd_grad_check(args) -> int:
    s = Settings(args)
    results = run_gradient_checks(
        num_volumes=s.get("volumes", 50, int), seed=s.get("seed", 0, int)
    )
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("loss", "max_relative_error"))
    ok = True
    for name, err in results:
        writer.writerow((name, repr(err)))
        ok &= err <= REL_TOLERANCE
    if not ok:
        raise ValueError(f"gradient check exceeded tolerance {REL_TOLERANCE}")
    return 0


def demo_pipeline(
    seed: int,
    layout: str,
    past: int,
    interval: int,
    speed: float,
    theta_d: float,
    box_count: int,
    refiner_name: str,
    future_mode: str,
    window: int | None = None,
):
    """Full synthetic pipeline; returns artifacts and the per-set summary."""
    voxel = defaults.DESK_VOXEL_SIZE
    k = desk_intrinsics()
    half_x = defaults.DESK_SCENE_DIMS[0] * voxel / 2.0
    step = speed * interval
    start_y = 2.0
    ahead = defaults.DESK_SCENE_DIMS[1] * voxel
    depth_y = start_y + past * step + ahead + step + 2.0
    ny = int(np.ceil(depth_y / voxel / 4.0) * 4)
    spec = SceneSpec(
        seed=seed,
        layout=layout,
        dims=(defaults.DESK_SCENE_DIMS[0], ny, defaults.DESK_SCENE_DIMS[2]),
        voxel_size=voxel,
        origin=(-half_x, 0.0, -defaults.GROUND_CLEARANCE),
        box_count=box_count,
    )
    grid = build_scene(spec)
    traj = make_trajectory(
        TrajectorySpec(
            kind="straight",
            speed=speed,
            frames=past + 2,
            frame_interval=interval,
            start=canonical_camera_pose((0.0, start_y, 0.0)),
        )
    )
    bundles = [
        render_frame(grid, pose, k, idx)
        for pose, idx in zip(traj.poses, traj.frame_indices)
    ]
    past_current = bundles[: past + 1]
    gt_future = bundles[past + 1]
    current = past_current[-1]

    history = PoseSequence(
        traj.poses[: past + 1], traj.frame_indices[: past + 1], interval
    )
    predicted_pose = forecast_next(history, window)
    mse = pose_mse(predicted_pose, traj.poses[past + 1])
    pseudo = compose_pseudo_future(
        past_current, predicted_pose, k, refiner=REFINERS[refiner_name],
        frame_interval=interval,
    )
    future_frame = pseudo if future_mode == "pseudo" else gt_future

    rng = SceneRange(
        (-half_x, 0.0, -defaults.GROUND_CLEARANCE),
        tuple(d * voxel for d in defaults.DESK_SCENE_DIMS),
        voxel,
    )
    gt_range = resample_to_range(grid, rng, current.pose)

    # every set is anchored at the current camera and a frame's blocks and
    # channels do not depend on the other frames, so the smaller sets are
    # frame slices of the full one
    fused_all, bv_all = fuse_pipeline(
        past_current + [future_frame], rng, k, theta_d, extract_features, past
    )
    sets = (
        ("current", past, past + 1),
        ("past_current", 0, past + 1),
        ("past_current_future", 0, past + 2),
    )
    summary = []
    outputs = {}
    for name, start, stop in sets:
        fused, bv = fused_all.frames(start, stop), bv_all.frames(start, stop)
        cov = coverage(bv)
        completed = majority_complete(bv, gt_range)
        cm = confusion(completed, gt_range, spec.num_classes)
        summary.append(
            {
                "set": name,
                "union_blocks": cov.union,
                "iou": iou_geometry(cm).value,
                "miou": miou_semantic(cm).value,
            }
        )
        outputs[name] = (fused, bv, completed, cov)
    return {
        "spec": spec,
        "grid": grid,
        "bundles": bundles,
        "pseudo": pseudo,
        "predicted_pose": predicted_pose,
        "pose_mse": mse,
        "gt_range": gt_range,
        "range": rng,
        "sets": outputs,
        "summary": summary,
    }


def cmd_demo(args) -> int:
    s = Settings(args)
    out_dir = Path(args.out_dir)
    result = demo_pipeline(
        seed=s.get("seed", 0, int),
        layout=s.get("layout", "corridor", str),
        past=s.get("past", defaults.PAST_FRAMES, int),
        interval=s.get("interval", defaults.FRAME_INTERVAL, int),
        speed=s.get("speed", defaults.DEMO_SPEED, float),
        theta_d=s.get("theta-d", defaults.THETA_D, float),
        box_count=s.get("box-count", defaults.DEMO_BOX_COUNT, int),
        refiner_name=s.get("refiner", "fill", str),
        future_mode=s.get("future", "pseudo", str),
        window=s.get("window", None, int),
    )
    dataio.write_grid(out_dir / "scene.vxg", result["grid"])
    dataio.write_grid(out_dir / "gt_range.vxg", result["gt_range"])
    dataio.write_frame_sequence(out_dir / "frames", result["bundles"])
    dataio.write_image(out_dir / "pseudo_future.ppm", result["pseudo"].image)
    dataio.write_depth(out_dir / "pseudo_future.dpt", result["pseudo"].depth)
    dataio.write_poses(out_dir / "predicted_pose.txt", [result["predicted_pose"]])
    for name, (fused, bv, completed, cov) in result["sets"].items():
        dataio.write_fused(out_dir / f"fused_{name}.fvx", fused)
        dataio.write_blockvis(out_dir / f"blockvis_{name}.bvx", bv)
        dataio.write_grid(out_dir / f"completed_{name}.vxg", completed)
        rows = [(i, n) for i, n in zip(cov.frame_indices, cov.per_frame)]
        rows.append(("union", cov.union))
        _write_csv(out_dir / f"coverage_{name}.csv", ("frame", "visible_blocks"), rows)
    _write_csv(
        out_dir / "summary.csv",
        ("set", "union_blocks", "iou", "miou"),
        [
            (row["set"], row["union_blocks"], float(row["iou"]), float(row["miou"]))
            for row in result["summary"]
        ],
    )
    _write_csv(out_dir / "pose_error.csv", ("metric", "value"), [("pose_mse", float(result["pose_mse"]))])
    for row in result["summary"]:
        print(f"{row['set']}: union_blocks={row['union_blocks']} iou={row['iou']:.4f} miou={row['miou']:.4f}")
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenecast",
        description="Geometric spatiotemporal scene-completion toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags win")

    p = sub.add_parser("synth", help="generate a synthetic scene and frames")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--layout", choices=("corridor", "intersection", "random_boxes", "empty"))
    p.add_argument("--num-classes", type=int)
    p.add_argument("--dims", help="scene dims in voxels: X,Y,Z")
    p.add_argument("--voxel-size", type=float)
    p.add_argument("--box-count", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--interval", type=int)
    p.add_argument("--kind", choices=("straight", "constant_turn", "piecewise"))
    p.add_argument("--speed", type=float)
    p.add_argument("--turn-rate", type=float)
    p.add_argument("--start-y", type=float)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("forecast", help="extrapolate the next pose from a pose file")
    common(p)
    p.add_argument("--poses", required=True)
    p.add_argument("--interval", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--gt", action="store_true", help="treat the last line as ground truth")
    p.add_argument("--out", help="write the predicted pose to this file")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("warp", help="splat frames to a target pose")
    common(p)
    p.add_argument("--frames-dir", required=True)
    p.add_argument("--interval", type=int)
    p.add_argument("--refiner", choices=tuple(REFINERS))
    p.add_argument("--target-index", type=int, help="warp to this frame's pose; default: forecast")
    p.add_argument("--window", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_warp)

    p = sub.add_parser("fuse", help="visibility fusion over a frame sequence")
    common(p)
    p.add_argument("--frames-dir", required=True)
    p.add_argument("--interval", type=int)
    p.add_argument("--theta-d", type=float)
    p.add_argument("--past", type=int)
    p.add_argument("--future", choices=("none", "pseudo", "gt"))
    p.add_argument("--refiner", choices=tuple(REFINERS))
    p.add_argument("--window", type=int)
    p.add_argument("--range-voxel-size", type=float)
    p.add_argument("--range-dims", help="fusion range dims in voxels: X,Y,Z")
    p.add_argument("--range-origin", help="fusion range origin: x,y,z")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="IoU / mIoU between two grid files")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--num-classes", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference gradient report")
    common(p)
    p.add_argument("--volumes", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("demo", help="full pipeline with the ablation-style coverage table")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--layout", choices=("corridor", "intersection", "random_boxes"))
    p.add_argument("--past", type=int)
    p.add_argument("--interval", type=int)
    p.add_argument("--speed", type=float)
    p.add_argument("--theta-d", type=float)
    p.add_argument("--box-count", type=int)
    p.add_argument("--refiner", choices=tuple(REFINERS))
    p.add_argument("--future", choices=("pseudo", "gt"))
    p.add_argument("--window", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line machine-parsable failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
