"""Command-line entry point: synth, forecast, warp, fuse, eval, grad-check, demo.

Every subcommand validates its inputs, writes output files atomically, and
exits 0 on success or 1 with a single machine-parsable `error: ...` line on
stderr. Given identical flags and seeds, output files are byte-identical
across runs. An optional `--config` file of `key=value` lines supplies
defaults: each key is one of the subcommand's long option names and its
value passes that option's own type and choice checks. Flags always win.
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
from .fusion import SceneRange, check_theta_d, fuse_pipeline, resample_to_range
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
    render_frames,
)
from .warp import (
    compose_pseudo_future,
    fill_refiner,
    forward_splat,
    identity_refiner,
)

REFINERS = {"identity": identity_refiner, "fill": fill_refiner}


def _number_list(cast):
    """Parser type for an x,y,z triple of `cast` values, as a tuple."""

    def parse(text: str):
        try:
            values = tuple(cast(x) for x in text.split(","))
        except ValueError:
            values = ()
        if len(values) != 3:
            raise argparse.ArgumentTypeError(
                f"expected 3 comma-separated {cast.__name__} values, got {text!r}"
            )
        return values

    return parse


def _config_value(action: argparse.Action, text: str, where: str):
    """One config value, converted and checked as the option's flag would be."""
    try:
        value = action.type(text) if action.type else text
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{where}: {exc}") from None
    except ValueError:
        raise ValueError(f"{where}: invalid {action.type.__name__} value {text!r}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise ValueError(f"{where}: invalid choice {text!r} (choose from {choices})")
    return value


def _read_config(parser: argparse.ArgumentParser, path: str) -> dict:
    """Option defaults by dest from a key=value file, checked against the parser.

    The keys are the parser's valued long options; switches such as
    `forecast --gt` are flags only. Unknown keys and bad values raise with
    the file, line and key named, and a byte that is not UTF-8 with the
    file, line and byte offset.
    """
    # argparse has no public accessor for a parser's options
    options = {
        a.option_strings[-1][2:]: a
        for a in parser._actions
        if a.option_strings and a.nargs != 0 and a.dest != "config"
    }
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: invalid UTF-8 byte at offset {exc.start}") from None
    values = {}
    for lineno, line in enumerate(text.split("\n"), start=1):  # as the UTF-8 branch counts
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {s!r}")
        key, text = (part.strip() for part in s.split("=", 1))
        if key not in options:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r} (valid keys: {', '.join(sorted(options))})"
            )
        values[options[key].dest] = _config_value(options[key], text, f"{path}:{lineno}: {key}")
    return values


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    dataio.atomic_write_text(path, buf.getvalue())


def _load_frames(frames_dir, interval: int):
    """A frame tree and the desk camera for its image size."""
    frames = dataio.load_frame_sequence(frames_dir, interval)
    h, w = frames[0].shape
    return frames, desk_intrinsics(w, h)


def _check_past(past: int, forecast: bool) -> None:
    """Reject a `past` that leaves no frame, or no step to forecast the next
    pose from when `forecast`, before any frame is rendered or loaded."""
    lowest = 1 if forecast else 0
    if past < lowest:
        reason = " to forecast a pose" if forecast else ""
        raise ValueError(f"past must be >= {lowest}{reason}, got {past}")


def _check_window(window) -> None:
    """Reject a forecast window below 1 before any frame is rendered or loaded."""
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")


def _forecast(frames, window, interval):
    """The pose one `interval` after the last of `frames`, forecast from theirs."""
    seq = PoseSequence(
        tuple(f.pose for f in frames), tuple(f.frame_index for f in frames), interval
    )
    return forecast_next(seq, window)


def _write_fusion(out_dir, suffix, fused, bv, cov) -> None:
    """fused{suffix}.fvx, blockvis{suffix}.bvx and the per-frame visible-block
    counts plus their union as coverage{suffix}.csv."""
    dataio.write_fused(out_dir / f"fused{suffix}.fvx", fused)
    dataio.write_blockvis(out_dir / f"blockvis{suffix}.bvx", bv)
    rows = list(zip(cov.frame_indices, cov.per_frame)) + [("union", cov.union)]
    _write_csv(out_dir / f"coverage{suffix}.csv", ("frame", "visible_blocks"), rows)


# ----------------------------------------------------------------- subcommands

def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    spec = SceneSpec(
        seed=args.seed,
        layout=args.layout,
        num_classes=args.num_classes,
        dims=args.dims,
        voxel_size=args.voxel_size,
        origin=args.origin,
        box_count=args.box_count,
    )
    traj = TrajectorySpec(
        kind=args.kind,
        speed=args.speed,
        turn_rate=args.turn_rate,
        frames=args.frames,
        frame_interval=args.interval,
        start=canonical_camera_pose((0.0, args.start_y, 0.0)),
    )
    grid = build_scene(spec)
    k = desk_intrinsics()
    bundles = render_frames(grid, make_trajectory(traj), k)
    dataio.write_grid(out_dir / "scene.vxg", grid)
    dataio.write_frame_sequence(out_dir, bundles)
    print(f"wrote scene and {len(bundles)} frames to {out_dir}")
    return 0


def cmd_forecast(args) -> int:
    interval = args.interval
    if interval < 1:
        raise ValueError(f"frame_interval must be >= 1, got {interval}")
    _check_window(args.window)
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
    predicted = forecast_next(seq, args.window)
    print(dataio.format_pose_line(predicted))
    if gt is not None:
        print(f"pose_mse,{pose_mse(predicted, gt)!r}")
    if args.out:
        dataio.write_poses(args.out, [predicted])
    return 0


def cmd_warp(args) -> int:
    _check_window(args.window)
    out_dir = Path(args.out_dir)
    frames, k = _load_frames(args.frames_dir, args.interval)
    if args.target_index is None:
        sources = frames
        target_pose = _forecast(frames, args.window, args.interval)
        target_index = frames[-1].frame_index + args.interval
    else:
        poses = dataio.read_poses(Path(args.frames_dir) / "poses.txt")
        if not 0 <= args.target_index < len(poses):
            raise ValueError(
                f"target index {args.target_index} outside pose file ({len(poses)} lines)"
            )
        target_pose, target_index = poses[args.target_index], args.target_index
        sources = [f for f in frames if f.frame_index != target_index]
        if not sources:
            raise ValueError(f"no source frame besides target index {target_index}")
    if len(sources) > 255:
        # source_index.pgm is 8-bit and 255 means "no source"
        raise ValueError(f"warp takes at most 255 source frames, got {len(sources)}")
    # depth ties go to the source nearest the target, also inside the sequence
    result = forward_splat(sources, target_pose, k, target_index)
    image, depth = REFINERS[args.refiner](result)
    dataio.write_image(out_dir / "warped.ppm", image)
    dataio.write_depth(out_dir / "warped.dpt", depth)
    dataio.write_pgm(out_dir / "hit_mask.pgm", result.hit_mask)
    src_vis = np.where(result.source_index < 0, 255, result.source_index).astype(np.uint8)
    dataio.write_pgm(out_dir / "source_index.pgm", src_vis)
    dataio.write_poses(out_dir / "target_pose.txt", [target_pose])
    total = result.source_index.size
    _write_csv(
        out_dir / "coverage.csv",
        ("num_sources", "hit_pixels", "total_pixels", "coverage"),
        [(m, hits, total, hits / total) for m, hits in enumerate(result.prefix_hits, start=1)],
    )
    print(f"wrote warp outputs to {out_dir}")
    return 0


def _fusion_range(args) -> SceneRange:
    voxel = args.range_voxel_size
    dims = args.range_dims
    if dims is None:
        paper = voxel == defaults.VOXEL_SIZE
        dims = SceneRange.default().dims if paper else defaults.DESK_SCENE_DIMS
    elif any(d < 1 or d % defaults.BLOCK_EDGE for d in dims):
        raise ValueError(
            f"range_dims must be positive multiples of {defaults.BLOCK_EDGE}, got {dims}"
        )
    extents = tuple(d * voxel for d in dims)
    if args.range_origin is None:
        return SceneRange.ahead_of_camera(extents, voxel)
    return SceneRange(args.range_origin, extents, voxel)


def cmd_fuse(args) -> int:
    check_theta_d(args.theta_d)
    _check_past(args.past, args.future == "pseudo")
    _check_window(args.window)
    out_dir = Path(args.out_dir)
    rng = _fusion_range(args)
    frames, k = _load_frames(args.frames_dir, args.interval)
    gt = args.future == "gt"
    need = args.past + 1 + gt
    if len(frames) < need:
        with_gt = " and future gt" if gt else ""
        raise ValueError(
            f"need {need} frames for past {args.past}{with_gt}, the tree has {len(frames)}"
        )
    # the last loaded frame is current, or with future 'gt' the ground-truth future
    future = []
    if gt:
        frames, future = frames[:-1], frames[-1:]
    past_current = frames[-1 - args.past:]
    if args.future == "pseudo":
        pose = _forecast(past_current, args.window, args.interval)
        future = [compose_pseudo_future(
            past_current, pose, k, REFINERS[args.refiner], frame_interval=args.interval
        )]
    fused, bv = fuse_pipeline(
        past_current + future, rng, k, args.theta_d, extract_features, len(past_current) - 1
    )
    _write_fusion(out_dir, "", fused, bv, coverage(bv))
    print(f"wrote fused volume ({fused.features.shape}) to {out_dir}")
    return 0


def cmd_eval(args) -> int:
    pred = dataio.read_grid(args.pred)
    gt = dataio.read_grid(args.gt)
    counts = confusion(pred, gt, args.num_classes)
    sem = miou_semantic(counts)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("metric", "value"))
    writer.writerow(("iou", repr(iou_geometry(counts))))
    writer.writerow(("miou", repr(sem.value)))
    for ci in range(1, len(counts)):
        v = sem.per_class[ci]
        writer.writerow((f"iou_class_{ci}", "" if np.isnan(v) else repr(float(v))))
    return 0


def cmd_grad_check(args) -> int:
    results = run_gradient_checks(num_volumes=args.volumes, seed=args.seed)
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
    check_theta_d(theta_d)
    _check_past(past, True)
    voxel = defaults.DESK_VOXEL_SIZE
    k = desk_intrinsics()
    start_y = 2.0
    # the trajectory comes first, so a bad speed is named before it sizes the scene
    traj = make_trajectory(
        TrajectorySpec(
            kind="straight",
            speed=speed,
            frames=past + 2,
            frame_interval=interval,
            start=canonical_camera_pose((0.0, start_y, 0.0)),
        )
    )
    # the past and current poses give the future pose before any frame is rendered
    predicted_pose = forecast_next(
        PoseSequence(traj.poses[: past + 1], traj.frame_indices[: past + 1], interval), window
    )
    step = speed * interval
    ahead = defaults.DESK_SCENE_DIMS[1] * voxel
    depth_y = start_y + past * step + ahead + step + 2.0
    ny = int(np.ceil(depth_y / voxel / 4.0) * 4)
    spec = SceneSpec(
        seed=seed,
        layout=layout,
        dims=(defaults.DESK_SCENE_DIMS[0], ny, defaults.DESK_SCENE_DIMS[2]),
        voxel_size=voxel,
        box_count=box_count,
    )
    grid = build_scene(spec)
    bundles = render_frames(grid, traj, k)
    past_current = bundles[: past + 1]
    pseudo = compose_pseudo_future(
        past_current, predicted_pose, k, REFINERS[refiner_name], frame_interval=interval
    )
    # the last rendered frame is the ground-truth future, fused only with future 'gt'
    frames = past_current + [bundles[-1] if future_mode == "gt" else pseudo]
    current = past
    mse = pose_mse(predicted_pose, bundles[-1].pose)

    rng = SceneRange.ahead_of_camera(tuple(d * voxel for d in defaults.DESK_SCENE_DIMS), voxel)
    gt_range = resample_to_range(grid, rng, frames[current].pose)

    # every set is anchored at the current camera and a frame's blocks and
    # channels do not depend on the other frames, so the smaller sets are
    # frame slices of the full one
    fused_all, bv_all = fuse_pipeline(frames, rng, k, theta_d, extract_features, current)
    sets = (
        ("current", current, current + 1),
        ("past_current", 0, current + 1),
        ("past_current_future", 0, len(frames)),
    )
    summary = []
    outputs = {}
    for name, start, stop in sets:
        fused, bv = fused_all.frames(start, stop), bv_all.frames(start, stop)
        cov = coverage(bv)
        completed = majority_complete(bv, gt_range)
        counts = confusion(completed, gt_range, spec.num_classes)
        summary.append(
            {
                "set": name,
                "union_blocks": cov.union,
                "iou": iou_geometry(counts),
                "miou": miou_semantic(counts).value,
            }
        )
        outputs[name] = (fused, bv, completed, cov)
    return {
        "grid": grid,
        "bundles": bundles,
        "pseudo": pseudo,
        "predicted_pose": predicted_pose,
        "pose_mse": mse,
        "gt_range": gt_range,
        "sets": outputs,
        "summary": summary,
    }


def cmd_demo(args) -> int:
    out_dir = Path(args.out_dir)
    result = demo_pipeline(
        seed=args.seed,
        layout=args.layout,
        past=args.past,
        interval=args.interval,
        speed=args.speed,
        theta_d=args.theta_d,
        box_count=args.box_count,
        refiner_name=args.refiner,
        future_mode=args.future,
        window=args.window,
    )
    dataio.write_grid(out_dir / "scene.vxg", result["grid"])
    dataio.write_grid(out_dir / "gt_range.vxg", result["gt_range"])
    dataio.write_frame_sequence(out_dir / "frames", result["bundles"])
    dataio.write_image(out_dir / "pseudo_future.ppm", result["pseudo"].pixels)
    dataio.write_depth(out_dir / "pseudo_future.dpt", result["pseudo"].depth)
    dataio.write_poses(out_dir / "predicted_pose.txt", [result["predicted_pose"]])
    for name, (fused, bv, completed, cov) in result["sets"].items():
        _write_fusion(out_dir, f"_{name}", fused, bv, cov)
        dataio.write_grid(out_dir / f"completed_{name}.vxg", completed)
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
    ints, floats = _number_list(int), _number_list(float)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value file of option defaults; flags win")
        p.set_defaults(func=func, parser=p)
        return p

    p = command("synth", cmd_synth, "generate a synthetic scene and frames")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layout", choices=("corridor", "intersection", "random_boxes", "empty"),
                   default="corridor")
    p.add_argument("--num-classes", type=int, default=8)
    p.add_argument("--dims", type=ints, default=defaults.DESK_SCENE_DIMS,
                   help="scene dims in voxels: X,Y,Z")
    p.add_argument("--voxel-size", type=float, default=defaults.DESK_VOXEL_SIZE)
    p.add_argument("--origin", type=floats,
                   help="scene origin: x,y,z; default: centred in x, floor 2 m below the camera")
    p.add_argument("--box-count", type=int, default=20)
    p.add_argument("--frames", type=int, default=defaults.PAST_FRAMES + 2)
    p.add_argument("--interval", type=int, default=defaults.FRAME_INTERVAL)
    p.add_argument("--kind", choices=("straight", "constant_turn", "piecewise"), default="straight")
    p.add_argument("--speed", type=float, default=1.0)
    p.add_argument("--turn-rate", type=float, default=0.0)
    p.add_argument("--start-y", type=float, default=0.0)
    p.add_argument("--out-dir", required=True)

    p = command("forecast", cmd_forecast, "extrapolate the next pose from a pose file")
    p.add_argument("--poses", required=True)
    p.add_argument("--interval", type=int, default=defaults.FRAME_INTERVAL)
    p.add_argument("--window", type=int)
    p.add_argument("--gt", action="store_true", help="treat the last line as ground truth")
    p.add_argument("--out", help="write the predicted pose to this file")

    p = command("warp", cmd_warp, "splat frames to a target pose")
    p.add_argument("--frames-dir", required=True)
    p.add_argument("--interval", type=int, default=defaults.FRAME_INTERVAL)
    p.add_argument("--refiner", choices=tuple(REFINERS), default="identity")
    p.add_argument("--target-index", type=int, help="warp to this frame's pose; default: forecast")
    p.add_argument("--window", type=int)
    p.add_argument("--out-dir", required=True)

    p = command("fuse", cmd_fuse, "visibility fusion over a frame sequence")
    p.add_argument("--frames-dir", required=True)
    p.add_argument("--interval", type=int, default=defaults.FRAME_INTERVAL)
    p.add_argument("--theta-d", type=float, default=defaults.THETA_D)
    p.add_argument("--past", type=int, default=defaults.PAST_FRAMES)
    p.add_argument("--future", choices=("none", "pseudo", "gt"), default="none")
    p.add_argument("--refiner", choices=tuple(REFINERS), default="identity")
    p.add_argument("--window", type=int)
    p.add_argument("--range-voxel-size", type=float, default=defaults.DESK_VOXEL_SIZE)
    p.add_argument("--range-dims", type=ints, help="fusion range dims in voxels: X,Y,Z")
    p.add_argument("--range-origin", type=floats, help="fusion range origin: x,y,z")
    p.add_argument("--out-dir", required=True)

    p = command("eval", cmd_eval, "IoU / mIoU between two grid files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--num-classes", type=int)

    p = command("grad-check", cmd_grad_check, "finite-difference gradient report")
    p.add_argument("--volumes", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = command("demo", cmd_demo, "full pipeline with the ablation-style coverage table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layout", choices=("corridor", "intersection", "random_boxes"),
                   default="corridor")
    p.add_argument("--past", type=int, default=defaults.PAST_FRAMES)
    p.add_argument("--interval", type=int, default=defaults.FRAME_INTERVAL)
    p.add_argument("--speed", type=float, default=defaults.DEMO_SPEED)
    p.add_argument("--theta-d", type=float, default=defaults.THETA_D)
    p.add_argument("--box-count", type=int, default=defaults.DEMO_BOX_COUNT)
    p.add_argument("--refiner", choices=tuple(REFINERS), default="fill")
    p.add_argument("--future", choices=("pseudo", "gt"), default="pseudo")
    p.add_argument("--window", type=int)
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the subcommand's defaults, so flags still win
            args.parser.set_defaults(**_read_config(args.parser, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:  # one-line machine-parsable failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
