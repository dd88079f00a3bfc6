"""Show that the output checks are not vacuous and that the scene generator is exact.

Each workload's checker first passes on a real output, then gets
deliberately corrupted copies of it; each copy must fail with the named
condition. The closed-form street scene is cross-checked against scenecast's
voxel raycaster on a band of rows of one KITTI-size frame.
"""
from __future__ import annotations

import csv
import dataclasses
import shutil
from pathlib import Path

import numpy as np

import scenes
import workloads
from scenecast import fusion, geom, metrics, synth

WORKDIR = Path(__file__).resolve().parent.parent / ".bench_tmp" / "selftest"


def _report(label: str, outcome: workloads.Outcome, needle: str | None) -> bool:
    if needle is None:
        ok = not outcome.errors
    else:
        ok = any(needle in e for e in outcome.errors)
    print(f"{'PASS' if ok else 'FAIL'} {label}: {outcome.errors or 'no errors'}")
    return ok


def _edit_csv(path: Path, row_key: str, row_val: str, col: str, value: str) -> None:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        if r[row_key] == row_val:
            r[col] = value
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def desk_demo() -> list:
    w = workloads.DeskDemo(0, WORKDIR)
    argv = w.inputs(0)
    out = w.run(argv)
    root = Path(argv[-1])
    edits = (
        ("union_blocks not ordered", "summary.csv", ("set", "past_current_future", "union_blocks", "1")),
        ("outside [0, 1]", "summary.csv", ("set", "current", "iou", "1.5")),
        ("pose_mse", "pose_error.csv", ("metric", "pose_mse", "value", "1e-30")),
    )
    results = []
    for n, (needle, name, edit) in enumerate(edits):
        copy = WORKDIR / f"demo_corrupt_{n}"
        shutil.copytree(root, copy)
        _edit_csv(copy / name, *edit)
        results.append(_report(f"desk_demo rejects {name} with {edit[2]}={edit[3]}",
                               w.check(argv[:-1] + [str(copy)], out), needle))
    copy = WORKDIR / "demo_corrupt_rc"
    shutil.copytree(root, copy)
    results.append(_report("desk_demo rejects exit code 1", w.check(argv[:-1] + [str(copy)], (1, "error: x")), "exit code"))
    results.append(_report("desk_demo accepts the real output", w.check(argv, out), None))
    return results


def paper_fuse() -> list:
    w = workloads.PaperFuse(0, WORKDIR)
    inp = w.inputs(0)
    fused, bv, cov = w.run(inp)
    c = fused.channels_per_frame
    results = [_report("paper_fuse accepts the real output", w.check(inp, (fused, bv, cov)), None)]

    short = metrics.CoverageStats(cov.frame_indices, cov.per_frame, max(cov.per_frame) - 1)
    results.append(_report("paper_fuse rejects a union below a per-frame count",
                           w.check(inp, (fused, bv, short)), "< a per-frame count"))

    blind_vis = bv.visible.copy()
    blind_vis[0] = False
    blind = dataclasses.replace(bv, visible=blind_vis)
    feats = fused.features.copy()
    feats[..., :c] = 0.0
    results.append(_report("paper_fuse rejects a frame that sees no block",
                           w.check(inp, (dataclasses.replace(fused, features=feats), blind, metrics.coverage(blind))),
                           "sees no block"))

    feats = fused.features.copy()
    hidden = np.argwhere(~bv.visible[2])[0]
    feats[tuple(hidden)][2 * c] = 0.5
    results.append(_report("paper_fuse rejects features on an invisible block",
                           w.check(inp, (dataclasses.replace(fused, features=feats), bv, cov)), "invisible block"))
    return results


def kitti_warp() -> list:
    w = workloads.KittiWarp(0, WORKDIR)
    inp = w.inputs(0)
    pred, splat, pseudo = w.run(inp)
    results = [_report("kitti_warp accepts the real output", w.check(inp, (pred, splat, pseudo)), None)]
    check = workloads.KittiWarp.check_warp

    moved = pred.matrix34()
    moved[1, 3] += 1e-9
    o = workloads.Outcome()
    check(o, moved, inp.next_pose, splat, pseudo.depth)
    results.append(_report("kitti_warp rejects a forecast pose off by 1e-9 m", o, "forecast pose"))

    depth = splat.depth.copy()
    depth[tuple(np.argwhere(splat.hit_mask)[0])] = 0.0
    o = workloads.Outcome()
    check(o, pred.matrix34(), inp.next_pose, dataclasses.replace(splat, depth=depth), pseudo.depth)
    results.append(_report("kitti_warp rejects a hit pixel with zero depth", o, "hit pixel"))

    holed = pseudo.depth.copy()
    holed[0, 0] = 0.0
    o = workloads.Outcome()
    check(o, pred.matrix34(), inp.next_pose, splat, holed)
    results.append(_report("kitti_warp rejects a hole left after the fill refiner", o, "left a hole"))
    return results


def long_runs(i=10**6 + scenes.WINDOW_PERIOD - 1) -> list:
    """An iteration far beyond any run's count still gets valid, exact inputs."""
    w = workloads.PaperFuse(0, WORKDIR)
    ys = [f.pose.translation[1] for f in w.inputs(i).frames]
    ok = np.array_equal(np.diff(ys), np.full(len(ys) - 1, scenes.STEP_M))
    print(f"{'PASS' if ok else 'FAIL'} paper_fuse window of iteration {i} steps {scenes.STEP_M} m: {ys}")
    w = workloads.KittiWarp(0, WORKDIR)
    inp = w.inputs(i)
    return [ok, _report(f"kitti_warp iteration {i} passes its checks", w.check(inp, w.run(inp)), None)]


def scene_generator(rows=slice(160, 200)) -> list:
    """Closed-form depth equals the voxel raycaster's on the same boxes, voxelized."""
    scene = scenes.StreetScene(0)
    j = 2
    o = scene.camera_position(j)
    origin = np.array([-40.0, o[1] - 4.0, scenes.GROUND_Z])
    dims = (400, 440, 32)
    labels = np.zeros(dims, dtype=np.uint8)
    for lo, hi, cls in zip(scene.lo, scene.hi, scene.cls):
        i0 = np.maximum(np.ceil((lo - origin) / scenes.VOXEL - 0.5), 0).astype(int)
        i1 = np.minimum(np.floor((hi - origin) / scenes.VOXEL - 0.5) + 1, dims).astype(int)
        if np.all(i1 > i0):
            labels[i0[0]:i1[0], i0[1]:i1[1], i0[2]:i1[2]] = cls
    grid = fusion.SceneGrid(
        fusion.SceneRange(tuple(origin), tuple(np.array(dims) * scenes.VOXEL), scenes.VOXEL), labels
    )
    k = geom.CameraIntrinsics(scenes.FX, scenes.FY, scenes.CX, scenes.CY - rows.start, scenes.WIDTH,
                              rows.stop - rows.start)
    ref = synth.render_frame(grid, geom.Se3Pose(scenes.CANONICAL_ROTATION, o), k)
    depth, image = scene.render(j)
    diff = np.abs(depth[rows].astype(np.float64) - ref.depth)
    ref_q = np.floor(ref.image * 255.0 + 0.5)
    shade = np.abs(image[rows].astype(np.float64) - ref_q).max()
    ok = diff.max() <= 1e-5 and shade <= 1
    print(f"{'PASS' if ok else 'FAIL'} scene generator matches synth.render_frame on rows "
          f"{rows.start}-{rows.stop - 1}: max depth diff {diff.max():.2e} m, max shade diff {shade:.0f}/255")
    return [ok]


def main() -> int:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        results = desk_demo() + paper_fuse() + kitti_warp() + long_runs() + scene_generator()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            WORKDIR.parent.rmdir()
        except OSError:
            pass
    print(f"{sum(results)}/{len(results)} self-checks passed")
    return 0 if all(results) else 1
