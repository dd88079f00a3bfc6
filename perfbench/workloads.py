"""The three workloads: inputs, the timed call, and the output checks.

Each workload builds fresh input objects for every iteration (untimed), runs
one closed-loop call (timed), then checks the outputs (untimed). Calls into
scenecast go through module attributes (`fusion.fuse_pipeline`, not a name
imported once), so the tracer in `tracer.py` sees them when it is installed.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import scenes
from scenecast import cli, dataio, defaults, forecast, fusion, geom, metrics, synth, warp

# quality metrics (end to end) and the workloads whose outputs define them
QUALITY = {
    "coverage_gain": ("desk_demo",),
    "iou_pcf": ("desk_demo",),
    "union_blocks": ("desk_demo", "paper_fuse"),
    "hit_frac": ("kitti_warp",),
}


def iteration_seed(seed: int, i: int) -> int:
    return seed * 100003 + i


def kitti_intrinsics() -> geom.CameraIntrinsics:
    return geom.CameraIntrinsics(
        scenes.FX, scenes.FY, scenes.CX, scenes.CY, scenes.WIDTH, scenes.HEIGHT
    )


@dataclass
class Outcome:
    """What the checker found: failed conditions, quality figures, output digest."""

    errors: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    digest: str = ""

    def need(self, ok, what: str) -> None:
        if not ok:
            self.errors.append(what)


def _digest_tree(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


class DeskDemo:
    """`scenecast demo` in process on the standard corridor, default flags."""

    name = "desk_demo"
    QUALITY_ITERATIONS = 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self, i: int):
        out = self.workdir / f"demo_{i}"
        return ["demo", "--seed", str(iteration_seed(self.seed, i)), "--out-dir", str(out)]

    def run(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        return rc, sink.getvalue()

    def check(self, argv, out) -> Outcome:
        rc, text = out
        o = Outcome()
        root = Path(argv[-1])
        try:
            o.need(rc == 0, f"exit code {rc}: {text.strip()[-200:]}")
            if rc != 0:
                return o
            with open(root / "summary.csv", newline="") as f:
                rows = {r["set"]: r for r in csv.DictReader(f)}
            with open(root / "pose_error.csv", newline="") as f:
                pose = {r["metric"]: float(r["value"]) for r in csv.DictReader(f)}
            o.digest = _digest_tree(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        self.check_summary(o, rows, pose)
        return o

    @staticmethod
    def check_summary(o: Outcome, rows: dict, pose: dict) -> None:
        u = {k: int(r["union_blocks"]) for k, r in rows.items()}
        o.need(
            0 < u["current"] <= u["past_current"] <= u["past_current_future"],
            f"union_blocks not ordered current <= past_current <= pcf: {u}",
        )
        for k, r in rows.items():
            for col in ("iou", "miou"):
                o.need(0.0 <= float(r[col]) <= 1.0, f"{k} {col} {r[col]} outside [0, 1]")
        o.need(pose["pose_mse"] == 0.0, f"pose_mse {pose['pose_mse']!r} on a straight path")
        if not o.errors:
            pc, pcf = u["past_current"], u["past_current_future"]
            o.quality = {
                "coverage_gain": (pcf - pc) / pc,
                "iou_pcf": float(rows["past_current_future"]["iou"]),
                "union_blocks": float(pcf),
            }


@dataclass
class FuseInput:
    frames: list
    rng: object
    k: object


class PaperFuse:
    """`fusion.fuse_pipeline` on 6 KITTI-size frames in the 256x256x32 box, plus coverage."""

    name = "paper_fuse"
    QUALITY_ITERATIONS = 6
    PAST = defaults.PAST_FRAMES

    def __init__(self, seed: int, workdir: Path):
        self.scene = scenes.StreetScene(seed)
        self._frames = {}

    def frame(self, j: int):
        if j not in self._frames:
            self._frames[j] = self.scene.render(j)
            if len(self._frames) > scenes.WINDOW_SPAN:
                del self._frames[next(iter(self._frames))]
        return self._frames[j]

    def inputs(self, i: int) -> FuseInput:
        # sliding window from j0: frames j0..j0+PAST are past+current, j0+PAST+1 the future
        j0 = self.scene.window_start(i)
        frames = []
        for j in range(j0, j0 + self.PAST + 2):
            depth, image = self.frame(j)
            frames.append(
                warp.FrameBundle(
                    image / 255.0,
                    depth.astype(np.float64),
                    geom.Se3Pose(scenes.CANONICAL_ROTATION, self.scene.camera_position(j)),
                    j * scenes.FRAME_INTERVAL,
                )
            )
        return FuseInput(frames, fusion.SceneRange.default(), kitti_intrinsics())

    def run(self, inp: FuseInput):
        fused, bv = fusion.fuse_pipeline(
            inp.frames, inp.rng, inp.k, defaults.THETA_D, synth.extract_features, self.PAST
        )
        return fused, bv, metrics.coverage(bv)

    def check(self, inp: FuseInput, out) -> Outcome:
        fused, bv, cov = out
        o = Outcome()
        vis = np.asarray(bv.visible)
        nf = len(inp.frames)
        o.need(vis.shape == (nf, 64, 64, 8), f"block visibility shape {vis.shape}")
        feats = fused.features
        c = fused.channels_per_frame
        o.need(feats.shape == (64, 64, 8, nf * c), f"fused shape {feats.shape}")
        if o.errors:
            return o
        per_frame = vis.reshape(nf, -1).sum(axis=1)
        union = int(vis.any(axis=0).sum())
        o.need(tuple(cov.per_frame) == tuple(int(n) for n in per_frame), "coverage per-frame counts")
        o.need(cov.union == union, f"coverage union {cov.union} != {union}")
        o.need(cov.union >= max(cov.per_frame), f"union {cov.union} < a per-frame count {cov.per_frame}")
        o.need(min(cov.per_frame) >= 1, f"a frame sees no block: {cov.per_frame}")
        for f in range(nf):
            hidden = feats[~vis[f], f * c:(f + 1) * c]
            o.need(not np.any(hidden), f"frame {f}: invisible block with nonzero features")
        o.digest = _digest_arrays(vis, bv.proj_uv_d, feats)
        if not o.errors:
            o.quality = {"union_blocks": float(union)}
        return o


@dataclass
class WarpInput:
    frames_dir: Path
    out_dir: Path
    k: object
    next_pose: np.ndarray


class KittiWarp:
    """Load 5 KITTI-size frames, forecast, splat to the forecast pose with the fill refiner, write."""

    name = "kitti_warp"
    QUALITY_ITERATIONS = 40
    SOURCES = 5

    def __init__(self, seed: int, workdir: Path):
        self.scene = scenes.StreetScene(seed)
        self.workdir = workdir
        self._files = {}

    def files(self, j: int):
        if j not in self._files:
            depth, image = self.scene.render(j)
            self._files[j] = (scenes.ppm_bytes(image), scenes.dpt_bytes(depth))
            if len(self._files) > scenes.WINDOW_SPAN:
                del self._files[next(iter(self._files))]
        return self._files[j]

    def inputs(self, i: int) -> WarpInput:
        d = self.workdir / f"warp_{i}"
        d.mkdir(parents=True)
        step = scenes.FRAME_INTERVAL
        lines = [scenes.pose_line(np.hstack([np.eye(3), np.zeros((3, 1))]))] * ((self.SOURCES - 1) * step + 1)
        j0 = self.scene.window_start(i)
        for n in range(self.SOURCES):
            ppm, dpt = self.files(j0 + n)
            (d / f"{n * step:06d}.ppm").write_bytes(ppm)
            (d / f"{n * step:06d}.dpt").write_bytes(dpt)
            lines[n * step] = scenes.pose_line(self.scene.pose34(j0 + n))
        (d / "poses.txt").write_text("".join(line + "\n" for line in lines))
        return WarpInput(d, self.workdir / f"warp_{i}_out", kitti_intrinsics(), self.scene.pose34(j0 + self.SOURCES))

    def run(self, inp: WarpInput):
        step = scenes.FRAME_INTERVAL
        frames = dataio.load_frame_sequence(inp.frames_dir, step)
        seq = forecast.PoseSequence(
            tuple(f.pose for f in frames), tuple(f.frame_index for f in frames), step
        )
        pred = forecast.forecast_next(seq)
        splats = []

        def refiner(result):
            splats.append(result)
            return warp.fill_refiner(result)

        pseudo = warp.compose_pseudo_future(frames, pred, inp.k, refiner=refiner, frame_interval=step)
        dataio.write_image(inp.out_dir / "warped.ppm", pseudo.image)
        dataio.write_depth(inp.out_dir / "warped.dpt", pseudo.depth)
        return pred, splats[0], pseudo

    def check(self, inp: WarpInput, out) -> Outcome:
        pred, splat, pseudo = out
        o = Outcome()
        try:
            o.digest = _digest_tree(inp.out_dir)
        finally:
            shutil.rmtree(inp.frames_dir, ignore_errors=True)
            shutil.rmtree(inp.out_dir, ignore_errors=True)
        self.check_warp(o, pred.matrix34(), inp.next_pose, splat, pseudo.depth)
        return o

    @staticmethod
    def check_warp(o: Outcome, pred34, next34, splat, depth) -> None:
        o.need(np.array_equal(pred34, next34), "forecast pose differs from the generator's next pose")
        hit = splat.hit_mask
        o.need(np.all(splat.depth[hit] > 0.0), "a hit pixel has depth <= 0")
        o.need(not hit.any() or np.all(depth > 0.0), "fill refiner left a hole")
        if not o.errors:
            o.quality = {"hit_frac": float(hit.mean())}


WORKLOADS = {w.name: w for w in (DeskDemo, PaperFuse, KittiWarp)}
