"""Synthetic ground-truth factory: scenes, trajectories, exact renders.

Scenes are labeled voxel grids in a level world frame (x right, y forward,
z up); cameras look down the +y axis through `geom.LEVEL_CAMERA_ROTATION`.
Depth is rendered by integer grid traversal (Amanatides-Woo stepping) and
measured along the camera z-axis to the first occupied voxel's entry face,
so rendered depths are exactly the quantity the visibility band compares.
Everything is bit-reproducible from (seed, spec).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import defaults
from .forecast import PoseSequence
from .fusion import SceneGrid, SceneRange
from .geom import (LEVEL_CAMERA_ROTATION, CameraIntrinsics, FrameBundle, Se3Pose, compose,
                   rigid_transform, se3_exp, tile_reduce)

LAYOUTS = ("corridor", "intersection", "random_boxes", "empty")
TRAJECTORY_KINDS = ("straight", "constant_turn", "piecewise")

# image brightness falls off as 1 / (1 + SHADE_FALLOFF * depth)
SHADE_FALLOFF = 0.05

# fixed per-class colors, chosen with well-separated chromatic directions so
# classes survive shading and 8-bit quantization
PALETTE = np.array(
    [
        (0.00, 0.00, 0.00),  # 0: empty, never drawn
        (1.00, 0.10, 0.10),  # 1: ground
        (0.10, 1.00, 0.10),  # 2: walls
        (0.15, 0.15, 1.00),
        (1.00, 1.00, 0.10),
        (1.00, 0.10, 1.00),
        (0.10, 1.00, 1.00),
        (1.00, 0.55, 0.10),
        (0.55, 0.10, 1.00),
        (0.10, 0.55, 1.00),
        (0.55, 1.00, 0.10),
        (1.00, 0.10, 0.55),
        (0.10, 1.00, 0.55),
        (0.85, 0.85, 0.85),
        (0.75, 0.50, 0.30),
        (0.40, 0.75, 0.75),
    ]
)

def canonical_camera_pose(position=(0.0, 0.0, 0.0)) -> Se3Pose:
    """Level camera at `position` looking down the world +y axis."""
    return Se3Pose(LEVEL_CAMERA_ROTATION, np.asarray(position, dtype=np.float64))


def desk_intrinsics(
    width: int = defaults.DESK_IMAGE_WIDTH, height: int = defaults.DESK_IMAGE_HEIGHT
) -> CameraIntrinsics:
    """Desk-scale camera: DESK_FOCAL pixels, principal point at the image center.

    The default 128x96 image has a 90-degree horizontal FOV.
    """
    f = defaults.DESK_FOCAL
    return CameraIntrinsics(f, f, (width - 1) / 2.0, (height - 1) / 2.0, width, height)


@dataclass(frozen=True)
class SceneSpec:
    """Deterministic recipe for a labeled scene; same spec, same bits."""

    seed: int = 0
    layout: str = "corridor"
    num_classes: int = 8
    dims: Tuple[int, int, int] = defaults.DESK_SCENE_DIMS
    voxel_size: float = defaults.DESK_VOXEL_SIZE
    origin: Optional[Tuple[float, float, float]] = None
    box_count: int = 20

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (2 <= self.num_classes <= len(PALETTE)):
            raise ValueError(f"num_classes must be in [2, {len(PALETTE)}], got {self.num_classes}")
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.box_count < 0:
            raise ValueError(f"box_count must be >= 0, got {self.box_count}")
        self.scene_range()  # raises on a bad voxel size or origin

    def scene_range(self) -> SceneRange:
        ex = tuple(d * self.voxel_size for d in self.dims)
        if self.origin is None:
            return SceneRange.ahead_of_camera(ex, self.voxel_size)
        return SceneRange(self.origin, ex, self.voxel_size)


@dataclass(frozen=True)
class TrajectorySpec:
    """Camera path: per-frame speed/turn rate, sampled every frame_interval."""

    kind: str = "straight"
    speed: float = 1.0            # meters per frame, along the camera forward axis
    turn_rate: float = 0.0        # radians per frame about the camera up axis
    frames: int = 6
    frame_interval: int = defaults.FRAME_INTERVAL
    start: Optional[Se3Pose] = None

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(
                f"kind must be one of {TRAJECTORY_KINDS}, got {self.kind!r}"
            )
        for name in ("speed", "turn_rate"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if self.frame_interval < 1:
            raise ValueError(f"frame_interval must be >= 1, got {self.frame_interval}")


def build_scene(spec: SceneSpec) -> SceneGrid:
    """Construct the labeled scene for a spec: ground, walls, seeded boxes."""
    nx, ny, nz = spec.dims
    labels = np.zeros(spec.dims, dtype=np.uint8)
    if spec.layout == "empty":
        return SceneGrid(spec.scene_range(), labels)

    rng = np.random.default_rng(spec.seed)
    labels[:, :, 0] = 1  # ground layer

    if spec.layout == "corridor":
        labels[0, :, :] = 2
        labels[-1, :, :] = 2
    elif spec.layout == "intersection":
        gap = max(2, ny // 8)
        labels[0, :, :] = 2
        labels[-1, :, :] = 2
        labels[0: nx, 0, :] = 2
        labels[0: nx, -1, :] = 2
        mid_y = ny // 2
        labels[0, mid_y - gap: mid_y + gap, :] = 0
        labels[-1, mid_y - gap: mid_y + gap, :] = 0
        labels[:, mid_y - gap: mid_y + gap, 0] = 1  # keep the ground through the gap
        mid_x = nx // 2
        labels[mid_x - gap: mid_x + gap, 0, :] = 0
        labels[mid_x - gap: mid_x + gap, -1, :] = 0
        labels[mid_x - gap: mid_x + gap, :, 0] = 1

    count = spec.box_count if spec.layout != "random_boxes" else 2 * spec.box_count
    _scatter_boxes(labels, rng, spec, count)
    return SceneGrid(spec.scene_range(), labels)


def _scatter_boxes(labels: np.ndarray, rng, spec: SceneSpec, count: int) -> None:
    """Drop ground-supported labeled boxes left and right of a clear lane."""
    nx, ny, nz = labels.shape
    center = nx // 2
    lane = max(2, int(round(1.6 / spec.voxel_size)))
    lo_max = center - lane
    hi_min = center + lane
    for _ in range(count):
        sx = int(rng.integers(2, 6))
        sy = int(rng.integers(2, 6))
        sz = int(rng.integers(2, max(3, min(7, nz))))
        side = int(rng.integers(0, 2))
        if side == 0 and lo_max - sx > 2:
            ix = int(rng.integers(2, lo_max - sx))
        elif hi_min + 1 < nx - 2 - sx:
            ix = int(rng.integers(hi_min, nx - 2 - sx))
        else:
            continue
        iy = int(rng.integers(2, max(3, ny - 2 - sy)))
        cls = 3 + int(rng.integers(0, spec.num_classes - 3)) if spec.num_classes > 3 else 2
        labels[ix: ix + sx, iy: iy + sy, 1: 1 + sz] = cls


def make_trajectory(spec: TrajectorySpec) -> PoseSequence:
    """Generate world-from-camera poses sampled every frame_interval frames.

    Each step advances the camera by a body-frame twist: speed along the
    camera forward (+z) axis, with positive turn_rate yawing left about the
    camera up axis. Constant kinds therefore have exactly constant twist.
    """
    start = spec.start if spec.start is not None else canonical_camera_pose()
    dt = float(spec.frame_interval)
    poses = [start]
    for step in range(spec.frames - 1):
        if spec.kind == "straight":
            turn = 0.0
        elif spec.kind == "constant_turn":
            turn = spec.turn_rate
        else:  # piecewise: alternate straight and turning every 3 steps
            turn = spec.turn_rate if (step // 3) % 2 == 1 else 0.0
        xi = np.array([0.0, -turn * dt, 0.0, 0.0, 0.0, spec.speed * dt])
        poses.append(compose(poses[-1], se3_exp(xi)))
    indices = tuple(i * spec.frame_interval for i in range(spec.frames))
    return PoseSequence(tuple(poses), indices, spec.frame_interval)


# rays cast together; a chunk's per-ray state stays in cache
_RAY_CHUNK = 16384


def _raycast(
    grid: SceneGrid, pose: Se3Pose, k: CameraIntrinsics, d_max: float
) -> Tuple[np.ndarray, np.ndarray]:
    """First-hit depth (camera z) and class per pixel; 0 where no hit.

    The labels are copied into a box padded by one cell of -1 on every
    side, so a ray that leaves the grid reads -1, plus one trailing sentinel
    cell that reads 0, where `_cast` parks retired rays. Pixels are cast in
    chunks of `_RAY_CHUNK`; every ray is independent of the others.
    """
    labels = grid.labels
    h, w = k.height, k.width
    xs = (np.arange(w, dtype=np.float64) - k.cx) / k.fx
    ys = (np.arange(h, dtype=np.float64) - k.cy) / k.fy
    dirs = rigid_transform(pose.rotation, np.zeros(3), xs[None, :], ys[:, None], 1.0)
    d = np.stack([c.ravel() for c in dirs], axis=1)

    pdims = np.asarray(labels.shape, dtype=np.int64) + 2
    size = int(pdims.prod())
    cells = np.zeros(size + 1, dtype=np.int16)
    box = cells[:size].reshape(pdims)
    box[...] = -1
    box[1:-1, 1:-1, 1:-1] = labels

    depth = np.zeros(h * w)
    cls = np.zeros(h * w, dtype=np.uint8)
    for s in range(0, h * w, _RAY_CHUNK):
        c = slice(s, s + _RAY_CHUNK)
        _cast(grid.range, pose.translation, d[c], d_max, cells, pdims, depth[c], cls[c])
    return depth.reshape(h, w), cls.reshape(h, w)


def _cast(rng: SceneRange, o, d, d_max, cells, pdims, depth, cls) -> None:
    """Cast rays from `o` along the rows of `d`, writing each one's first-hit
    depth and class into `depth` and `cls`.

    Amanatides & Woo (1987) stepping: after the slab test that finds where a
    ray enters the grid, all live rays step one cell per iteration. The
    state is per axis and 1-D: the next boundary t, its increment, and the
    signed stride of a step in `cells`. A hit, a ray that read the -1
    border, or one past `d_max` is retired in place: it parks on the
    sentinel cell (the last of `cells`) with its x stride and increment
    zeroed and tx = -inf, so it keeps choosing x and stays put. The arrays
    are compacted when the live rays fall to half of them.
    """
    dims = pdims - 2
    gmin = rng.origin
    gmax = gmin + rng.extents
    vs = rng.voxel_size
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (gmin - o) / d
        t2 = (gmax - o) / d
    tmin_ax = np.minimum(t1, t2)
    tmax_ax = np.maximum(t1, t2)
    zero = d == 0.0
    if zero.any():
        inside = (o >= gmin) & (o <= gmax)
        ins = np.broadcast_to(inside, d.shape)
        tmin_ax = np.where(zero, np.where(ins, -np.inf, np.inf), tmin_ax)
        tmax_ax = np.where(zero, np.where(ins, np.inf, -np.inf), tmax_ax)
    tnear = np.maximum(np.maximum(tmin_ax[:, 0], tmin_ax[:, 1]), tmin_ax[:, 2])
    tfar = np.minimum(np.minimum(tmax_ax[:, 0], tmax_ax[:, 1]), tmax_ax[:, 2])
    t0 = np.maximum(tnear, 1e-9)
    idx = np.flatnonzero((tfar > t0) & (t0 <= d_max))
    if idx.size == 0:
        return

    da = d[idx]
    p0 = o + da * t0[idx][:, None]
    ijk = np.floor((p0 - gmin) / vs).astype(np.int64)
    np.clip(ijk, 0, dims - 1, out=ijk)
    step = np.sign(da).astype(np.int64)
    next_bound = gmin + (ijk + (step > 0)) * vs
    with np.errstate(divide="ignore", invalid="ignore"):
        tmax = (next_bound - o) / da
        tdelta = vs / np.abs(da)
    dzero = da == 0.0
    tmax[dzero] = np.inf
    tdelta[dzero] = np.inf
    tcur = t0[idx]

    sentinel = cells.size - 1
    cur = ((ijk[:, 0] + 1) * pdims[1] + ijk[:, 1] + 1) * pdims[2] + ijk[:, 2] + 1
    sx, sy, sz = (step * [pdims[1] * pdims[2], pdims[2], 1]).T.copy()
    tx, ty, tz = tmax.T.copy()
    # increments negated: `t - (+0.0)` keeps every t as it is, -0.0 included,
    # and `t - (-tdelta)` is `t + tdelta` to the bit
    ndx, ndy, ndz = -tdelta.T.copy()
    live = idx.size
    # no ray crosses more than sum(dims) cells, so a ray still live after
    # this many iterations is a defect that shows as a missing hit, never a hang
    for _ in range(int(dims.sum()) + 1):
        lab = cells.take(cur)
        stop = (lab != 0) | (tcur > d_max)
        if stop.any():
            r = np.flatnonzero(stop)
            hit = r[(lab[r] > 0) & (tcur[r] <= d_max)]
            depth[idx[hit]] = tcur[hit]
            cls[idx[hit]] = lab[hit]
            cur[r] = sentinel
            sx[r] = 0
            tx[r] = -np.inf
            ndx[r] = 0.0
            live -= r.size
            if not live:
                return
            if 2 * live <= cur.size:
                keep = cur != sentinel
                idx, cur, sx, sy, sz = idx[keep], cur[keep], sx[keep], sy[keep], sz[keep]
                tx, ty, tz = tx[keep], ty[keep], tz[keep]
                ndx, ndy, ndz = ndx[keep], ndy[keep], ndz[keep]
        # argmin's first-minimum rule: x if tx <= ty and tx <= tz, else y if
        # ty <= tz (`a > b` on booleans is a and not b), else z; each choice
        # as an all-ones or all-zeros int64 mask
        mx = (tx <= ty) & (tx <= tz)
        kx = np.negative(mx, dtype=np.int64)
        ky = np.negative((ty <= tz) > mx, dtype=np.int64)
        kz = ~(kx | ky)
        # the chosen axis's t, selected bit for bit
        tcur = (
            (tx.view(np.int64) & kx) | (ty.view(np.int64) & ky) | (tz.view(np.int64) & kz)
        ).view(np.float64)
        tx -= (ndx.view(np.int64) & kx).view(np.float64)
        ty -= (ndy.view(np.int64) & ky).view(np.float64)
        tz -= (ndz.view(np.int64) & kz).view(np.float64)
        cur += (sx & kx) | (sy & ky) | (sz & kz)


def render_frame(
    grid: SceneGrid, pose: Se3Pose, k: CameraIntrinsics, frame_index: int = 0
) -> FrameBundle:
    """Render image and depth with one traversal to `defaults.D_MAX` and bundle them."""
    depth, cls = _raycast(grid, pose, k, defaults.D_MAX)
    shade = np.where(cls > 0, 1.0 / (1.0 + SHADE_FALLOFF * depth), 0.0)
    return FrameBundle(PALETTE[cls] * shade[..., None], depth, pose, frame_index)


# image rows per band of extract_features, a multiple of the 4-row tile: a band's
# temporaries, not the whole image's, bound the call's memory
_FEATURE_BAND = 64


def extract_features(image: np.ndarray) -> np.ndarray:
    """Deterministic stride-4 feature stand-in for a learned 2D encoder.

    Channels: 4x4 block means of R, G, B, gray; block means of horizontal and
    vertical Sobel magnitudes of gray; block min and max of gray. For a
    finite image the Sobel values are those of scipy's `ndimage.sobel`, bit
    for bit. The image is processed in bands of _FEATURE_BAND rows, each
    read with one halo row above and below for the Sobel; tile rows reduce
    independently and the Sobel is elementwise, so the bits do not depend on
    the band size.
    """
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected HxWx3 image, got shape {img.shape}")
    h, w = img.shape[:2]
    if h % 4 or w % 4:
        raise ValueError(f"image dims {w}x{h} must be divisible by 4")
    out = np.empty((h // 4, w // 4, 8))
    for y0 in range(0, h, _FEATURE_BAND):
        y1 = min(y0 + _FEATURE_BAND, h)
        # the band's rows and the halo rows next to it that lie inside the image
        top, bottom = max(y0 - 1, 0), min(y1 + 1, h)
        x = np.asarray(img[top:bottom], dtype=np.float64)
        r, g, b = x[:, :, 0], x[:, :, 1], x[:, :, 2]
        # the sum a mean over the 3-long channel axis takes, in its order
        gray = (r + g + b) / 3.0
        rows = slice(y0 - top, y1 - top)
        band = out[y0 // 4:y1 // 4]
        for ch, v in enumerate((r, g, b, gray)):
            band[..., ch] = tile_reduce(np.add, v[rows], 4) / 16.0
        # Sobel over gray padded by its edge row and column (scipy's "reflect") at
        # the image's own edges only, summed in ndimage.sobel's order: the central
        # difference, then 2 * middle + (before + after) across it; each magnitude
        # is reduced to its tile means before the next one is formed
        p = np.pad(gray, ((int(top == y0), int(bottom == y1)), (1, 1)), mode="symmetric")
        d = p[:, 2:] - p[:, :-2]
        band[..., 4] = tile_reduce(np.add, np.abs(d[1:-1] * 2.0 + (d[:-2] + d[2:])), 4) / 16.0
        d = p[2:] - p[:-2]
        band[..., 5] = tile_reduce(np.add, np.abs(d[:, 1:-1] * 2.0 + (d[:, :-2] + d[:, 2:])), 4) / 16.0
        band[..., 6] = tile_reduce(np.minimum, gray[rows], 4)
        band[..., 7] = tile_reduce(np.maximum, gray[rows], 4)
    return out
