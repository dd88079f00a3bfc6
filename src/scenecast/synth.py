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
from scipy import ndimage

from . import defaults
from .forecast import PoseSequence
from .fusion import SceneGrid, SceneRange
from .geom import LEVEL_CAMERA_ROTATION, CameraIntrinsics, Se3Pose, compose, se3_exp
from .warp import FrameBundle

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
        if not (2 <= self.num_classes <= len(PALETTE)):
            raise ValueError(f"num_classes must be in [2, {len(PALETTE)}]")
        if any(d <= 0 for d in self.dims):
            raise ValueError("dims must be positive")

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
            raise ValueError("need at least one frame")
        if self.frame_interval < 1:
            raise ValueError("frame_interval must be >= 1")


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


def _raycast(
    grid: SceneGrid, pose: Se3Pose, k: CameraIntrinsics, d_max: float
) -> Tuple[np.ndarray, np.ndarray]:
    """First-hit depth (camera z) and class per pixel; 0 where no hit."""
    labels = grid.labels
    dims = np.asarray(labels.shape, dtype=np.int64)
    gmin = grid.range.origin
    gmax = gmin + grid.range.extents
    vs = grid.range.voxel_size
    h, w = k.height, k.width
    n = h * w

    xs = (np.arange(w, dtype=np.float64) - k.cx) / k.fx
    ys = (np.arange(h, dtype=np.float64) - k.cy) / k.fy
    dirs = np.empty((h, w, 3))
    dirs[..., 0] = xs[None, :]
    dirs[..., 1] = ys[:, None]
    dirs[..., 2] = 1.0
    d = dirs.reshape(-1, 3) @ pose.rotation.T
    o = pose.translation

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
    tnear = tmin_ax.max(axis=1)
    tfar = tmax_ax.min(axis=1)
    t0 = np.maximum(tnear, 1e-9)
    alive = (tfar > t0) & (t0 <= d_max)

    out_t = np.zeros(n)
    out_c = np.zeros(n, dtype=np.uint8)
    idx = np.flatnonzero(alive)
    if idx.size == 0:
        return out_t.reshape(h, w), out_c.reshape(h, w)

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

    while idx.size:
        lab = labels[ijk[:, 0], ijk[:, 1], ijk[:, 2]]
        hit = lab > 0
        if hit.any():
            out_t[idx[hit]] = tcur[hit]
            out_c[idx[hit]] = lab[hit]
            keep = ~hit
            idx, ijk, step = idx[keep], ijk[keep], step[keep]
            tmax, tdelta, tcur = tmax[keep], tdelta[keep], tcur[keep]
            if not idx.size:
                break
        r = np.arange(idx.size)
        ax = np.argmin(tmax, axis=1)
        tcur = tmax[r, ax]
        ijk[r, ax] += step[r, ax]
        tmax[r, ax] += tdelta[r, ax]
        gone = (ijk[r, ax] < 0) | (ijk[r, ax] >= dims[ax]) | (tcur > d_max)
        if gone.any():
            keep = ~gone
            idx, ijk, step = idx[keep], ijk[keep], step[keep]
            tmax, tdelta, tcur = tmax[keep], tdelta[keep], tcur[keep]
    return out_t.reshape(h, w), out_c.reshape(h, w)


def render_frame(
    grid: SceneGrid,
    pose: Se3Pose,
    k: CameraIntrinsics,
    frame_index: int = 0,
    d_max: float = defaults.D_MAX,
) -> FrameBundle:
    """Render image and depth with a single traversal and bundle them."""
    depth, cls = _raycast(grid, pose, k, d_max)
    shade = np.where(cls > 0, 1.0 / (1.0 + SHADE_FALLOFF * depth), 0.0)
    return FrameBundle(PALETTE[cls] * shade[..., None], depth, pose, frame_index)


def extract_features(image: np.ndarray) -> np.ndarray:
    """Deterministic stride-4 feature stand-in for a learned 2D encoder.

    Channels: 4x4 block means of R, G, B, gray; block means of horizontal and
    vertical Sobel magnitudes of gray; block min and max of gray.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected HxWx3 image, got shape {img.shape}")
    h, w = img.shape[:2]
    if h % 4 or w % 4:
        raise ValueError(f"image dims {w}x{h} must be divisible by 4")
    r, g, b = img[:, :, 0], img[:, :, 1], img[:, :, 2]
    # the sum a mean over the 3-long channel axis takes, in its order
    gray = (r + g + b) / 3.0
    sob_x = np.abs(ndimage.sobel(gray, axis=1))
    sob_y = np.abs(ndimage.sobel(gray, axis=0))

    def blocks(a: np.ndarray) -> np.ndarray:
        return a.reshape(h // 4, 4, w // 4, 4)

    def tree(op, a: np.ndarray) -> np.ndarray:
        """op over each 4x4 block, as a pairwise tree over rows, then columns."""
        a = blocks(a)
        rows = op(op(a[:, 0], a[:, 1]), op(a[:, 2], a[:, 3]))
        return op(op(rows[..., 0], rows[..., 1]), op(rows[..., 2], rows[..., 3]))

    return np.stack(
        [
            blocks(r).mean(axis=(1, 3)),
            blocks(g).mean(axis=(1, 3)),
            blocks(b).mean(axis=(1, 3)),
            blocks(gray).mean(axis=(1, 3)),
            blocks(sob_x).mean(axis=(1, 3)),
            blocks(sob_y).mean(axis=(1, 3)),
            tree(np.minimum, gray),
            tree(np.maximum, gray),
        ],
        axis=-1,
    )
