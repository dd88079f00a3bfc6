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


# rays entered into the queue together; the live rays are topped up from the
# next chunk whenever they fall to half of it, so the queue's per-ray state
# stays near this size and in cache
_RAY_CHUNK = 8192


def _raycast(
    grid: SceneGrid, poses, k: CameraIntrinsics, d_max: float
) -> Tuple[np.ndarray, np.ndarray]:
    """First-hit depth (camera z) and class per pixel of each pose, as
    (len(poses), H, W) arrays; 0 where no hit.

    The labels are copied once into a box padded by one cell of -1 on every
    side, so a ray that leaves the grid reads -1, plus one trailing sentinel
    cell that reads 0, where `_cast` parks retired rays. Every pose's pixels
    go through one queue, in chunks of `_RAY_CHUNK`; every ray is independent
    of the others, so a frame's bits do not depend on the frames cast with it.
    """
    labels = grid.labels
    h, w = k.height, k.width
    n = h * w
    xs = (np.arange(w, dtype=np.float64) - k.cx) / k.fx
    ys = (np.arange(h, dtype=np.float64) - k.cy) / k.fy

    pdims = np.asarray(labels.shape, dtype=np.int64) + 2
    size = int(pdims.prod())
    cells = np.zeros(size + 1, dtype=np.int16)
    box = cells[:size].reshape(pdims)
    box[...] = -1
    box[1:-1, 1:-1, 1:-1] = labels

    def chunks():
        for f, pose in enumerate(poses):
            dirs = rigid_transform(pose.rotation, np.zeros(3), xs[None, :], ys[:, None], 1.0)
            d = np.stack([c.ravel() for c in dirs])
            for s in range(0, n, _RAY_CHUNK):
                yield f * n + s, pose.translation, d[:, s:s + _RAY_CHUNK]

    depth = np.zeros(len(poses) * n)
    cls = np.zeros(len(poses) * n, dtype=np.uint8)
    _cast(grid.range, chunks(), d_max, cells, pdims, depth, cls)
    # a retired ray wrote its t and its cell's class, 0 for the -1 border: a
    # ray that left the grid or stopped past d_max has no hit
    cls[depth > d_max] = 0
    depth[cls == 0] = 0.0
    return depth.reshape(-1, h, w), cls.reshape(-1, h, w)


def _enter(rng: SceneRange, base, o, d, d_max, pdims):
    """Set up the rays from `o` along the columns of the 3xN `d`, pixels
    `base` onward.

    The slab test finds where each ray enters the grid; a ray that misses it
    or enters past `d_max` is dropped. Returns the rest's flat pixel, entry
    t and entry cell in the padded box, then their per-axis state: x and y
    strides less the z stride, the z stride, the next boundary t per axis
    and its negated increment as int64 bits.
    """
    dims = (pdims - 2)[:, None]
    gmin = rng.origin[:, None]
    gmax = gmin + rng.extents[:, None]
    o = o[:, None]
    vs = rng.voxel_size
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (gmin - o) / d
        t2 = (gmax - o) / d
    tmin_ax = np.minimum(t1, t2)
    tmax_ax = np.maximum(t1, t2)
    zero = d == 0.0
    if zero.any():
        ins = np.broadcast_to((o >= gmin) & (o <= gmax), d.shape)
        tmin_ax = np.where(zero, np.where(ins, -np.inf, np.inf), tmin_ax)
        tmax_ax = np.where(zero, np.where(ins, np.inf, -np.inf), tmax_ax)
    tnear = np.maximum(np.maximum(tmin_ax[0], tmin_ax[1]), tmin_ax[2])
    tfar = np.minimum(np.minimum(tmax_ax[0], tmax_ax[1]), tmax_ax[2])
    t0 = np.maximum(tnear, 1e-9)
    pix = np.flatnonzero((tfar > t0) & (t0 <= d_max))
    d, t0 = d.take(pix, axis=1), t0.take(pix)

    ijk = np.floor((o + d * t0 - gmin) / vs).astype(np.int64)
    np.clip(ijk, 0, dims - 1, out=ijk)
    step = np.sign(d).astype(np.int64)
    next_bound = gmin + (ijk + (step > 0)) * vs
    with np.errstate(divide="ignore", invalid="ignore"):
        tmax = (next_bound - o) / d
        tdelta = vs / np.abs(d)
    dzero = d == 0.0
    tmax[dzero] = np.inf
    tdelta[dzero] = np.inf
    cur = ((ijk[0] + 1) * pdims[1] + ijk[1] + 1) * pdims[2] + ijk[2] + 1
    sz = step[2]
    ax = step[0] * (pdims[1] * pdims[2]) - sz
    ay = step[1] * pdims[2] - sz
    return (pix + base, t0, cur, ax, ay, sz, *tmax, *(-tdelta).view(np.int64))


def _cast(rng: SceneRange, chunks, d_max, cells, pdims, depth, cls) -> None:
    """Cast the rays of `chunks` through one queue, writing each one's t and
    the class of the cell it stops in into `depth` and `cls` at its pixel.

    `chunks` yields (first pixel, origin, 3xN directions). Amanatides &
    Woo (1987) stepping: all live rays step one cell per iteration, with
    per-axis 1-D state (see `_enter`). A ray that reads a nonzero cell is
    retired: it writes, and its cell index is parked far past the end of
    `cells`, where a clipped `take` reads the trailing 0 sentinel, so it
    keeps stepping and never stops again. When the live rays fall to half
    of the arrays, the arrays are compacted and topped up from the next
    chunks while the live rays are at most half of `_RAY_CHUNK`; the tail
    of the last rays is paid once per queue. Compaction also drops a ray
    whose next t is past `d_max`, since t only grows and a hit needs
    t <= d_max, and one that has taken as many steps as the grid has cells
    along its three axes, more than any ray crosses: a defect shows as a
    missing hit, never a hang.
    """
    bound = int((pdims - 2).sum())
    park = np.int64(1) << 62
    expire = pix = cur = ax = ay = sz = ndx = ndy = ndz = np.zeros(0, dtype=np.int64)
    tx = ty = tz = np.zeros(0)
    pending = iter(chunks)
    it = 0
    while True:
        keep = np.flatnonzero(
            (cur < cells.size) & (np.minimum(np.minimum(tx, ty), tz) <= d_max) & (expire > it)
        )
        parts = [[a.take(keep)] for a in (expire, pix, cur, ax, ay, sz, tx, ty, tz, ndx, ndy, ndz)]
        live = keep.size
        while 2 * live <= _RAY_CHUNK:
            chunk = next(pending, None)
            if chunk is None:
                break
            first, t0, cell, *axes = _enter(rng, *chunk, d_max, pdims)
            # a ray whose entry cell is occupied hits at its entry t
            lab = cells.take(cell)
            hit = np.flatnonzero(lab)
            depth[first[hit]] = t0[hit]
            cls[first[hit]] = lab[hit]
            cell[hit] = park
            for p, a in zip(parts, (np.full(cell.size, it + bound), first, cell, *axes)):
                p.append(a)
            live += cell.size - hit.size
        if not live:
            return
        expire, pix, cur, ax, ay, sz, tx, ty, tz, ndx, ndy, ndz = map(np.concatenate, parts)
        deadline = int(expire.min())
        choice = np.empty((3, cur.size), dtype=bool)
        mx, my, mz = choice
        le = np.empty(cur.size, dtype=bool)
        while 2 * live > cur.size and it < deadline:
            it += 1
            # argmin's first-minimum rule: x if tx <= ty and tx <= tz, else y if
            # ty <= tz (`a > b` on booleans is a and not b), else z; the three
            # choices, rows of one buffer, cast at once to all-ones or all-zeros
            # int64 masks
            np.less_equal(tx, ty, out=le)
            np.less_equal(tx, tz, out=mx)
            mx &= le
            np.less_equal(ty, tz, out=le)
            np.greater(le, mx, out=my)
            np.logical_or(mx, le, out=mz)
            np.logical_not(mz, out=mz)
            kx, ky, kz = np.negative(choice.view(np.int8)).astype(np.int64)
            cur += sz
            cur += ax & kx
            cur += ay & ky
            lab = cells.take(cur, mode="clip")
            r = np.flatnonzero(lab != 0)
            if r.size:
                # the t of the chosen axis, before its increment, bit for bit
                tr = np.where(mx.take(r), tx.take(r), np.where(my.take(r), ty.take(r), tz.take(r)))
                at = pix.take(r)
                depth[at] = tr
                cls[at] = np.maximum(lab.take(r), 0)
                cur[r] = park
                live -= r.size
            # increments negated: `t - (+0.0)` keeps every t as it is, -0.0
            # included, and `t - (-tdelta)` is `t + tdelta` to the bit
            tx -= (ndx & kx).view(np.float64)
            ty -= (ndy & ky).view(np.float64)
            tz -= (ndz & kz).view(np.float64)


def render_frames(grid: SceneGrid, seq: PoseSequence, k: CameraIntrinsics) -> list:
    """Render every pose of `seq` with one traversal to `defaults.D_MAX`, all
    frames' rays through one queue, and bundle each frame; the shades are
    quantized to 8 bits by the `FrameBundle` constructor."""
    depth, cls = _raycast(grid, seq.poses, k, defaults.D_MAX)
    frames = []
    for d, c, pose, idx in zip(depth, cls, seq.poses, seq.frame_indices):
        shade = np.where(c > 0, 1.0 / (1.0 + SHADE_FALLOFF * d), 0.0)
        frames.append(FrameBundle(PALETTE[c] * shade[..., None], d, pose, idx))
    return frames


def render_frame(grid: SceneGrid, pose: Se3Pose, k: CameraIntrinsics) -> FrameBundle:
    """`render_frames` of the one pose, as frame 0."""
    return render_frames(grid, PoseSequence((pose,), (0,), 1), k)[0]


# image rows per band of extract_features, a multiple of the 4-row tile: a band's
# temporaries, not the whole image's, bound the call's memory
_FEATURE_BAND = 64


def extract_features(pixels: np.ndarray) -> np.ndarray:
    """Deterministic stride-4 feature stand-in for a learned 2D encoder.

    Takes an HxWx3 uint8 image, a frame's `pixels`, and reads each value v
    as v / 255.0. Channels: 4x4 block means of R, G, B, gray; block means
    of horizontal and vertical Sobel magnitudes of gray; block min and max
    of gray. The Sobel values are those of scipy's `ndimage.sobel` on
    pixels / 255.0, bit for bit. The image is processed in bands of
    _FEATURE_BAND rows, each read with one halo row above and below for the
    Sobel and divided by 255.0 on its own; tile rows reduce independently
    and the Sobel is elementwise, so the bits do not depend on the band size.
    """
    img = np.asarray(pixels)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError(f"expected an HxWx3 uint8 image, got {img.dtype} of shape {img.shape}")
    h, w = img.shape[:2]
    if h % 4 or w % 4:
        raise ValueError(f"image dims {w}x{h} must be divisible by 4")
    out = np.empty((h // 4, w // 4, 8))
    for y0 in range(0, h, _FEATURE_BAND):
        y1 = min(y0 + _FEATURE_BAND, h)
        # the band's rows and the halo rows next to it that lie inside the image
        top, bottom = max(y0 - 1, 0), min(y1 + 1, h)
        x = img[top:bottom] / 255.0
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
