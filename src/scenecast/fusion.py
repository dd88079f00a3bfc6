"""Voxel visibility, block downsampling, and multi-frame 3D feature fusion.

Scene grids live in a level "scene frame" anchored at the current camera:
x right, y forward, z up. `geom.LEVEL_CAMERA_ROTATION`, the axes of a level
camera, converts scene axes to camera axes (x right, y down, z forward).
Every voxel center is carried through the relative pose into each temporal
frame, projected, and tested against that frame's depth map: a voxel is
visible when its projected depth lies within theta_d of the depth sampled at
the nearest pixel. Most voxels of a frame cannot pass, so a conservative cull
first tests every 4x4x4 block: a block is dropped when its 8 extreme centers
show that every member lies behind the camera, off the image, or outside the
depth band of its pixel rectangle (read from min/max tables over 8x8-pixel
depth tiles). Only the members of the kept blocks are projected, with the
same elementwise arithmetic, so the result is the exhaustive test's bit for
bit.

Voxels are grouped into 4x4x4 blocks (visible if any member voxel is, with
projection coordinates averaged over the visible members); per-frame 2D
features are then sampled bilinearly at the averaged coordinates and
concatenated frame-major, zero-padded wherever a frame contributed nothing.

Fusion is one pass per frame: visibility returns only the visible voxels
(flat indices and projections), they are reduced to the frame's block slice,
and the four feature-map cells each visible block's sample reads
(`geom.bilinear_corners`, the sampler's own rule) are marked in an
(H/4, W/4) tile mask; the feature extractor, given the frame's uint8 pixels
and that mask, computes those cells only and returns an (H/4, W/4, C) map
with the same C for every frame. Visibility culls and projects in batches
of at most _POINTS points, so a pass's temporaries stay small whatever the
frame. A standard thread pool (`concurrent.futures`, imported on the first
call) maps the passes two at a time; each writes its frame's block slices
in place, and the calling thread samples each returned feature map at its
frame's blocks in frame order, so peak memory is two passes' temporaries
plus the block-level arrays. A frame's blocks and feature channels depend
only on that frame and the anchoring current pose, so the result for a
subset of frames is a frame-axis slice of the result for the whole set
(`BlockVisibility.frames`, `FusedVolume.frames`), and it does not depend on
which thread ran a pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from . import defaults
from .geom import (
    DEPTH_TILE,
    LEVEL_CAMERA_ROTATION,
    CameraIntrinsics,
    FrameBundle,
    Se3Pose,
    bilinear_corners,
    bilinear_sample_many,
    box_footprint,
    compose,
    depth_tiles,
    project_pixels,
    relative_pose,
    rigid_transform,
)


@dataclass(frozen=True)
class SceneRange:
    """Axis-aligned voxel box in the scene frame of the current camera."""

    origin: np.ndarray
    extents: np.ndarray
    voxel_size: float

    def __post_init__(self):
        origin = np.array(self.origin, dtype=np.float64).reshape(3)
        extents = np.array(self.extents, dtype=np.float64).reshape(3)
        if not (np.isfinite(self.voxel_size) and self.voxel_size > 0):
            raise ValueError(f"voxel_size must be finite and positive, got {self.voxel_size}")
        if not np.all(np.isfinite(origin)):
            raise ValueError(f"origin must be finite, got {origin.tolist()}")
        if not np.all(np.isfinite(extents) & (extents > 0)):
            raise ValueError(f"extents must be finite and positive, got {extents.tolist()}")
        n = np.round(extents / self.voxel_size)
        if np.any(np.abs(n * self.voxel_size - extents) > 1e-9):
            raise ValueError(
                f"extents {extents.tolist()} not divisible by voxel_size {self.voxel_size}"
            )
        origin.flags.writeable = False
        extents.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "voxel_size", float(self.voxel_size))

    @classmethod
    def ahead_of_camera(cls, extents, voxel_size: float) -> "SceneRange":
        """Box centred in x, starting at the camera in y, floor GROUND_CLEARANCE below it."""
        return cls((-extents[0] / 2.0, 0.0, -defaults.GROUND_CLEARANCE), extents, voxel_size)

    @classmethod
    def default(cls) -> "SceneRange":
        """Full-scale box: 51.2 x 51.2 x 6.4 m at 0.2 m -> 256 x 256 x 32."""
        return cls.ahead_of_camera(defaults.SCENE_EXTENTS, defaults.VOXEL_SIZE)

    @property
    def dims(self) -> Tuple[int, int, int]:
        n = np.round(self.extents / self.voxel_size).astype(int)
        return int(n[0]), int(n[1]), int(n[2])

    @property
    def block_dims(self) -> Tuple[int, int, int]:
        d = self.dims
        e = defaults.BLOCK_EDGE
        if any(v % e for v in d):
            raise ValueError(f"dims {d} not divisible by block edge {e}")
        return d[0] // e, d[1] // e, d[2] // e


@dataclass
class SceneGrid:
    """Labeled voxel volume: 0 = empty, 255 = unknown/invalid."""

    range: SceneRange
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.labels.shape != self.range.dims:
            raise ValueError(
                f"label dims {self.labels.shape} do not match range dims {self.range.dims}"
            )


@dataclass
class BlockVisibility:
    """Per-frame block visibility flags and averaged projection coordinates."""

    visible: np.ndarray       # (F, BX, BY, BZ) bool
    proj_uv_d: np.ndarray     # (F, BX, BY, BZ, 3), defined only where visible
    frame_indices: Tuple[int, ...]
    image_width: int
    image_height: int

    def __post_init__(self):
        if self.visible.ndim != 4:
            raise ValueError(f"visible must be (F, BX, BY, BZ), got shape {self.visible.shape}")
        if self.proj_uv_d.shape != self.visible.shape + (3,):
            raise ValueError(
                f"proj_uv_d shape {self.proj_uv_d.shape} does not match "
                f"visible {self.visible.shape} + (3,)"
            )
        if len(self.frame_indices) != self.visible.shape[0]:
            raise ValueError(
                f"{len(self.frame_indices)} frame indices for {self.visible.shape[0]} frames"
            )

    @property
    def block_dims(self) -> Tuple[int, ...]:
        return self.visible.shape[1:]

    @property
    def num_frames(self) -> int:
        return self.visible.shape[0]

    def frames(self, start: int, stop: int) -> "BlockVisibility":
        """The frames start..stop-1 of this set, as fusing them alone gives."""
        return BlockVisibility(
            self.visible[start:stop],
            self.proj_uv_d[start:stop],
            self.frame_indices[start:stop],
            self.image_width,
            self.image_height,
        )


@dataclass
class FusedVolume:
    """Concatenated per-frame block features, frame-major, oldest first."""

    features: np.ndarray      # (BX, BY, BZ, F * C)
    channels_per_frame: int

    def __post_init__(self):
        if self.features.ndim != 4:
            raise ValueError(f"features must be (BX, BY, BZ, C), got shape {self.features.shape}")
        c = self.features.shape[3]
        if self.channels_per_frame < 1 or c % self.channels_per_frame:
            raise ValueError(
                f"channel count {c} is not a multiple of "
                f"{self.channels_per_frame} channels per frame"
            )

    @property
    def block_dims(self) -> Tuple[int, ...]:
        return self.features.shape[:3]

    def frames(self, start: int, stop: int) -> "FusedVolume":
        """The channels of frames start..stop-1, as fusing them alone gives."""
        c = self.channels_per_frame
        return FusedVolume(self.features[..., start * c:stop * c], c)


def _center_axes(rng: SceneRange):
    """Scene-frame voxel-center coordinates along x, y and z, as three 1-D arrays."""
    return tuple(
        o + (np.arange(n) + 0.5) * rng.voxel_size for o, n in zip(rng.origin, rng.dims)
    )


# scene-frame points of a camera into that camera: a product with 0 and +-1
# entries, so composing with it only reorders and negates exactly
_CAMERA_FROM_SCENE = Se3Pose(LEVEL_CAMERA_ROTATION.T, np.zeros(3))


def scene_to_frame_transform(current_pose: Se3Pose, frame_pose: Se3Pose):
    """(R, t) taking scene-frame points of the current camera into frame_pose's camera."""
    p = compose(relative_pose(current_pose, frame_pose), _CAMERA_FROM_SCENE)
    return p.rotation, p.translation


def _depth_table(depth: np.ndarray) -> np.ndarray:
    """2-D sparse table over the depth tiles (`geom.depth_tiles`) of the min
    positive depth and the negated max depth.

    Entry (a, b, :, r, c) covers tiles r..r+2^a-1 x c..c+2^b-1: slot 0 holds
    the min over their positive depths (inf if none), slot 1 minus their max
    depth, so one np.minimum builds both, in the tiles' dtype (float32 for a
    frame): a min, max or negation of depths rounds nothing.
    """
    lo, hi = depth_tiles(depth)
    th, tw = lo.shape
    st = np.full((th.bit_length(), tw.bit_length(), 2, th, tw), np.inf, dtype=lo.dtype)
    st[0, 0, 0], st[0, 0, 1] = lo, -hi
    for a in range(1, st.shape[0]):
        half = 1 << (a - 1)
        n = th - 2 * half + 1
        st[a, 0, :, :n] = np.minimum(st[a - 1, 0, :, :n], st[a - 1, 0, :, half:half + n])
    for b in range(1, st.shape[1]):
        half = 1 << (b - 1)
        n = tw - 2 * half + 1
        st[:, b, :, :, :n] = np.minimum(st[:, b - 1, :, :, :n], st[:, b - 1, :, :, half:half + n])
    return st


def _depth_range(st: np.ndarray, u0, u1, v0, v1):
    """(min, max) of the positive depths over the tiles holding pixels u0..u1 x
    v0..v1 (inclusive, inside the image), from four overlapping table entries."""
    s = DEPTH_TILE
    _, lb, _, th, tw = st.shape
    r0, r1, c0, c1 = v0 // s, v1 // s, u0 // s, u1 // s
    a = np.frexp(r1 - r0 + 1)[1] - 1  # floor(log2(n)), exact for integers
    b = np.frexp(c1 - c0 + 1)[1] - 1
    r2 = r1 + 1 - np.left_shift(1, a)
    c2 = c1 + 1 - np.left_shift(1, b)
    at = (a * lb + b) * (2 * th * tw)
    q = np.stack([at + r0 * tw + c0, at + r2 * tw + c0, at + r0 * tw + c2, at + r2 * tw + c2])
    flat = st.ravel()
    return flat[q].min(axis=0), -flat[q + th * tw].min(axis=0)


# points a cull slab or a projection batch moves and projects at once: these
# temporaries, not the frame's, bound the memory of a visibility pass
_POINTS = 65536


def _kept_blocks(axes, r, t, k: CameraIntrinsics, depth, theta_d: float) -> np.ndarray:
    """Mask of the 4x4x4 blocks the cull keeps, shaped (X/4, Y/4, Z/4) for
    center axes of lengths X, Y and Z, each a multiple of 4.

    The centers of a block fill the box spanned by its 8 extreme centers,
    and a rigid motion keeps that box convex, so `box_footprint` bounds
    every member by them. A block is dropped when all of them lie behind
    Z_EPS; or all lie in front and the rectangle, padded by 1 px, misses the
    image; or [zmin - theta_d, zmax + theta_d] misses the range of positive
    depth over the rectangle, read from the depth table. Blocks straddling
    the near plane are kept, and so is a block with a NaN corner, which is
    how `visibility` pads a partial block. Every corner is a voxel center,
    so one relative epsilon, taken from the largest center coordinate, the
    translation and theta_d, covers the rounding of every depth bound.
    The blocks are tested in slabs of whole x-rows of the block grid, at
    most _POINTS corners a slab but never less than one x-row.
    """
    e = defaults.BLOCK_EDGE
    scale = 3.0 * max(np.nanmax(np.abs(c)) for c in axes) + np.abs(t).max() + theta_d
    eps = 1e-9 * (1.0 + scale)
    table = _depth_table(depth)
    # the first and last centers of each block along each axis, (2, n)
    x, y, z = (np.stack([c[::e], c[e - 1::e]]) for c in axes)
    nb = (x.shape[1], y.shape[1], z.shape[1])
    # the 8 corners of a slab's blocks broadcast to (2, 2, 2, rows, BY, BZ)
    y = y.reshape(1, 2, 1, 1, -1, 1)
    z = z.reshape(1, 1, 2, 1, 1, -1)
    rows = max(_POINTS // (8 * nb[1] * nb[2]), 1)
    kept = np.zeros(nb, dtype=bool)
    for s in range(0, nb[0], rows):
        xs = x[:, s:s + rows].reshape(2, 1, 1, -1, 1, 1)
        slab, f, *rect, zmin, zmax = box_footprint(r, t, xs, y, z, k, eps)
        dmin, dmax = _depth_range(table, *rect)
        near = (zmax + theta_d + eps >= dmin) & (zmin - theta_d - eps <= dmax)
        slab[f[near]] = True
        kept[s:s + rows] = slab.reshape(-1, nb[1], nb[2])
        # free this slab's arrays before the next slab's corners are made
        del slab, f, rect, zmin, zmax, dmin, dmax, near
    return kept


def check_theta_d(theta_d: float) -> None:
    """Reject a visibility band half-width that is not finite and positive."""
    if not (np.isfinite(theta_d) and theta_d > 0):
        raise ValueError(f"theta_d must be finite and positive, got {theta_d}")


def visibility(
    rng: SceneRange,
    frame: FrameBundle,
    current_pose: Se3Pose,
    k: CameraIntrinsics,
    theta_d: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-voxel visibility of the current scene range in one temporal frame.

    A voxel is visible iff its center projects in front of the camera onto an
    in-image pixel whose depth D is valid (> 0) and |d_v - D| <= theta_d.
    D is read at the nearest integer pixel: bilinear interpolation across
    depth discontinuities would fabricate depths and corrupt the band test.

    A conservative cull (`_kept_blocks`) first drops the 4x4x4 blocks that
    cannot hold a visible voxel, using their corner centers and a min/max
    depth table over 8x8-pixel tiles. Only the members of the kept blocks go
    through `project_pixels`, in batches of _POINTS // 64 blocks (never less
    than one); its elementwise arithmetic is the same for any subset, so the
    result equals testing every voxel bit for bit. Dims need not be
    multiples of 4: the center axes are NaN-padded to whole blocks once.

    Returns (idx, uvd): the ascending flat C-order indices of the visible
    voxels and their (n, 3) rows of (u, v, d).
    """
    check_theta_d(theta_d)
    h, w = frame.shape
    if (w, h) != (k.width, k.height):
        raise ValueError(f"frame is {w}x{h} but intrinsics expect {k.width}x{k.height}")
    r, t = scene_to_frame_transform(current_pose, frame.pose)
    e = defaults.BLOCK_EDGE
    # NaN centers past a partial block's end: the cull keeps the block whole,
    # and project_pixels drops them (NaN > Z_EPS is false)
    padded = [np.append(c, np.full(-c.size % e, np.nan)) for c in _center_axes(rng)]
    blocks = np.nonzero(_kept_blocks(padded, r, t, k, frame.depth, theta_d))
    # member indices of the kept blocks along each axis, (n, 4)
    o = np.arange(e)
    members = [b[:, None] * e + o for b in blocks]
    depth = frame.depth.ravel()
    # an empty part first, so a frame with no kept block concatenates too
    found = [(np.zeros(0, dtype=np.int64), np.zeros((0, 3)))]
    step = max(_POINTS // e**3, 1)
    for s in range(0, blocks[0].size, step):
        batch = [m[s:s + step] for m in members]
        # the batch's member centers, broadcast to (n, 4, 4, 4)
        centers = [
            c[m].reshape(shape)
            for c, m, shape in zip(padded, batch, ((-1, e, 1, 1), (-1, 1, e, 1), (-1, 1, 1, e)))
        ]
        sel, pix, u, v, z = project_pixels(r, t, *centers, k)
        d_map = depth[pix]
        keep = np.flatnonzero((d_map > 0.0) & (np.abs(z - d_map) <= theta_d))
        block, a, b, c = np.unravel_index(sel[keep], (batch[0].shape[0], e, e, e))
        idx = np.ravel_multi_index(
            (batch[0][block, a], batch[1][block, b], batch[2][block, c]), rng.dims
        )
        found.append((idx, np.stack([u[keep], v[keep], z[keep]], axis=1)))
    idx, uvd = (np.concatenate(f) for f in zip(*found))
    # members come block by block: restore C order over the visible voxels only
    order = np.argsort(idx)
    return idx[order], uvd[order]


def downsample_blocks(dims, idx: np.ndarray, uvd: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group one frame's 4x4x4 voxels into blocks: OR visibility, mean projection.

    `idx` holds the ascending flat C-order indices of the visible voxels of
    a `dims` grid and `uvd` their (n, 3) projections, as `visibility`
    returns them. Each block's members are summed in voxel C order and
    divided by the block's visible count. Blocks with no visible member
    carry zeros and are flagged invisible. Returns (block_visible
    (BX,BY,BZ) bool, block_mean (BX,BY,BZ,3)).
    """
    nx, ny, nz = dims
    e = defaults.BLOCK_EDGE
    if nx % e or ny % e or nz % e:
        raise ValueError(f"voxel dims {(nx, ny, nz)} not divisible by {e}")
    bx, by, bz = nx // e, ny // e, nz // e
    nb = bx * by * bz
    i, j, kk = np.unravel_index(idx, (nx, ny, nz))
    block = ((i // e) * by + j // e) * bz + kk // e
    counts = np.bincount(block, minlength=nb)
    sums = np.zeros((nb, 3))
    for a in range(3):
        sums[:, a] = np.bincount(block, weights=uvd[:, a], minlength=nb)
    block_vis = counts > 0
    mean = np.zeros_like(sums)
    mean[block_vis] = sums[block_vis] / counts[block_vis][:, None]
    return block_vis.reshape(bx, by, bz), mean.reshape(bx, by, bz, 3)


def _feature_corners(
    block_vis: np.ndarray, block_mean: np.ndarray, k: CameraIntrinsics, fh: int, fw: int
):
    """Where one frame's visible blocks sample its fh x fw feature map:
    `geom.bilinear_corners` of their averaged (u, v), in the blocks' C order.

    The averaged (u, v) are image-pixel coordinates; they are rescaled into
    the map's resolution with the pixel-center-aligned mapping
    u_f = (u + 0.5) * (fw / W) - 0.5. A sample outside the map's hull reads
    no cell and is an exact zero.
    """
    uv = block_mean[block_vis][:, :2]
    uf = (uv[:, 0] + 0.5) * (fw / k.width) - 0.5
    vf = (uv[:, 1] + 0.5) * (fh / k.height) - 0.5
    return bilinear_corners(np.stack([uf, vf], axis=1), fh, fw)


FeatureExtractor = Callable[[np.ndarray, np.ndarray], np.ndarray]

# threads that run fuse_pipeline's frame passes, two at a time
_WORKERS = 2


def fuse_pipeline(
    frames: Sequence[FrameBundle],
    rng: SceneRange,
    k: CameraIntrinsics,
    theta_d: float,
    feature_extractor: FeatureExtractor,
    current_index: int,
) -> Tuple[FusedVolume, BlockVisibility]:
    """Visibility, block downsampling, and feature fusion over a frame set.

    `frames` must be ordered by ascending frame index (pseudo-future last);
    `current_index` designates the frame whose camera anchors the range.
    Each frame is one pass, mapped over the frames by a two-worker
    `ThreadPoolExecutor`: its visible voxels are reduced in place into its
    frame's slices of the block arrays, the map cells its visible blocks'
    bilinear samples read are marked in an (H/4, W/4) tile mask, and the
    extractor computes the features of those cells only. The pass returns
    the map and its sample corners. The calling thread takes them in frame
    order and samples each map at its frame's blocks into the frame's
    channels of the fused array (allocated once the first map gives C), so
    peak memory is two passes plus the block arrays. A pass writes only its
    own frame's slices, so the result does not depend on which thread runs
    it or when.

    `feature_extractor(pixels, tiles)` is called from the worker threads,
    in no set order, so it must be a pure function of the frame's uint8
    `pixels` and the bool tile mask, which it is given. It must return a
    map of the mask's shape with C channels, the same C for every frame,
    whose True cells are the tiles' features; anything else raises
    ValueError naming the shape. Cells the mask leaves False are never read.
    An error in a pass is raised in frame order: the first bad frame's
    error is the one raised, the passes not yet started are cancelled, and
    every worker has stopped by then.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("need at least one frame")
    for a, b in zip(frames, frames[1:]):
        if b.frame_index <= a.frame_index:
            raise ValueError("frames must be ordered by ascending frame_index")
    if not (-len(frames) <= current_index < len(frames)):
        raise ValueError(f"current_index {current_index} out of range")
    current_pose = frames[current_index].pose
    visible = np.zeros((len(frames),) + rng.block_dims, dtype=bool)
    means = np.zeros(visible.shape + (3,))
    # the extractor's map has one cell per 4x4-pixel tile
    map_shape = (k.height // 4, k.width // 4)

    def run_pass(fi: int):
        """Frame fi's pass: writes its block slices, returns its feature map
        and the corners its blocks sample."""
        frame = frames[fi]
        idx, uvd = visibility(rng, frame, current_pose, k, theta_d)
        visible[fi], means[fi] = downsample_blocks(rng.dims, idx, uvd)
        corners = _feature_corners(visible[fi], means[fi], k, *map_shape)
        _, y0, x0, y1, x1, _, _ = corners
        tiles = np.zeros(map_shape, dtype=bool)
        tiles[y0, x0] = tiles[y0, x1] = tiles[y1, x0] = tiles[y1, x1] = True
        return np.asarray(feature_extractor(frame.pixels, tiles)), corners

    # imported here, so importing the module does not load concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    # leaving the map's iterator early cancels the passes not yet started, and
    # leaving the pool joins its workers
    with ThreadPoolExecutor(_WORKERS) as pool:
        features = None
        for fi, (fmap, corners) in enumerate(pool.map(run_pass, range(len(frames)))):
            if fmap.ndim != 3 or fmap.shape[:2] != map_shape or (
                features is not None and fmap.shape[2] != c
            ):
                raise ValueError(
                    f"feature map of frame {frames[fi].frame_index} has shape {fmap.shape}; "
                    f"the extractor must return {map_shape} x C, one C for every frame"
                )
            if features is None:
                c = fmap.shape[2]
                features = np.zeros(rng.block_dims + (len(frames) * c,))
            features[..., fi * c:(fi + 1) * c][visible[fi]] = bilinear_sample_many(fmap, corners)
    bv = BlockVisibility(
        visible, means, tuple(f.frame_index for f in frames), k.width, k.height
    )
    return FusedVolume(features, c), bv


def resample_to_range(
    world: SceneGrid, rng: SceneRange, current_pose: Se3Pose
) -> SceneGrid:
    """Relabel a world-frame grid onto a camera-anchored scene range.

    Each range voxel center is carried into world coordinates (the world is
    the identity camera) and takes the label of the world voxel containing
    it; points outside the world grid become empty. For a camera aligned
    with the world axes this reduces to an integer shift. The range is
    mapped in slabs of whole x-rows, at most _POINTS voxels a slab but never
    less than one x-row, so the temporaries stay small; each voxel's
    arithmetic is the same in any slab.
    """
    r, t = scene_to_frame_transform(current_pose, Se3Pose.identity())
    cx, cy, cz = _center_axes(rng)
    labels = np.zeros(rng.dims, dtype=np.uint8)
    rows = max(_POINTS // (rng.dims[1] * rng.dims[2]), 1)
    for s in range(0, rng.dims[0], rows):
        world_axes = rigid_transform(r, t, cx[s:s + rows, None, None], cy[:, None], cz)
        # each axis's world voxel index, bounds-tested as a float, folded into
        # one C-order flat index that is exact wherever all three are inside
        inside = np.ones(world_axes[0].shape, dtype=bool)
        flat = np.zeros(world_axes[0].shape)
        for c, o, n in zip(world_axes, world.range.origin, world.range.dims):
            f = np.floor((c - o) / world.range.voxel_size)
            inside &= (f >= 0) & (f < n)
            flat *= n
            flat += f
        labels[s:s + rows][inside] = world.labels.ravel()[flat[inside].astype(np.int64)]
    return SceneGrid(rng, labels)
