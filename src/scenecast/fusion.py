"""Voxel visibility, block downsampling, and multi-frame 3D feature fusion.

Scene grids live in a level "scene frame" anchored at the current camera:
x right, y forward, z up. `geom.LEVEL_CAMERA_ROTATION`, the axes of a level
camera, converts scene axes to camera axes (x right, y down, z forward).
Every voxel center is carried through the relative pose into each temporal
frame, projected, and tested against that frame's depth map: a voxel is
visible when its projected depth lies within theta_d of the depth sampled at
the nearest pixel.

Voxels are grouped into 4x4x4 blocks (visible if any member voxel is, with
projection coordinates averaged over the visible members); per-frame 2D
features are then sampled at the averaged coordinates and concatenated
frame-major, zero-padded wherever a frame contributed nothing.

Fusion is one pass per frame: visibility returns only the visible voxels
(flat indices and projections), they are reduced to the frame's block slice,
and the frame's feature map is sampled at those blocks before the next frame
starts, so peak memory is one pass's temporaries plus the block-level
arrays. The feature extractor maps an image to an HxWxC array with the same
C for every frame. A frame's blocks and feature channels depend only on
that frame and the anchoring current pose, so the result for a subset of
frames is a frame-axis slice of the result for the whole set
(`BlockVisibility.frames`, `FusedVolume.frames`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from . import defaults
from .geom import (
    LEVEL_CAMERA_ROTATION,
    CameraIntrinsics,
    Se3Pose,
    bilinear_sample_many,
    project_pixels,
    relative_pose,
    rigid_transform,
)
from .warp import FrameBundle

@dataclass(frozen=True)
class SceneRange:
    """Axis-aligned voxel box in the scene frame of the current camera."""

    origin: np.ndarray
    extents: np.ndarray
    voxel_size: float

    def __post_init__(self):
        origin = np.array(self.origin, dtype=np.float64).reshape(3)
        extents = np.array(self.extents, dtype=np.float64).reshape(3)
        if self.voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        if not (np.all(np.isfinite(origin)) and np.all(extents > 0)):
            raise ValueError("origin must be finite and extents positive")
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
    """Scene-frame center coordinates along x, y, z, shaped to broadcast to (X, Y, Z)."""
    nx, ny, nz = rng.dims
    vs = rng.voxel_size
    cx = rng.origin[0] + (np.arange(nx) + 0.5) * vs
    cy = rng.origin[1] + (np.arange(ny) + 0.5) * vs
    cz = rng.origin[2] + (np.arange(nz) + 0.5) * vs
    return cx[:, None, None], cy[None, :, None], cz[None, None, :]


def scene_to_frame_transform(current_pose: Se3Pose, frame_pose: Se3Pose):
    """(R, t) taking scene-frame points of the current camera into frame_pose's camera.

    Scene axis j is the signed camera axis in row j of LEVEL_CAMERA_ROTATION,
    so the scene-to-camera map folds into the relative rotation by picking
    and negating its columns, which is exact.
    """
    rel = relative_pose(current_pose, frame_pose)
    axes = np.abs(LEVEL_CAMERA_ROTATION).argmax(axis=1)
    signs = LEVEL_CAMERA_ROTATION[np.arange(3), axes]
    return rel.rotation[:, axes] * signs, rel.translation.copy()


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

    Returns (idx, uvd): the ascending flat C-order indices of the visible
    voxels and their (n, 3) rows of (u, v, d).
    """
    if theta_d <= 0:
        raise ValueError("theta_d must be positive")
    h, w = frame.shape
    if (w, h) != (k.width, k.height):
        raise ValueError(f"frame is {w}x{h} but intrinsics expect {k.width}x{k.height}")
    r, t = scene_to_frame_transform(current_pose, frame.pose)
    # broadcasting the 1-D center axes avoids building an (X, Y, Z, 3) array
    idx, pix, u, v, z = project_pixels(r, t, *_center_axes(rng), k)
    d_map = frame.depth.ravel()[pix]
    keep = (d_map > 0.0) & (np.abs(z - d_map) <= theta_d)
    return idx[keep], np.stack([u[keep], v[keep], z[keep]], axis=1)


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


def _frame_features(
    fmap: np.ndarray, block_vis: np.ndarray, block_mean: np.ndarray, k: CameraIntrinsics
) -> np.ndarray:
    """One frame's (BX, BY, BZ, C) block features from its HxWxC feature map.

    The averaged (u, v) of each visible block are image-pixel coordinates;
    they are rescaled into the map's resolution with the pixel-center-aligned
    mapping u_f = (u + 0.5) * (fw / W) - 0.5. Invisible blocks and
    out-of-bounds samples are exact zeros.
    """
    fh, fw, channels = fmap.shape
    out = np.zeros(block_vis.shape + (channels,))
    uv = block_mean[block_vis][:, :2]
    uf = (uv[:, 0] + 0.5) * (fw / k.width) - 0.5
    vf = (uv[:, 1] + 0.5) * (fh / k.height) - 0.5
    out[block_vis] = bilinear_sample_many(fmap, np.stack([uf, vf], axis=1))[0]
    return out


FeatureExtractor = Callable[[np.ndarray], np.ndarray]


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
    Each frame is one pass: its visible voxels are reduced to its block
    slice, then its feature map is sampled at those blocks, so peak memory
    is one pass plus the block arrays. `feature_extractor` must return an
    HxWxC map with the same C for every frame; anything else raises
    ValueError naming the shape.
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
    features = []
    for fi, frame in enumerate(frames):
        idx, uvd = visibility(rng, frame, current_pose, k, theta_d)
        visible[fi], means[fi] = downsample_blocks(rng.dims, idx, uvd)
        fmap = np.asarray(feature_extractor(frame.image))
        if fmap.ndim != 3 or (features and fmap.shape[2] != features[0].shape[-1]):
            raise ValueError(
                f"feature map of frame {frame.frame_index} has shape {fmap.shape}; "
                "the extractor must return HxWxC with one C for every frame"
            )
        features.append(_frame_features(fmap, visible[fi], means[fi], k))
    bv = BlockVisibility(
        visible, means, tuple(f.frame_index for f in frames), k.width, k.height
    )
    return FusedVolume(np.concatenate(features, axis=-1), features[0].shape[-1]), bv


def resample_to_range(
    world: SceneGrid, rng: SceneRange, current_pose: Se3Pose
) -> SceneGrid:
    """Relabel a world-frame grid onto a camera-anchored scene range.

    Each range voxel center is carried into world coordinates (the world is
    the identity camera) and takes the label of the world voxel containing
    it; points outside the world grid become empty. For a camera aligned
    with the world axes this reduces to an integer shift.
    """
    r, t = scene_to_frame_transform(current_pose, Se3Pose.identity())
    w = np.stack(rigid_transform(r, t, *_center_axes(rng)), axis=-1)
    idx = np.floor((w - world.range.origin) / world.range.voxel_size).astype(np.int64)
    inside = np.all((idx >= 0) & (idx < world.range.dims), axis=-1)
    labels = np.zeros(rng.dims, dtype=np.uint8)
    sel = idx[inside]
    labels[inside] = world.labels[sel[:, 0], sel[:, 1], sel[:, 2]]
    return SceneGrid(rng, labels)
