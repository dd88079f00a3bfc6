"""Pseudo-future frame synthesis by forward splatting through depth and poses.

Sources and results are `geom.FrameBundle`s. Each valid source pixel is
lifted with its depth, moved by the relative pose, and splatted onto the
nearest destination pixel. Conflicts are settled by a z-buffer with a fully
deterministic tie-break chain, so the result is independent of iteration
order and of any parallel scheduling. The learned refinement stage is
replaced by a pluggable hook; two built-ins are provided (identity,
nearest-valid hole fill). Only the command line imports this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy import ndimage

from .geom import CameraIntrinsics, FrameBundle, Se3Pose, project_pixels, relative_pose

# depth ties are resolved within buckets of this size (meters)
DEPTH_TIE_QUANTUM = 1e-9


@dataclass
class WarpResult:
    """Splatted image/depth plus the winning source slot per pixel (-1: no hit)."""

    image: np.ndarray
    depth: np.ndarray
    source_index: np.ndarray

    @property
    def hit_mask(self) -> np.ndarray:
        """Pixels some source splatted into."""
        return self.source_index >= 0


RefinerHook = Callable[[WarpResult], Tuple[np.ndarray, np.ndarray]]


def identity_refiner(result: WarpResult) -> Tuple[np.ndarray, np.ndarray]:
    """Pass the splatted image and depth through unchanged."""
    return result.image, result.depth


def fill_refiner(result: WarpResult) -> Tuple[np.ndarray, np.ndarray]:
    """Fill holes from the nearest hit pixel (Euclidean pixel distance).

    Guarantees full coverage whenever at least one pixel was hit; an all-miss
    input is returned unchanged.
    """
    hit = result.hit_mask
    if not hit.any() or hit.all():
        return result.image.copy(), result.depth.copy()
    _, (iy, ix) = ndimage.distance_transform_edt(~hit, return_indices=True)
    return result.image[iy, ix], result.depth[iy, ix]


def reprojection_flow(
    src: FrameBundle, dst_pose: Se3Pose, k: CameraIntrinsics
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the valid src pixels land in dst: (idx, pix, uvd).

    A pixel is valid when its source depth is positive, the moved point lies
    in front of the destination camera, and its nearest destination pixel is
    inside the image. Returns the ascending row-major indices of the valid
    source pixels, the row-major index of each one's nearest destination
    pixel, and their (n, 3) rows of destination (u', v', d').
    """
    h, w = src.shape
    if (w, h) != (k.width, k.height):
        raise ValueError(
            f"frame is {w}x{h} but intrinsics expect {k.width}x{k.height}"
        )
    rel = relative_pose(src.pose, dst_pose)
    d = src.depth.ravel()
    spix = np.flatnonzero(d > 0.0)
    v, u = np.divmod(spix, w)
    d = d[spix]
    x = (u - k.cx) * d / k.fx
    y = (v - k.cy) * d / k.fy
    idx, pix, up, vp, zp = project_pixels(rel.rotation, rel.translation, x, y, d, k)
    return spix[idx], pix, np.stack([up, vp, zp], axis=1)


def forward_splat(
    sources: Sequence[FrameBundle],
    dst_pose: Se3Pose,
    k: CameraIntrinsics,
    dst_frame_index: int,
) -> WarpResult:
    """Splat every source into the destination view with a z-buffer.

    Conflicts: smallest destination depth wins; ties within DEPTH_TIE_QUANTUM
    go to the source temporally closest to dst_frame_index, then to the
    smaller source linear pixel index, then to the earlier source slot.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("forward_splat needs at least one source frame")
    h, w = sources[0].shape
    channels = sources[0].image.shape[2]
    for s in sources:
        if s.shape != (h, w) or s.image.shape[2] != channels:
            raise ValueError("all sources must share image dimensions")

    # one (target, depth, proximity, source pixel, slot, color) tuple per source
    parts = []
    for slot, src in enumerate(sources):
        spix, tgt, uvd = reprojection_flow(src, dst_pose, k)
        n = len(spix)
        prox = abs(src.frame_index - dst_frame_index)
        parts.append((
            tgt, uvd[:, 2], np.full(n, prox, dtype=np.int64), spix,
            np.full(n, slot, dtype=np.int64), src.image.reshape(-1, channels)[spix],
        ))
    tgt, depths, prox, spix, slot, colors = (np.concatenate(p) for p in zip(*parts))
    # float, not int64: a cast would wrap above ~9.2e9 m and win the z-buffer
    dq = np.round(depths / DEPTH_TIE_QUANTUM)

    # last key is most significant: sort by target, depth bucket, tie chain
    order = np.lexsort((slot, spix, prox, dq, tgt))
    tgt_sorted = tgt[order]
    first = np.ones(tgt_sorted.shape, dtype=bool)
    first[1:] = tgt_sorted[1:] != tgt_sorted[:-1]
    winners = order[first]

    t = tgt[winners]
    image = np.zeros((h, w, channels))
    depth = np.zeros((h, w))
    source_index = np.full((h, w), -1, dtype=np.int64)
    image.reshape(-1, channels)[t] = colors[winners]
    depth.reshape(-1)[t] = depths[winners]
    source_index.reshape(-1)[t] = slot[winners]
    return WarpResult(image, depth, source_index)


def compose_pseudo_future(
    past_and_current: Sequence[FrameBundle],
    future_pose: Se3Pose,
    k: CameraIntrinsics,
    refiner: RefinerHook = identity_refiner,
    *,
    frame_interval: int,
) -> FrameBundle:
    """Warp all sources to the future pose and apply the refiner hook.

    Sources must be ordered by ascending frame index. The result carries
    frame_index = last source + frame_interval, the index the splat breaks
    depth ties toward.
    """
    frames = list(past_and_current)
    if not frames:
        raise ValueError("need at least one source frame")
    for a, b in zip(frames, frames[1:]):
        if b.frame_index <= a.frame_index:
            raise ValueError("sources must be ordered by ascending frame_index")
    future_index = frames[-1].frame_index + frame_interval
    result = forward_splat(frames, future_pose, k, dst_frame_index=future_index)
    image, depth = refiner(result)
    if image.shape != result.image.shape or depth.shape != result.depth.shape:
        raise ValueError("refiner must preserve image and depth shapes")
    return FrameBundle(image, depth, future_pose, future_index)
