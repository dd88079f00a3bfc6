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

from .geom import (
    DEPTH_TILE,
    CameraIntrinsics,
    FrameBundle,
    Se3Pose,
    box_footprint,
    depth_tiles,
    project_pixels,
    relative_pose,
    rigid_transform,
)

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
    input is returned unchanged. Only the nearest hit's index is computed,
    never the distance to it, and both maps are gathered through one flat
    index.
    """
    hit = result.hit_mask
    if not hit.any() or hit.all():
        return result.image.copy(), result.depth.copy()
    channels = result.image.shape[2]
    iy, ix = ndimage.distance_transform_edt(~hit, return_distances=False, return_indices=True)
    nearest = iy.astype(np.int64) * hit.shape[1] + ix
    return result.image.reshape(-1, channels).take(nearest, axis=0), result.depth.take(nearest)


def reprojection_flow(
    src: FrameBundle, dst_pose: Se3Pose, k: CameraIntrinsics
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the valid src pixels land in dst: (idx, pix, uvd).

    A pixel is valid when its source depth is positive, the moved point lies
    in front of the destination camera, and its nearest destination pixel is
    inside the image. Returns the ascending row-major indices of the valid
    source pixels, the row-major index of each one's nearest destination
    pixel, and their (n, 3) rows of destination (u', v', d').

    A conservative cull runs before any pixel is lifted. The pixels of a
    depth tile (`geom.depth_tiles`) lift into the frustum segment spanned by
    its first and last pixel columns and rows at its least positive and its
    greatest depth, so `box_footprint` on those 8 corners finds the tiles
    none of whose pixels can land in the image. Only the other tiles' pixels
    go through `project_pixels`, whose elementwise arithmetic is the same
    for any subset, so the result is the exhaustive one bit for bit.
    """
    h, w = src.shape
    if (w, h) != (k.width, k.height):
        raise ValueError(
            f"frame is {w}x{h} but intrinsics expect {k.width}x{k.height}"
        )
    rel = relative_pose(src.pose, dst_pose)
    r, t = rel.rotation, rel.translation
    s = DEPTH_TILE
    lo, hi = depth_tiles(src.depth)
    tiles = np.flatnonzero(lo <= hi)  # the tiles holding a positive depth
    tr, tc = np.divmod(tiles, lo.shape[1])
    # corner columns (2, 1, 1, n), rows (2, 1, n) and depths (2, n), lifted and
    # moved as the pixels are: the 8 corners of each tile broadcast to (2, 2, 2, n)
    uc = np.stack([tc * s, np.minimum(tc * s + s - 1, w - 1)])[:, None, None]
    vc = np.stack([tr * s, np.minimum(tr * s + s - 1, h - 1)])[:, None]
    dc = np.stack([lo.ravel()[tiles], hi.ravel()[tiles]])
    xc = (uc - k.cx) * dc / k.fx
    yc = (vc - k.cy) * dc / k.fy
    # one relative epsilon per tile, from its largest lifted coordinate and the
    # translation, covers the rounding of every pixel against its corners
    big = np.maximum.reduce([np.abs(xc).max(axis=(0, 1, 2)), np.abs(yc).max(axis=(0, 1)), dc[1]])
    eps = 1e-9 * (1.0 + 3.0 * big + np.abs(t).max())
    corners = (c.reshape(8, -1) for c in rigid_transform(r, t, xc, yc, dc))
    kept, on, *_ = box_footprint(*corners, k, eps)
    kept[on] = True
    mask = np.zeros(lo.shape, dtype=bool)
    mask.ravel()[tiles[kept]] = True
    mask = mask.repeat(s, axis=0).repeat(s, axis=1)[:h, :w]
    spix = np.flatnonzero(mask & (src.depth > 0.0))
    v, u = np.divmod(spix, w)
    d = src.depth.ravel()[spix]
    x = (u - k.cx) * d / k.fx
    y = (v - k.cy) * d / k.fy
    idx, pix, up, vp, zp = project_pixels(r, t, x, y, d, k)
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
    That tie chain is one int64 key, so the sources' count squared times
    the pixel count must fit in 63 bits; a larger set raises ValueError
    before any pixel is splatted.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("forward_splat needs at least one source frame")
    h, w = sources[0].shape
    channels = sources[0].image.shape[2]
    for s in sources:
        if s.shape != (h, w) or s.image.shape[2] != channels:
            raise ValueError("all sources must share image dimensions")
    n, pixels = len(sources), h * w
    if n * n * pixels > 2**63:
        raise ValueError(
            f"{n} sources of {w}x{h} pixels overflow the splat's int64 tie key "
            "(sources squared times pixels must not exceed 2**63)"
        )

    # the key (proximity rank, source pixel, slot): the rank among the sources'
    # distinct proximities orders like the proximity, however far apart the indices
    proximity = [abs(s.frame_index - dst_frame_index) for s in sources]
    rank = {p: i for i, p in enumerate(sorted(set(proximity)))}
    # one (target, depth, key, color) tuple per source
    parts = []
    for slot, src in enumerate(sources):
        spix, tgt, uvd = reprojection_flow(src, dst_pose, k)
        key = (rank[proximity[slot]] * pixels + spix) * n + slot
        parts.append((tgt, uvd[:, 2], key, src.image.reshape(-1, channels).take(spix, axis=0)))
    tgt, depths, key, colors = (np.concatenate(p) for p in zip(*parts))
    # float, not int64: a cast would wrap above ~9.2e9 m and win the z-buffer
    dq = np.round(depths / DEPTH_TIE_QUANTUM)

    # the z-buffer: per target, the least depth bucket, then the least key among
    # the candidates that reach it; keys are unique, so one candidate wins
    least_dq = np.full(pixels, np.inf)
    np.minimum.at(least_dq, tgt, dq)
    near = np.flatnonzero(dq == least_dq[tgt])
    near_tgt, near_key = tgt[near], key[near]
    least_key = np.full(pixels, np.iinfo(np.int64).max)
    np.minimum.at(least_key, near_tgt, near_key)
    winners = near[near_key == least_key[near_tgt]]

    t = tgt[winners]
    image = np.zeros((h, w, channels))
    depth = np.zeros((h, w))
    source_index = np.full((h, w), -1, dtype=np.int64)
    image.reshape(-1, channels)[t] = colors.take(winners, axis=0)
    depth.reshape(-1)[t] = depths[winners]
    source_index.reshape(-1)[t] = key[winners] % n
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
