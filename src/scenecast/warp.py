"""Pseudo-future frame synthesis by forward splatting through depth and poses.

Sources and results are `geom.FrameBundle`s. Each valid source pixel is
lifted with its depth, moved by the relative pose, and splatted onto the
nearest destination pixel. Conflicts are settled by a z-buffer with a fully
deterministic tie-break chain, so the result is independent of iteration
order and of any parallel scheduling. The splat and the refiners move the
sources' uint8 bytes, never floats. The learned refinement stage is
replaced by a pluggable hook; two built-ins are provided (identity,
nearest-valid hole fill). Only the command line imports this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .geom import (
    DEPTH_TILE,
    CameraIntrinsics,
    FrameBundle,
    Se3Pose,
    box_footprint,
    depth_tiles,
    project_pixels,
    relative_pose,
)

# depth ties are resolved within buckets of this size (meters)
DEPTH_TIE_QUANTUM = 1e-9


@dataclass
class WarpResult:
    """Splatted uint8 image and depth plus the winning source slot per pixel
    (-1: no hit). prefix_hits[m - 1] counts the pixels some of the first m
    sources map into, whatever the z-order; the last equals hit_mask.sum()."""

    image: np.ndarray
    depth: np.ndarray
    source_index: np.ndarray
    prefix_hits: Tuple[int, ...]

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
    # imported here, so a process that never fills does not pay for loading scipy
    from scipy import ndimage
    channels = result.image.shape[2]
    nearest = np.ravel_multi_index(
        ndimage.distance_transform_edt(~hit, return_distances=False, return_indices=True),
        hit.shape,
    )
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
    greatest depth, so `box_footprint`, moving those 8 corners as the pixels
    move, finds the tiles none of whose pixels can land in the image. Only
    the other tiles' pixels go through `project_pixels`, whose elementwise
    arithmetic is the same for any subset, so the result is the exhaustive
    one bit for bit.
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
    # corner columns (2, 1, 1, n), rows (2, 1, n) and depths (2, n), lifted as
    # the pixels are: the 8 corners of each tile broadcast to (2, 2, 2, n)
    uc = np.stack([tc * s, np.minimum(tc * s + s - 1, w - 1)])[:, None, None]
    vc = np.stack([tr * s, np.minimum(tr * s + s - 1, h - 1)])[:, None]
    dc = np.stack([lo.ravel()[tiles], hi.ravel()[tiles]])
    xc = (uc - k.cx) * dc / k.fx
    yc = (vc - k.cy) * dc / k.fy
    # one relative epsilon per tile, from its largest lifted coordinate and the
    # translation, covers the rounding of every pixel against its corners
    big = np.maximum.reduce([np.abs(xc).max(axis=(0, 1, 2)), np.abs(yc).max(axis=(0, 1)), dc[1]])
    eps = 1e-9 * (1.0 + 3.0 * big + np.abs(t).max())
    kept, on, *_ = box_footprint(r, t, xc, yc, dc, k, eps)
    kept[on] = True
    mask = np.zeros(lo.shape, dtype=bool)
    mask.ravel()[tiles[kept]] = True
    mask = mask.repeat(s, axis=0).repeat(s, axis=1)[:h, :w]
    mask &= src.depth > 0.0
    spix = np.flatnonzero(mask)
    del mask
    # each lifted array is freed after its last use, which bounds the lift's
    # memory; x = (u - cx) * d / fx is computed in place, in that order
    v, u = np.divmod(spix, w)
    d = src.depth.ravel()[spix]
    x = u - k.cx
    del u
    x *= d
    x /= k.fx
    y = v - k.cy
    del v
    y *= d
    y /= k.fy
    idx, pix, up, vp, zp = project_pixels(r, t, x, y, d, k)
    del x, y, d
    spix = spix[idx]
    del idx
    return spix, pix, np.stack([up, vp, zp], axis=1)


def _winners(sources, dst_pose, k, dst_frame_index):
    """(target, depth, key) of the one candidate that wins each reached target,
    and the running union's hit count after each source.

    The key packs (proximity rank, source pixel, slot): the rank among the
    sources' distinct proximities orders like the proximity, however far
    apart the indices. A candidate keeps only these three, so each source's
    uvd is freed as soon as its depths are copied out; each temporary is
    freed after its last use, and every candidate array on return.
    """
    n, pixels = len(sources), sources[0].depth.size
    proximity = [abs(s.frame_index - dst_frame_index) for s in sources]
    rank = {p: i for i, p in enumerate(sorted(set(proximity)))}
    covered = np.zeros(pixels, dtype=bool)
    prefix_hits = []

    def candidates(slot, src):
        spix, tgt, uvd = reprojection_flow(src, dst_pose, k)
        covered[tgt] = True
        prefix_hits.append(int(np.count_nonzero(covered)))
        return tgt, uvd[:, 2].copy(), (rank[proximity[slot]] * pixels + spix) * n + slot

    tgt, depths, key = zip(*map(candidates, range(n), sources))
    # each kind's per-source pieces are freed as soon as they are joined
    tgt = np.concatenate(tgt)
    depths = np.concatenate(depths)
    key = np.concatenate(key)
    # float, not int64: a cast would wrap above ~9.2e9 m and win the z-buffer
    dq = np.divide(depths, DEPTH_TIE_QUANTUM)
    np.round(dq, out=dq)

    # the z-buffer: per target, the least depth bucket, then the least key among
    # the candidates that reach it; keys are unique, so one candidate wins
    least_dq = np.full(pixels, np.inf)
    np.minimum.at(least_dq, tgt, dq)
    near = np.flatnonzero(dq == least_dq[tgt])
    del dq, least_dq
    near_tgt, near_key = tgt[near], key[near]
    least_key = np.full(pixels, np.iinfo(np.int64).max)
    np.minimum.at(least_key, near_tgt, near_key)
    winners = near[near_key == least_key[near_tgt]]
    return tgt[winners], depths[winners], key[winners], tuple(prefix_hits)


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
    channels = sources[0].pixels.shape[2]
    for s in sources:
        if s.shape != (h, w) or s.pixels.shape[2] != channels:
            raise ValueError("all sources must share image dimensions")
    n, pixels = len(sources), h * w
    if n * n * pixels > 2**63:
        raise ValueError(
            f"{n} sources of {w}x{h} pixels overflow the splat's int64 tie key "
            "(sources squared times pixels must not exceed 2**63)"
        )

    t, d, key, prefix_hits = _winners(sources, dst_pose, k, dst_frame_index)
    slot = key % n
    spix = key // n % pixels
    image = np.zeros((h, w, channels), dtype=np.uint8)
    depth = np.zeros((h, w))
    source_index = np.full((h, w), -1, dtype=np.int64)
    # bytes are gathered per source for its own winners, never for every
    # candidate, each pixel's C bytes moved as one record; a record view needs
    # contiguous pixels, so a strided source is copied first
    record = np.dtype((np.void, channels))
    out = image.view(record).reshape(-1)
    for s, src in enumerate(sources):
        mine = slot == s
        records = np.ascontiguousarray(src.pixels).view(record).reshape(-1)
        out[t[mine]] = records[spix[mine]]
    depth.reshape(-1)[t] = d
    source_index.reshape(-1)[t] = slot
    return WarpResult(image, depth, source_index, prefix_hits)


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
