"""Scene-completion evaluation: geometric IoU, semantic mIoU, coverage stats.

Class 0 is empty space and is excluded from the semantic mean. 0/0
evaluates to 1; `per_class` is NaN for a class absent from both grids.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fusion import BlockVisibility, SceneGrid
from . import defaults


def confusion(pred: SceneGrid, gt: SceneGrid, num_classes: int | None = None) -> np.ndarray:
    """The (C, C) int64 counts over voxels not labeled 255 in gt; rows index
    ground truth, columns prediction.

    One bincount of gt * 256 + pred reads the uint8 labels as a 256x256
    histogram of label pairs: base 256, not C, so a prediction id >= C
    cannot alias into the next row. Row 255, invalid ground truth, is
    zeroed; C, when not given, is the largest class id left plus 1, or 1
    when no voxel is valid. A given C below 1 raises before any voxel is
    counted.
    """
    if pred.labels.shape != gt.labels.shape:
        raise ValueError(
            f"grid dims differ: {pred.labels.shape} vs {gt.labels.shape}"
        )
    if num_classes is not None and num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    pairs = gt.labels.astype(np.uint16) * 256 + pred.labels
    hist = np.bincount(pairs.reshape(-1), minlength=256 * 256).reshape(256, 256)
    hist[defaults.INVALID_LABEL] = 0
    if num_classes is None:
        used = np.flatnonzero(hist.any(axis=0) | hist.any(axis=1))
        num_classes = int(used[-1]) + 1 if used.size else 1
    if hist[:, num_classes:].any():
        raise ValueError(f"prediction contains class id >= C={num_classes}")
    if hist[num_classes:].any():
        raise ValueError(f"ground truth contains class id >= C={num_classes}")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    counts[:256, :256] = hist[:num_classes, :num_classes]
    return counts


def iou_geometry(c: np.ndarray) -> float:
    """Binary occupied-vs-empty IoU of confusion counts; occupied means any
    class != 0."""
    tp = int(c[1:, 1:].sum())
    fp = int(c[0, 1:].sum())
    fn = int(c[1:, 0].sum())
    union = tp + fp + fn
    return tp / union if union else 1.0


@dataclass
class MiouResult:
    value: float
    per_class: np.ndarray  # length C, NaN where the class is excluded


def miou_semantic(c: np.ndarray) -> MiouResult:
    """Mean IoU of confusion counts over non-empty classes present in gt or
    prediction."""
    n = len(c)
    per_class = np.full(n, np.nan)
    for ci in range(1, n):
        tp = int(c[ci, ci])
        union = int(c[ci, :].sum() + c[:, ci].sum() - tp)
        if union > 0:
            per_class[ci] = tp / union
    included = ~np.isnan(per_class)
    value = float(per_class[included].mean()) if included.any() else 1.0
    return MiouResult(value, per_class)


@dataclass
class CoverageStats:
    frame_indices: Tuple[int, ...]
    per_frame: Tuple[int, ...]
    union: int


def coverage(bv: BlockVisibility) -> CoverageStats:
    """Visible-block counts per frame plus the size of their union."""
    per_frame = tuple(int(v.sum()) for v in bv.visible)
    union = int(np.any(bv.visible, axis=0).sum())
    return CoverageStats(bv.frame_indices, per_frame, union)


def majority_complete(bv: BlockVisibility, gt: SceneGrid) -> SceneGrid:
    """Oracle-assisted completion: gt labels inside visible blocks, empty elsewhere.

    A non-learned stand-in used only by demos and acceptance runs; it upper
    bounds what a completer could recover from the visible space.
    """
    e = defaults.BLOCK_EDGE
    bx, by, bz = bv.block_dims
    if (bx * e, by * e, bz * e) != gt.labels.shape:
        raise ValueError(
            f"block dims {bv.block_dims} x{e} do not match grid {gt.labels.shape}"
        )
    union = np.any(bv.visible, axis=0)[:, None, :, None, :, None]
    labels = gt.labels.reshape(bx, e, by, e, bz, e) * union
    return SceneGrid(gt.range, labels.reshape(gt.labels.shape))
