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


@dataclass
class ConfusionMatrix:
    """Counts over valid voxels; rows index ground truth, columns prediction."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("confusion counts must be square")

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]


def confusion(pred: SceneGrid, gt: SceneGrid, num_classes: int | None = None) -> ConfusionMatrix:
    """Accumulate the confusion matrix, skipping voxels labeled 255 in gt."""
    if pred.labels.shape != gt.labels.shape:
        raise ValueError(
            f"grid dims differ: {pred.labels.shape} vs {gt.labels.shape}"
        )
    valid = gt.labels != defaults.INVALID_LABEL
    g = gt.labels[valid].astype(np.int64)
    p = pred.labels[valid].astype(np.int64)
    if num_classes is None:
        num_classes = int(max(g.max(initial=0), p.max(initial=0))) + 1
    if (p >= num_classes).any():
        raise ValueError(f"prediction contains class id >= C={num_classes}")
    if (g >= num_classes).any():
        raise ValueError(f"ground truth contains class id >= C={num_classes}")
    counts = np.bincount(
        g * num_classes + p, minlength=num_classes * num_classes
    ).reshape(num_classes, num_classes)
    return ConfusionMatrix(counts)


def iou_geometry(cm: ConfusionMatrix) -> float:
    """Binary occupied-vs-empty IoU; occupied means any class != 0."""
    c = cm.counts
    tp = int(c[1:, 1:].sum())
    fp = int(c[0, 1:].sum())
    fn = int(c[1:, 0].sum())
    union = tp + fp + fn
    return tp / union if union else 1.0


@dataclass
class MiouResult:
    value: float
    per_class: np.ndarray  # length C, NaN where the class is excluded


def miou_semantic(cm: ConfusionMatrix) -> MiouResult:
    """Mean IoU over non-empty classes present in gt or prediction."""
    c = cm.counts
    n = cm.num_classes
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
    union = np.any(bv.visible, axis=0)
    mask = np.repeat(np.repeat(np.repeat(union, e, axis=0), e, axis=1), e, axis=2)
    labels = np.where(mask, gt.labels, np.uint8(0))
    return SceneGrid(gt.range, labels)
