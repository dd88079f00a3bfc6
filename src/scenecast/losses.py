"""Training-loss kernels: scene-class affinity, weighted CE, L1, SSIM.

The affinity loss drives class-wise precision, recall, and specificity
through their logs; it is applied semantically (per class) and geometrically
(binary occupied/empty). Analytic gradients are returned alongside every
voxel loss and are verified against central finite differences in the tests.

All log arguments are clamped at CLAMP = 1e-8; sums that needed clamping are
reported through a DegenerateInputWarning while keeping the loss finite.
Every sum runs in a fixed order and no product goes to BLAS, so results are
deterministic.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import defaults
from .forecast import pose_mse
from .geom import Se3Pose

CLAMP = 1e-8

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


class DegenerateInputWarning(UserWarning):
    """A loss log argument was non-positive and had to be clamped."""


@dataclass
class ProbVolume:
    """Per-voxel class probabilities, (X, Y, Z, C), rows summing to one."""

    probs: np.ndarray

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 4:
            raise ValueError(f"probs must be XxYxZxC, got shape {probs.shape}")
        if probs.min() < -1e-9 or probs.max() > 1.0 + 1e-9:
            raise ValueError("probabilities must lie in [0, 1]")
        sums = probs.sum(axis=-1)
        if np.abs(sums - 1.0).max() > 1e-6:
            raise ValueError("per-voxel probabilities must sum to 1 within 1e-6")
        self.probs = probs

    @property
    def num_classes(self) -> int:
        return self.probs.shape[-1]


@dataclass
class LabelVolume:
    """Ground-truth class ids, (X, Y, Z); 255 marks invalid voxels."""

    labels: np.ndarray

    def __init__(self, labels):
        labels = np.asarray(labels)
        if labels.ndim != 3:
            raise ValueError(f"labels must be XxYxZ, got shape {labels.shape}")
        self.labels = labels.astype(np.int64)

    @property
    def valid(self) -> np.ndarray:
        return self.labels != defaults.INVALID_LABEL


@dataclass
class LossWeights:
    """Weights of the synthesis loss terms."""

    w_pose: float = defaults.POSE_LOSS_WEIGHT
    w_img: float = 1.0
    w_feat: float = 1.0
    w_ssim: float = 1.0
    w_depth: float = 1.0

    def __post_init__(self):
        for name in ("w_pose", "w_img", "w_feat", "w_ssim", "w_depth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def _valid_voxel_loss(pred: ProbVolume, gt: LabelVolume, core, check=None):
    """Check that `gt` fits `pred`, then call `check`; apply `core` to the
    (n, C) probabilities and (n,) labels of the valid voxels and scatter its
    (n, C) gradient back. With no valid voxel: 0.0 and a zero gradient."""
    if pred.probs.shape[:3] != gt.labels.shape:
        raise ValueError(
            f"pred {pred.probs.shape[:3]} and gt {gt.labels.shape} dims differ"
        )
    bad = gt.labels[(gt.labels != defaults.INVALID_LABEL) & (gt.labels >= pred.num_classes)]
    if bad.size:
        raise ValueError(f"gt contains class id {int(bad[0])} >= C={pred.num_classes}")
    if check is not None:
        check()
    valid = gt.valid
    grad = np.zeros_like(pred.probs)
    if not valid.any():
        return 0.0, grad
    loss, g = core(pred.probs[valid], gt.labels[valid])
    grad[valid] = g
    return loss, grad


def _scal_core(p: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Affinity loss on flat (N, C) probabilities with N >= 1 labels in [0, C).

    Returns (loss, gradient w.r.t. every probability entry). Classes with
    zero predicted mass and zero ground-truth support are skipped; the
    average runs over the contributing classes, which include every label.
    """
    n, c = p.shape
    rows = np.arange(n)
    support = np.bincount(labels, minlength=c).astype(np.float64)
    off = 1.0 - p
    off[rows, labels] = 0.0
    # per class: mass on correct voxels, total predicted mass, ground-truth
    # support, and 1 - p over the other voxels with their count
    sums = np.stack([
        np.bincount(labels, weights=p[rows, labels], minlength=c),
        p.sum(axis=0),
        support,
        off.sum(axis=0),
        n - support,
    ], axis=1)
    contributing = (sums[:, 1] != 0.0) | (sums[:, 2] != 0.0)
    used = sums[contributing]
    for x in used[used <= 0.0]:
        warnings.warn(f"log argument {x:.3e} clamped to {CLAMP:.0e}", DegenerateInputWarning)
    log_np, log_dp, log_dr, log_ns, log_ds = np.log(np.maximum(used, CLAMP)).T
    inv_k = 1.0 / contributing.sum()
    terms = inv_k * ((log_np - log_dp) + (log_np - log_dr) + (log_ns - log_ds))
    # subtracted from 0.0 one class after another: a running sum, not pairwise
    loss = 0.0 - np.cumsum(terms)[-1]
    # d log(max(x, CLAMP))/dx is 1/x above the clamp and 0 inside it
    d = np.where(sums > CLAMP, 1.0 / np.maximum(sums, CLAMP), 0.0)
    g = np.repeat(((0.0 - d[:, 1]) - d[:, 3])[None], n, axis=0)
    g[rows, labels] = (2.0 * d[:, 0] - d[:, 1])[labels]
    return loss, np.where(contributing, -inv_k * g, 0.0)


def scal_sem(pred: ProbVolume, gt: LabelVolume) -> Tuple[float, np.ndarray]:
    """Semantic scene-class affinity loss over all classes, with gradient."""
    return _valid_voxel_loss(pred, gt, _scal_core)


def _scal_geo_core(p: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    p2 = np.stack([p[:, 0], 1.0 - p[:, 0]], axis=1)
    loss, g2 = _scal_core(p2, (labels != 0).astype(np.int64))
    grad = np.zeros_like(p)
    grad[:, 0] = g2[:, 0] - g2[:, 1]
    return loss, grad


def scal_geo(pred: ProbVolume, gt: LabelVolume) -> Tuple[float, np.ndarray]:
    """Geometric affinity loss on the binary occupied/empty reduction.

    Occupancy probability is 1 - p_empty; the gradient is chained back to
    the C-class input (only the empty channel carries signal).
    """
    return _valid_voxel_loss(pred, gt, _scal_geo_core)


def weighted_ce(
    pred: ProbVolume, gt: LabelVolume, class_weights
) -> Tuple[float, np.ndarray]:
    """Class-weighted cross-entropy over valid voxels, with gradient."""
    w = np.asarray(class_weights, dtype=np.float64).reshape(-1)

    def check():
        if w.shape[0] != pred.num_classes:
            raise ValueError(f"expected {pred.num_classes} class weights, got {w.shape[0]}")

    def core(p, labels):
        n = labels.size
        p_true = p[np.arange(n), labels]
        wi = w[labels]
        clamped = np.maximum(p_true, CLAMP)
        if (p_true <= 0.0).any():
            warnings.warn("cross-entropy probabilities clamped", DegenerateInputWarning)
        loss = float(np.mean(-wi * np.log(clamped)))
        grad = np.zeros_like(p)
        grad[np.arange(n), labels] = np.where(p_true > CLAMP, -wi / (n * clamped), 0.0)
        return loss, grad

    return _valid_voxel_loss(pred, gt, core, check)


def inverse_frequency_weights(gt: LabelVolume, num_classes: int) -> np.ndarray:
    """Inverse class-frequency weights normalized to mean 1 over present classes."""
    valid = gt.valid
    counts = np.bincount(gt.labels[valid].ravel(), minlength=num_classes)[:num_classes]
    weights = np.ones(num_classes)
    present = counts > 0
    if present.any():
        inv = valid.sum() / counts[present].astype(np.float64)
        weights[present] = inv / inv.mean()
    return weights


def l1_field(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute difference: channel sums divided by the H*W pixel count."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"field shapes differ: {a.shape} vs {b.shape}")
    h, w = a.shape[:2]
    return float(np.abs(a - b).sum() / (h * w))


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """The normalized 1-D Gaussian; the SSIM window is its outer product with itself."""
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return g / g.sum()


def _window_means(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Means of each x[k] under the window g g^T at every valid position of
    axes 1 and 2: `g` goes down the rows, then across the columns, each pass
    a sum of shifted slices in a fixed order."""
    n = g.size
    h, w = x.shape[1] - n + 1, x.shape[2] - n + 1
    down = g[0] * x[:, :h]
    for i in range(1, n):
        down += g[i] * x[:, i:i + h]
    out = g[0] * down[:, :, :w]
    for j in range(1, n):
        out += g[j] * down[:, :, j:j + w]
    return out


def ssim_loss(a: np.ndarray, b: np.ndarray) -> float:
    """1 - SSIM with an 11x11 Gaussian window (sigma 1.5), valid positions only.

    Accepts (H, W) or (H, W, C) images in [0, 1]; channels are averaged.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    h, w = a.shape[:2]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(
            f"image {w}x{h} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    g = _gaussian_window()
    a, b = a.reshape(h, w, -1), b.reshape(h, w, -1)
    # one channel's five planes at a time bounds the temporaries; the one mean
    # over the (h', w', C) map sums in the same order for any channel count
    ssim = np.empty((h - SSIM_WINDOW + 1, w - SSIM_WINDOW + 1, a.shape[2]))
    for c in range(a.shape[2]):
        x, y = a[..., c], b[..., c]
        planes = np.stack([x, y, x * x, y * y, x * y])
        mu_a, mu_b, m_aa, m_bb, m_ab = _window_means(planes, g)
        var_a = m_aa - mu_a * mu_a
        var_b = m_bb - mu_b * mu_b
        cov = m_ab - mu_a * mu_b
        num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
        den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
        ssim[..., c] = num / den
    return 1.0 - float(np.mean(ssim))


def total_ssc_loss(pred: ProbVolume, gt: LabelVolume, class_weights=None) -> float:
    """Unweighted sum of the geometric, semantic, and cross-entropy terms."""
    if class_weights is None:
        class_weights = inverse_frequency_weights(gt, pred.num_classes)
    geo, _ = scal_geo(pred, gt)
    sem, _ = scal_sem(pred, gt)
    ce, _ = weighted_ce(pred, gt, class_weights)
    return geo + sem + ce


def total_synth_loss(
    pose_pred: Se3Pose,
    pose_gt: Se3Pose,
    img_pred: np.ndarray,
    img_gt: np.ndarray,
    feat_pred: np.ndarray,
    feat_gt: np.ndarray,
    depth_pred: np.ndarray,
    depth_gt: np.ndarray,
    w: LossWeights | None = None,
) -> float:
    """Pose MSE (weighted 0.1 by default) plus image/feature/SSIM/depth terms."""
    if w is None:
        w = LossWeights()
    return (
        w.w_pose * pose_mse(pose_pred, pose_gt)
        + w.w_img * l1_field(img_pred, img_gt)
        + w.w_feat * l1_field(feat_pred, feat_gt)
        + w.w_ssim * ssim_loss(img_pred, img_gt)
        + w.w_depth * l1_field(depth_pred, depth_gt)
    )
