"""Training-loss kernels: scene-class affinity, weighted CE, L1, SSIM.

The affinity loss drives class-wise precision, recall, and specificity
through their logs; it is applied semantically (per class) and geometrically
(binary occupied/empty). Analytic gradients are returned alongside every
voxel loss and are verified against central finite differences in the tests.

All log arguments are clamped at CLAMP = 1e-8; sums that needed clamping are
reported through a DegenerateInputWarning while keeping the loss finite.
Reductions rely on numpy's pairwise summation, so results are deterministic.
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


def _check_pair(pred: ProbVolume, gt: LabelVolume) -> None:
    if pred.probs.shape[:3] != gt.labels.shape:
        raise ValueError(
            f"pred {pred.probs.shape[:3]} and gt {gt.labels.shape} dims differ"
        )
    bad = gt.labels[(gt.labels != defaults.INVALID_LABEL) & (gt.labels >= pred.num_classes)]
    if bad.size:
        raise ValueError(f"gt contains class id {int(bad[0])} >= C={pred.num_classes}")


def _safe_log(x: float) -> float:
    if x <= 0.0:
        warnings.warn(
            f"log argument {x:.3e} clamped to {CLAMP:.0e}", DegenerateInputWarning
        )
    return float(np.log(max(x, CLAMP)))


def _scal_core(p: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Affinity loss on flat (N, C) probabilities with labels in [0, C).

    Returns (loss, gradient w.r.t. every probability entry). Classes with
    zero predicted mass and zero ground-truth support are skipped; the
    average runs over the contributing classes.
    """
    n, c = p.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0

    num_p = (p * onehot).sum(axis=0)          # mass on correct voxels
    den_p = p.sum(axis=0)                     # total predicted mass
    den_r = onehot.sum(axis=0)                # ground-truth support
    num_s = ((1.0 - p) * (1.0 - onehot)).sum(axis=0)
    den_s = (1.0 - onehot).sum(axis=0)

    contributing = ~((den_p == 0.0) & (den_r == 0.0))
    kcount = int(contributing.sum())
    if kcount == 0:
        return 0.0, np.zeros_like(p)

    total = 0.0
    grad = np.zeros_like(p)
    inv_k = 1.0 / kcount
    for ci in np.flatnonzero(contributing):
        log_num = _safe_log(num_p[ci])
        pc = log_num - _safe_log(den_p[ci])
        rc = log_num - _safe_log(den_r[ci])
        sc = _safe_log(num_s[ci]) - _safe_log(den_s[ci])
        total -= inv_k * (pc + rc + sc)
        # d log(max(x, CLAMP))/dx is 1/x above the clamp and 0 inside it
        g = np.zeros(n)
        if num_p[ci] > CLAMP:
            g += 2.0 * onehot[:, ci] / num_p[ci]      # from P_c and R_c
        if den_p[ci] > CLAMP:
            g -= 1.0 / den_p[ci]
        if num_s[ci] > CLAMP:
            g -= (1.0 - onehot[:, ci]) / num_s[ci]
        grad[:, ci] = -inv_k * g
    return total, grad


def scal_sem(pred: ProbVolume, gt: LabelVolume) -> Tuple[float, np.ndarray]:
    """Semantic scene-class affinity loss over all classes, with gradient."""
    _check_pair(pred, gt)
    valid = gt.valid
    grad = np.zeros_like(pred.probs)
    if not valid.any():
        return 0.0, grad
    loss, g = _scal_core(pred.probs[valid], gt.labels[valid])
    grad[valid] = g
    return loss, grad


def scal_geo(pred: ProbVolume, gt: LabelVolume) -> Tuple[float, np.ndarray]:
    """Geometric affinity loss on the binary occupied/empty reduction.

    Occupancy probability is 1 - p_empty; the gradient is chained back to
    the C-class input (only the empty channel carries signal).
    """
    _check_pair(pred, gt)
    valid = gt.valid
    grad = np.zeros_like(pred.probs)
    if not valid.any():
        return 0.0, grad
    p_empty = pred.probs[valid][:, 0]
    p2 = np.stack([p_empty, 1.0 - p_empty], axis=1)
    labels2 = (gt.labels[valid] != 0).astype(np.int64)
    loss, g2 = _scal_core(p2, labels2)
    grad[valid, 0] = g2[:, 0] - g2[:, 1]
    return loss, grad


def weighted_ce(
    pred: ProbVolume, gt: LabelVolume, class_weights
) -> Tuple[float, np.ndarray]:
    """Class-weighted cross-entropy over valid voxels, with gradient."""
    _check_pair(pred, gt)
    w = np.asarray(class_weights, dtype=np.float64).reshape(-1)
    if w.shape[0] != pred.num_classes:
        raise ValueError(
            f"expected {pred.num_classes} class weights, got {w.shape[0]}"
        )
    valid = gt.valid
    grad = np.zeros_like(pred.probs)
    if not valid.any():
        return 0.0, grad
    labels = gt.labels[valid]
    p_true = pred.probs[valid][np.arange(labels.size), labels]
    wi = w[labels]
    clamped = np.maximum(p_true, CLAMP)
    if (p_true <= 0.0).any():
        warnings.warn("cross-entropy probabilities clamped", DegenerateInputWarning)
    loss = float(np.mean(-wi * np.log(clamped)))
    g = np.where(p_true > CLAMP, -wi / (labels.size * p_true), 0.0)
    gv = np.zeros((labels.size, pred.num_classes))
    gv[np.arange(labels.size), labels] = g
    grad[valid] = gv
    return loss, grad


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
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    g /= g.sum()
    return np.outer(g, g)


def _ssim_channel(a: np.ndarray, b: np.ndarray, win: np.ndarray) -> float:
    from numpy.lib.stride_tricks import sliding_window_view

    shape = (win.shape[0], win.shape[1])
    mu_a = np.tensordot(sliding_window_view(a, shape), win, axes=2)
    mu_b = np.tensordot(sliding_window_view(b, shape), win, axes=2)
    m_aa = np.tensordot(sliding_window_view(a * a, shape), win, axes=2)
    m_bb = np.tensordot(sliding_window_view(b * b, shape), win, axes=2)
    m_ab = np.tensordot(sliding_window_view(a * b, shape), win, axes=2)
    var_a = m_aa - mu_a * mu_a
    var_b = m_bb - mu_b * mu_b
    cov = m_ab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(np.mean(num / den))


def ssim_loss(a: np.ndarray, b: np.ndarray) -> float:
    """1 - SSIM with an 11x11 Gaussian window (sigma 1.5), valid positions only.

    Accepts (H, W) or (H, W, C) images in [0, 1]; channels are averaged.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[:, :, None]
        b = b[:, :, None]
    h, w = a.shape[:2]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(
            f"image {w}x{h} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    win = _gaussian_window()
    vals = [_ssim_channel(a[:, :, c], b[:, :, c], win) for c in range(a.shape[2])]
    return 1.0 - float(np.mean(vals))


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
