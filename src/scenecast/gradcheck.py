"""Finite-difference verification of the analytic voxel-loss gradients.

Random probability volumes are drawn from bounded logits so every entry sits
well above the log clamp; central differences at h = 1e-5 are then a valid
independent reference for the analytic gradients.
"""
from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from . import defaults
from .losses import (
    LabelVolume,
    ProbVolume,
    inverse_frequency_weights,
    scal_geo,
    scal_sem,
    weighted_ce,
)

FD_STEP = 1e-5
REL_TOLERANCE = 1e-4
# largest (X, Y, Z, C) of a `run_gradient_checks` volume
CHECK_DIMS = (8, 8, 4, 4)


def random_volume_pair(rng: np.random.Generator, max_dims):
    """A strictly-positive probability volume plus labels with some invalids;
    each of X, Y, Z, C is drawn from 2 to its entry of `max_dims`."""
    mx, my, mz, mc = max_dims
    shape = (
        int(rng.integers(2, mx + 1)),
        int(rng.integers(2, my + 1)),
        int(rng.integers(2, mz + 1)),
    )
    c = int(rng.integers(2, mc + 1))
    logits = rng.uniform(-3.0, 3.0, size=shape + (c,))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    labels = rng.integers(0, c, size=shape)
    invalid = rng.random(size=shape) < 0.1
    labels[invalid] = defaults.INVALID_LABEL
    if (labels == defaults.INVALID_LABEL).all():
        labels.flat[0] = 0
    return ProbVolume(probs), LabelVolume(labels)


def finite_difference(loss_fn: Callable[[np.ndarray], float], probs: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar loss over every volume entry, at FD_STEP.

    Each entry of `probs` is moved in place and restored exactly, so
    `loss_fn` may read the array through a validated volume that holds it.
    """
    grad = np.zeros_like(probs)
    flat = probs.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        hi = loss_fn(probs)
        flat[i] = orig - FD_STEP
        lo = loss_fn(probs)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * FD_STEP)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(scale > 1e-10, np.abs(a - b) / scale, 0.0)
    return float(rel.max()) if rel.size else 0.0


def run_gradient_checks(num_volumes: int = 50, seed: int = 0) -> List[Tuple[str, float]]:
    """Worst relative FD-vs-analytic error per loss over random volumes."""
    if num_volumes < 1:
        raise ValueError(f"num_volumes must be >= 1, got {num_volumes}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    worst = {"scal_sem": 0.0, "scal_geo": 0.0, "weighted_ce": 0.0}
    for _ in range(num_volumes):
        pred, gt = random_volume_pair(rng, CHECK_DIMS)
        weights = inverse_frequency_weights(gt, pred.num_classes)
        cases = [
            ("scal_sem", scal_sem),
            ("scal_geo", scal_geo),
            ("weighted_ce", lambda p, g: weighted_ce(p, g, weights)),
        ]
        for name, fn in cases:
            _, analytic = fn(pred, gt)
            fd = finite_difference(lambda _, f=fn: f(pred, gt)[0], pred.probs)
            worst[name] = max(worst[name], max_relative_error(fd, analytic))
    return list(worst.items())
