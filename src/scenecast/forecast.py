"""Constant-velocity pose extrapolation and the pose MSE loss.

A deterministic stand-in for a learned pose predictor: the recent per-step
motion is averaged in twist space (so the mean is always a valid rigid
motion) and replayed once to produce the next pose. Constant-twist
trajectories are extrapolated exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Se3Pose, compose, inverse, rotation_angle, se3_exp, se3_log

DEFAULT_WINDOW_CAP = 3


@dataclass(frozen=True)
class PoseSequence:
    """Ordered world-from-camera poses at frame indices spaced by a fixed interval."""

    poses: tuple
    frame_indices: tuple
    frame_interval: int

    def __post_init__(self):
        poses = tuple(self.poses)
        indices = tuple(int(i) for i in self.frame_indices)
        if len(poses) != len(indices):
            raise ValueError("poses and frame_indices must have equal length")
        if len(poses) == 0:
            raise ValueError("pose sequence must be nonempty")
        if self.frame_interval <= 0:
            raise ValueError("frame_interval must be positive")
        for a, b in zip(indices, indices[1:]):
            if b - a != self.frame_interval:
                raise ValueError(
                    f"frame indices must be spaced by {self.frame_interval}, got {a} -> {b}"
                )
        object.__setattr__(self, "poses", poses)
        object.__setattr__(self, "frame_indices", indices)

    def __len__(self) -> int:
        return len(self.poses)


def forecast_next(seq: PoseSequence, window: int | None = None) -> Se3Pose:
    """Next-frame pose: the last pose advanced by the mean recent step twist.

    The step twists log(P_i^-1 P_{i+1}) of the last `window` consecutive
    pose pairs (default min(history, 3)) are averaged in the Lie algebra, so
    the replayed motion is always a valid pose, and a fixed world
    re-anchoring of all poses cancels out. A step whose rotation lies within
    1e-6 of a half turn, where the sign of its log's axis is not determined,
    raises ValueError naming its two frames.
    """
    if window is None:
        window = max(1, min(len(seq) - 1, DEFAULT_WINDOW_CAP))
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(seq) < window + 1:
        raise ValueError(
            f"need at least {window + 1} poses for window {window}, got {len(seq)}"
        )
    poses = seq.poses[-(window + 1):]
    indices = seq.frame_indices[-(window + 1):]
    twists = []
    for a, b, ia, ib in zip(poses, poses[1:], indices, indices[1:]):
        step = compose(inverse(a), b)
        # a step this close to a half turn has two logs of opposite axes, and
        # the least change of its rotation swaps them, so a mean over it is
        # not determined by the poses
        theta = rotation_angle(step.rotation)
        if theta >= math.pi - 1e-6:
            raise ValueError(
                f"step from frame {ia} to frame {ib}: rotation angle {theta:.9f} "
                "too close to pi for a mean step"
            )
        twists.append(se3_log(step))
    return compose(poses[-1], se3_exp(np.mean(twists, axis=0)))


def pose_mse(pred: Se3Pose, gt: Se3Pose) -> float:
    """Mean squared difference over the 12 entries of the 3x4 [R|t] matrices."""
    diff = pred.matrix34() - gt.matrix34()
    return float(np.mean(diff * diff))
