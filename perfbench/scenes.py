"""Paper-scale inputs: a seeded street of axis-aligned boxes, drawn in closed form.

Why not `scenecast.synth.render_frame`: its voxel raycaster takes about 26 s
per 1216x368 frame of a 0.2 m grid on a 2-core machine (157 s for the six
frames of one fusion), which would swamp every run. An axis-aligned box has
an exact ray/box depth (the slab test), and with the canonical level camera
each ray's direction is (a_u, 1, b_v) in world axes: the y slab is the same
for every ray, the x slab depends only on the column and the z slab only on
the row. A box therefore costs two 1-D interval computations plus one
max/min over the pixel rectangle it covers, and a frame takes tens of
milliseconds. The scene mirrors `synth`'s corridor layout at street scale:
ground, two walls and ground-supported boxes left and right of a clear lane,
shaded with an 8-bit palette that falls off with depth.

Everything here is numpy only and independent of the package under test, so
the checks in `workloads.py` compare the program against these exact inputs.
"""
from __future__ import annotations

import struct

import numpy as np

VOXEL = 0.2
WIDTH, HEIGHT = 1216, 368
# KITTI odometry P0 of sequences 11-21 (1226x370), cropped to 1216x368
FX = FY = 707.0912
CX, CY = 596.8873, 182.1104
D_MAX = 80.0
SHADE_FALLOFF = 0.05
# sampled frames are FRAME_INTERVAL raw frames apart at 1 m per raw frame;
# integral positions keep constant-velocity extrapolation exact
FRAME_INTERVAL = 5
STEP_M = 5.0
GROUND_Z = -2.0
WALL_X = 12.0
LANE_X = 2.0
# frame windows start at i % WINDOW_PERIOD, so any iteration count stays on
# the street: a window of up to WINDOW_SPAN frames must end before the far end
WINDOW_PERIOD = 400
WINDOW_SPAN = 8

# camera axes (x right, y down, z forward) in world axes (x right, y forward, z up)
CANONICAL_ROTATION = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])

PALETTE = np.array(
    [
        (0.00, 0.00, 0.00),  # empty
        (1.00, 0.10, 0.10),  # ground
        (0.10, 1.00, 0.10),  # walls
        (0.15, 0.15, 1.00),
        (1.00, 1.00, 0.10),
        (1.00, 0.10, 1.00),
        (0.10, 1.00, 1.00),
        (1.00, 0.55, 0.10),
    ]
)


class StreetScene:
    """Boxes along +y for `length_m` metres; same seed, same boxes."""

    def __init__(self, seed: int, length_m: float = 2500.0):
        if 10.0 + STEP_M * (WINDOW_PERIOD + WINDOW_SPAN) + D_MAX > length_m:
            raise ValueError(f"a {length_m} m street is too short for {WINDOW_PERIOD} windows")
        rng = np.random.default_rng(seed)
        boxes = [
            ((-40.0, -100.0, GROUND_Z), (40.0, length_m + 200.0, GROUND_Z + VOXEL), 1),
            ((-WALL_X - 0.4, -100.0, GROUND_Z + VOXEL), (-WALL_X, length_m + 200.0, 4.0), 2),
            ((WALL_X, -100.0, GROUND_Z + VOXEL), (WALL_X + 0.4, length_m + 200.0, 4.0), 2),
        ]
        y = -20.0
        while y < length_m + 200.0:
            y += float(rng.integers(5, 20)) * VOXEL
            sx, sy, sz = (int(rng.integers(lo, hi)) * VOXEL for lo, hi in ((8, 24), (8, 40), (5, 17)))
            room = WALL_X - LANE_X - sx
            x0 = LANE_X + int(rng.integers(0, int(room / VOXEL) + 1)) * VOXEL
            if rng.integers(0, 2):
                x0 = -x0 - sx
            cls = int(rng.integers(3, len(PALETTE)))
            boxes.append(((x0, y, GROUND_Z + VOXEL), (x0 + sx, y + sy, GROUND_Z + VOXEL + sz), cls))
            y += sy
        self.lo = np.array([b[0] for b in boxes])
        self.hi = np.array([b[1] for b in boxes])
        self.cls = np.array([b[2] for b in boxes], dtype=np.uint8)
        self.length_m = length_m

    def camera_position(self, j: int) -> np.ndarray:
        """World position of sampled frame j on the straight trajectory."""
        y = 10.0 + STEP_M * j
        if y + D_MAX > self.length_m:
            raise ValueError(f"frame {j} runs past the end of the scene")
        return np.array([0.0, y, 0.0])

    def window_start(self, i: int) -> int:
        """First sampled frame of iteration i's window of at most WINDOW_SPAN frames."""
        return i % WINDOW_PERIOD

    def pose34(self, j: int) -> np.ndarray:
        m = np.empty((3, 4))
        m[:, :3] = CANONICAL_ROTATION
        m[:, 3] = self.camera_position(j)
        return m

    def render(self, j: int):
        """Exact first-hit depth (camera z, float32-rounded, 0 = miss) and uint8 image."""
        o = self.camera_position(j)
        a = (np.arange(WIDTH) - CX) / FX            # world x per unit depth, by column
        b = -(np.arange(HEIGHT) - CY) / FY          # world z per unit depth, by row
        depth = np.full((HEIGHT, WIDTH), np.inf)
        cls = np.zeros((HEIGHT, WIDTH), dtype=np.uint8)
        near = (self.hi[:, 1] > o[1]) & (self.lo[:, 1] - o[1] < D_MAX)
        for lo, hi, c in zip(self.lo[near], self.hi[near], self.cls[near]):
            ty0, ty1 = lo[1] - o[1], hi[1] - o[1]
            c0, c1 = _slab(a, lo[0] - o[0], hi[0] - o[0], ty0, ty1)
            r0, r1 = _slab(b, lo[2] - o[2], hi[2] - o[2], ty0, ty1)
            cols, rows = np.flatnonzero(c0 <= c1), np.flatnonzero(r0 <= r1)
            if not cols.size or not rows.size:
                continue
            cs = slice(cols[0], cols[-1] + 1)
            rs = slice(rows[0], rows[-1] + 1)
            enter = np.maximum(r0[rs, None], c0[None, cs])
            hit = (enter <= np.minimum(r1[rs, None], c1[None, cs])) & (enter < depth[rs, cs])
            depth[rs, cs][hit] = enter[hit]
            cls[rs, cs][hit] = c
        miss = ~(depth <= D_MAX)
        depth[miss] = 0.0
        cls[miss] = 0
        depth = depth.astype(np.float32)
        shade = np.where(cls > 0, 1.0 / (1.0 + SHADE_FALLOFF * depth.astype(np.float64)), 0.0)
        image = np.floor(PALETTE[cls] * shade[..., None] * 255.0 + 0.5).astype(np.uint8)
        return depth, image


def _slab(a, lo, hi, t0, t1):
    """Per-ray depth interval inside lo <= a*t <= hi, clipped to [t0, t1] and t > 0."""
    with np.errstate(divide="ignore"):
        ta, tb = lo / a, hi / a
    enter = np.maximum(np.minimum(ta, tb), max(t0, 1e-6))
    leave = np.minimum(np.maximum(ta, tb), t1)
    return enter, leave


def ppm_bytes(image: np.ndarray) -> bytes:
    h, w = image.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + np.ascontiguousarray(image).tobytes()


def dpt_bytes(depth: np.ndarray) -> bytes:
    d = np.ascontiguousarray(depth, dtype="<f4")
    return b"DPT1" + struct.pack("<II", *d.shape) + d.tobytes()


def pose_line(m34: np.ndarray) -> str:
    return " ".join(f"{v:.17e}" for v in m34.reshape(12))
