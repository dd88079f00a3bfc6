"""Rigid-body pose algebra, the camera and the frame every stage passes
(`FrameBundle`, its 8-bit image quantized by `quantize`), pinhole projection
and image tile reduction.

Conventions used throughout the package:
  - camera axes: x right, y down, z forward (KITTI camera frame)
  - pixel (0, 0) is the center of the top-left pixel
  - poses are world-from-camera unless stated otherwise
  - scene/world axes: x right, y forward, z up (see LEVEL_CAMERA_ROTATION)
  - twists are 6-vectors (wx, wy, wz, tx, ty, tz): rotation radians first,
    translation meters last

`project_pixels` drops points behind the camera or off the image rather
than flagging or raising on them, so pixel and voxel passes stay total and
touch only the points that land in the image.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# points with camera z <= Z_EPS count as behind the camera
Z_EPS = 1e-6
# re-orthonormalize a rotation whose drift from O(3) exceeds this
ORTHO_DRIFT = 1e-12
# reject inputs farther than this from a rotation (3-decimal text drifts ~1.5e-3)
_ORTHO_REJECT = 1e-2
_SMALL_ANGLE = 1e-8

# the one scene-axes convention: a level camera's axes as columns in scene
# axes, camera x = scene x, camera y = -scene z, camera z = scene y
LEVEL_CAMERA_ROTATION = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
LEVEL_CAMERA_ROTATION.flags.writeable = False


@dataclass(frozen=True)
class Se3Pose:
    """Rigid transform: 3x3 rotation plus translation in meters.

    The one rule for rotations: non-finite entries, a determinant <= 0 and a
    drift from orthonormality above _ORTHO_REJECT raise, in that order; a
    drift above ORTHO_DRIFT is projected onto SO(3), a smaller one kept.
    Every product is `_times`, so no LAPACK or BLAS call decides a bit.
    Instances are immutable and safe to share across threads.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("pose entries must be finite")
        # the triple product r0 . (r1 x r2); an overflowing block gets an inf
        # or nan det or drift, rejected below
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
        det = (
            r00 * (r11 * r22 - r12 * r21) + r01 * (r12 * r20 - r10 * r22)
            + r02 * (r10 * r21 - r11 * r20)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            drift = _drift(r)
        # before the projection, which would turn a near-reflection into a rotation
        if not det > 0.0:
            raise ValueError("rotation must have determinant +1")
        if not drift <= _ORTHO_REJECT:
            raise ValueError(f"rotation drift {drift:.3e} exceeds {_ORTHO_REJECT:.0e}")
        while drift > ORTHO_DRIFT:
            # Bjorck's iteration R <- R (3I - R^T R) / 2 (Bjorck & Bowie, 1971)
            # converges quadratically to the Frobenius-nearest orthonormal
            # matrix, a rotation since det > 0; from a drift <= _ORTHO_REJECT
            # it takes at most 3 steps
            r = 0.5 * _times(r, 3.0 * np.eye(3) - _times(r.T, r))
            drift = _drift(r)
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Se3Pose":
        return cls(np.eye(3), np.zeros(3))

    def matrix34(self) -> np.ndarray:
        m = np.empty((3, 4))
        m[:, :3] = self.rotation
        m[:, 3] = self.translation
        return m


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of a 3x3 `a` and a 3x3 or 3-vector `b`, summed in
    `rigid_transform`'s fixed order: the one 3x3 product of the package, so
    no pose bit depends on which BLAS kernel the host CPU picks. It runs on
    Python floats: numpy's IEEE products and sums, without its per-call cost."""
    a, cols = a.tolist(), zip(*b.tolist()) if b.ndim == 2 else [b.tolist()]
    return np.array([rigid_transform(a, (0.0, 0.0, 0.0), *c) for c in cols]).T.reshape(b.shape)


def _drift(r: np.ndarray) -> float:
    """Largest entry of |r r^T - I|."""
    return float(np.abs(_times(r, r.T) - np.eye(3)).max())


def compose(a: Se3Pose, b: Se3Pose) -> Se3Pose:
    """Composition applying b first, then a: result(p) = a(b(p))."""
    r = a.rotation
    return Se3Pose(_times(r, b.rotation), _times(r, b.translation) + a.translation)


def inverse(p: Se3Pose) -> Se3Pose:
    rt = p.rotation.T
    return Se3Pose(rt, -_times(rt, p.translation))


def relative_pose(from_pose: Se3Pose, to_pose: Se3Pose) -> Se3Pose:
    """Transform taking points in `from`'s camera frame into `to`'s camera frame.

    Both arguments are world-from-camera. Equal poses short-circuit to the
    exact identity so that identity warps are bit-exact.
    """
    if np.array_equal(from_pose.rotation, to_pose.rotation) and np.array_equal(
        from_pose.translation, to_pose.translation
    ):
        return Se3Pose.identity()
    return compose(inverse(to_pose), from_pose)


def _skew(w: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def se3_exp(xi) -> Se3Pose:
    """Closed-form exponential map of a twist (wx, wy, wz, tx, ty, tz)."""
    xi = np.asarray(xi, dtype=np.float64).reshape(6)
    if not np.all(np.isfinite(xi)):
        raise ValueError("twist entries must be finite")
    w, rho = xi[:3], xi[3:]
    theta = math.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    k = _skew(w)
    k2 = _times(k, k)
    eye = np.eye(3)
    if theta < _SMALL_ANGLE:
        # second-order Taylor of both R and V; error O(theta^3)
        r = eye + k + 0.5 * k2
        v = eye + 0.5 * k + k2 / 6.0
    else:
        t2 = theta * theta
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / t2
        c = (theta - math.sin(theta)) / (t2 * theta)
        r = eye + a * k + b * k2
        v = eye + b * k + c * k2
    return Se3Pose(r, _times(v, rho))


def _cos_angle(r: np.ndarray) -> float:
    """cos of a rotation's angle, (trace - 1) / 2 clamped to [-1, 1]."""
    return min(1.0, max(-1.0, (float(r[0, 0] + r[1, 1] + r[2, 2]) - 1.0) * 0.5))


def rotation_angle(r: np.ndarray) -> float:
    """The angle in [0, pi] of a rotation matrix, acos((trace - 1) / 2): the
    angle `se3_log` picks its branch by."""
    return math.acos(_cos_angle(r))


def se3_log(p: Se3Pose) -> np.ndarray:
    """Twist whose exponential reproduces the pose, with angle in [0, pi].

    Within 1e-6 of a half turn, sin(theta) and the skew part of R with it
    vanish, so the axis a comes from the symmetric part instead:
    (R + R^T) / 2 - cos(theta) I = (1 - cos(theta)) a a^T, which is
    (R + I) / 2 at pi. Its row with the largest diagonal entry is a
    multiple of a that rounding hurts least; a takes the sign that agrees
    with the skew part, and theta is atan2 of the skew part along a and
    cos(theta). At pi itself both signs give a log of the pose.
    """
    r = p.rotation
    cos_theta = _cos_angle(r)
    theta = math.acos(cos_theta)
    vee = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < _SMALL_ANGLE:
        w = vee
        k = _skew(w)
        v_inv = np.eye(3) - 0.5 * k + _times(k, k) / 12.0
    else:
        if theta >= math.pi - 1e-6:
            sym = 0.5 * (r + r.T)
            i = int(np.argmax(np.diag(sym)))
            row = sym[i].tolist()
            row[i] -= cos_theta
            norm = math.hypot(*row)
            axis = [x / norm for x in row]
            sin_theta = sum(a * b for a, b in zip(axis, vee.tolist()))
            if sin_theta < 0.0:
                axis, sin_theta = [-a for a in axis], -sin_theta
            theta = math.atan2(sin_theta, cos_theta)
            w = theta * np.array(axis)
        else:
            w = (theta / math.sin(theta)) * vee
        k = _skew(w)
        coeff = (1.0 - (theta * math.cos(theta * 0.5)) / (2.0 * math.sin(theta * 0.5))) / (
            theta * theta
        )
        v_inv = np.eye(3) - 0.5 * k + coeff * _times(k, k)
    return np.concatenate([w, _times(v_inv, p.translation)])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def quantize(image: np.ndarray) -> np.ndarray:
    """`image` as the 8-bit values a PPM holds, a new uint8 array: each value
    v in [0, 1] becomes floor(255 v + 0.5), the one rule by which a non-byte
    image becomes bytes. An image that is not floats (bytes are taken as
    they are by every caller), then a value that is not finite, then one
    outside [0, 1], raises ValueError before any is converted."""
    # an integer or bool image read by its values would give 1 the byte 255
    # here and the byte 1 as uint8: its byte would hang on its dtype
    if image.dtype.kind != "f":
        raise ValueError(f"image must be uint8 bytes or floats in [0, 1], got {image.dtype}")
    # NaN propagates through min and max, so the two cover the finite check;
    # the isfinite pass only picks the message
    if image.size and not (image.min() >= 0.0 and image.max() <= 1.0):
        if not np.isfinite(image).all():
            raise ValueError("image entries must be finite")
        raise ValueError("image entries must lie in [0, 1]")
    q = np.multiply(image, 255.0, dtype=np.float64)
    q += 0.5
    # q lies in [0.5, 255.5], where the cast's truncation is the floor
    return q.astype(np.uint8)


@dataclass
class FrameBundle:
    """One frame: the HxWxC 8-bit image as its PPM holds it, the HxW float32
    depth in meters (0 = invalid) as its .dpt holds it, pose, index.

    `pixels` is uint8 and `depth` float32, each taken as it is; any other
    image goes to `quantize`, the rule `write_image` writes by, which reads
    floats in [0, 1] and refuses any other dtype, and any other depth is
    checked, then cast.
    """

    pixels: np.ndarray
    depth: np.ndarray
    pose: Se3Pose
    frame_index: int

    def __post_init__(self):
        pixels = np.asarray(self.pixels)
        depth = np.asarray(self.depth)
        if pixels.ndim != 3:
            raise ValueError(f"image must be HxWxC, got shape {pixels.shape}")
        if 0 in pixels.shape:
            raise ValueError(f"image must not be empty, got shape {pixels.shape}")
        if depth.shape != pixels.shape[:2]:
            raise ValueError(
                f"depth shape {depth.shape} does not match image {pixels.shape[:2]}"
            )
        self.pixels = pixels if pixels.dtype == np.uint8 else quantize(pixels)
        # checked before the cast, which makes -1e-300 -0.0 and 1e39 inf
        if not (depth.min() >= 0.0 and depth.max() <= np.finfo(np.float32).max):
            raise ValueError("depth entries must be finite and >= 0")
        self.depth = depth.astype(np.float32, copy=False)

    @property
    def image(self) -> np.ndarray:
        """The pixels as floats in [0, 1], `pixels / 255.0`, a new array on
        every read."""
        return self.pixels / 255.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.depth.shape


def rigid_transform(r, t, x, y, z):
    """Move broadcast-compatible point coordinates x, y, z by (r, t), elementwise
    in a fixed order, so an identity transform returns them bit for bit. `r`
    and `t` may be arrays or (rows of) Python floats."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    xp = r00 * x + r01 * y + r02 * z + t[0]
    yp = r10 * x + r11 * y + r12 * z + t[1]
    zp = r20 * x + r21 * y + r22 * z + t[2]
    return xp, yp, zp


def project_pixels(r: np.ndarray, t: np.ndarray, x, y, z, k: CameraIntrinsics):
    """Move points by (r, t), project them and keep the ones that land in the image.

    x, y, z move as in `rigid_transform`. A point is kept when it lies in
    front of the camera (z' > Z_EPS) and its nearest pixel is inside the
    image; the rest are dropped. Returns (idx, pix, u, v, z') for the kept
    points: their ascending flat C-order indices in the broadcast shape, the
    row-major index vi * W + ui of their nearest pixel, their continuous
    pixel and their depth along the camera axis. This is the one place that
    rounds to the nearest pixel.
    """
    u, v, zp = (np.ravel(c) for c in rigid_transform(r, t, x, y, z))
    with np.errstate(divide="ignore", invalid="ignore"):
        _pinhole(u, v, zp, k)
    # the nearest pixel floor(a), a = u + 0.5, is in 0..n-1 exactly when 0 <= a < n,
    # so floor runs on the kept points only
    idx = np.flatnonzero((zp > Z_EPS) & _inside(u + 0.5, k.width) & _inside(v + 0.5, k.height))
    # one at a time, so each full-length array is freed before the next is cut
    u = u[idx]
    v = v[idx]
    zp = zp[idx]
    pix = np.floor(v + 0.5).astype(np.int64) * k.width + np.floor(u + 0.5).astype(np.int64)
    return idx, pix, u, v, zp


def _pinhole(u: np.ndarray, v: np.ndarray, z: np.ndarray, k: CameraIntrinsics) -> None:
    """Camera x and y in u and v become pixel coordinates, in place to bound
    peak memory: u = fx u / z + cx and v = fy v / z + cy."""
    u *= k.fx
    u /= z
    u += k.cx
    v *= k.fy
    v /= z
    v += k.cy


def _inside(a: np.ndarray, n: int) -> np.ndarray:
    """Mask of 0 <= a < n; a temporary passed as `a` is freed on return."""
    return (a >= 0) & (a < n)


def _floor_index(a: np.ndarray, n: int) -> np.ndarray:
    """floor(a) as int64 for an n-pixel axis; a is clipped to -2..n+2 first so any float fits."""
    return np.floor(np.clip(a, -2.0, n + 2.0)).astype(np.int64)


def box_footprint(r: np.ndarray, t: np.ndarray, x, y, z, k: CameraIntrinsics, eps):
    """Which of n convex boxes can project a point into the image, from their corners.

    x, y, z broadcast to (2, 2, 2, ...): the 8 corners of each box, boxes in
    C order over the trailing axes, and every point of a box lies in the
    convex hull of its corners. They move by (r, t) as in `rigid_transform`
    and are all projected in place. Projection in front of the camera keeps
    a convex set convex, so the corners bound the depth and the pixel
    rectangle of every point of the box. `eps` (a scalar, or one value per
    box) widens the depth bounds to cover how far a point's rounding can
    stray from its corners'.

    Returns (kept, f, u0, u1, v0, v1, zmin, zmax). `kept` marks the boxes
    that straddle the near plane Z_EPS, and those with a corner that is not
    finite, whose bounds say nothing. `f` holds the indices of the boxes
    with every corner in front whose rectangle of nearest pixels, padded by
    1 px, meets the image, u0..u1 x v0..v1 that rectangle clipped to the
    image (inclusive) and zmin..zmax their corners' depth range. No point of
    any other box projects into the image: all its corners lie behind Z_EPS,
    or all in front and the rectangle misses.
    """
    # a non-finite corner times a zero rotation entry is NaN; a dropped box may divide by 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u, v, zc = (c.reshape(8, -1) for c in rigid_transform(r, t, x, y, z))
        finite = np.isfinite(u + v + zc).all(axis=0)
        zmin, zmax = zc.min(axis=0), zc.max(axis=0)
        front = finite & (zmin > Z_EPS + eps)
        kept = ~finite | (~front & (zmax > Z_EPS - eps))
        _pinhole(u, v, zc, k)
        umin, umax, vmin, vmax = u.min(axis=0), u.max(axis=0), v.min(axis=0), v.max(axis=0)
    f = np.flatnonzero(front)
    # the nearest pixels floor(u + 0.5) of the corners, padded by 1 px, clipped to the image
    u0 = np.maximum(_floor_index(umin[f] - 0.5, k.width), 0)
    u1 = np.minimum(_floor_index(umax[f] + 1.5, k.width), k.width - 1)
    v0 = np.maximum(_floor_index(vmin[f] - 0.5, k.height), 0)
    v1 = np.minimum(_floor_index(vmax[f] + 1.5, k.height), k.height - 1)
    on = np.flatnonzero((u0 <= u1) & (v0 <= v1))
    return kept, f[on], u0[on], u1[on], v0[on], v1[on], zmin[f[on]], zmax[f[on]]


def bilinear_corners(uv: np.ndarray, h: int, w: int):
    """Where bilinear sampling reads an h x w field at (N, 2) pixel locations:
    the one corner rule of `bilinear_sample_many` and of any caller that
    needs to know which cells it reads.

    A location outside the hull of pixel centers, 0 <= u <= w - 1 and
    0 <= v <= h - 1, reads nothing. Returns (ok, y0, x0, y1, x1, fx, fy):
    the (N,) mask of the locations inside, then for each of them the rows
    and columns of its four corner cells and its offsets from the first.
    Integer coordinates take their own cell with full weight, including the
    last row and column (the upper neighbor then carries it).
    """
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    u, v = uv[:, 0], uv[:, 1]
    ok = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    u, v = u[ok], v[ok]
    x0 = np.minimum(np.floor(u), max(w - 2, 0)).astype(np.int64)
    y0 = np.minimum(np.floor(v), max(h - 2, 0)).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    return ok, y0, x0, y1, x1, u - x0, v - y0


def bilinear_sample_many(field: np.ndarray, corners):
    """Bilinear samples of an HxWxC field at the locations whose
    `bilinear_corners(uv, H, W)` are `corners`, as (N, C) values; a location
    outside the hull of pixel centers reads no cell and gives zeros.
    """
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 3 or f.size == 0:
        raise ValueError(f"field must be a nonempty HxWxC array, got shape {f.shape}")
    ok, y0, x0, y1, x1, fx, fy = corners
    fx = fx[:, None]
    fy = fy[:, None]
    vals = np.zeros((ok.size, f.shape[2]))
    vals[ok] = (
        f[y0, x0] * (1.0 - fx) * (1.0 - fy)
        + f[y0, x1] * fx * (1.0 - fy)
        + f[y1, x0] * (1.0 - fx) * fy
        + f[y1, x1] * fx * fy
    )
    return vals


def tile_reduce(op, a: np.ndarray, s: int) -> np.ndarray:
    """op over each s x s tile of a 2-D array whose sides are multiples of s (s >= 2).

    Each tile row is folded from left to right, then the row results from top
    to bottom: for np.add, r_i = ((a_i0 + a_i1) + ...) + a_i,s-1 and then
    ((r_0 + r_1) + ...) + r_s-1. The order is fixed here, so the bits do not
    depend on how numpy orders a reduction; it is the order numpy's block
    mean sums in whenever the array is more than one tile wide.
    """
    h, w = a.shape
    cols = a.reshape(h, w // s, s)
    rows = op(cols[:, :, 0], cols[:, :, 1])
    for q in range(2, s):
        op(rows, cols[:, :, q], out=rows)
    rows = rows.reshape(h // s, s, w // s)
    out = op(rows[:, 0], rows[:, 1])
    for q in range(2, s):
        op(out, rows[:, q], out=out)
    return out


# edge in pixels of the depth tiles the visibility and splat culls read
DEPTH_TILE = 8


def depth_tiles(depth: np.ndarray):
    """(lo, hi) over the DEPTH_TILE x DEPTH_TILE tiles of a depth map: the min
    positive depth of each tile (inf if none) and its max depth.

    NaN is neither positive nor a max. Edge padding fills the last partial
    tiles with copies of their own pixels, which min and max ignore. Min
    and max do not depend on the order of the fold, so the tiles are
    reduced on the transpose, where the first fold runs along whole rows
    in memory order rather than down strided columns.
    """
    s = DEPTH_TILE
    h, w = depth.shape
    if h % s or w % s:
        depth = np.pad(depth, ((0, -h % s), (0, -w % s)), mode="edge")
    lo = tile_reduce(np.minimum, np.where(depth > 0.0, depth, np.inf).T, s).T
    hi = tile_reduce(np.fmax, depth.T, s).T
    return lo, hi
