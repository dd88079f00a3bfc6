"""Bit-exact file formats and KITTI-style pose/frame ingestion.

Binary layouts (all little-endian):
  VXG1  voxel grid:  magic, u32 X Y Z, f32 voxel_size, f32[3] origin,
        then X*Y*Z label bytes, x slowest / z fastest
  DPT1  depth map:   magic, u32 H W, then H*W f32 meters, row-major
  FVX1  fused volume: magic, u32 BX BY BZ C, then BX*BY*BZ*C finite f32, C fastest
  BVX1  block visibility: magic, u32 F BX BY BZ W H, i64 frame_indices[F],
        F*BX*BY*BZ visibility bytes, then F*BX*BY*BZ*3 finite f32 projections

`_write_record` writes each as magic, packed header and payload arrays;
`_Cursor` reads them back, checking each part's length and trailing bytes.
Images are binary PPM (P6, maxval 255), read and written as the uint8 pixels
a `FrameBundle` holds (a float image is written as floor(255*v + 0.5)); masks
go out as PGM (P5). Pose files are UTF-8 KITTI odometry text: one 3x4 row-major
[R|t] world-from-camera per line, made a pose by the `Se3Pose` constructor,
the one rule for rotations.

All writers go through an atomic temp-file-plus-rename. Every reader raises
only FormatError, naming the file and byte offset, or the line, at fault.
"""
from __future__ import annotations

import math
import os
import re
import struct
import tempfile
from pathlib import Path
from typing import List

import numpy as np

from .fusion import BlockVisibility, FusedVolume, SceneGrid, SceneRange
from .geom import FrameBundle, Se3Pose, quantize

MAGIC_GRID = b"VXG1"
MAGIC_DEPTH = b"DPT1"
MAGIC_FUSED = b"FVX1"
MAGIC_BLOCKVIS = b"BVX1"


class FormatError(ValueError):
    """Malformed file content; the message names the offending offset/line."""


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory plus a rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("ascii"))


class _Cursor:
    """Reads one file front to back: magic, header fields, payload arrays, end."""

    def __init__(self, path, magic: bytes):
        self.path = path
        self.buf = Path(path).read_bytes()
        self.offset = 0
        self.take(len(magic), "magic")
        if not self.buf.startswith(magic):
            raise self.fail(
                f"bad magic at offset 0: expected {magic!r}, got {self.buf[:len(magic)]!r}"
            )

    def fail(self, message: str) -> FormatError:
        return FormatError(f"{self.path}: {message}")

    def take(self, size: int, what: str) -> int:
        """Advance past `size` bytes holding `what`; returns where they start."""
        have = len(self.buf) - self.offset
        if have < size:
            raise self.fail(
                f"truncated file: need {size} bytes for {what} at offset {self.offset}, "
                f"have {have}"
            )
        self.offset += size
        return self.offset - size

    def header(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self.take(struct.calcsize(fmt), what))

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        at = self.take(np.dtype(dtype).itemsize * count, what)
        return np.frombuffer(self.buf, dtype=dtype, count=count, offset=at)

    def f32(self, count: int, what: str, nonnegative: bool = False) -> np.ndarray:
        """`count` little-endian f32 values of `what`; the first that is not
        finite, or is negative when `nonnegative`, raises naming its offset."""
        start = self.offset
        values = self.array("<f4", count, f"{what} payload")
        # NaN propagates through min and max, so the two decide; the scan for
        # the first bad offset runs only on failure
        lo, hi = (values.min(), values.max()) if count else (0.0, 0.0)
        if not (np.isfinite(lo) and np.isfinite(hi) and (lo >= 0.0 or not nonnegative)):
            bad = ~(np.isfinite(values) & (values >= 0.0 if nonnegative else True))
            i = int(np.flatnonzero(bad)[0])
            rule = "finite" + " and >= 0" * nonnegative
            raise self.fail(f"{what} value {values[i]} at offset {start + 4 * i} is not {rule}")
        return values

    def end(self) -> None:
        if len(self.buf) != self.offset:
            raise self.fail(
                f"trailing bytes at offset {self.offset}: expected {self.offset} total, "
                f"got {len(self.buf)}"
            )


def _f32(values, what: str, nonnegative: bool = False) -> np.ndarray:
    """`values` as little-endian f32; one that is not finite as f32, or is
    negative before the cast when `nonnegative`, raises ValueError."""
    with np.errstate(over="ignore"):  # beyond f32's range is inf, refused below
        a = np.asarray(values, dtype="<f4")
    if not np.all(np.isfinite(a) & (np.asarray(values) >= 0.0 if nonnegative else True)):
        raise ValueError(f"{what} values must be finite{' and >= 0' * nonnegative} as f32")
    return a


def _write_record(path, magic: bytes, fmt: str, header, *payload: np.ndarray) -> None:
    """Write magic, the header fields packed with `fmt`, then each array in C order."""
    data = [magic, struct.pack(fmt, *header)] + [a.tobytes() for a in payload]
    atomic_write_bytes(path, b"".join(data))


# ---------------------------------------------------------------- voxel grids

def write_grid(path, grid: SceneGrid) -> None:
    rng = grid.range
    _write_record(
        path, MAGIC_GRID, "<IIIf3f", (*rng.dims, rng.voxel_size, *rng.origin),
        np.asarray(grid.labels, dtype=np.uint8),
    )


def read_grid(path) -> SceneGrid:
    cur = _Cursor(path, MAGIC_GRID)
    nx, ny, nz, vs, ox, oy, oz = cur.header("<IIIf3f", "grid header")
    for i, n in enumerate((nx, ny, nz)):
        if n == 0:
            raise cur.fail(f"zero grid dim at offset {4 + 4 * i}")
    if not (vs > 0 and np.isfinite(vs)):
        raise cur.fail(f"invalid voxel_size {vs} at offset 16")
    for i, o in enumerate((ox, oy, oz)):
        if not np.isfinite(o):
            raise cur.fail(f"non-finite origin {o} at offset {20 + 4 * i}")
    labels = cur.array(np.uint8, nx * ny * nz, "label payload")
    cur.end()
    vs_f = float(np.float32(vs))
    extents = (nx * vs_f, ny * vs_f, nz * vs_f)
    origin = (float(np.float32(ox)), float(np.float32(oy)), float(np.float32(oz)))
    return SceneGrid(SceneRange(origin, extents, vs_f), labels.reshape(nx, ny, nz).copy())


# ----------------------------------------------------------------- depth maps

def write_depth(path, depth: np.ndarray) -> None:
    d = _f32(depth, "depth", nonnegative=True)
    if d.ndim != 2 or d.size == 0:
        raise ValueError(f"depth must be HxW with H, W >= 1, got shape {d.shape}")
    _write_record(path, MAGIC_DEPTH, "<II", d.shape, d)


def read_depth(path) -> np.ndarray:
    """The HxW float32 depth of a .dpt, a read-only view of the file's bytes."""
    cur = _Cursor(path, MAGIC_DEPTH)
    h, w = cur.header("<II", "depth header")
    for i, n in enumerate((h, w)):
        if n == 0:
            raise cur.fail(f"zero depth dim at offset {4 + 4 * i}")
    d = cur.f32(h * w, "depth", nonnegative=True)
    cur.end()
    return d.reshape(h, w)


# --------------------------------------------------------------------- images

# rows write_image quantises at a time
_IMAGE_BAND = 32
# one integer token of a PNM header
_PNM_INTEGER = re.compile(rb"[0-9]+")


def _pnm_buffer(magic: str, shape: tuple) -> tuple:
    """(buffer, pixels): one uint8 array holding a binary PNM header (magic,
    width, height, maxval 255), then room for the pixels, and a view of that
    room in `shape`, H x W or H x W x 3. The caller fills the view and writes
    the buffer, so a write holds one copy of the frame."""
    header = np.frombuffer(f"{magic}\n{shape[1]} {shape[0]}\n255\n".encode("ascii"), np.uint8)
    buf = np.empty(header.size + math.prod(shape), dtype=np.uint8)
    buf[: header.size] = header
    return buf, buf[header.size:].reshape(shape)


def write_image(path, image: np.ndarray) -> None:
    """Write an HxWx3 image as binary PPM (P6): uint8 values as they are,
    any other values as floats in [0, 1] quantised by `geom.quantize`.

    A float image is quantised _IMAGE_BAND rows at a time into the file's
    one uint8 buffer; a non-finite value in any band raises before any file
    is written.
    """
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.size == 0:
        raise ValueError(f"expected HxWx3 image with H, W >= 1, got shape {img.shape}")
    buf, pixels = _pnm_buffer("P6", img.shape)
    if img.dtype == np.uint8:
        pixels[...] = img
    else:
        for r in range(0, img.shape[0], _IMAGE_BAND):
            pixels[r: r + _IMAGE_BAND] = quantize(img[r: r + _IMAGE_BAND])
    atomic_write_bytes(path, buf)


def write_pgm(path, values: np.ndarray) -> None:
    """Write an HxW map of values in 0..255 as 8-bit PGM (P5); a bool mask
    is written as 0/255. Non-finite or out-of-range values raise ValueError
    before any file is written."""
    v = np.asarray(values)
    if v.ndim != 2 or v.size == 0:
        raise ValueError(f"expected HxW map with H, W >= 1, got shape {v.shape}")
    if v.dtype != bool:
        if not np.all(np.isfinite(v)):
            raise ValueError("map values must be finite")
        if v.min() < 0 or v.max() > 255:
            raise ValueError(f"map values must lie in 0..255, got {v.min()}..{v.max()}")
    buf, pixels = _pnm_buffer("P5", v.shape)
    pixels[...] = v  # a float value truncates toward zero
    if v.dtype == bool:
        pixels *= 255
    atomic_write_bytes(path, buf)


def _pnm_tokens(cur: _Cursor, count: int) -> list:
    """Read `count` whitespace-separated integer header tokens as (value,
    offset) pairs, honoring # comments.

    Leaves the cursor past the single whitespace byte after the last token.
    """
    buf, pos, tokens = cur.buf, cur.offset, []
    while len(tokens) < count:
        if pos >= len(buf):
            raise cur.fail(f"truncated header at offset {pos}")
        ch = buf[pos: pos + 1]
        if ch == b"#":
            nl = buf.find(b"\n", pos)
            if nl < 0:
                raise cur.fail(f"unterminated comment at offset {pos}")
            pos = nl + 1
        elif ch.isspace():
            pos += 1
        else:
            m = _PNM_INTEGER.match(buf, pos)
            if not m:
                raise cur.fail(f"expected integer at offset {pos}")
            tokens.append((int(m.group(0)), pos))
            pos = m.end()
    if pos >= len(buf):
        raise cur.fail(f"truncated header at offset {pos}")
    if not buf[pos: pos + 1].isspace():
        raise cur.fail(f"expected whitespace after header at offset {pos}")
    cur.offset = pos + 1
    return tokens


def read_image(path) -> np.ndarray:
    """The HxWx3 uint8 pixels of a binary PPM, a read-only view of the file's bytes."""
    cur = _Cursor(path, b"P6")
    (w, w_at), (h, h_at), (maxval, at) = _pnm_tokens(cur, 3)
    for n, n_at in ((w, w_at), (h, h_at)):
        if n == 0:
            raise cur.fail(f"zero image dim at offset {n_at}")
    if maxval != 255:
        raise cur.fail(f"unsupported maxval {maxval} at offset {at} (only 255)")
    pix = cur.array(np.uint8, w * h * 3, "pixel payload")
    cur.end()
    return pix.reshape(h, w, 3)


# ---------------------------------------------------------------- pose files

def format_pose_line(pose: Se3Pose) -> str:
    # 17 significant digits: text round-trips reproduce the floats exactly
    return " ".join(f"{v:.17e}" for v in pose.matrix34().reshape(12))


def write_poses(path, poses) -> None:
    atomic_write_text(path, "".join(format_pose_line(p) + "\n" for p in poses))


def parse_pose_line(line: str, lineno: int = 1) -> Se3Pose:
    """One 3x4 [R|t] line; any fault raises a FormatError naming the line."""
    parts = line.split()
    if len(parts) != 12:
        raise FormatError(f"line {lineno}: expected 12 pose values, got {len(parts)}")
    try:
        vals = np.array([float(p) for p in parts]).reshape(3, 4)
        return Se3Pose(vals[:, :3], vals[:, 3])
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from exc


def read_poses(path) -> List[Se3Pose]:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
        lines = enumerate(text.split("\n"), start=1)  # as the UTF-8 branch counts them
        return [parse_pose_line(line, lineno) for lineno, line in lines if line.strip()]
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(
            f"{path}: line {lineno}: invalid UTF-8 byte at offset {exc.start}"
        ) from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ------------------------------------------------------------- fused volumes

def write_fused(path, fused: FusedVolume) -> None:
    c = fused.features.shape[-1]
    _write_record(
        path, MAGIC_FUSED, "<IIII", (*fused.block_dims, c),
        _f32(fused.features, "feature"),
    )


def read_fused(path, channels_per_frame: int = 0) -> FusedVolume:
    cur = _Cursor(path, MAGIC_FUSED)
    bx, by, bz, c = cur.header("<IIII", "fused header")
    if channels_per_frame and c % channels_per_frame:
        raise cur.fail(
            f"channel count {c} at offset 16 is not a multiple of "
            f"{channels_per_frame} channels per frame"
        )
    if not (channels_per_frame or c):
        raise cur.fail("channel count 0 at offset 16 leaves no channels per frame")
    feats = cur.f32(bx * by * bz * c, "feature")
    cur.end()
    return FusedVolume(
        feats.reshape(bx, by, bz, c).astype(np.float64),
        channels_per_frame or c,
    )


def write_blockvis(path, bv: BlockVisibility) -> None:
    _write_record(
        path, MAGIC_BLOCKVIS, "<IIIIII",
        (bv.num_frames, *bv.block_dims, bv.image_width, bv.image_height),
        np.asarray(bv.frame_indices, dtype="<i8"),
        np.asarray(bv.visible, dtype=np.uint8),
        _f32(bv.proj_uv_d, "projection"),
    )


def read_blockvis(path) -> BlockVisibility:
    cur = _Cursor(path, MAGIC_BLOCKVIS)
    f, bx, by, bz, w, h = cur.header("<IIIIII", "block visibility header")
    idx = cur.array("<i8", f, "frame indices")
    nvis = f * bx * by * bz
    vis = cur.array(np.uint8, nvis, "visibility payload")
    bad = np.flatnonzero(vis > 1)
    if bad.size:
        at = cur.offset - nvis + bad[0]
        raise cur.fail(f"visibility byte {vis[bad[0]]} at offset {at} is not 0 or 1")
    proj = cur.f32(nvis * 3, "projection")
    cur.end()
    return BlockVisibility(
        vis.reshape(f, bx, by, bz).astype(bool),
        proj.reshape(f, bx, by, bz, 3).astype(np.float64),
        tuple(int(i) for i in idx),
        w,
        h,
    )


# ------------------------------------------------------------ frame sequences

def frame_basename(index: int) -> str:
    return f"{index:06d}"


def write_frame_sequence(directory, frames) -> None:
    """Write NNNNNN.ppm / NNNNNN.dpt per frame plus a shared poses.txt.

    poses.txt carries one line per raw frame index (identity padding between
    sampled frames), matching the odometry-file convention of line n being
    frame n.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_index = {f.frame_index: f.pose for f in frames}
    identity = Se3Pose.identity()
    write_poses(directory / "poses.txt", [by_index.get(i, identity) for i in range(max(by_index) + 1)])
    for f in frames:
        base = frame_basename(f.frame_index)
        write_image(directory / f"{base}.ppm", f.pixels)
        write_depth(directory / f"{base}.dpt", f.depth)


def load_frame_sequence(directory, frame_interval: int) -> List[FrameBundle]:
    """Load every frame_interval-th frame (by naming convention) from a directory."""
    directory = Path(directory)
    if frame_interval < 1:
        raise ValueError(f"frame_interval must be >= 1, got {frame_interval}")
    indices = sorted(
        int(p.stem)
        for p in directory.glob("*.ppm")
        if re.fullmatch(r"\d{6}", p.stem)
    )
    if not indices:
        raise FileNotFoundError(f"no NNNNNN.ppm frames found in {directory}")
    poses_path = directory / "poses.txt"
    if not poses_path.exists():
        raise FileNotFoundError(f"missing pose file: {poses_path}")
    poses = read_poses(poses_path)
    frames = []
    for i in range(0, max(indices) + 1, frame_interval):
        base = directory / frame_basename(i)
        ppm, dpt = base.with_suffix(".ppm"), base.with_suffix(".dpt")
        if not ppm.exists():
            raise FileNotFoundError(f"missing frame image: {ppm}")
        if not dpt.exists():
            raise FileNotFoundError(f"missing frame depth: {dpt}")
        if i >= len(poses):
            raise FormatError(
                f"{poses_path}: no pose line for frame {i} (file has {len(poses)})"
            )
        frames.append(FrameBundle(read_image(ppm), read_depth(dpt), poses[i], i))
    return frames
