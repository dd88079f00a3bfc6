"""Bit-exact file formats and KITTI-style pose/frame ingestion.

Binary layouts (all little-endian):
  VXG1  voxel grid:  magic, u32 X Y Z, f32 voxel_size, f32[3] origin,
        then X*Y*Z label bytes, x slowest / z fastest
  DPT1  depth map:   magic, u32 H W, then H*W f32 meters, row-major
  FVX1  fused volume: magic, u32 BX BY BZ C, then BX*BY*BZ*C f32, C fastest
  BVX1  block visibility: magic, u32 F BX BY BZ W H, i64 frame_indices[F],
        F*BX*BY*BZ visibility bytes, then F*BX*BY*BZ*3 f32 projections

Images are binary PPM (P6, maxval 255, value = floor(255*v + 0.5)); masks go
out as PGM (P5). Pose files are KITTI odometry text: one 3x4 row-major [R|t]
world-from-camera per line; parsed rotations are re-orthonormalized.

All writers go through an atomic temp-file-plus-rename, and every parser
reports the byte offset or line number of the first problem it finds.
"""
from __future__ import annotations

import os
import re
import struct
import tempfile
from pathlib import Path
from typing import List

import numpy as np

from .fusion import BlockVisibility, FusedVolume, SceneGrid, SceneRange
from .geom import Se3Pose
from .warp import FrameBundle

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


def _need(buf: bytes, offset: int, count: int, what: str) -> None:
    if len(buf) < offset + count:
        raise FormatError(
            f"truncated file: need {count} bytes for {what} at offset {offset}, "
            f"have {len(buf) - offset}"
        )


def _check_end(buf: bytes, end: int) -> None:
    if len(buf) != end:
        raise FormatError(
            f"trailing bytes at offset {end}: expected {end} total, got {len(buf)}"
        )


def _check_magic(buf: bytes, magic: bytes) -> None:
    _need(buf, 0, 4, "magic")
    if buf[:4] != magic:
        raise FormatError(
            f"bad magic at offset 0: expected {magic!r}, got {buf[:4]!r}"
        )


# ---------------------------------------------------------------- voxel grids

def write_grid(path, grid: SceneGrid) -> None:
    dims = grid.range.dims
    header = MAGIC_GRID + struct.pack(
        "<IIIf3f",
        dims[0],
        dims[1],
        dims[2],
        grid.range.voxel_size,
        *grid.range.origin,
    )
    atomic_write_bytes(path, header + np.ascontiguousarray(grid.labels).tobytes())


def read_grid(path) -> SceneGrid:
    buf = Path(path).read_bytes()
    _check_magic(buf, MAGIC_GRID)
    _need(buf, 4, 28, "grid header")
    nx, ny, nz, vs, ox, oy, oz = struct.unpack_from("<IIIf3f", buf, 4)
    if not (vs > 0 and np.isfinite(vs)):
        raise FormatError(f"invalid voxel_size {vs} at offset 16")
    count = nx * ny * nz
    _need(buf, 32, count, "label payload")
    _check_end(buf, 32 + count)
    labels = np.frombuffer(buf, dtype=np.uint8, count=count, offset=32).reshape(
        nx, ny, nz
    )
    vs_f = float(np.float32(vs))
    extents = (nx * vs_f, ny * vs_f, nz * vs_f)
    origin = (float(np.float32(ox)), float(np.float32(oy)), float(np.float32(oz)))
    return SceneGrid(SceneRange(origin, extents, vs_f), labels.copy())


# ----------------------------------------------------------------- depth maps

def write_depth(path, depth: np.ndarray) -> None:
    d = np.asarray(depth, dtype=np.float32)
    if d.ndim != 2:
        raise ValueError(f"depth must be HxW, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("depth entries must be finite (invalid is exactly 0)")
    header = MAGIC_DEPTH + struct.pack("<II", d.shape[0], d.shape[1])
    atomic_write_bytes(path, header + np.ascontiguousarray(d).tobytes())


def read_depth(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    _check_magic(buf, MAGIC_DEPTH)
    _need(buf, 4, 8, "depth header")
    h, w = struct.unpack_from("<II", buf, 4)
    count = h * w
    _need(buf, 12, 4 * count, "depth payload")
    _check_end(buf, 12 + 4 * count)
    d = np.frombuffer(buf, dtype="<f4", count=count, offset=12).reshape(h, w)
    if not np.all(np.isfinite(d)):
        bad = int(np.flatnonzero(~np.isfinite(d.ravel()))[0])
        raise FormatError(f"non-finite depth value at offset {12 + 4 * bad}")
    return d.astype(np.float64)


# --------------------------------------------------------------------- images

def write_image(path, image: np.ndarray) -> None:
    """Write an HxWx3 image in [0, 1] as binary PPM (P6)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected HxWx3 image, got shape {img.shape}")
    q = np.floor(img * 255.0 + 0.5).clip(0, 255).astype(np.uint8)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + q.tobytes())


def write_pgm(path, values: np.ndarray) -> None:
    """Write an HxW uint8 map (e.g. a mask scaled to 0/255) as PGM (P5)."""
    v = np.asarray(values)
    if v.dtype == bool:
        v = v.astype(np.uint8) * 255
    v = v.astype(np.uint8)
    if v.ndim != 2:
        raise ValueError(f"expected HxW map, got shape {v.shape}")
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + v.tobytes())


def _pnm_tokens(buf: bytes, count: int, path) -> tuple:
    """Read `count` whitespace-separated header tokens, honoring # comments."""
    tokens = []
    pos = 2  # past the magic
    while len(tokens) < count:
        if pos >= len(buf):
            raise FormatError(f"{path}: truncated header at offset {pos}")
        ch = buf[pos: pos + 1]
        if ch == b"#":
            nl = buf.find(b"\n", pos)
            if nl < 0:
                raise FormatError(f"{path}: unterminated comment at offset {pos}")
            pos = nl + 1
        elif ch.isspace():
            pos += 1
        else:
            m = re.match(rb"[0-9]+", buf[pos:])
            if not m:
                raise FormatError(f"{path}: expected integer at offset {pos}")
            tokens.append(int(m.group(0)))
            pos += m.end()
    return tokens, pos + 1  # single whitespace byte after maxval


def read_image(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    if buf[:2] != b"P6":
        raise FormatError(f"bad magic at offset 0: expected b'P6', got {buf[:2]!r}")
    (w, h, maxval), start = _pnm_tokens(buf, 3, path)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (only 255)")
    count = w * h * 3
    _need(buf, start, count, "pixel payload")
    _check_end(buf, start + count)
    pix = np.frombuffer(buf, dtype=np.uint8, count=count, offset=start)
    return pix.reshape(h, w, 3).astype(np.float64) / 255.0


# ---------------------------------------------------------------- pose files

def format_pose_line(pose: Se3Pose) -> str:
    # 17 significant digits: text round-trips reproduce the floats exactly
    return " ".join(f"{v:.17e}" for v in pose.matrix34().reshape(12))


def write_poses(path, poses) -> None:
    atomic_write_text(path, "".join(format_pose_line(p) + "\n" for p in poses))


def parse_pose_line(line: str, lineno: int = 1) -> Se3Pose:
    parts = line.split()
    if len(parts) != 12:
        raise FormatError(
            f"line {lineno}: expected 12 pose values, got {len(parts)}"
        )
    try:
        vals = np.array([float(p) for p in parts]).reshape(3, 4)
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise FormatError(f"line {lineno}: non-finite pose value")
    r = vals[:, :3]
    drift = np.abs(r @ r.T - np.eye(3)).max()
    if drift > 1e-6:
        # sloppy external file: project onto the nearest rotation
        return Se3Pose.from_rt(r, vals[:, 3])
    # clean line: the pose constructor renormalizes only beyond 1e-12,
    # keeping write -> parse -> write byte-stable
    return Se3Pose(r, vals[:, 3])


def read_poses(path) -> List[Se3Pose]:
    poses = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        poses.append(parse_pose_line(line, lineno))
    return poses


# ------------------------------------------------------------- fused volumes

def write_fused(path, fused: FusedVolume) -> None:
    bx, by, bz = fused.block_dims
    c = fused.features.shape[-1]
    header = MAGIC_FUSED + struct.pack("<IIII", bx, by, bz, c)
    data = np.ascontiguousarray(fused.features, dtype="<f4")
    atomic_write_bytes(path, header + data.tobytes())


def read_fused(path, channels_per_frame: int = 0) -> FusedVolume:
    buf = Path(path).read_bytes()
    _check_magic(buf, MAGIC_FUSED)
    _need(buf, 4, 16, "fused header")
    bx, by, bz, c = struct.unpack_from("<IIII", buf, 4)
    if channels_per_frame and c % channels_per_frame:
        raise FormatError(
            f"channel count {c} at offset 16 is not a multiple of "
            f"{channels_per_frame} channels per frame"
        )
    count = bx * by * bz * c
    _need(buf, 20, 4 * count, "feature payload")
    _check_end(buf, 20 + 4 * count)
    feats = np.frombuffer(buf, dtype="<f4", count=count, offset=20)
    return FusedVolume(
        (bx, by, bz),
        feats.reshape(bx, by, bz, c).astype(np.float64),
        channels_per_frame or c,
    )


def write_blockvis(path, bv: BlockVisibility) -> None:
    f = bv.num_frames
    bx, by, bz = bv.block_dims
    header = MAGIC_BLOCKVIS + struct.pack(
        "<IIIIII", f, bx, by, bz, bv.image_width, bv.image_height
    )
    idx = np.asarray(bv.frame_indices, dtype="<i8").tobytes()
    vis = bv.visible.astype(np.uint8).tobytes()
    proj = np.ascontiguousarray(bv.proj_uv_d, dtype="<f4").tobytes()
    atomic_write_bytes(path, header + idx + vis + proj)


def read_blockvis(path) -> BlockVisibility:
    buf = Path(path).read_bytes()
    _check_magic(buf, MAGIC_BLOCKVIS)
    _need(buf, 4, 24, "block visibility header")
    f, bx, by, bz, w, h = struct.unpack_from("<IIIIII", buf, 4)
    off = 28
    _need(buf, off, 8 * f, "frame indices")
    idx = np.frombuffer(buf, dtype="<i8", count=f, offset=off)
    off += 8 * f
    nvis = f * bx * by * bz
    _need(buf, off, nvis, "visibility payload")
    vis = np.frombuffer(buf, dtype=np.uint8, count=nvis, offset=off)
    off += nvis
    _need(buf, off, 4 * nvis * 3, "projection payload")
    _check_end(buf, off + 4 * nvis * 3)
    proj = np.frombuffer(buf, dtype="<f4", count=nvis * 3, offset=off)
    return BlockVisibility(
        (bx, by, bz),
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
    max_index = max(f.frame_index for f in frames)
    by_index = {f.frame_index: f for f in frames}
    lines = []
    for i in range(max_index + 1):
        if i in by_index:
            lines.append(format_pose_line(by_index[i].pose))
        else:
            lines.append(format_pose_line(Se3Pose.identity()))
    atomic_write_text(directory / "poses.txt", "".join(l + "\n" for l in lines))
    for f in frames:
        base = frame_basename(f.frame_index)
        write_image(directory / f"{base}.ppm", f.image)
        write_depth(directory / f"{base}.dpt", f.depth)


def load_frame_sequence(directory, frame_interval: int) -> List[FrameBundle]:
    """Load every frame_interval-th frame (by naming convention) from a directory."""
    directory = Path(directory)
    if frame_interval < 1:
        raise ValueError("frame_interval must be >= 1")
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
