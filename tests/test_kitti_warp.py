"""The warp path at KITTI image size (1216x368): output bytes and memory.

Five sources see a closed-form street from pure translations, so every pose
product is exact and no BLAS kernel can move a bit. The golden test pins the
bytes of the splat plus the nearest-hit fill; the memory test bounds what
`forward_splat` and `write_image` allocate beyond their inputs. Both regenerate
their figures with

    PYTHONPATH=src python tests/test_kitti_warp.py
"""
import hashlib
import tracemalloc

import numpy as np
import pytest

from scenecast import dataio
from scenecast.geom import CameraIntrinsics, FrameBundle, Se3Pose
from scenecast.warp import fill_refiner, forward_splat

# KITTI odometry P0 of sequences 11-21, cropped to 1216x368
K = CameraIntrinsics(707.0912, 707.0912, 596.8873, 182.1104, 1216, 368)
STEP = 5
DST_POSE = Se3Pose(np.eye(3), [1.5, 0.0, 25.0])
DST_INDEX = 5 * STEP

# SHA-256 of the fill's warped.ppm and warped.dpt and of the splat's
# source_index as little-endian int64, recorded before the warp path's memory
# rewrite, which keeps them bit for bit; warped.dpt re-recorded once when
# frames came to hold float32 depth, which rounds `street_depth`
GOLDEN = {
    "warped.ppm": "7e3f1fbbd0df0e710cd6c53083e28322bc858736b07b6eb40415b9b0e81e5856",
    "warped.dpt": "81c147970b21f278da65899bc56e24c54f5b2c17b0adcd0e45a6a378b017600a",
    "source_index": "46ab80426af294ddfc39af262c86303e914b7cdcc3ed3f1b211d9a3472270d61",
}

# traced peak (MiB) of each call beyond what was allocated before it, the
# result included: about 10% over the 22.4 and 2.3 MiB measured with numpy
# 2.4 (the whole-frame versions they replace peaked at 74.7 and 20.5, and
# write_image at 4.3 while it joined the header to a copy of its pixels; the
# splat peaked at 29.1 while the lift and the z-buffer kept every temporary
# to the end and the result image was float64)
PEAK_MIB = {"forward_splat": 24.6, "write_image": 2.5}


def street_depth(x0: float) -> np.ndarray:
    """Depth of a camera at lateral offset x0 in a street: ground 1.7 m below,
    walls 8 m either side up to 4 m above, nothing beyond 80 m."""
    a = (np.arange(K.width) - K.cx) / K.fx
    b = ((np.arange(K.height) - K.cy) / K.fy)[:, None]
    with np.errstate(divide="ignore"):
        ground = np.where(b > 0, 1.7 / b, np.inf)
        wall = np.where(a > 0, (8.0 - x0) / a, (-8.0 - x0) / a)
    wall = np.where((a != 0) & (b * wall > -4.0), wall, np.inf)
    depth = np.minimum(ground, wall)
    return np.where(depth <= 80.0, depth, 0.0)


def kitti_sources() -> list:
    """Five frames 5 m apart, each shifted 0.25 m further right, seeded 8-bit colours."""
    gen = np.random.default_rng(21)
    frames = []
    for i in range(5):
        image = gen.integers(0, 256, size=(K.height, K.width, 3)) / 255.0
        pose = Se3Pose(np.eye(3), [0.25 * i, 0.0, 5.0 * i])
        frames.append(FrameBundle(image, street_depth(0.25 * i), pose, i * STEP))
    return frames


@pytest.fixture(scope="module")
def sources():
    return kitti_sources()


def warp_digests(sources, out_dir) -> dict:
    result = forward_splat(sources, DST_POSE, K, DST_INDEX)
    image, depth = fill_refiner(result)
    dataio.write_image(out_dir / "warped.ppm", image)
    dataio.write_depth(out_dir / "warped.dpt", depth)
    files = {name: (out_dir / name).read_bytes() for name in ("warped.ppm", "warped.dpt")}
    files["source_index"] = result.source_index.astype("<i8").tobytes()
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def traced_peak_mib(fn, *args) -> float:
    """MiB `fn(*args)` allocates at its peak beyond what is allocated before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def peaks(sources, out_dir) -> dict:
    image = sources[-1].image
    return {
        "forward_splat": traced_peak_mib(forward_splat, sources, DST_POSE, K, DST_INDEX),
        "write_image": traced_peak_mib(dataio.write_image, out_dir / "peak.ppm", image),
    }


def test_kitti_warp_matches_golden_digests(sources, tmp_path):
    assert warp_digests(sources, tmp_path) == GOLDEN


def test_kitti_warp_peak_memory(sources, tmp_path):
    got = peaks(sources, tmp_path)
    over = {name: round(got[name], 1) for name, bound in PEAK_MIB.items() if got[name] > bound}
    assert not over, f"MiB over the inputs {over}, bounds {PEAK_MIB}"


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        srcs = kitti_sources()
        print(warp_digests(srcs, Path(tmp)))
        print({name: round(mib, 2) for name, mib in peaks(srcs, Path(tmp)).items()})
