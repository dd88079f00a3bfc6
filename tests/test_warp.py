from collections import Counter

import numpy as np
import pytest

from oracles import (
    classify_palette,
    nearest_hit_bruteforce,
    reprojection_bruteforce,
    splat_bruteforce,
)
from scenecast.forecast import PoseSequence, forecast_next
from scenecast import defaults, synth, warp
from scenecast.geom import CameraIntrinsics, Se3Pose, compose, project_pixels, se3_exp
from scenecast.synth import (
    SceneSpec,
    TrajectorySpec,
    build_scene,
    canonical_camera_pose,
    desk_intrinsics,
    make_trajectory,
    render_frames,
)
from scenecast.warp import (
    FrameBundle,
    WarpResult,
    compose_pseudo_future,
    fill_refiner,
    forward_splat,
    identity_refiner,
    reprojection_flow,
)

K4 = CameraIntrinsics(10.0, 10.0, 1.5, 1.5, 4, 4)
R_DOWN = np.diag([1.0, -1.0, -1.0])  # nadir view: camera z points at the ground


def flat_frame(depth_value, k=K4, pose=None, index=0, color=0.5):
    h, w = k.height, k.width
    depth = np.full((h, w), float(depth_value))
    image = np.full((h, w, 3), float(color))
    return FrameBundle(image, depth, pose or Se3Pose.identity(), index)


def corridor_setup(seed, speed=2.0, past=4, interval=5):
    step = speed * interval
    ny = int(np.ceil((2.0 + past * step + 51.2 + step + 2.0) / 0.4 / 4) * 4)
    spec = SceneSpec(seed=seed, layout="corridor", dims=(128, ny, 16),
                     origin=(-25.6, 0.0, -2.0))
    grid = build_scene(spec)
    k = desk_intrinsics()
    traj = make_trajectory(
        TrajectorySpec(frames=past + 2, speed=speed, frame_interval=interval,
                       start=canonical_camera_pose((0.0, 2.0, 0.0)))
    )
    frames = render_frames(grid, traj, k)
    return grid, k, traj, frames


class TestReprojectionFlow:
    def test_identity_flow(self):
        src = flat_frame(5.0)
        idx, pix, uvd = reprojection_flow(src, src.pose, K4)
        assert np.array_equal(idx, np.arange(16))
        assert np.array_equal(pix, idx)
        u = np.arange(4, dtype=float)
        assert np.abs(uvd[:, 0] - np.tile(u, 4)).max() < 1e-9
        assert np.abs(uvd[:, 1] - np.repeat(u, 4)).max() < 1e-9
        assert np.array_equal(uvd[:, 2], src.depth.ravel())

    def test_forward_translation_toward_plane(self):
        # camera advances 1 m along z toward a fronto-parallel plane at 5 m
        src = flat_frame(5.0)
        dst_pose = Se3Pose(np.eye(3), [0.0, 0.0, 1.0])
        _, _, uvd = reprojection_flow(src, dst_pose, K4)
        assert np.all(uvd[:, 2] == pytest.approx(4.0, abs=1e-12))

    def test_zero_depth_invalid(self):
        src = flat_frame(5.0)
        src.depth[1, 2] = 0.0
        idx, _, _ = reprojection_flow(src, src.pose, K4)
        assert 1 * 4 + 2 not in idx
        assert idx.size == 15

    def test_off_image_invalid(self):
        # large lateral shove maps every pixel out of the destination image
        src = flat_frame(5.0)
        dst_pose = Se3Pose(np.eye(3), [100.0, 0.0, 0.0])
        idx, pix, uvd = reprojection_flow(src, dst_pose, K4)
        assert idx.size == 0 and pix.size == 0 and uvd.shape == (0, 3)

    def test_matches_bruteforce_oracle(self):
        # 20 seeded pose pairs over depths 0.5-10 m: moving up to 6 m forward
        # puts points behind the camera, turns shift others off the image, and
        # moving back brings the source camera centre, where zero-depth pixels
        # would land, into view
        k = CameraIntrinsics(30.0, 25.0, 11.5, 8.5, 24, 18)
        rng = np.random.default_rng(12)
        drops = Counter()
        for case in range(20):
            depth = rng.uniform(0.5, 10.0, size=(k.height, k.width))
            depth[rng.random(depth.shape) < 0.1] = 0.0
            src = FrameBundle(rng.random(depth.shape + (3,)), depth,
                              se3_exp(rng.normal(scale=0.5, size=6)), 0)
            move = np.concatenate([rng.normal(scale=0.3, size=3),
                                   rng.normal(scale=1.0, size=2), [rng.uniform(-3.0, 6.0)]])
            # the first case is the identity, which relative_pose makes exact
            dst_pose = src.pose if case == 0 else compose(src.pose, se3_exp(move))
            idx, pix, uvd = reprojection_flow(src, dst_pose, k)
            ref_idx, ref_pix, ref_uvd, ref_drops = reprojection_bruteforce(src, dst_pose, k)
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(pix, ref_pix)
            assert np.array_equal(uvd, ref_uvd)
            drops.update(ref_drops)
        assert min(drops[r] for r in ("zero_depth", "behind", "off_image")) > 100


def banded_depth(gen, h, w, bands):
    """Depths whose 8x8 tiles each draw from one (lo, hi) band of `bands`, 10% zero."""
    pick = gen.integers(len(bands), size=(-(-h // 8), -(-w // 8)))
    lo, hi = (np.array(b)[pick].repeat(8, axis=0).repeat(8, axis=1)[:h, :w] for b in zip(*bands))
    depth = gen.uniform(lo, hi)
    depth[gen.random((h, w)) < 0.1] = 0.0
    return depth


def turn_y(theta):
    """A rotation about the camera y axis: x' = cos x + sin z, z' = -sin x + cos z."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def cull_case(name):
    """(source, destination pose, camera) of a reprojection that exercises the tile cull."""
    gen = np.random.default_rng(sum(map(ord, name)))
    k = CameraIntrinsics(12.0, 11.0, 10.3, 6.6, 21, 13)  # partial last tiles on both axes
    image = gen.random((k.height, k.width, 3))
    if name == "behind_and_straddling":
        # the destination sits 4 m ahead: tiles nearer are behind it, tiles
        # around 4 m straddle its near plane, farther ones are in front
        depth = banded_depth(gen, k.height, k.width,
                             [(1.0, 2.0), (3.0, 5.0), (3.99, 4.01), (6.0, 9.0), (0.5, 12.0)])
        return FrameBundle(image, depth, Se3Pose.identity(), 0), Se3Pose(turn_y(0.3), [0.5, 0.2, 4.0]), k
    if name == "facing_back":
        depth = banded_depth(gen, k.height, k.width, [(1.0, 2.0), (2.0, 30.0)])
        return FrameBundle(image, depth, Se3Pose.identity(), 0), Se3Pose(turn_y(2.8), [0.0, 0.0, 3.0]), k
    if name.startswith("edge"):
        # a flat wall moved by `shift` px, so that the last column (row) of a
        # tile lands 0.01 px inside or outside the left (top) edge, or the
        # first column (row) of the partial last tile 0.01 px inside or
        # outside the right (bottom) edge; outside, only the 1 px pad keeps
        # the tile, and none of its pixels lands
        axis, shift = {"edge_left": (0, 7.49), "edge_left_out": (0, 7.51),
                       "edge_right": (0, -4.49), "edge_right_out": (0, -4.51),
                       "edge_top": (1, 7.49), "edge_top_out": (1, 7.51),
                       "edge_bottom": (1, -4.49), "edge_bottom_out": (1, -4.51)}[name]
        depth = np.full((k.height, k.width), 4.0)
        depth[gen.random(depth.shape) < 0.1] = 0.0
        t = np.zeros(3)
        t[axis] = shift * 4.0 / (k.fx, k.fy)[axis]
        return FrameBundle(image, depth, Se3Pose.identity(), 0), Se3Pose(np.eye(3), t), k
    if name == "turn_onto_edge":
        # a pure turn takes column 7, the last of the first tile column, to
        # u' = -0.5 - 1.5e-15. Depth does not move a turned pixel, so rounding
        # alone scatters that column's nearest pixel between -1 and 0: a
        # tile's corners can all round off the image while one of its pixels
        # rounds onto it, and only the 1 px pad keeps such a tile
        k = CameraIntrinsics(20.0, 20.0, 11.5, 79.5, 24, 160)
        a, b = (7 - k.cx) / k.fx, (-0.5 - 1.5e-15 - k.cx) / k.fx
        rot = turn_y(np.arctan((b - a) / (1.0 + a * b)))
        depth = gen.uniform(1.0, 50.0, size=(k.height, k.width))
        src = FrameBundle(gen.random((k.height, k.width, 3)), depth, Se3Pose.identity(), 0)
        return src, Se3Pose(rot.T, np.zeros(3)), k
    if name == "huge_depths":
        # depths up to float32's maximum, seen from a destination near
        # float64's: every moved corner's x' + y' + z' overflows, and a tile
        # whose corner arithmetic is not finite must be kept; the points
        # themselves stay finite and land near pixel (11, 7)
        depth = banded_depth(gen, k.height, k.width, [(1.0, 20.0), (1e29, 3e38)])
        depth[0, 0] = np.finfo(np.float32).max
        pose = Se3Pose(np.eye(3), [-1e307, -1e307, -1.7e308])
        return FrameBundle(image, depth, Se3Pose.identity(), 0), pose, k
    assert name == "random_poses"
    depth = banded_depth(gen, k.height, k.width, [(0.5, 3.0), (2.0, 10.0), (0.1, 40.0)])
    src = FrameBundle(image, depth, se3_exp(gen.normal(scale=0.5, size=6)), 0)
    move = np.concatenate([gen.normal(scale=0.3, size=3), gen.normal(scale=1.0, size=2),
                           [gen.uniform(-3.0, 6.0)]])
    return src, compose(src.pose, se3_exp(move)), k


CULL_CASES = [
    "behind_and_straddling", "facing_back", "edge_left", "edge_left_out", "edge_right",
    "edge_right_out", "edge_top", "edge_top_out", "edge_bottom", "edge_bottom_out",
    "turn_onto_edge", "huge_depths", "random_poses",
]


class TestReprojectionCull:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", CULL_CASES)
    def test_matches_bruteforce_oracle(self, name):
        src, dst_pose, k = cull_case(name)
        idx, pix, uvd = reprojection_flow(src, dst_pose, k)
        ref_idx, ref_pix, ref_uvd, drops = reprojection_bruteforce(src, dst_pose, k)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(pix, ref_pix)
        assert np.array_equal(uvd.view(np.int64), ref_uvd.view(np.int64))
        if name != "facing_back":
            assert idx.size > 0
        if name in ("behind_and_straddling", "facing_back"):
            assert drops["behind"] > 0

    def test_forward_motion_lifts_few_pixels(self, monkeypatch):
        # 8 m toward a wall 10 m away magnifies the view 5x: about 1/25 of the
        # source lands in the destination, and the cull lifts little more
        k = CameraIntrinsics(40.0, 40.0, 39.5, 23.5, 80, 48)
        src = flat_frame(10.0, k=k)
        dst_pose = Se3Pose(np.eye(3), [0.0, 0.0, 8.0])
        lifted = []

        def counting(r, t, x, y, z, k):
            lifted.append(np.size(x))
            return project_pixels(r, t, x, y, z, k)

        monkeypatch.setattr(warp, "project_pixels", counting)
        idx, pix, uvd = reprojection_flow(src, dst_pose, k)
        ref_idx, ref_pix, ref_uvd, _ = reprojection_bruteforce(src, dst_pose, k)
        assert np.array_equal(idx, ref_idx) and np.array_equal(pix, ref_pix)
        assert np.array_equal(uvd, ref_uvd)
        assert lifted[0] <= 0.1 * src.depth.size
        assert lifted[0] >= idx.size > 0


class TestForwardSplat:
    def test_single_source_identity_is_bit_exact(self):
        _, k, _, frames = corridor_setup(0, past=0)
        src = frames[0]
        result = forward_splat([src], src.pose, k, dst_frame_index=0)
        assert result.image.dtype == np.uint8
        assert np.array_equal(result.image, src.pixels)
        assert np.array_equal(result.depth, src.depth)
        assert np.array_equal(result.hit_mask, src.depth > 0)
        assert np.array_equal(result.source_index == 0, src.depth > 0)

    def test_z_buffer_prefers_near_surface(self):
        near = flat_frame(3.0, color=0.25, index=0)
        far = flat_frame(5.0, color=0.75, index=1)
        result = forward_splat([far, near], Se3Pose.identity(), K4, dst_frame_index=2)
        assert np.all(result.depth == 3.0)
        assert np.array_equal(result.image, near.pixels)
        assert np.all(result.source_index == 1)

    def test_huge_finite_depth_does_not_win(self):
        # read_depth accepts any finite float32, e.g. 1e30 m; its tie bucket
        # lies far beyond int64 and must still sort behind a 2 m surface
        near = flat_frame(2.0, color=0.25, index=0)
        far = flat_frame(float(np.float32(1e30)), color=0.75, index=1)
        result = forward_splat([near, far], Se3Pose.identity(), K4, dst_frame_index=1)
        assert np.all(result.depth == 2.0)
        assert np.array_equal(result.image, near.pixels)
        assert np.all(result.source_index == 0)

    def test_tie_breaks_prefer_temporally_closest(self):
        a = flat_frame(5.0, color=0.2, index=0)
        b = flat_frame(5.0, color=0.8, index=10)
        result = forward_splat([a, b], Se3Pose.identity(), K4, dst_frame_index=9)
        assert np.array_equal(result.image, b.pixels)
        result = forward_splat([a, b], Se3Pose.identity(), K4, dst_frame_index=1)
        assert np.array_equal(result.image, a.pixels)

    def test_order_independence(self):
        _, k, traj, frames = corridor_setup(1)
        target = traj.poses[-1]
        fwd = forward_splat(frames[:5], target, k, dst_frame_index=25)
        rev = forward_splat(list(reversed(frames[:5])), target, k, dst_frame_index=25)
        assert np.array_equal(fwd.image, rev.image)
        assert np.array_equal(fwd.depth, rev.depth)
        assert np.array_equal(fwd.hit_mask, rev.hit_mask)

    @pytest.mark.parametrize("case", ["ties", "both_sides", "far_indices", "random_poses"])
    def test_matches_bruteforce_oracle(self, case):
        # 21x13 is no multiple of the 8 px tile. Flat walls at 2 or 4 m moved
        # sideways by a quarter metre land on whole and half pixels, so many
        # candidates share a target and a depth bucket and fall to the
        # proximity, the source pixel and the slot
        gen = np.random.default_rng(sum(map(ord, case)))
        k = CameraIntrinsics(8.0, 8.0, 10.0, 6.0, 21, 13)
        if case == "random_poses":
            poses = [se3_exp(gen.normal(scale=0.2, size=6)) for _ in range(3)]
            depths = [gen.uniform(0.5, 12.0, size=(13, 21)) for _ in range(3)]
            dst_pose, indices, dst = se3_exp(gen.normal(scale=0.2, size=6)), (0, 5, 10), 15
        else:
            shifts = (0.0, 0.25, -0.25, 0.5)
            poses = [Se3Pose(np.eye(3), [tx, 0.0, 0.0]) for tx in shifts]
            depths = [gen.choice([2.0, 4.0, 0.0], size=(13, 21), p=[0.45, 0.45, 0.1])
                      for _ in shifts]
            dst_pose = Se3Pose.identity()
            indices, dst = {
                "ties": ((0, 4, 8, 8), 4),  # proximities 4, 0, 4, 4
                "both_sides": ((1, 5, 9, 13), 7),  # 6, 2, 2, 6
                # proximities up to 2**61: only their rank fits the key
                "far_indices": ((0, 2**40, 2**61, 2**62), 2**61 + 2**40),
            }[case]
        sources = [FrameBundle(gen.random(d.shape + (3,)), d, pose, i)
                   for d, pose, i in zip(depths, poses, indices)]
        result = forward_splat(sources, dst_pose, k, dst_frame_index=dst)
        image, depth, source_index = splat_bruteforce(sources, dst_pose, k, dst)
        assert result.image.dtype == image.dtype == np.uint8
        assert np.array_equal(result.image, image)
        assert np.array_equal(result.depth.view(np.int64), depth.view(np.int64))
        assert np.array_equal(result.source_index, source_index)
        assert len(set(source_index[source_index >= 0].tolist())) == len(sources)

    def test_strided_pixels_splat_as_their_contiguous_copy(self):
        # uint8 pixels are kept as given, so a source may hold a strided view
        # (mirrored columns, channels in reverse order, mirrored rows)
        _, k, traj, frames = corridor_setup(3, past=2)
        views = (lambda p: p[:, ::-1], lambda p: p[..., ::-1], lambda p: p[::-1])
        strided = [FrameBundle(view(f.pixels), f.depth, f.pose, f.frame_index)
                   for view, f in zip(views, frames)]
        copies = [FrameBundle(np.ascontiguousarray(f.pixels), f.depth, f.pose, f.frame_index)
                  for f in strided]
        assert not any(f.pixels.flags.c_contiguous for f in strided)
        dst = traj.frame_indices[-1]
        got = forward_splat(strided, traj.poses[-1], k, dst_frame_index=dst)
        want = forward_splat(copies, traj.poses[-1], k, dst_frame_index=dst)
        assert np.array_equal(got.image, want.image)
        assert np.array_equal(got.source_index, want.source_index)

    def test_tie_key_budget_rejected(self):
        # sources squared times pixels must fit the int64 tie key; a 2**31 x
        # 2**31 frame of broadcast views needs no memory, and the check runs
        # before any pixel is lifted
        big = FrameBundle.__new__(FrameBundle)
        big.pixels = np.broadcast_to(np.zeros(1, dtype=np.uint8), (2**31, 2**31, 1))
        big.depth = np.broadcast_to(np.zeros(1, dtype=bool), (2**31, 2**31))
        big.pose, big.frame_index = Se3Pose.identity(), 0
        k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 2**31, 2**31)
        with pytest.raises(ValueError, match=r"2 sources of 2147483648x2147483648 pixels overflow"):
            forward_splat([big, big], Se3Pose.identity(), k, dst_frame_index=0)

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            forward_splat([], Se3Pose.identity(), K4, dst_frame_index=0)

    def test_miss_pixels_are_zeroed(self):
        _, k, traj, frames = corridor_setup(2)
        result = forward_splat([frames[0]], traj.poses[-1], k, dst_frame_index=25)
        holes = ~result.hit_mask
        assert holes.any()
        assert np.all(result.image[holes] == 0.0)
        assert np.all(result.depth[holes] == 0.0)
        assert np.all(result.source_index[holes] == -1)
        assert np.all(result.depth[result.hit_mask] > 0.0)

    def test_warp_matches_direct_render_nadir(self):
        # oracle: direct ray-cast render at the destination pose
        spec = SceneSpec(seed=11, layout="corridor", dims=(128, 192, 16),
                         origin=(-25.6, 0.0, -2.0))
        grid = build_scene(spec)
        k = desk_intrinsics()
        pa = Se3Pose(R_DOWN, [0.0, 30.0, 10.4])
        pb = Se3Pose(R_DOWN, [1.2, 31.2, 10.4])
        fa, fb = render_frames(grid, PoseSequence((pa, pb), (0, 5), 5), k)
        warped = forward_splat([fa], pb, k, dst_frame_index=5)
        both = warped.hit_mask & (fb.depth > 0)
        dd = np.abs(warped.depth - fb.depth)[both]
        classes_match = classify_palette(warped.image)[both] == classify_palette(fb.image)[both]
        good = (dd <= 0.05) & classes_match
        assert good.mean() >= 0.95

    def test_no_depth_underestimate_beyond_quantization(self):
        # splat quantization moves content by at most half a pixel, so a
        # warped depth may never undercut the true surface beyond what the
        # 1-pixel neighborhood of the direct render already contains, nor
        # beyond the half ulp its float32 source depth was rounded by
        from scipy import ndimage

        grid, k, traj, frames = corridor_setup(3, past=1)
        dst = synth._raycast(grid, traj.poses[-1:], k, defaults.D_MAX)[0][0]
        warped = forward_splat(frames[:2], traj.poses[-1], k, dst_frame_index=99)
        both = warped.hit_mask & (dst > 0)
        padded = np.where(dst > 0, dst, np.inf)
        floor = ndimage.minimum_filter(padded, size=3, mode="nearest")
        under = (floor - warped.depth)[both]
        assert np.all(under <= 1e-6 + 2**-24 * warped.depth[both])

    def test_monotone_coverage_in_sources(self):
        _, k, traj, frames = corridor_setup(4)
        target = traj.poses[-1]
        counts = []
        for m in range(1, 6):
            counts.append(int(forward_splat(frames[:m], target, k,
                                            dst_frame_index=25).hit_mask.sum()))
        assert counts == sorted(counts)


class TestComposePseudoFuture:
    def test_identity_motion_reproduces_current(self):
        _, k, _, frames = corridor_setup(5, past=0)
        current = frames[0]
        pseudo = compose_pseudo_future([current], current.pose, k, frame_interval=1)
        valid = current.depth > 0
        assert np.array_equal(pseudo.image[valid], current.image[valid])
        assert np.array_equal(pseudo.depth, current.depth)
        assert pseudo.frame_index == current.frame_index + 1

    def test_future_index_uses_interval(self):
        _, k, traj, frames = corridor_setup(6)
        for interval in (5, 7, -10):
            pseudo = compose_pseudo_future(frames[:5], traj.poses[5], k, frame_interval=interval)
            assert pseudo.frame_index == frames[4].frame_index + interval

    def test_more_sources_cover_more(self):
        _, k, traj, frames = corridor_setup(7)
        seq = PoseSequence(traj.poses[:5], traj.frame_indices[:5], 5)
        predicted = forecast_next(seq)
        single = compose_pseudo_future(frames[4:5], predicted, k, frame_interval=5)
        full = compose_pseudo_future(frames[:5], predicted, k, frame_interval=5)
        assert (full.depth > 0).sum() > (single.depth > 0).sum()

    def test_fill_refiner_reaches_full_coverage(self):
        _, k, traj, frames = corridor_setup(8)
        seq = PoseSequence(traj.poses[:5], traj.frame_indices[:5], 5)
        pseudo = compose_pseudo_future(frames[:5], forecast_next(seq), k,
                                       refiner=fill_refiner, frame_interval=5)
        assert np.all(pseudo.depth > 0)

    def test_unordered_sources_rejected(self):
        _, k, traj, frames = corridor_setup(9, past=1)
        with pytest.raises(ValueError):
            compose_pseudo_future([frames[1], frames[0]], traj.poses[-1], k, frame_interval=5)

    def test_refiner_shape_contract_enforced(self):
        _, k, traj, frames = corridor_setup(10, past=0)

        def bad_refiner(result):
            return result.image[:-1], result.depth

        with pytest.raises(ValueError):
            compose_pseudo_future(frames[:1], traj.poses[-1], k, refiner=bad_refiner,
                                  frame_interval=5)


class TestRefiners:
    def test_identity_refiner_passthrough(self):
        _, k, traj, frames = corridor_setup(12, past=0)
        result = forward_splat(frames[:1], traj.poses[-1], k, dst_frame_index=5)
        image, depth = identity_refiner(result)
        assert image is result.image and depth is result.depth

    def test_fill_refiner_copies_nearest(self):
        image = np.zeros((1, 3, 1))
        image[0, 0, 0] = 0.4
        depth = np.array([[2.0, 0.0, 0.0]])
        src = np.array([[0, -1, -1]])
        filled_img, filled_depth = fill_refiner(WarpResult(image, depth, src, (1,)))
        assert np.all(filled_depth == 2.0)
        assert np.all(filled_img == 0.4)

    @pytest.mark.parametrize("shape", [(1, 23), (23, 1), (9, 14), (16, 16)])
    def test_fill_refiner_matches_nearest_hit_oracle(self, shape):
        # sparse random hits and lattices of hits, whose holes are often
        # equidistant from two or four of them
        gen = np.random.default_rng(shape[0] * 31 + shape[1])
        for trial in range(8):
            if trial % 2:
                hit = np.zeros(shape, dtype=bool)
                a, b = gen.integers(2, 5, size=2)
                hit[gen.integers(a)::a, gen.integers(b)::b] = True
            else:
                hit = gen.random(shape) < (0.05, 0.2, 0.5, 0.8)[trial // 2]
            hit.flat[gen.integers(hit.size)] = True
            image = np.where(hit[..., None], gen.random(shape + (3,)), 0.0)
            depth = np.where(hit, gen.uniform(1.0, 9.0, size=shape), 0.0)
            filled_image, filled_depth = fill_refiner(
                WarpResult(image, depth, np.where(hit, 0, -1), (int(hit.sum()),)))
            rows, cols = nearest_hit_bruteforce(hit)
            assert np.array_equal(filled_image, image[rows, cols])
            assert np.array_equal(filled_depth, depth[rows, cols])

    def test_fill_refiner_all_miss_unchanged(self):
        empty = WarpResult(np.zeros((2, 2, 3)), np.zeros((2, 2)), np.full((2, 2), -1), (0,))
        image, depth = fill_refiner(empty)
        assert np.all(image == 0.0) and np.all(depth == 0.0)


class TestFrameBundleValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            FrameBundle(np.zeros((4, 4, 3)), np.zeros((5, 4)), Se3Pose.identity(), 0)
        with pytest.raises(ValueError, match="HxWxC"):
            FrameBundle(np.zeros((4, 4)), np.zeros((4, 4)), Se3Pose.identity(), 0)

    def test_messages_are_unchanged(self):
        # the messages from before frames held bytes, whole
        pose = Se3Pose.identity()
        with pytest.raises(ValueError, match=r"^image must be HxWxC, got shape \(4, 4\)$"):
            FrameBundle(np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 4)), pose, 0)
        with pytest.raises(ValueError, match=r"^depth shape \(5, 4\) does not match image \(4, 4\)$"):
            FrameBundle(np.zeros((4, 4, 3), dtype=np.uint8), np.zeros((5, 4)), pose, 0)
        with pytest.raises(ValueError, match=r"^image entries must be finite$"):
            FrameBundle(np.full((4, 4, 3), np.nan), np.zeros((4, 4)), pose, 0)
        with pytest.raises(ValueError, match=r"^image entries must lie in \[0, 1\]$"):
            FrameBundle(np.full((4, 4, 3), 2.0), np.zeros((4, 4)), pose, 0)

    def test_zero_size_image_named_by_shape(self):
        # a zero-length axis once reached numpy's reductions, whose error named
        # neither the image nor its shape
        pose = Se3Pose.identity()
        for dtype in (np.uint8, np.float64):
            for shape in ((0, 4, 3), (4, 0, 3), (4, 4, 0)):
                message = rf"^image must not be empty, got shape \({shape[0]}, {shape[1]}, {shape[2]}\)$"
                with pytest.raises(ValueError, match=message):
                    FrameBundle(np.zeros(shape, dtype=dtype), np.zeros(shape[:2]), pose, 0)

    def test_pixels_are_bytes(self):
        # uint8 is taken as it is; floats are quantized once by the PPM rule
        pose = Se3Pose.identity()
        image = np.full((2, 2, 3), 7, dtype=np.uint8)
        assert FrameBundle(image, np.ones((2, 2)), pose, 0).pixels is image
        half = (np.arange(12).reshape(2, 2, 3) + 0.5) / 255.0
        frame = FrameBundle(half, np.ones((2, 2)), pose, 0)
        assert frame.pixels.dtype == np.uint8
        assert np.array_equal(frame.pixels, np.floor(half * 255.0 + 0.5))
        assert np.array_equal(frame.image, frame.pixels / 255.0)

    @staticmethod
    def frame_with(image_value=0.5, depth_value=1.0):
        """A 4x4 frame whose pixel (2, 1) holds the given image and depth value."""
        image, depth = np.full((4, 4, 3), 0.5), np.ones((4, 4))
        image[2, 1, 1], depth[2, 1] = image_value, depth_value
        return FrameBundle(image, depth, Se3Pose.identity(), 0)

    def test_non_finite_image(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="image entries must be finite"):
                self.frame_with(image_value=bad)
        # a value out of range elsewhere does not change which message is given
        image = np.full((4, 4, 3), 1.5)
        image[3, 3, 2] = np.nan
        with pytest.raises(ValueError, match="image entries must be finite"):
            FrameBundle(image, np.ones((4, 4)), Se3Pose.identity(), 0)

    def test_image_range(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                self.frame_with(image_value=bad)
        for edge in (0.0, 1.0):
            self.frame_with(image_value=edge)

    def test_negative_depth(self):
        # checked before the cast to float32, which would make -1e-300 -0.0
        # and 1e39 inf
        for bad in (np.nan, np.inf, -1e-300, -1.0, 1e39):
            with pytest.raises(ValueError, match="depth entries must be finite and >= 0"):
                self.frame_with(depth_value=bad)
        for edge in (0.0, -0.0, float(np.finfo(np.float32).max)):
            self.frame_with(depth_value=edge)

    def test_depth_is_float32(self):
        # float32 is taken as it is, as a .dpt holds it; floats are rounded once
        pose, image = Se3Pose.identity(), np.zeros((1, 2, 3), dtype=np.uint8)
        depth = np.array([[0.1, 2.5]], dtype=np.float32)
        assert FrameBundle(image, depth, pose, 0).depth is depth
        frame = FrameBundle(image, [[0.1, 2.5]], pose, 0)
        assert frame.depth.dtype == np.float32
        assert frame.depth.tobytes() == depth.tobytes()
