from collections import Counter

import numpy as np
import pytest

from oracles import classify_palette, reprojection_bruteforce
from scenecast.forecast import PoseSequence, forecast_next
from scenecast.geom import CameraIntrinsics, Se3Pose, compose, se3_exp
from scenecast.synth import (
    SceneSpec,
    TrajectorySpec,
    build_scene,
    canonical_camera_pose,
    desk_intrinsics,
    make_trajectory,
    render_frame,
)
from scenecast.warp import (
    FrameBundle,
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
    frames = [render_frame(grid, p, k, i) for p, i in zip(traj.poses, traj.frame_indices)]
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


class TestForwardSplat:
    def test_single_source_identity_is_bit_exact(self):
        _, k, _, frames = corridor_setup(0, past=0)
        src = frames[0]
        result = forward_splat([src], src.pose, k, dst_frame_index=0)
        assert np.array_equal(result.image, src.image)
        assert np.array_equal(result.depth, src.depth)
        assert np.array_equal(result.hit_mask, src.depth > 0)
        assert np.array_equal(result.source_index == 0, src.depth > 0)

    def test_z_buffer_prefers_near_surface(self):
        near = flat_frame(3.0, color=0.25, index=0)
        far = flat_frame(5.0, color=0.75, index=1)
        result = forward_splat([far, near], Se3Pose.identity(), K4, dst_frame_index=2)
        assert np.all(result.depth == 3.0)
        assert np.all(result.image == 0.25)
        assert np.all(result.source_index == 1)

    def test_huge_finite_depth_does_not_win(self):
        # read_depth accepts any finite float32, e.g. 1e30 m; its tie bucket
        # lies far beyond int64 and must still sort behind a 2 m surface
        near = flat_frame(2.0, color=0.25, index=0)
        far = flat_frame(float(np.float32(1e30)), color=0.75, index=1)
        result = forward_splat([near, far], Se3Pose.identity(), K4, dst_frame_index=1)
        assert np.all(result.depth == 2.0)
        assert np.all(result.image == 0.25)
        assert np.all(result.source_index == 0)

    def test_tie_breaks_prefer_temporally_closest(self):
        a = flat_frame(5.0, color=0.2, index=0)
        b = flat_frame(5.0, color=0.8, index=10)
        result = forward_splat([a, b], Se3Pose.identity(), K4, dst_frame_index=9)
        assert np.all(result.image == 0.8)
        result = forward_splat([a, b], Se3Pose.identity(), K4, dst_frame_index=1)
        assert np.all(result.image == 0.2)

    def test_order_independence(self):
        _, k, traj, frames = corridor_setup(1)
        target = traj.poses[-1]
        fwd = forward_splat(frames[:5], target, k, dst_frame_index=25)
        rev = forward_splat(list(reversed(frames[:5])), target, k, dst_frame_index=25)
        assert np.array_equal(fwd.image, rev.image)
        assert np.array_equal(fwd.depth, rev.depth)
        assert np.array_equal(fwd.hit_mask, rev.hit_mask)

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
        fa = render_frame(grid, pa, k, 0)
        fb = render_frame(grid, pb, k, 5)
        warped = forward_splat([fa], pb, k, dst_frame_index=5)
        both = warped.hit_mask & (fb.depth > 0)
        dd = np.abs(warped.depth - fb.depth)[both]
        classes_match = classify_palette(warped.image)[both] == classify_palette(fb.image)[both]
        good = (dd <= 0.05) & classes_match
        assert good.mean() >= 0.95

    def test_no_depth_underestimate_beyond_quantization(self):
        # splat quantization moves content by at most half a pixel, so a
        # warped depth may never undercut the true surface beyond what the
        # 1-pixel neighborhood of the direct render already contains
        from scipy import ndimage

        grid, k, traj, frames = corridor_setup(3, past=1)
        dst = render_frame(grid, traj.poses[-1], k, 99)
        warped = forward_splat(frames[:2], traj.poses[-1], k, dst_frame_index=99)
        both = warped.hit_mask & (dst.depth > 0)
        padded = np.where(dst.depth > 0, dst.depth, np.inf)
        floor = ndimage.minimum_filter(padded, size=3, mode="nearest")
        under = (floor - warped.depth)[both]
        assert under.max() <= 1e-6

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
        from scenecast.warp import WarpResult

        image = np.zeros((1, 3, 1))
        image[0, 0, 0] = 0.4
        depth = np.array([[2.0, 0.0, 0.0]])
        src = np.array([[0, -1, -1]])
        filled_img, filled_depth = fill_refiner(WarpResult(image, depth, src))
        assert np.all(filled_depth == 2.0)
        assert np.all(filled_img == 0.4)

    def test_fill_refiner_all_miss_unchanged(self):
        from scenecast.warp import WarpResult

        empty = WarpResult(np.zeros((2, 2, 3)), np.zeros((2, 2)), np.full((2, 2), -1))
        image, depth = fill_refiner(empty)
        assert np.all(image == 0.0) and np.all(depth == 0.0)


class TestFrameBundleValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            FrameBundle(np.zeros((4, 4, 3)), np.zeros((5, 4)), Se3Pose.identity(), 0)
        with pytest.raises(ValueError, match="HxWxC"):
            FrameBundle(np.zeros((4, 4)), np.zeros((4, 4)), Se3Pose.identity(), 0)

    def test_image_range(self):
        with pytest.raises(ValueError):
            FrameBundle(np.full((4, 4, 3), 1.5), np.zeros((4, 4)), Se3Pose.identity(), 0)

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            FrameBundle(np.zeros((4, 4, 3)), np.full((4, 4), -1.0), Se3Pose.identity(), 0)
