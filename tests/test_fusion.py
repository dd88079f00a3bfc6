import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from oracles import downsample_bruteforce, resample_bruteforce, visibility_bruteforce
from scenecast import defaults, fusion
from scenecast.fusion import (
    SceneGrid,
    SceneRange,
    _frame_features,
    downsample_blocks,
    fuse_pipeline,
    resample_to_range,
    scene_to_frame_transform,
    visibility,
)
from scenecast.geom import (
    LEVEL_CAMERA_ROTATION,
    CameraIntrinsics,
    FrameBundle,
    Se3Pose,
    compose,
    relative_pose,
    se3_exp,
)
from scenecast.synth import (
    SceneSpec,
    TrajectorySpec,
    build_scene,
    canonical_camera_pose,
    desk_intrinsics,
    extract_features,
    make_trajectory,
    render_frame,
    render_frames,
)

K = CameraIntrinsics(40.0, 40.0, 19.5, 14.5, 40, 30)


def frame_with_depth(depth, pose=None, index=0):
    depth = np.asarray(depth, dtype=float)
    image = np.zeros(depth.shape + (3,))
    return FrameBundle(image, depth, pose or Se3Pose.identity(), index)


def single_voxel_range(center_forward: float) -> SceneRange:
    # one 0.4 m voxel whose center sits on the camera axis at the given depth
    return SceneRange((-0.2, center_forward - 0.2, -0.2), (0.4, 0.4, 0.4), 0.4)


def sparse(visible, proj):
    """A dense visibility mask and projection array as `visibility` returns them."""
    return np.flatnonzero(visible), proj[visible]


class TestVoxelCenters:
    def test_paper_scale_dims(self):
        rng = SceneRange.default()
        assert rng.dims == (256, 256, 32)
        assert rng.block_dims == (64, 64, 8)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            SceneRange((0, 0, 0), (1.0, 1.0, 0.9), 0.4)

    @pytest.mark.parametrize("voxel", [float("nan"), float("inf"), 0.0, -0.4])
    def test_bad_voxel_size_named_first(self, voxel):
        # the extents are scaled by the same voxel size, as the CLI builds them
        with pytest.raises(ValueError, match=f"^voxel_size must be finite and positive, got {voxel}$"):
            SceneRange((0.0, 0.0, 0.0), (voxel, voxel, voxel), voxel)

    def test_overflowing_extents_are_rejected(self):
        # 128 or 16 voxels of 1e308 m overflow to inf
        message = r"^extents must be finite and positive, got \[inf, 1e\+308, inf\]$"
        with pytest.raises(ValueError, match=message):
            SceneRange((0.0, 0.0, 0.0), (128 * 1e308, 1e308, 16 * 1e308), 1e308)


class TestSceneToFrameTransform:
    def test_equals_picked_and_negated_columns(self):
        # scene axis j is the signed camera axis in row j of
        # LEVEL_CAMERA_ROTATION, so the transform is the relative rotation's
        # columns picked and negated, which is exact
        axes = np.abs(LEVEL_CAMERA_ROTATION).argmax(axis=1)
        signs = LEVEL_CAMERA_ROTATION[np.arange(3), axes]
        gen = np.random.default_rng(21)
        for n in range(200):
            current = canonical_camera_pose(gen.normal(size=3))
            current = compose(current, se3_exp(gen.normal(size=6)))
            frame = current if n % 10 == 0 else compose(current, se3_exp(gen.normal(size=6)))
            rel = relative_pose(current, frame)
            r, t = scene_to_frame_transform(current, frame)
            assert np.array_equal(r, rel.rotation[:, axes] * signs)
            assert np.array_equal(t, rel.translation)


class TestVisibility:
    def test_inside_band(self):
        depth = np.full((30, 40), 10.4)
        idx, uvd = visibility(
            single_voxel_range(10.0), frame_with_depth(depth), Se3Pose.identity(), K, 0.5
        )
        assert idx.tolist() == [0]
        assert uvd[0, 2] == pytest.approx(10.0)

    def test_outside_band(self):
        depth = np.full((30, 40), 10.6)
        idx, uvd = visibility(
            single_voxel_range(10.0), frame_with_depth(depth), Se3Pose.identity(), K, 0.5
        )
        assert idx.size == 0
        assert uvd.shape == (0, 3)

    def test_invalid_depth_blocks_visibility(self):
        depth = np.zeros((30, 40))
        idx, uvd = visibility(
            single_voxel_range(10.0), frame_with_depth(depth), Se3Pose.identity(), K, 0.5
        )
        assert idx.size == 0
        assert uvd.shape == (0, 3)

    def test_behind_camera_invisible(self):
        depth = np.full((30, 40), 10.0)
        idx, uvd = visibility(
            single_voxel_range(-10.0), frame_with_depth(depth), Se3Pose.identity(), K, 0.5
        )
        assert idx.size == 0
        assert uvd.shape == (0, 3)

    def test_matches_bruteforce_oracle(self):
        rng_gen = np.random.default_rng(13)
        for _ in range(10):
            dims = rng_gen.integers(4, 17, size=3)
            vs = float(rng_gen.uniform(0.2, 0.8))
            origin = rng_gen.uniform(-4.0, -1.0, size=3)
            origin[1] = rng_gen.uniform(0.5, 2.0)
            srange = SceneRange(origin, dims * vs, vs)
            depth = rng_gen.uniform(0.0, 12.0, size=(30, 40))
            depth[depth < 1.5] = 0.0
            frame = frame_with_depth(
                depth, se3_exp(rng_gen.normal(scale=0.2, size=6)), 0
            )
            current = se3_exp(rng_gen.normal(scale=0.2, size=6))
            idx, uvd = visibility(srange, frame, current, K, 0.5)
            vis_ref, proj_ref = visibility_bruteforce(srange, frame, current, K, 0.5)
            assert np.array_equal(idx, np.flatnonzero(vis_ref))
            assert np.array_equal(uvd, proj_ref[vis_ref])


class TestVisibilityCull:
    """`visibility` drops whole 4x4x4 blocks before projecting; the scalar
    oracle tests every voxel, so any block dropped wrongly shows up here."""

    @staticmethod
    def check(srange, frame, current, theta_d=0.5, k=K):
        idx, uvd = visibility(srange, frame, current, k, theta_d)
        vis, proj = visibility_bruteforce(srange, frame, current, k, theta_d)
        assert np.array_equal(idx, np.flatnonzero(vis))
        assert np.array_equal(uvd, proj[vis])
        return idx, uvd

    def test_camera_inside_range_with_blocks_straddling_near_plane(self):
        # the camera sits inside a 13x14x7 range; the first y-block holds centers
        # at y = -0.7, -0.3, 0.1 and 0.5, so it straddles the near plane
        srange = SceneRange((-2.6, -0.9, -1.4), (5.2, 5.6, 2.8), 0.4)
        rng_gen = np.random.default_rng(31)
        near_visible = 0
        for _ in range(8):
            depth = rng_gen.uniform(0.05, 1.5, size=(30, 40))
            frame = frame_with_depth(depth, se3_exp(rng_gen.normal(scale=0.03, size=6)))
            idx, _ = self.check(srange, frame, Se3Pose.identity(), theta_d=0.3)
            near_visible += np.count_nonzero(np.unravel_index(idx, srange.dims)[1] < 4)
        assert near_visible > 0

    def test_border_only_depth(self):
        # depth only on the outermost pixel ring: a block can be visible only
        # through the border pixels its clipped rectangle reaches
        depth = np.zeros((30, 40))
        depth[[0, -1], :] = 6.0
        depth[:, [0, -1]] = 6.0
        srange = SceneRange((-9.0, 1.0, -7.0), (18.0, 9.0, 14.0), 0.5)
        rng_gen = np.random.default_rng(32)
        seen = 0
        for _ in range(4):
            frame = frame_with_depth(depth, se3_exp(rng_gen.normal(scale=0.05, size=6)))
            idx, uvd = self.check(srange, frame, Se3Pose.identity())
            pu, pv = np.floor(uvd[:, 0] + 0.5), np.floor(uvd[:, 1] + 0.5)
            assert np.all((pu == 0) | (pu == 39) | (pv == 0) | (pv == 29))
            seen += idx.size
        assert seen > 0

    def test_all_zero_depth_sees_nothing(self):
        srange = SceneRange((-2.6, -0.9, -1.4), (5.2, 5.6, 2.8), 0.4)
        idx, _ = self.check(srange, frame_with_depth(np.zeros((30, 40))), Se3Pose.identity())
        assert idx.size == 0

    @pytest.mark.parametrize("k", [K, CameraIntrinsics(160.0, 160.0, 79.5, 59.5, 160, 120)])
    def test_one_isolated_depth_pixel(self, k):
        # one pixel holds the depth of the voxel center that projects farthest
        # left, right, up or down, so it sits on the edge of its block's pixel
        # rectangle; on the larger image a rectangle spans many depth tiles
        rng_gen = np.random.default_rng(33)
        seen = 0
        for trial in range(120):
            dims = rng_gen.integers(1, 15, size=3)
            origin = rng_gen.uniform((-3.0, 0.5, -2.5), (0.5, 2.0, 0.5))
            srange = SceneRange(origin, dims * 0.3, 0.3)
            pose = se3_exp(rng_gen.normal(scale=0.1, size=6))
            full = frame_with_depth(np.full((k.height, k.width), 20.0), pose)
            vis, proj = visibility_bruteforce(srange, full, Se3Pose.identity(), k, 100.0)
            if not vis.any():
                continue
            uv = proj[vis][:, trial % 2]
            u, v, d = proj[vis][uv.argmax() if trial % 4 < 2 else uv.argmin()]
            depth = np.zeros((k.height, k.width))
            depth[int(np.floor(v + 0.5)), int(np.floor(u + 0.5))] = d
            idx, _ = self.check(srange, frame_with_depth(depth, pose), Se3Pose.identity(), 0.2, k)
            seen += idx.size > 0
        assert seen >= 60

    def test_random_ranges_and_depth_maps(self):
        # dims drawn from 1..20 are mostly not multiples of 4; poses put the
        # camera inside, behind or beside the range; depth maps range from
        # empty through sparse to dense
        rng_gen = np.random.default_rng(34)
        for _ in range(40):
            dims = rng_gen.integers(1, 21, size=3)
            vs = float(rng_gen.uniform(0.1, 0.6))
            srange = SceneRange(rng_gen.uniform(-5.0, 1.0, size=3), dims * vs, vs)
            depth = rng_gen.uniform(0.0, 10.0, size=(30, 40))
            depth[depth < rng_gen.uniform(0.0, 10.0)] = 0.0
            frame = frame_with_depth(depth, se3_exp(rng_gen.normal(scale=0.8, size=6)))
            current = se3_exp(rng_gen.normal(scale=0.8, size=6))
            self.check(srange, frame, current, theta_d=float(rng_gen.choice([0.05, 0.5, 3.0])))

    @pytest.mark.parametrize("dims", [(36, 20, 10), (38, 21, 11)])
    @pytest.mark.parametrize("k", [K, CameraIntrinsics(160.0, 160.0, 79.5, 59.5, 160, 120)])
    def test_ranges_spanning_several_super_blocks(self, dims, k):
        # ranges of several 16x16x8-voxel regions, each axis ending in a partial
        # one; (36, 20, 10) ends z in a partial block and (38, 21, 11) every axis;
        # some visible voxel must lie past the last whole region of each axis
        rng_gen = np.random.default_rng(35)
        dims = np.array(dims)
        srange = SceneRange((-dims[0] * 0.125, 1.0, -dims[2] * 0.125), dims * 0.25, 0.25)
        edge = np.array((16, 16, 8))
        far_end = np.zeros(3, dtype=int)
        for trial in range(12):
            rows, cols = np.mgrid[: k.height, : k.width]
            # a tilted plane of depth, holed and speckled with random depths
            depth = 2.0 + 4.0 * rng_gen.random() * (rows + cols) / (k.height + k.width)
            depth[rng_gen.random(depth.shape) < 0.3] = 0.0
            speckle = rng_gen.random(depth.shape) < 0.2
            depth[speckle] = rng_gen.uniform(0.5, 9.0, size=np.count_nonzero(speckle))
            frame = frame_with_depth(depth, se3_exp(rng_gen.normal(scale=0.15, size=6)))
            idx, _ = self.check(srange, frame, Se3Pose.identity(), theta_d=[0.05, 0.5][trial % 2], k=k)
            ijk = np.stack(np.unravel_index(idx, srange.dims))
            far_end += (ijk >= (dims // edge * edge)[:, None]).any(axis=1)
        assert np.all(far_end > 0)


class TestVisibilityCullSmallBatches(TestVisibilityCull):
    """Every cull case with a budget of 3 blocks' points: projection batches
    of 3 blocks, cull slabs of one or a few x-rows, several of each per
    frame, partial last ones, and frames that keep no block at all."""

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(fusion, "_POINTS", 3 * 64)


class TestVisibilityPointBudget:
    """A visibility pass moves and projects at most _POINTS points per call.

    The cull moves the 8 corners of a slab of whole x-rows of the block grid,
    and the projection the 64 centers of a batch of blocks. A slab is never
    less than one x-row, and a batch never less than one block, so the bound
    is max(_POINTS, 8 * BY * BZ) points per cull call and max(_POINTS, 64)
    per projection call; here _POINTS exceeds both floors.
    """

    def test_every_call_within_budget(self, monkeypatch):
        # (36, 20, 10) voxels are (9, 5, 3) blocks: one x-row is 8 * 5 * 3 = 120
        # corners, so a slab holds 2 rows (5 slabs), and a batch 4 blocks
        points = 256
        monkeypatch.setattr(fusion, "_POINTS", points)
        sizes = {"box_footprint": [], "project_pixels": []}

        def recording(name):
            fn = getattr(fusion, name)

            def wrapper(r, t, x, y, z, *rest):
                sizes[name].append(np.broadcast(x, y, z).size)
                return fn(r, t, x, y, z, *rest)

            monkeypatch.setattr(fusion, name, wrapper)

        recording("box_footprint")
        recording("project_pixels")
        dims = np.array((36, 20, 10))
        srange = SceneRange((-4.5, 1.0, -1.25), dims * 0.25, 0.25)
        rows, cols = np.mgrid[: K.height, : K.width]
        depth = 2.0 + 4.0 * (rows + cols) / (K.height + K.width)
        frame = frame_with_depth(depth, se3_exp(np.array([0.05, 0.1, 0.0, 0.02, -0.03, 0.01])))
        idx, uvd = visibility(srange, frame, Se3Pose.identity(), K, 0.5)
        assert sizes["box_footprint"] and max(sizes["box_footprint"]) <= points
        assert sizes["project_pixels"] and max(sizes["project_pixels"]) <= points
        assert len(sizes["box_footprint"]) == 5
        assert len(sizes["project_pixels"]) >= 3
        vis, proj = visibility_bruteforce(srange, frame, Se3Pose.identity(), K, 0.5)
        assert idx.size > 0
        assert np.array_equal(idx, np.flatnonzero(vis))
        assert np.array_equal(uvd, proj[vis])


class TestDownsampleBlocks:
    def test_single_visible_voxel(self):
        idx = [np.ravel_multi_index((1, 2, 3), (4, 4, 4))]
        block_vis, block_mean = downsample_blocks((4, 4, 4), idx, np.array([[10.0, 20.0, 5.0]]))
        assert block_vis.shape == (1, 1, 1)
        assert block_vis[0, 0, 0]
        assert np.allclose(block_mean[0, 0, 0], (10.0, 20.0, 5.0))

    def test_empty_block(self):
        block_vis, block_mean = downsample_blocks(
            (4, 4, 4), np.zeros(0, dtype=np.int64), np.zeros((0, 3))
        )
        assert not block_vis.any()
        assert np.all(block_mean == 0.0)

    def test_mean_over_visible_only(self):
        # voxels (0,0,0) and (0,0,1) share the first block; (4,0,0) is alone in the second
        idx = np.ravel_multi_index(([0, 0, 4], [0, 0, 0], [0, 1, 0]), (8, 4, 4))
        uvd = np.array([(10.0, 4.0, 2.0), (12.0, 6.0, 4.0), (99.0, 99.0, 99.0)])
        block_vis, block_mean = downsample_blocks((8, 4, 4), idx, uvd)
        assert block_vis.ravel().tolist() == [True, True]
        assert np.array_equal(block_mean[0, 0, 0], (11.0, 5.0, 3.0))
        assert np.array_equal(block_mean[1, 0, 0], (99.0, 99.0, 99.0))

    @pytest.mark.parametrize("frac", [0.01, 0.3])
    def test_matches_bruteforce_oracle(self, frac):
        rng = np.random.default_rng(15)
        for _ in range(4):
            dims = tuple(int(4 * n) for n in rng.integers(1, 5, size=3))
            vis = rng.random((3,) + dims) < frac
            # magnitudes over six decades make the summation order visible
            proj = rng.normal(size=(3,) + dims + (3,)) * 10.0 ** rng.uniform(-3, 3, size=(3,) + dims + (3,))
            vis_ref, proj_ref = downsample_bruteforce(vis, proj)
            for f in range(3):
                block_vis, block_mean = downsample_blocks(dims, *sparse(vis[f], proj[f]))
                assert np.array_equal(block_vis, vis_ref[f])
                assert np.array_equal(block_mean, proj_ref[f])

    def test_or_semantics_exhaustive_on_toy_block(self):
        rng = np.random.default_rng(14)
        vis = rng.random((8, 4, 4)) < 0.3
        proj = rng.random((8, 4, 4, 3))
        block_vis, _ = downsample_blocks(vis.shape, *sparse(vis, proj))
        expect = vis.reshape(2, 4, 1, 4, 1, 4).any(axis=(1, 3, 5))
        assert np.array_equal(block_vis, expect)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError):
            downsample_blocks((5, 4, 4), np.zeros(0, dtype=np.int64), np.zeros((0, 3)))


class TestSampleFuse:
    """Feature sampling: `_frame_features` on one 1x1x1-block frame of an 8x8
    image, and `fuse_pipeline`'s extractor contract."""

    K8 = CameraIntrinsics(8.0, 8.0, 3.5, 3.5, 8, 8)

    def _features(self, fmap, visible, uv):
        vis = np.array([[[visible]]])
        mean = np.zeros((1, 1, 1, 3))
        mean[0, 0, 0, :2] = uv
        return _frame_features(fmap, vis, mean, self.K8)

    def test_invisible_block_zero_padded(self):
        feats = self._features(np.full((8, 8, 2), 7.0), False, (0.0, 0.0))
        assert np.all(feats == 0.0)

    def test_constant_map_sampled(self):
        feats = self._features(np.full((8, 8, 2), 7.0), True, (3.0, 3.0))
        assert np.allclose(feats[0, 0, 0], [7.0, 7.0])

    def test_two_frames_partial_visibility(self):
        feats = np.concatenate([
            self._features(np.full((8, 8, 1), 5.0), True, (3.0, 3.0)),
            self._features(np.full((8, 8, 1), 9.0), False, (3.0, 3.0)),
        ], axis=-1)
        assert np.allclose(feats[0, 0, 0], [5.0, 0.0])

    @staticmethod
    def _frames(n=2):
        # n identical frames with 10 m of depth everywhere
        return [frame_with_depth(np.full((30, 40), 10.0), index=i) for i in range(n)]

    def _fuse(self, extractor, frames=None):
        # one 4x4x4 voxel block 10 m ahead of the frames
        frames = self._frames() if frames is None else frames
        rng = SceneRange((-0.8, 9.2, -0.8), (1.6, 1.6, 1.6), 0.4)
        return fuse_pipeline(frames, rng, K, 0.5, extractor, 1)

    def test_channel_mismatch_rejected(self):
        # the extractor runs on worker threads in no set order, so C is a
        # function of the image it is given: 1 for the first frame, 2 after
        frames = self._frames()

        def extractor(image):
            return np.zeros((8, 8, 1 if image is frames[0].pixels else 2))

        with pytest.raises(ValueError, match=r"shape \(8, 8, 2\)"):
            self._fuse(extractor, frames)

    def test_extractor_without_channel_axis_rejected(self):
        def gray(image):
            return image.mean(axis=-1)

        with pytest.raises(ValueError, match=r"shape \(30, 40\)"):
            self._fuse(gray)

    @pytest.mark.parametrize("bad", [0, 1, 4])
    def test_first_bad_frame_error_is_raised(self, bad):
        # frame `bad` fails late and frame bad + 1, on the other worker, fails at
        # once; the error raised is still frame `bad`'s
        frames = self._frames(6)

        def extractor(image):
            fi = next(i for i, f in enumerate(frames) if f.pixels is image)
            if fi == bad:
                time.sleep(0.05)
            if fi in (bad, bad + 1):
                raise ValueError(f"bad frame {fi}")
            return np.zeros((8, 8, 2))

        with pytest.raises(ValueError, match=f"^bad frame {bad}$"):
            self._fuse(extractor, frames)

    def test_visibility_error_comes_before_a_later_extractor_error(self):
        frames = self._frames(4)
        frames[1] = frame_with_depth(np.full((20, 40), 10.0), index=1)

        def extractor(image):
            if image is frames[3].pixels:
                raise ValueError("bad frame 3")
            return np.zeros((8, 8, 2))

        with pytest.raises(ValueError, match=r"^frame is 40x20 but intrinsics expect 40x30$"):
            self._fuse(extractor, frames)

    def test_no_worker_outlives_the_call(self):
        before = threading.active_count()
        self._fuse(lambda image: np.zeros((8, 8, 2)), self._frames(5))
        assert threading.active_count() == before

        def extractor(image):
            raise ValueError("no features")

        with pytest.raises(ValueError, match="no features"):
            self._fuse(extractor, self._frames(5))
        assert threading.active_count() == before

    def test_no_pass_starts_after_an_error(self):
        # frame 0's visibility raises at once; of the 9 slow passes after it,
        # only those the workers took before the error was seen may run
        frames = self._frames(10)
        frames[0] = frame_with_depth(np.full((20, 40), 10.0), index=0)
        calls = []

        def extractor(image):
            calls.append(image)
            time.sleep(0.2)
            return np.zeros((8, 8, 2))

        before = threading.active_count()
        with pytest.raises(ValueError, match=r"^frame is 40x20 but intrinsics expect 40x30$"):
            self._fuse(extractor, frames)
        assert len(calls) <= 4
        assert threading.active_count() == before

    def test_out_of_bounds_sample_zeroed(self):
        # maps past the 2x2 map's hull
        feats = self._features(np.full((2, 2, 1), 3.0), True, (7.9, 7.9))
        assert np.all(feats == 0.0)

    def test_stride_scaling_center_aligned(self):
        # linear-in-u map at quarter resolution: pixel u samples column
        # (u + 0.5) / 4 - 0.5 of the feature map
        fmap = np.arange(2, dtype=float)[None, :, None].repeat(2, axis=0)
        feats = self._features(fmap, True, (5.0, 3.0))
        assert feats[0, 0, 0, 0] == pytest.approx((5.0 + 0.5) / 4 - 0.5)


class TestFusePipeline:
    def _scene(self, seed=0, frames=4):
        spec = SceneSpec(seed=seed, layout="corridor", dims=(64, 96, 16),
                         origin=(-12.8, 0.0, -2.0), box_count=10)
        grid = build_scene(spec)
        k = desk_intrinsics()
        traj = make_trajectory(
            TrajectorySpec(frames=frames, speed=1.0, frame_interval=5,
                           start=canonical_camera_pose((0.0, 1.0, 0.0)))
        )
        frames = render_frames(grid, traj, k)
        rng = SceneRange((-12.8, 0.0, -2.0), (25.6, 25.6, 6.4), 0.4)
        return grid, k, frames, rng

    def test_current_only_matches_oracle_blocks(self):
        _, k, frames, rng = self._scene()
        current = frames[-1]
        fused, bv = fuse_pipeline([current], rng, k, 0.5, extract_features, 0)
        vis_ref, proj_ref = visibility_bruteforce(rng, current, current.pose, k, 0.5)
        vis_blocks, proj_blocks = downsample_bruteforce(vis_ref, proj_ref)
        assert np.array_equal(bv.visible, vis_blocks)
        assert np.array_equal(bv.proj_uv_d, proj_blocks)

    def test_three_frames_match_oracle_blocks(self):
        _, k, frames, rng = self._scene()
        frame_set = frames[1:]
        current = frame_set[1]
        _, bv = fuse_pipeline(frame_set, rng, k, 0.5, extract_features, 1)
        refs = [visibility_bruteforce(rng, f, current.pose, k, 0.5) for f in frame_set]
        vis_blocks, proj_blocks = downsample_bruteforce(
            np.stack([v for v, _ in refs]), np.stack([p for _, p in refs])
        )
        assert bv.frame_indices == tuple(f.frame_index for f in frame_set)
        assert np.array_equal(bv.visible, vis_blocks)
        assert np.array_equal(bv.proj_uv_d, proj_blocks)

    @staticmethod
    def _serial_features(frames, rng, k, current):
        """Each frame's channels, one frame after another on this thread."""
        out = []
        for frame in frames:
            block_vis, block_mean = downsample_blocks(
                rng.dims, *visibility(rng, frame, current.pose, k, 0.5)
            )
            out.append(_frame_features(extract_features(frame.pixels), block_vis, block_mean, k))
        return out

    def test_pool_matches_serial_passes_and_oracle(self):
        _, k, frames, rng = self._scene(5, frames=6)
        current = frames[4]
        fused, bv = fuse_pipeline(frames, rng, k, 0.5, extract_features, 4)
        c = fused.channels_per_frame
        for fi, ref in enumerate(self._serial_features(frames, rng, k, current)):
            assert np.array_equal(fused.features[..., fi * c:(fi + 1) * c], ref)
        refs = [visibility_bruteforce(rng, f, current.pose, k, 0.5) for f in frames]
        vis_blocks, proj_blocks = downsample_bruteforce(
            np.stack([v for v, _ in refs]), np.stack([p for _, p in refs])
        )
        assert bv.visible.any(axis=(1, 2, 3)).all()
        assert np.array_equal(bv.visible, vis_blocks)
        assert np.array_equal(bv.proj_uv_d, proj_blocks)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # three workers and a 1 us switch interval interleave the passes as
        # finely as the interpreter allows; a pass that wrote outside its own
        # frame's slices would show as a mismatch with the serial passes
        _, k, frames, rng = self._scene(6, frames=7)
        monkeypatch.setattr(fusion, "_WORKERS", 3)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: result.append(fuse_pipeline(frames, rng, k, 0.5, extract_features, 5))
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(result) == 1
        fused, _ = result[0]
        c = fused.channels_per_frame
        for fi, ref in enumerate(self._serial_features(frames, rng, k, frames[5])):
            assert np.array_equal(fused.features[..., fi * c:(fi + 1) * c], ref)

    def test_coverage_monotone_in_frames(self):
        _, k, frames, rng = self._scene(1)
        counts = []
        for m in range(1, len(frames) + 1):
            _, bv = fuse_pipeline(frames[:m], rng, k, 0.5, extract_features, m - 1)
            counts.append(int(np.any(bv.visible, axis=0).sum()))
        assert counts == sorted(counts)

    def test_zero_padding_per_frame_slot(self):
        _, k, frames, rng = self._scene(2)
        fused, bv = fuse_pipeline(frames[:2], rng, k, 0.5, extract_features, 1)
        c = fused.channels_per_frame
        for f in range(2):
            invisible = ~bv.visible[f]
            slot = fused.features[..., f * c:(f + 1) * c]
            assert np.all(slot[invisible] == 0.0)

    def test_feature_layout_frame_major(self):
        _, k, frames, rng = self._scene(3)
        fused, bv = fuse_pipeline(frames[:2], rng, k, 0.5, extract_features, 1)
        assert fused.features.shape[-1] == 2 * fused.channels_per_frame

    def test_unordered_frames_rejected(self):
        _, k, frames, rng = self._scene(4)
        with pytest.raises(ValueError):
            fuse_pipeline([frames[1], frames[0]], rng, k, 0.5, extract_features, 0)

    def test_surface_band_visibility_with_wide_theta(self):
        # with theta >= voxel size, voxels on a rendered fronto-parallel wall
        # within half a voxel of the surface must all be visible
        labels = np.zeros((16, 16, 8), dtype=np.uint8)
        labels[:, 10, :] = 3  # wall slab at y in [4.0, 4.4]
        grid = SceneGrid(SceneRange((-3.2, 0.0, -1.6), (6.4, 6.4, 3.2), 0.4), labels)
        k = desk_intrinsics()
        pose = canonical_camera_pose((0.0, 0.0, 0.0))
        frame = render_frame(grid, pose, k)
        idx, _ = visibility(grid.range, frame, pose, k, 0.4)
        vis = np.zeros(grid.range.dims, dtype=bool)
        vis.reshape(-1)[idx] = True
        # wall voxels whose centers project inside the image must all pass;
        # the canonical camera at the origin makes scene coords == world coords
        vs = grid.range.voxel_size
        i, kk = np.meshgrid(np.arange(16), np.arange(8), indexing="ij")
        centers = grid.range.origin + (np.stack([i, np.full_like(i, 10), kk], axis=-1) + 0.5) * vs
        cam = centers.reshape(-1, 3) @ LEVEL_CAMERA_ROTATION
        u = k.fx * cam[:, 0] / cam[:, 2] + k.cx
        v = k.fy * cam[:, 1] / cam[:, 2] + k.cy
        inb = (np.floor(u + 0.5) >= 0) & (np.floor(u + 0.5) <= k.width - 1) & \
              (np.floor(v + 0.5) >= 0) & (np.floor(v + 0.5) <= k.height - 1)
        assert vis[:, 10, :].ravel()[inb].all()


class TestResampleToRange:
    def test_aligned_shift_is_exact(self):
        spec = SceneSpec(seed=5, layout="corridor", dims=(32, 64, 8),
                         origin=(-6.4, 0.0, -1.6))
        grid = build_scene(spec)
        rng = SceneRange((-6.4, 0.0, -1.6), (12.8, 12.8, 3.2), 0.4)
        pose = canonical_camera_pose((0.0, 4.0, 0.0))  # 10-voxel shift forward
        out = resample_to_range(grid, rng, pose)
        assert np.array_equal(out.labels, grid.labels[:, 10:42, :])

    def test_outside_world_is_empty(self):
        spec = SceneSpec(seed=6, layout="corridor", dims=(16, 16, 8), origin=(-3.2, 0.0, -1.6))
        grid = build_scene(spec)
        rng = SceneRange((-3.2, 0.0, -1.6), (6.4, 6.4, 3.2), 0.4)
        pose = canonical_camera_pose((0.0, 100.0, 0.0))
        out = resample_to_range(grid, rng, pose)
        assert not out.labels.any()

    def test_matches_bruteforce_oracle_off_axis(self):
        gen = np.random.default_rng(16)
        for _ in range(6):
            # every world voxel is labelled, so a centre floored into the
            # wrong voxel almost always changes its label
            grid = SceneGrid(SceneRange((-6.4, 0.0, -1.6), (12.8, 12.8, 3.2), 0.4),
                             gen.integers(1, 20, size=(32, 32, 8)))
            dims = tuple(int(4 * n) for n in gen.integers(1, 4, size=3))
            vs = float(gen.uniform(0.2, 0.6))
            origin = (gen.uniform(-3.0, 0.0), gen.uniform(0.0, 3.0), gen.uniform(-2.0, -0.5))
            rng = SceneRange(origin, np.array(dims) * vs, vs)
            # a level camera turned by a random yaw, pitch and roll
            twist = np.concatenate([gen.normal(scale=0.4, size=3), gen.normal(scale=1.0, size=3)])
            pose = compose(canonical_camera_pose((0.0, 2.0, 0.0)), se3_exp(twist))
            out = resample_to_range(grid, rng, pose)
            assert np.array_equal(out.labels, resample_bruteforce(grid, rng, pose))

    def test_desk_scale_peak_memory(self):
        # the demo's 128x128x16 range, mapped in slabs: 4.5 MiB traced with
        # numpy 2.4, the labels included, against 14.3 when it was mapped whole
        voxel = defaults.DESK_VOXEL_SIZE
        grid = build_scene(SceneSpec(seed=0, dims=(128, 160, 16), voxel_size=voxel))
        rng = SceneRange.ahead_of_camera(tuple(d * voxel for d in defaults.DESK_SCENE_DIMS), voxel)
        turn = se3_exp(np.array([0.0, 0.3, 0.0, 0.3, 0.0, 0.2]))
        pose = compose(canonical_camera_pose((0.0, 4.0, 0.0)), turn)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            resample_to_range(grid, rng, pose)
            peak_mib = (tracemalloc.get_traced_memory()[1] - before) / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mib < 5.0
