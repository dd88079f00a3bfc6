import numpy as np
import pytest
from scipy import ndimage

from oracles import classify_palette, extract_features_bruteforce, raycast_bruteforce
from scenecast import defaults, synth
from scenecast.forecast import PoseSequence
from scenecast.fusion import SceneGrid, SceneRange
from scenecast.geom import (
    CameraIntrinsics, compose, inverse, quantize, se3_exp, se3_log, tile_reduce,
)
from scenecast.synth import (
    LAYOUTS,
    PALETTE,
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


class TestBuildScene:
    def test_corridor_ground_at_bottom_layer(self):
        grid = build_scene(SceneSpec(seed=0, layout="corridor"))
        assert (grid.labels[1:-1, :, 0] >= 1).all()

    def test_corridor_walls(self):
        grid = build_scene(SceneSpec(seed=0, layout="corridor"))
        assert (grid.labels[0] == 2).all() and (grid.labels[-1] == 2).all()

    def test_determinism(self):
        a = build_scene(SceneSpec(seed=7, layout="random_boxes"))
        b = build_scene(SceneSpec(seed=7, layout="random_boxes"))
        assert np.array_equal(a.labels, b.labels)
        c = build_scene(SceneSpec(seed=8, layout="random_boxes"))
        assert not np.array_equal(a.labels, c.labels)

    def test_empty_layout(self):
        grid = build_scene(SceneSpec(seed=0, layout="empty"))
        assert not grid.labels.any()

    def test_intersection_has_gaps(self):
        grid = build_scene(SceneSpec(seed=1, layout="intersection", dims=(64, 64, 8)))
        ny = 64
        assert not grid.labels[0, ny // 2, 1:].any()

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(layout="sphere")

    def test_negative_box_count_rejected_by_name(self):
        with pytest.raises(ValueError, match="^box_count must be >= 0, got -3$"):
            SceneSpec(box_count=-3)

    @pytest.mark.parametrize("voxel", [float("nan"), float("inf")])
    def test_bad_voxel_size_rejected_on_construction(self, voxel):
        with pytest.raises(ValueError, match="^voxel_size must be finite and positive"):
            SceneSpec(voxel_size=voxel)


class TestMakeTrajectory:
    @pytest.mark.parametrize("name", ["speed", "turn_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rate_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            TrajectorySpec(kind="constant_turn", **{name: value})

    def test_straight_advances_forward(self):
        seq = make_trajectory(TrajectorySpec(kind="straight", speed=1.0, frames=3))
        # canonical camera: forward is world +y; steps are interval * speed
        forward = [p.translation[1] for p in seq.poses]
        assert forward == pytest.approx([0.0, 5.0, 10.0])
        # per-step displacement along the camera forward (+z body) axis
        step = se3_log(compose(inverse(seq.poses[0]), seq.poses[1]))
        assert step[5] == pytest.approx(5.0)

    def test_frame_indices_spacing(self):
        seq = make_trajectory(TrajectorySpec(frames=4))
        assert seq.frame_indices == (0, 5, 10, 15)
        assert seq.frame_interval == 5

    def test_constant_turn_twist_is_constant(self):
        seq = make_trajectory(
            TrajectorySpec(kind="constant_turn", speed=1.0, turn_rate=0.02, frames=5)
        )
        twists = [
            se3_log(compose(inverse(a), b)) for a, b in zip(seq.poses, seq.poses[1:])
        ]
        for t in twists[1:]:
            assert np.abs(t - twists[0]).max() < 1e-12

    def test_piecewise_changes_twist(self):
        seq = make_trajectory(
            TrajectorySpec(kind="piecewise", speed=1.0, turn_rate=0.05, frames=8)
        )
        twists = [
            se3_log(compose(inverse(a), b)) for a, b in zip(seq.poses, seq.poses[1:])
        ]
        assert np.abs(twists[0] - twists[4]).max() > 1e-6


class TestRenderDepth:
    def test_fronto_parallel_wall(self):
        labels = np.zeros((16, 32, 8), dtype=np.uint8)
        labels[:, 25, :] = 2  # wall slab starting at y = 10.0
        grid = SceneGrid(SceneRange((-3.2, 0.0, -1.6), (6.4, 12.8, 3.2), 0.4), labels)
        k = desk_intrinsics()
        depth = render_frame(grid, canonical_camera_pose(), k).depth
        hit = depth > 0
        wall_px = np.abs(depth[hit] - 10.0) <= 0.4
        assert hit.any()
        assert wall_px.mean() > 0.6  # rest of the hits are ground

    def test_empty_scene_renders_zero(self):
        grid = build_scene(SceneSpec(seed=0, layout="empty", dims=(16, 16, 8)))
        depth = render_frame(grid, canonical_camera_pose(), desk_intrinsics()).depth
        assert not depth.any()

    def test_agrees_with_bruteforce_oracle(self):
        k = CameraIntrinsics(8.0, 8.0, 7.5, 7.5, 16, 16)
        rng = np.random.default_rng(50)
        for seed in range(3):
            spec = SceneSpec(seed=seed, layout="random_boxes", dims=(16, 16, 8),
                             origin=(-3.2, 0.0, -1.6), box_count=6)
            grid = build_scene(spec)
            pose = canonical_camera_pose((rng.uniform(-0.5, 0.5), 0.3, 0.1))
            frame = render_frame(grid, pose, k)
            ref_depth, ref_cls = raycast_bruteforce(grid, pose, k, 80.0)
            assert np.abs(synth._raycast(grid, [pose], k, 80.0)[0][0] - ref_depth).max() < 1e-9
            assert np.array_equal(classify_palette(frame.image), ref_cls)

    def test_frame_holds_the_raycast_depth_as_float32(self):
        grid = build_scene(SceneSpec(seed=3, layout="corridor", dims=(32, 48, 8)))
        pose = canonical_camera_pose((0.37, 1.9, 0.23))
        k = desk_intrinsics(32, 24)
        depth = render_frame(grid, pose, k).depth
        raw = synth._raycast(grid, [pose], k, defaults.D_MAX)[0][0]
        assert (raw > 0).mean() > 0.3 and raw.dtype == np.float64
        assert depth.dtype == np.float32
        assert depth.tobytes() == raw.astype(np.float32).tobytes()

    def test_depth_capped_at_range(self, monkeypatch):
        monkeypatch.setattr(defaults, "D_MAX", 1.0)
        labels = np.zeros((8, 8, 4), dtype=np.uint8)
        labels[:, 7, :] = 1  # surface beyond the cap
        grid = SceneGrid(SceneRange((-1.6, 0.0, -0.8), (3.2, 3.2, 1.6), 0.4), labels)
        k = desk_intrinsics()
        depth = render_frame(grid, canonical_camera_pose(), k).depth
        assert not depth.any()


def _matches_oracle(grid, pose, k):
    """Render and compare with the brute-force oracle at `defaults.D_MAX`:
    the image's classes exactly, the traversal's float64 depth within 1e-9;
    returns the oracle classes."""
    frame = render_frame(grid, pose, k)
    ref_depth, ref_cls = raycast_bruteforce(grid, pose, k, defaults.D_MAX)
    assert np.array_equal(classify_palette(frame.image), ref_cls)
    assert np.abs(synth._raycast(grid, [pose], k, defaults.D_MAX)[0][0] - ref_depth).max() < 1e-9
    return ref_cls


def _looking(position, omega=(0.0, 0.0, 0.0)):
    """Canonical camera at `position`, turned by the body-frame rotation `omega`."""
    return compose(canonical_camera_pose(position), se3_exp(np.r_[omega, 0.0, 0.0, 0.0]))


def _sparse_grid(dims, seed, cameras=(), vs=0.4, fill=0.15):
    """Random labels at `fill` occupancy, empty within a voxel of each camera position."""
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(dims) < fill, rng.integers(1, 9, dims), 0).astype(np.uint8)
    for position in cameras:
        x, y, z = np.floor(np.asarray(position) / vs).astype(int)
        labels[max(x - 1, 0): x + 2, max(y - 1, 0): y + 2, max(z - 1, 0): z + 2] = 0
    return SceneGrid(SceneRange((0.0, 0.0, 0.0), tuple(d * vs for d in dims), vs), labels)


class TestRaycastTraversal:
    """The traversal loop against `raycast_bruteforce`: exact classes, depth within 1e-9."""

    K = CameraIntrinsics(7.3, 6.1, 5.5, 4.0, 12, 9)

    def test_yawed_and_pitched_cameras(self):
        rng = np.random.default_rng(60)
        positions = rng.uniform([0.5, 0.5, 0.5], [3.5, 4.3, 1.9], (6, 3))
        grid = _sparse_grid((10, 12, 6), seed=60, cameras=positions)
        for position in positions:
            omega = rng.uniform(-1.2, 1.2, 3) * [1.0, 1.0, 0.3]
            assert _matches_oracle(grid, _looking(position, omega), self.K).any()

    @pytest.mark.parametrize(
        "position, omega",
        [
            ((1.93, -2.71, 1.17), (0.0, 0.0, 0.0)),       # behind the grid, looking along +y
            ((2.11, 2.37, 5.3), (-1.1, 0.0, 0.0)),        # above it, pitched down
            ((-3.1, 2.49, 1.03), (0.0, 1.3, 0.0)),        # beside it, yawed to face +x
            ((5.9, 6.7, -1.4), (0.35, -2.4, 0.0)),        # past the far corner, below the floor
        ],
        ids=["behind", "above", "beside", "far_corner_below"],
    )
    def test_camera_outside_the_grid_looking_in(self, position, omega):
        grid = _sparse_grid((10, 12, 6), seed=61)
        assert _matches_oracle(grid, _looking(position, omega), self.K).any()

    def test_rays_with_zero_direction_components(self):
        # principal point on a pixel centre: column 6 has x = 0 and row 4 has
        # y = 0 in the camera, so with a level camera those rays keep a zero
        # world x or z component
        k = CameraIntrinsics(6.7, 5.9, 6.0, 4.0, 13, 9)
        positions = [(1.93, 0.31, 1.17), (0.73, 1.51, 0.29), (3.71, 0.13, 2.23)]
        grid = _sparse_grid((10, 12, 6), seed=62, cameras=positions)
        for position in positions:
            cls = _matches_oracle(grid, canonical_camera_pose(position), k)
            assert cls[4].any() and cls[:, 6].any()

    def test_d_max_cuts_rays_mid_scene(self, monkeypatch):
        grid = _sparse_grid((10, 12, 6), seed=63, cameras=[(1.93, 0.29, 1.17)], fill=0.05)
        pose = _looking((1.93, 0.29, 1.17), (0.2, 0.1, 0.0))
        uncapped = _matches_oracle(grid, pose, self.K)
        monkeypatch.setattr(defaults, "D_MAX", 2.3)
        capped = _matches_oracle(grid, pose, self.K)
        assert capped.any() and (capped != uncapped).any()

    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["x_face", "y_face", "z_face"])
    def test_rays_leave_through_the_last_voxel(self, axis):
        # the centre ray runs along `axis` through the voxel centres of an
        # emptied column to the last voxel in C order and leaves through its
        # high face; the wide field of view sends the other rays out through
        # high faces nearby or into the occupied cells
        grid = _sparse_grid((4, 5, 3), seed=64, fill=0.3)
        last = np.array(grid.labels.shape) - 1
        column = [slice(i, i + 1) for i in last]
        column[axis] = slice(None)
        grid.labels[tuple(column)] = 0
        start = (last + 0.5) * grid.range.voxel_size
        start[axis] = 0.5 * grid.range.voxel_size
        omega = [(0.0, np.pi / 2, 0.0), (0.0, 0.0, 0.0), (np.pi / 2, 0.0, 0.0)][axis]
        k = CameraIntrinsics(1.7, 1.9, 2.0, 2.0, 5, 5)
        cls = _matches_oracle(grid, _looking(start, omega), k)
        assert cls[2, 2] == 0 and cls.any()

    @pytest.mark.parametrize(
        "pixel, voxel",
        [((1, 2), (4, 3, 2)), ((0, 1), (2, 4, 3)), ((0, 2), (4, 4, 3))],
        ids=["x_before_y", "y_before_z", "x_then_y_before_z"],
    )
    def test_exact_ties_step_x_then_y_then_z(self, pixel, voxel):
        # every ray but the centre one runs at 45 degrees through exact voxel
        # edges or corners, so tx, ty and tz tie at each crossing; argmin's
        # first-minimum rule enters `voxel` at a corner, which the oracle
        # counts as a hit, and a y- or z-first rule passes it by
        labels = np.zeros((6, 6, 6), dtype=np.uint8)
        labels[voxel] = 3
        grid = SceneGrid(SceneRange((0.0, 0.0, 0.0), (3.0, 3.0, 3.0), 0.5), labels)
        k = CameraIntrinsics(1.0, 1.0, 1.0, 1.0, 3, 3)
        cls = _matches_oracle(grid, canonical_camera_pose((1.25, 1.25, 1.25)), k)
        assert np.flatnonzero(cls).tolist() == [np.ravel_multi_index(pixel, cls.shape)]

    @pytest.mark.parametrize("label", [0, 5])
    def test_one_voxel_grid(self, label):
        grid = SceneGrid(SceneRange((0.0, 0.0, 0.0), (0.4, 0.4, 0.4), 0.4),
                         np.full((1, 1, 1), label, dtype=np.uint8))
        for position, omega in [
            ((0.17, 0.23, 0.29), (0.3, 0.7, 0.1)),       # inside
            ((0.21, -1.3, 0.19), (0.0, 0.0, 0.0)),       # in front of it
            ((1.1, 0.9, 1.3), (-0.9, -2.3, 0.0)),        # off a corner, turned toward it
        ]:
            cls = _matches_oracle(grid, _looking(position, omega), self.K)
            assert cls.any() == bool(label)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_every_layout(self, layout):
        spec = SceneSpec(seed=65, layout=layout, dims=(16, 16, 8), origin=(-3.2, 0.0, -1.6),
                         box_count=6)
        grid = build_scene(spec)
        cls = _matches_oracle(grid, _looking((0.31, 0.53, 0.17), (0.25, -0.4, 0.05)), self.K)
        assert cls.any() == (layout != "empty")

    def test_chunking_leaves_every_bit(self, monkeypatch):
        grid = build_scene(SceneSpec(seed=66, layout="corridor", dims=(32, 48, 8)))
        pose = _looking((0.37, 1.9, 0.23), (0.05, 0.3, 0.0))
        k = desk_intrinsics(32, 24)
        whole = render_frame(grid, pose, k)
        monkeypatch.setattr(synth, "_RAY_CHUNK", 100)
        chunked = render_frame(grid, pose, k)
        assert (whole.depth > 0).mean() > 0.3
        assert whole.depth.tobytes() == chunked.depth.tobytes()
        assert whole.image.tobytes() == chunked.image.tobytes()

    def test_one_queue_leaves_every_bit(self, monkeypatch):
        # small chunks make the frames share the active set and refill it
        # mid-frame; the third pose looks away from the grid, so no ray of it
        # enters the queue, and the last one enters the grid from outside
        grid = build_scene(SceneSpec(seed=67, layout="random_boxes", dims=(32, 48, 8)))
        k = desk_intrinsics(32, 24)
        poses = (
            _looking((0.37, 1.9, 0.23), (0.05, 0.3, 0.0)),
            _looking((-0.41, 0.6, -0.3), (-0.1, -0.2, 0.02)),
            _looking((0.0, -5.0, 0.0), (0.0, np.pi, 0.0)),
            _looking((1.5, 6.0, -0.5), (0.0, -0.4, 0.0)),
            canonical_camera_pose((0.4, -3.0, 0.5)),
        )
        seq = PoseSequence(poses, (3, 8, 13, 18, 23), 5)
        alone = [render_frame(grid, p, k) for p in poses]
        alone_cls = [synth._raycast(grid, [p], k, defaults.D_MAX)[1][0] for p in poses]
        monkeypatch.setattr(synth, "_RAY_CHUNK", 100)
        queued = render_frames(grid, seq, k)
        _, queued_cls = synth._raycast(grid, poses, k, defaults.D_MAX)
        assert [(f.depth > 0).mean() > 0.3 for f in alone] == [True, True, False, True, True]
        assert not alone[2].depth.any()
        assert [q.frame_index for q in queued] == list(seq.frame_indices)
        for a, q, ac, qc in zip(alone, queued, alone_cls, queued_cls):
            assert a.depth.tobytes() == q.depth.tobytes()
            assert ac.tobytes() == qc.tobytes()
            assert a.pixels.tobytes() == q.pixels.tobytes()


class TestRenderImage:
    def test_empty_scene_black(self):
        grid = build_scene(SceneSpec(seed=0, layout="empty", dims=(16, 16, 8)))
        img = render_frame(grid, canonical_camera_pose(), desk_intrinsics()).image
        assert not img.any()

    def test_deterministic(self):
        grid = build_scene(SceneSpec(seed=3, layout="corridor", dims=(32, 32, 8)))
        pose = canonical_camera_pose((0.0, 1.0, 0.0))
        k = desk_intrinsics()
        assert np.array_equal(render_frame(grid, pose, k).image, render_frame(grid, pose, k).image)

    def test_palette_and_shading(self):
        labels = np.zeros((16, 32, 8), dtype=np.uint8)
        labels[:, 25, :] = 1
        grid = SceneGrid(SceneRange((-3.2, 0.0, -1.6), (6.4, 12.8, 3.2), 0.4), labels)
        k = desk_intrinsics()
        frame = render_frame(grid, canonical_camera_pose(), k)
        center = frame.image[k.height // 2, k.width // 2]
        d = frame.depth[k.height // 2, k.width // 2]
        assert np.allclose(center, PALETTE[1] / (1.0 + 0.05 * d))

    def test_viewpoint_consistency(self):
        # warping a render to a second viewpoint matches rendering there
        from scenecast.warp import forward_splat

        spec = SceneSpec(seed=9, layout="corridor", dims=(128, 160, 16),
                         origin=(-25.6, 0.0, -2.0))
        grid = build_scene(spec)
        k = desk_intrinsics()
        down = np.diag([1.0, -1.0, -1.0])
        from scenecast.geom import Se3Pose

        pa = Se3Pose(down, [0.5, 25.0, 9.0])
        pb = Se3Pose(down, [-0.7, 26.0, 9.0])
        fa, fb = render_frames(grid, PoseSequence((pa, pb), (0, 1), 1), k)
        warped = forward_splat([fa], pb, k, dst_frame_index=1)
        both = warped.hit_mask & (fb.depth > 0)
        dd = np.abs(warped.depth - fb.depth)[both]
        same_class = classify_palette(warped.image)[both] == classify_palette(fb.image)[both]
        assert ((dd <= 0.05) & same_class).mean() >= 0.95


class TestExtractFeatures:
    def test_constant_image(self):
        img = np.full((16, 16, 3), 64, dtype=np.uint8)
        feats = extract_features(img)
        assert feats.shape == (4, 4, 8)
        assert np.allclose(feats[..., 0:4], 64 / 255)  # means carry the constant
        assert np.allclose(feats[..., 4:6], 0.0)   # gradients vanish
        assert np.allclose(feats[..., 6:8], 64 / 255)  # min/max equal the constant

    def test_feature_l1_zero_for_identical(self):
        from scenecast.losses import l1_field

        rng = np.random.default_rng(51)
        img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        assert l1_field(extract_features(img), extract_features(img)) == 0.0

    def test_shape_requirements(self):
        with pytest.raises(ValueError):
            extract_features(np.zeros((15, 16, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            extract_features(np.zeros((16, 16), dtype=np.uint8))
        # a frame's pixels are bytes; floats are not read as an image
        with pytest.raises(ValueError, match=r"uint8 image, got float64 of shape \(16, 16, 3\)"):
            extract_features(np.zeros((16, 16, 3)))

    @pytest.mark.parametrize("size", ["desk", "kitti"])
    def test_matches_bruteforce_oracle(self, size):
        if size == "desk":
            grid = build_scene(SceneSpec(seed=4, layout="corridor"))
            img = render_frame(grid, canonical_camera_pose((0.0, 2.0, 0.0)), desk_intrinsics()).pixels
        else:
            img = np.random.default_rng(54).integers(0, 256, size=(368, 1216, 3), dtype=np.uint8)
        got = extract_features(img)
        ref = extract_features_bruteforce(img)
        assert got.shape == ref.shape
        assert np.array_equal(got[..., 6:], ref[..., 6:])  # min and max are exact
        assert np.abs(got[..., :6] - ref[..., :6]).max() <= 1e-12

    @staticmethod
    def scipy_reference(pixels):
        # extract_features with scipy's ndimage.sobel for the two gradients and every
        # other step in the same order, on the whole image read as pixels / 255
        img = pixels / 255.0
        r, g, b = img[:, :, 0], img[:, :, 1], img[:, :, 2]
        gray = (r + g + b) / 3.0
        sob_x = np.abs(ndimage.sobel(gray, axis=1))
        sob_y = np.abs(ndimage.sobel(gray, axis=0))
        means = [tile_reduce(np.add, x, 4) / 16.0 for x in (r, g, b, gray, sob_x, sob_y)]
        extremes = [tile_reduce(op, gray, 4) for op in (np.minimum, np.maximum)]
        return np.stack(means + extremes, axis=-1)

    # the image is read in bands of synth._FEATURE_BAND rows: a last band of one
    # tile row, a height of exactly two bands, and images shorter than one band
    BAND = synth._FEATURE_BAND

    @pytest.mark.parametrize("kind", ["random", "quantized", "flat"])
    @pytest.mark.parametrize(
        "shape",
        [(96, 128), (368, 1216), (4, 4), (8, 12), (BAND + 4, 20), (2 * BAND, 8), (BAND - 4, 16)],
    )
    def test_equals_scipy_sobel_bit_for_bit(self, shape, kind):
        rng = np.random.default_rng(55)
        if kind == "random":
            # random shades quantized as a render's are
            img = quantize(rng.random(shape + (3,)))
        elif kind == "quantized":
            img = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
        else:
            # constant 3x3 patches of three levels: zero differences inside them
            levels = np.array([0, 128, 255], dtype=np.uint8)[
                rng.integers(0, 3, size=(shape[0] // 3 + 1, shape[1] // 3 + 1, 3))
            ]
            img = levels.repeat(3, axis=0).repeat(3, axis=1)[: shape[0], : shape[1]]
        got = extract_features(img)
        ref = self.scipy_reference(img)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_stride_shift_covariance(self):
        rng = np.random.default_rng(52)
        img = rng.integers(0, 256, size=(24, 24, 3), dtype=np.uint8)
        shifted = np.roll(img, 4, axis=1)
        a = extract_features(img)
        b = extract_features(shifted)
        # interior blocks move one cell; boundary effects only near the wrap
        assert np.allclose(a[1:-1, 1:-2], b[1:-1, 2:-1])


class TestReproducibility:
    def test_full_stack_bit_reproducible(self):
        spec = SceneSpec(seed=13, layout="corridor", dims=(64, 64, 8))
        k = desk_intrinsics()
        pose = canonical_camera_pose((0.0, 2.0, 0.0))
        first = render_frame(build_scene(spec), pose, k)
        second = render_frame(build_scene(spec), pose, k)
        assert np.array_equal(first.image, second.image)
        assert np.array_equal(first.depth, second.depth)
