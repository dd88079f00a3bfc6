import numpy as np
import pytest

from oracles import classify_palette, extract_features_bruteforce, raycast_bruteforce
from scenecast.fusion import SceneGrid, SceneRange
from scenecast.geom import CameraIntrinsics, compose, inverse, se3_log
from scenecast.synth import (
    PALETTE,
    SceneSpec,
    TrajectorySpec,
    build_scene,
    canonical_camera_pose,
    desk_intrinsics,
    extract_features,
    make_trajectory,
    render_frame,
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
            assert np.abs(frame.depth - ref_depth).max() < 1e-9
            assert np.array_equal(classify_palette(frame.image), ref_cls)

    def test_depth_capped_at_range(self):
        labels = np.zeros((8, 8, 4), dtype=np.uint8)
        labels[:, 7, :] = 1  # surface beyond the cap
        grid = SceneGrid(SceneRange((-1.6, 0.0, -0.8), (3.2, 3.2, 1.6), 0.4), labels)
        k = desk_intrinsics()
        depth = render_frame(grid, canonical_camera_pose(), k, d_max=1.0).depth
        assert not depth.any()


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
        fa, fb = render_frame(grid, pa, k, 0), render_frame(grid, pb, k, 1)
        warped = forward_splat([fa], pb, k, dst_frame_index=1)
        both = warped.hit_mask & (fb.depth > 0)
        dd = np.abs(warped.depth - fb.depth)[both]
        same_class = classify_palette(warped.image)[both] == classify_palette(fb.image)[both]
        assert ((dd <= 0.05) & same_class).mean() >= 0.95


class TestExtractFeatures:
    def test_constant_image(self):
        img = np.full((16, 16, 3), 0.25)
        feats = extract_features(img)
        assert feats.shape == (4, 4, 8)
        assert np.allclose(feats[..., 0:4], 0.25)  # means carry the constant
        assert np.allclose(feats[..., 4:6], 0.0)   # gradients vanish
        assert np.allclose(feats[..., 6:8], 0.25)  # min/max equal the constant

    def test_feature_l1_zero_for_identical(self):
        from scenecast.losses import l1_field

        rng = np.random.default_rng(51)
        img = rng.random((16, 16, 3))
        assert l1_field(extract_features(img), extract_features(img)) == 0.0

    def test_shape_requirements(self):
        with pytest.raises(ValueError):
            extract_features(np.zeros((15, 16, 3)))
        with pytest.raises(ValueError):
            extract_features(np.zeros((16, 16)))

    @pytest.mark.parametrize("size", ["desk", "kitti"])
    def test_matches_bruteforce_oracle(self, size):
        if size == "desk":
            grid = build_scene(SceneSpec(seed=4, layout="corridor"))
            img = render_frame(grid, canonical_camera_pose((0.0, 2.0, 0.0)), desk_intrinsics()).image
        else:
            img = np.random.default_rng(54).integers(0, 256, size=(368, 1216, 3)) / 255.0
        got = extract_features(img)
        ref = extract_features_bruteforce(img)
        assert got.shape == ref.shape
        assert np.array_equal(got[..., 6:], ref[..., 6:])  # min and max are exact
        assert np.abs(got[..., :6] - ref[..., :6]).max() <= 1e-12

    def test_stride_shift_covariance(self):
        rng = np.random.default_rng(52)
        img = rng.random((24, 24, 3))
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
