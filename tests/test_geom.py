import math

import numpy as np
import pytest

from oracles import bilinear_bruteforce, tile_fold_bruteforce
from scenecast.geom import (
    CameraIntrinsics,
    FrameBundle,
    Se3Pose,
    bilinear_sample_many,
    box_footprint,
    compose,
    depth_tiles,
    inverse,
    project_pixels,
    relative_pose,
    se3_exp,
    se3_log,
    tile_reduce,
)
from scenecast.warp import reprojection_flow

K = CameraIntrinsics(100.0, 100.0, 320.0, 240.0, 640, 480)
# a reflection whose 1e-10 drift passes the reject bound but not ORTHO_DRIFT
NEAR_REFLECTION = np.diag([1.0, 1.0, -1.0]) + np.diag([1e-10, 0.0], 1)


def rot_z(deg: float) -> np.ndarray:
    a = math.radians(deg)
    return np.array(
        [[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]]
    )


def translate(x, y, z) -> Se3Pose:
    return Se3Pose(np.eye(3), np.array([x, y, z], dtype=float))


def random_pose(rng) -> Se3Pose:
    w = rng.normal(size=3)
    w *= rng.uniform(0.0, math.pi - 1e-2) / np.linalg.norm(w)
    return se3_exp(np.concatenate([w, rng.normal(scale=5.0, size=3)]))


class TestPoseAlgebra:
    def test_compose_identity(self):
        p = translate(1.0, 2.0, 3.0)
        q = compose(Se3Pose.identity(), p)
        assert np.allclose(q.matrix34(), p.matrix34(), atol=1e-15)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_pose(rng)
            q = compose(p, inverse(p))
            assert np.abs(q.matrix34() - Se3Pose.identity().matrix34()).max() < 1e-9

    def test_commuting_translations(self):
        q = compose(translate(0, 0, 1), translate(0, 0, 1))
        assert np.allclose(q.translation, [0, 0, 2], atol=1e-15)

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert np.abs(left.matrix34() - right.matrix34()).max() < 1e-9

    def test_inverse_examples(self):
        assert np.allclose(inverse(Se3Pose.identity()).matrix34(), Se3Pose.identity().matrix34())
        inv = inverse(translate(1, 2, 3))
        assert np.allclose(inv.translation, [-1, -2, -3])
        inv = inverse(Se3Pose(rot_z(90.0), np.zeros(3)))
        moved = np.array([1.0, 0.0, 0.0]) @ inv.rotation.T + inv.translation
        assert np.allclose(moved, [0.0, -1.0, 0.0], atol=1e-12)

    def test_relative_pose_same_is_exact_identity(self):
        rng = np.random.default_rng(2)
        p = random_pose(rng)
        rel = relative_pose(p, p)
        assert np.array_equal(rel.rotation, np.eye(3))
        assert np.array_equal(rel.translation, np.zeros(3))

    def test_relative_pose_pure_translation(self):
        a = translate(0, 0, 0)
        b = translate(0, 0, 1)
        rel = relative_pose(a, b)
        moved = np.array([0.0, 0.0, 5.0]) @ rel.rotation.T + rel.translation
        assert np.allclose(moved, [0.0, 0.0, 4.0], atol=1e-12)

    def test_relative_pose_round_trip(self):
        rng = np.random.default_rng(3)
        a, b = random_pose(rng), random_pose(rng)
        round_trip = compose(relative_pose(a, b), relative_pose(b, a))
        assert np.abs(round_trip.matrix34() - Se3Pose.identity().matrix34()).max() < 1e-9

    def test_rotation_validation(self):
        with pytest.raises(ValueError):
            Se3Pose(np.ones((3, 3)), np.zeros(3))
        # minor drift is repaired on construction
        noisy = rot_z(30.0) + 1e-9
        p = Se3Pose(noisy, np.zeros(3))
        assert np.abs(p.rotation @ p.rotation.T - np.eye(3)).max() < 1e-12

    def test_from_rt_keeps_or_projects_by_drift(self):
        r = rot_z(30.0)
        kept = Se3Pose.from_rt(r, np.zeros(3))
        assert np.array_equal(kept.rotation, r)
        # far beyond what the constructor repairs: projected onto SO(3)
        sloppy = Se3Pose.from_rt(r + 1e-3, np.zeros(3))
        assert np.abs(sloppy.rotation @ sloppy.rotation.T - np.eye(3)).max() < 1e-12
        assert np.abs(sloppy.rotation - r).max() < 2e-3

    @pytest.mark.parametrize(
        "block", [np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3)), NEAR_REFLECTION]
    )
    def test_from_rt_rejects_nonpositive_determinant(self, block):
        with pytest.raises(ValueError, match="determinant"):
            Se3Pose.from_rt(block, np.zeros(3))
        # the constructor names the zero block's drift first; a reflection
        # within the drift bound is rejected, not projected onto a rotation
        with pytest.raises(ValueError, match="determinant" if block.any() else "drift"):
            Se3Pose(block, np.zeros(3))

    def test_immutability(self):
        p = translate(1, 2, 3)
        with pytest.raises(ValueError):
            p.translation[0] = 9.0


class TestSe3LogExp:
    def test_log_identity_is_zero(self):
        assert np.allclose(se3_log(Se3Pose.identity()), np.zeros(6))

    def test_log_pure_translation(self):
        xi = se3_log(translate(0, 0, 1))
        assert np.allclose(xi, [0, 0, 0, 0, 0, 1], atol=1e-15)

    def test_round_trip_rotation_translation(self):
        p = compose(Se3Pose(rot_z(30.0), np.zeros(3)), translate(1, 0, 0))
        q = se3_exp(se3_log(p))
        assert np.abs(q.matrix34() - p.matrix34()).max() < 1e-9

    def test_exp_zero(self):
        p = se3_exp(np.zeros(6))
        assert np.allclose(p.matrix34(), Se3Pose.identity().matrix34())

    def test_exp_doubling_translation(self):
        xi = se3_log(translate(0, 0, 1))
        p = se3_exp(2.0 * xi)
        assert np.allclose(p.translation, [0, 0, 2], atol=1e-12)

    def test_tiny_twist_small_angle_branch(self):
        xi = np.array([1e-12, 0, 0, 0, 1e-12, 0])
        p = se3_exp(xi)
        assert np.all(np.isfinite(p.matrix34()))
        assert np.abs(p.rotation - np.eye(3)).max() < 1e-11
        assert np.abs(p.translation - xi[3:]).max() < 1e-20

    def test_round_trip_up_to_near_pi(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0.0, math.pi - 1e-3)
            xi = np.concatenate([axis * angle, rng.normal(scale=3.0, size=3)])
            p = se3_exp(xi)
            assert np.abs(se3_exp(se3_log(p)).matrix34() - p.matrix34()).max() < 1e-9

    def test_log_rejects_angle_at_pi(self):
        p = Se3Pose(rot_z(180.0), np.zeros(3))
        with pytest.raises(ValueError):
            se3_log(p)


def project_one(x, y, z, r=np.eye(3), t=np.zeros(3)):
    """project_pixels on one point: (u, v, d, ui, vi) as Python scalars, None if dropped."""
    idx, pix, u, v, d = project_pixels(r, t, np.array([x]), np.array([y]), np.array([z]), K)
    if not idx.size:
        return None
    vi, ui = divmod(int(pix[0]), K.width)
    return u[0].item(), v[0].item(), d[0].item(), ui, vi


class TestProjection:
    def test_optical_axis(self):
        assert project_one(0.0, 0.0, 5.0) == (320.0, 240.0, 5.0, 320, 240)

    def test_fx_scaling(self):
        u, v, _, ui, _ = project_one(1.0, 0.0, 2.0)
        assert u == pytest.approx(370.0, abs=1e-12)
        assert v == 240.0 and ui == 370

    def test_behind_camera_is_invalid_value(self):
        assert project_one(0.0, 0.0, -1.0) is None
        assert project_one(0.0, 0.0, 0.0) is None

    def test_off_image_is_masked(self):
        # u = 100 x + 320 at z = 1: nearest pixels 639 and 0 are in, 640 and -1 out
        inside = [project_one(x, 0.0, 1.0) is not None for x in (3.194, 3.196, -3.204, -3.206)]
        assert inside == [True, False, True, False]
        assert project_one(0.0, 2.406, 1.0) is None  # v = 480.6 rounds to row 481

    def test_round_trip_random_pixels(self):
        # lifting (u, v, d) in A and the flow's (u', v', d') in B reach the same world point
        rng = np.random.default_rng(5)
        k = CameraIntrinsics(50.0, 40.0, 15.5, 11.5, 32, 24)
        depth = rng.uniform(0.1, 100.0, size=(k.height, k.width))
        a = se3_exp(rng.normal(scale=0.5, size=6))
        b = compose(a, se3_exp(np.array([0.01, -0.02, 0.01, 0.2, -0.1, 0.5])))
        idx, _, uvd = reprojection_flow(FrameBundle(np.zeros((24, 32, 3)), depth, a, 0), b, k)
        assert idx.size > 500

        def lift(pose, u, v, d):
            p = np.stack([(u - k.cx) * d / k.fx, (v - k.cy) * d / k.fy, d], axis=-1)
            return p @ pose.rotation.T + pose.translation

        v, u = np.divmod(idx, k.width)
        world_a = lift(a, u.astype(float), v.astype(float), depth.ravel()[idx])
        world_b = lift(b, uvd[:, 0], uvd[:, 1], uvd[:, 2])
        assert np.abs(world_a - world_b).max() < 1e-9

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(-1.0, 1.0, 0.0, 0.0, 10, 10)
        with pytest.raises(ValueError):
            CameraIntrinsics(1.0, 1.0, 20.0, 0.0, 10, 10)


def sample(field, u, v):
    """bilinear_sample_many at one location, as a list of channel values."""
    return bilinear_sample_many(field, np.array([[u, v]]))[0].tolist()


class TestBilinearSample:
    def test_exact_at_integers(self):
        field = np.arange(12, dtype=float).reshape(3, 4, 1)
        for v in range(3):
            for u in range(4):
                assert sample(field, float(u), float(v)) == field[v, u].tolist()

    def test_midpoint(self):
        field = np.array([[[0.0], [1.0]]])
        assert sample(field, 0.5, 0.0) == pytest.approx([0.5])

    def test_out_of_bounds_marker(self):
        field = np.ones((4, 4, 1))
        assert sample(field, -0.5, 1.0) == [0.0]
        assert sample(field, 1.0, 3.5) == [0.0]

    def test_linear_along_axis(self):
        field = np.array([[[0.0], [2.0], [4.0]]])
        for frac in np.linspace(0.0, 2.0, 9):
            assert sample(field, frac, 0.0) == pytest.approx([2.0 * frac])

    def test_field_without_channel_axis_rejected(self):
        with pytest.raises(ValueError, match=r"\(4, 4\)"):
            bilinear_sample_many(np.ones((4, 4)), np.zeros((1, 2)))

    def test_multichannel(self):
        field = np.stack([np.full((2, 2), 3.0), np.full((2, 2), 7.0)], axis=-1)
        assert np.allclose(sample(field, 0.5, 0.5), [3.0, 7.0])

    def test_many_matches_scalar(self):
        rng = np.random.default_rng(6)
        for field in (rng.random((5, 7, 1)), rng.random((5, 7, 3))):
            uv = rng.uniform(-1.0, 7.0, size=(200, 2))
            uv[:20] = np.round(uv[:20])  # pixel centers, including the last row/column
            vals = bilinear_sample_many(field, uv)
            for i, (u, v) in enumerate(uv):
                ref = bilinear_bruteforce(field, u, v)
                if ref is None:
                    assert np.all(vals[i] == 0.0)
                else:
                    assert np.allclose(vals[i], ref, rtol=0.0, atol=1e-12)


def tile_values(rng, shape, name):
    """Magnitudes over six decades with both signs, so the sums round at
    almost every step. min and max also meet NaN, but only +0.0 zeros:
    numpy's choice between signed zeros of equal value is not an order
    property."""
    a = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
    flat = a.reshape(-1)
    if name == "add":
        flat[rng.integers(0, flat.size, 3)] = -0.0
        flat[rng.integers(0, flat.size, 3)] = 0.0
    else:
        flat[rng.integers(0, flat.size, 3)] = 0.0
        flat[rng.integers(0, flat.size, 3)] = np.nan
    return a


class TestTileReduce:
    @pytest.mark.parametrize("name", ["add", "minimum", "maximum", "fmax"])
    @pytest.mark.parametrize("s", [4, 8])
    def test_matches_scalar_fold_bit_for_bit(self, name, s):
        rng = np.random.default_rng(70 + s)
        # one tile, one tile tall, one tile wide, several of each, and a strided
        # channel view like the ones extract_features passes
        arrays = [tile_values(rng, shape, name) for shape in
                  ((s, s), (s, 5 * s), (5 * s, s), (3 * s, 7 * s))]
        arrays.append(tile_values(rng, (2 * s, 3 * s, 3), name)[:, :, 1])
        for a in arrays:
            got = tile_reduce(getattr(np, name), a, s)
            ref = tile_fold_bruteforce(name, a, s)
            assert got.shape == ref.shape == (a.shape[0] // s, a.shape[1] // s)
            assert np.array_equal(np.ascontiguousarray(got).view(np.int64), ref.view(np.int64))


class TestDepthTiles:
    def test_matches_scalar_min_positive_and_max(self):
        # partial last tiles on both axes, zeros, NaN and a tile with no positive depth
        rng = np.random.default_rng(71)
        depth = rng.uniform(0.5, 40.0, size=(21, 19))
        depth[rng.random(depth.shape) < 0.2] = 0.0
        depth[rng.random(depth.shape) < 0.05] = np.nan
        depth[:8, :8] = 0.0
        lo, hi = depth_tiles(depth)
        assert lo.shape == hi.shape == (3, 3)
        for r in range(3):
            for c in range(3):
                tile = depth[8 * r:8 * r + 8, 8 * c:8 * c + 8].ravel().tolist()
                assert lo[r, c] == min((x for x in tile if x > 0.0), default=math.inf)
                assert hi[r, c] == max(x for x in tile if not math.isnan(x))


class TestBoxFootprint:
    def test_keeps_straddling_and_non_finite_boxes(self):
        k = CameraIntrinsics(10.0, 10.0, 4.5, 4.5, 10, 10)
        # one box per column: in view, behind, straddling the near plane, off
        # the image to the right, a NaN depth and an infinite x in front
        x = np.zeros((8, 6))
        y = np.zeros((8, 6))
        z = np.array([5.0, -5.0, 0.0, 5.0, 5.0, 5.0])[None].repeat(8, axis=0)
        z[:4] += 1.0
        z[4:, 2] = -1.0
        x[:, 3] = 100.0
        z[0, 4] = np.nan
        x[0, 5] = np.inf
        kept, f, u0, u1, v0, v1 = box_footprint(x, y, z, k, 1e-9)
        assert kept.tolist() == [False, False, True, False, True, True]
        assert f.tolist() == [0]
        # the corners project to pixel 4.5, whose nearest pixel 5 is padded to 4..6
        assert (u0.tolist(), u1.tolist(), v0.tolist(), v1.tolist()) == ([4], [6], [4], [6])
