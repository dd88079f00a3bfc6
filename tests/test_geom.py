import math

import numpy as np
import pytest

from oracles import (
    bilinear_bruteforce,
    box_footprint_bruteforce,
    mat3_bruteforce,
    se3_exp_bruteforce,
    se3_log_bruteforce,
    tile_fold_bruteforce,
)
from scenecast.geom import (
    ORTHO_DRIFT,
    CameraIntrinsics,
    FrameBundle,
    Se3Pose,
    bilinear_corners,
    bilinear_sample_many,
    box_footprint,
    compose,
    depth_tiles,
    inverse,
    project_pixels,
    relative_pose,
    rigid_transform,
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

    def test_keeps_or_projects_by_drift(self):
        r = rot_z(30.0)
        kept = Se3Pose(r, np.zeros(3))
        assert np.array_equal(kept.rotation, r)
        # a drift of 2.7e-3, as a rotation printed to 3 decimals has: projected onto SO(3)
        sloppy = Se3Pose(r + 1e-3, np.zeros(3))
        assert np.abs(sloppy.rotation @ sloppy.rotation.T - np.eye(3)).max() < 1e-12
        assert np.abs(sloppy.rotation - r).max() < 2e-3

    @pytest.mark.parametrize(
        "block", [np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3)), NEAR_REFLECTION]
    )
    def test_rejects_nonpositive_determinant(self, block):
        # checked before the drift, so a reflection within the drift bound is
        # rejected, not projected onto a rotation
        with pytest.raises(ValueError, match="determinant"):
            Se3Pose(block, np.zeros(3))

    @pytest.mark.parametrize(
        "block, drift",
        [(np.diag([2.0, 3.0, 4.0]), "1.500e\\+01"), (np.diag([1e300, 1.0, 1.0]), "inf"),
         (np.diag([1e300, 1e300, 1e300]), "inf")],
        ids=["scaled", "overflowing_entry", "overflowing_det"],
    )
    def test_rejects_drift_beyond_bound(self, block, drift):
        with pytest.raises(ValueError, match=f"rotation drift {drift} exceeds 1e-02"):
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

    def test_log_at_pi_round_trips(self):
        # an exact half turn about z: the skew part is 0, so the axis is the
        # symmetric part's alone, and either sign would be a log
        for r in (np.diag([-1.0, -1.0, 1.0]), rot_z(180.0)):
            p = Se3Pose(r, [1.0, -2.0, 0.5])
            xi = se3_log(p)
            assert np.allclose(np.abs(xi[:3]), [0.0, 0.0, math.pi], rtol=0.0, atol=1e-15)
            assert np.abs(se3_exp(xi).matrix34() - p.matrix34()).max() < 1e-12

    @pytest.mark.parametrize("gap", [1e-7, 1e-9, 0.0])
    def test_log_near_pi_matches_oracle_and_round_trips(self, gap):
        # the half-turn branch, about the three axes and random ones; short of
        # pi the log is the twist itself, with the axis the skew part points
        # along, and at pi the sign of the axis is either
        rng = np.random.default_rng(14)
        axes = list(np.eye(3)) + [a / np.linalg.norm(a) for a in rng.normal(size=(6, 3))]
        for axis in axes:
            xi = np.concatenate([axis * (math.pi - gap), rng.normal(scale=3.0, size=3)])
            p = se3_exp(xi)
            got = se3_log(p)
            assert np.abs(se3_exp(got).matrix34() - p.matrix34()).max() < 1e-12
            ref = np.array(se3_log_bruteforce(p))
            if gap:
                assert np.abs(got - xi).max() < 1e-12
                assert np.abs(got - ref).max() < 1e-12
            elif got[:3] @ ref[:3] > 0:
                assert np.abs(got - ref).max() < 1e-12
            else:
                assert np.abs(got[:3] + ref[:3]).max() < 1e-12


def random_twist(rng, angle: float) -> np.ndarray:
    w = rng.normal(size=3)
    return np.concatenate([w * (angle / np.linalg.norm(w)), rng.normal(scale=5.0, size=3)])


class TestFixedOrderProducts:
    # every pose product sums (a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j, so the
    # bits match the scalar oracle whatever BLAS kernel the host picks

    def test_compose_and_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            at = a.translation.tolist()
            t = [x + y for x, y in zip(mat3_bruteforce(a.rotation, b.translation), at)]
            ab = compose(a, b)
            assert np.array_equal(ab.rotation, mat3_bruteforce(a.rotation, b.rotation))
            assert np.array_equal(ab.translation, t)
            inv = inverse(a)
            assert np.array_equal(inv.rotation, a.rotation.T)
            assert np.array_equal(inv.translation, [-x for x in mat3_bruteforce(a.rotation.T, at)])

    @pytest.mark.parametrize("angle", [0.0, 1e-12, 1e-9, 1e-3, 0.5, 2.0, math.pi - 1e-2])
    def test_se3_exp_and_log(self, angle):
        rng = np.random.default_rng(12)
        for _ in range(20):
            xi = random_twist(rng, angle)
            p = se3_exp(xi)
            r, t = se3_exp_bruteforce(xi)
            assert np.array_equal(p.rotation, r) and np.array_equal(p.translation, t)
            assert np.array_equal(se3_log(p), se3_log_bruteforce(p))


def rotation_polar_factor(m: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(m)
    return u @ vt


class TestRotationProjection:
    # a drift above ORTHO_DRIFT is projected onto the Frobenius-nearest
    # rotation, which SVD gives as u vt

    @pytest.mark.parametrize("drift", [1e-11, 1e-9, 1e-7, 1e-5, 1e-3, 1e-2])
    def test_matches_svd_polar_factor(self, drift):
        rng = np.random.default_rng(13)
        for _ in range(50):
            r = random_pose(rng).rotation
            noise = rng.uniform(-1.0, 1.0, size=(3, 3))
            # scaled to the drift to first order, then once more by the drift it has
            m = r + noise * (drift / np.abs(noise @ r.T + r @ noise.T).max())
            m = r + (m - r) * (drift / np.abs(m @ m.T - np.eye(3)).max())
            assert ORTHO_DRIFT < np.abs(m @ m.T - np.eye(3)).max() <= 1e-2
            got = Se3Pose(m, np.zeros(3)).rotation
            assert np.abs(got - rotation_polar_factor(m)).max() <= 1e-12
            assert np.abs(got @ got.T - np.eye(3)).max() <= ORTHO_DRIFT

    def test_rotation_printed_to_three_decimals(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            m = np.array([[float(f"{v:.3f}") for v in row] for row in random_pose(rng).rotation])
            got = Se3Pose(m, np.zeros(3)).rotation
            assert np.abs(got - rotation_polar_factor(m)).max() <= 1e-12


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
        src = FrameBundle(np.zeros((24, 32, 3)), depth, a, 0)
        idx, _, uvd = reprojection_flow(src, b, k)
        assert idx.size > 500

        def lift(pose, u, v, d):
            p = np.stack([(u - k.cx) * d / k.fx, (v - k.cy) * d / k.fy, d], axis=-1)
            return p @ pose.rotation.T + pose.translation

        v, u = np.divmod(idx, k.width)
        world_a = lift(a, u.astype(float), v.astype(float), src.depth.ravel()[idx])
        world_b = lift(b, uvd[:, 0], uvd[:, 1], uvd[:, 2])
        assert np.abs(world_a - world_b).max() < 1e-9

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(-1.0, 1.0, 0.0, 0.0, 10, 10)
        with pytest.raises(ValueError):
            CameraIntrinsics(1.0, 1.0, 20.0, 0.0, 10, 10)


def sample_many(field, uv):
    """bilinear_sample_many of `field` at (N, 2) locations, through their corners."""
    return bilinear_sample_many(field, bilinear_corners(uv, *field.shape[:2]))


def sample(field, u, v):
    """bilinear_sample_many at one location, as a list of channel values."""
    return sample_many(field, np.array([[u, v]]))[0].tolist()


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
            bilinear_sample_many(np.ones((4, 4)), bilinear_corners(np.zeros((1, 2)), 4, 4))

    def test_multichannel(self):
        field = np.stack([np.full((2, 2), 3.0), np.full((2, 2), 7.0)], axis=-1)
        assert np.allclose(sample(field, 0.5, 0.5), [3.0, 7.0])

    def test_many_matches_scalar(self):
        rng = np.random.default_rng(6)
        for field in (rng.random((5, 7, 1)), rng.random((5, 7, 3))):
            uv = rng.uniform(-1.0, 7.0, size=(200, 2))
            uv[:20] = np.round(uv[:20])  # pixel centers, including the last row/column
            vals = sample_many(field, uv)
            for i, (u, v) in enumerate(uv):
                ref = bilinear_bruteforce(field, u, v)
                if ref is None:
                    assert np.all(vals[i] == 0.0)
                else:
                    assert np.allclose(vals[i], ref, rtol=0.0, atol=1e-12)


    def test_corners_hold_every_weighted_pixel(self):
        # the corner rule names, per location inside the hull, a 2x2 square of
        # pixels (one row or column for a 1-wide field) that holds every pixel
        # the tent filter weighs; a location outside reads none
        rng = np.random.default_rng(7)
        for h, w in ((5, 7), (1, 4), (3, 1), (2, 2)):
            uv = rng.uniform(-1.0, max(h, w), size=(300, 2))
            uv[:30] = np.round(uv[:30])
            ok, y0, x0, y1, x1, fx, fy = bilinear_corners(uv, h, w)
            inside = (uv[:, 0] >= 0) & (uv[:, 0] <= w - 1) & (uv[:, 1] >= 0) & (uv[:, 1] <= h - 1)
            assert np.array_equal(ok, inside)
            assert np.all((0 <= y0) & (y0 <= y1) & (y1 <= y0 + 1) & (y1 < h))
            assert np.all((0 <= x0) & (x0 <= x1) & (x1 <= x0 + 1) & (x1 < w))
            for (u, v), a0, a1, b0, b1 in zip(uv[ok], y0, y1, x0, x1):
                rows = [i for i in range(h) if abs(v - i) < 1.0]
                cols = [j for j in range(w) if abs(u - j) < 1.0]
                assert set(rows) <= {a0, a1} and set(cols) <= {b0, b1}


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
        box = (2, 2, 2, 6)
        kept, f, u0, u1, v0, v1, *_ = box_footprint(
            np.eye(3), np.zeros(3), x.reshape(box), y.reshape(box), z.reshape(box), k, 1e-9
        )
        assert kept.tolist() == [False, False, True, False, True, True]
        assert f.tolist() == [0]
        # the corners project to pixel 4.5, whose nearest pixel 5 is padded to 4..6
        assert (u0.tolist(), u1.tolist(), v0.tolist(), v1.tolist()) == ([4], [6], [4], [6])

    def test_matches_scalar_rule_bit_for_bit(self):
        # axis-aligned boxes placed in the moved camera's frame: in view, behind,
        # straddling the near plane, off the image, across an image edge, and
        # with a NaN corner; one eps for all boxes or one per box
        k = CameraIntrinsics(50.0, 55.0, 31.5, 23.5, 64, 48)
        rng = np.random.default_rng(29)
        n = 50
        for trial in range(60):
            pose = se3_exp(rng.normal(scale=[0.5, 0.5, 0.5, 2.0, 2.0, 2.0]))
            back = inverse(pose)
            kind = rng.integers(0, 6, size=n)
            depth = np.where(kind == 1, -1.0, 1.0) * rng.uniform(1.0, 20.0, size=n)
            depth[kind == 2] = rng.uniform(-0.2, 0.2, size=np.count_nonzero(kind == 2))
            # where the centre projects, in units of half the image size
            spread = np.where(kind == 3, rng.uniform(2.0, 8.0, size=n), 1.0)
            spread[kind == 4] = rng.uniform(0.95, 1.05, size=np.count_nonzero(kind == 4))
            sides = rng.choice([-1.0, 1.0], size=(2, n))
            cam = np.stack([
                sides[0] * spread * rng.uniform(0.0, 1.0, size=n) * 32.0 / 50.0 * depth,
                sides[1] * spread * rng.uniform(0.0, 1.0, size=n) * 24.0 / 55.0 * depth,
                depth,
            ])
            centre = np.stack(rigid_transform(back.rotation, back.translation, *cam))
            half = rng.uniform(0.05, 1.0, size=(3, n))
            x, y, z = (np.stack([c - h, c + h]) for c, h in zip(centre, half))
            x, y, z = x.reshape(2, 1, 1, n), y.reshape(1, 2, 1, n), z.reshape(1, 1, 2, n)
            if trial % 2:
                x = x.repeat(2, axis=1)
                x[1, 0, 0, kind == 5] = np.nan
            eps = rng.uniform(1e-9, 1e-3, size=n) if trial % 3 else 1e-9
            got = box_footprint(pose.rotation, pose.translation, x, y, z, k, eps)
            want = box_footprint_bruteforce(pose.rotation, pose.translation, x, y, z, k, eps)
            assert got[0].tolist() == want[0]
            for g, w in zip(got[1:6], want[1:6]):
                assert g.dtype == np.int64 and g.tolist() == w
            for g, w in zip(got[6:], want[6:]):
                # depths compared as bits
                assert g.tobytes() == np.array(w, dtype=np.float64).tobytes()
