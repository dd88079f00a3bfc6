import numpy as np
import pytest

from scenecast.forecast import PoseSequence, forecast_next, pose_mse
from scenecast.geom import LEVEL_CAMERA_ROTATION, Se3Pose, compose, inverse, se3_exp, se3_log


def constant_twist_sequence(xi, count, interval=5, start=None):
    poses = [start if start is not None else Se3Pose.identity()]
    for _ in range(count - 1):
        poses.append(compose(poses[-1], se3_exp(xi)))
    return PoseSequence(tuple(poses), tuple(i * interval for i in range(count)), interval)


def step(p, q):
    """The twist that moves pose p to pose q."""
    return se3_log(compose(inverse(p), q))


class TestMomentum:
    # forecast_next replays the mean step twist, so the step it predicts
    # from the last pose is that mean

    def test_constant_translation(self):
        seq = constant_twist_sequence(np.array([0, 0, 0, 0, 0, 1.0]), 4)
        xi = step(seq.poses[-1], forecast_next(seq, 3))
        assert np.allclose(xi, [0, 0, 0, 0, 0, 1.0], atol=1e-12)

    def test_stationary(self):
        seq = constant_twist_sequence(np.zeros(6), 4)
        assert np.allclose(step(seq.poses[-1], forecast_next(seq, 3)), np.zeros(6))

    def test_alternating_steps_cancel(self):
        up = se3_exp([0, 0, 0, 0, 0, 1.0])
        down = se3_exp([0, 0, 0, 0, 0, -1.0])
        poses = (Se3Pose.identity(), up, compose(up, down))
        seq = PoseSequence(poses, (0, 5, 10), 5)
        assert np.allclose(step(seq.poses[-1], forecast_next(seq, 2)), np.zeros(6), atol=1e-12)

    def test_insufficient_history(self):
        seq = constant_twist_sequence(np.zeros(6), 3)
        with pytest.raises(ValueError):
            forecast_next(seq, 3)

    def test_half_turn_step_names_its_frames(self):
        # the step from frame 10 to 15 yaws 180 degrees, where se3_log is unstable
        half_turn = Se3Pose(np.diag([-1.0, 1.0, -1.0]), [0.0, 0.0, 2.0])
        poses = (Se3Pose.identity(), Se3Pose(np.eye(3), [0.0, 0.0, 1.0]), half_turn)
        seq = PoseSequence(poses, (5, 10, 15), 5)
        with pytest.raises(ValueError, match=r"^step from frame 10 to frame 15: rotation angle 3\.14"):
            forecast_next(seq)

    def test_left_reanchoring_invariance(self):
        rng = np.random.default_rng(7)
        xi = rng.normal(scale=0.2, size=6)
        seq = constant_twist_sequence(xi, 5)
        g = se3_exp(rng.normal(scale=0.5, size=6))
        moved = PoseSequence(
            tuple(compose(g, p) for p in seq.poses), seq.frame_indices, seq.frame_interval
        )
        a = step(seq.poses[-1], forecast_next(seq, 3))
        b = step(moved.poses[-1], forecast_next(moved, 3))
        assert np.abs(a - b).max() < 1e-9


class TestExtrapolate:
    def test_constant_velocity_fixed_point(self):
        seq = constant_twist_sequence(np.array([0, 0, 0, 0, 0, 1.0]), 6)
        pred = forecast_next(seq, 3)
        assert np.abs(pred.translation - np.array([0, 0, 6.0])).max() < 1e-9

    def test_constant_turn_exact(self):
        xi = np.array([0.0, 0.05, 0.0, 0.0, 0.0, 2.0])  # arc: turn + advance
        seq = constant_twist_sequence(xi, 6)
        pred = forecast_next(seq, 3)
        gt = compose(seq.poses[-1], se3_exp(xi))
        assert np.abs(pred.matrix34() - gt.matrix34()).max() < 1e-9

    def test_stationary_history(self):
        seq = constant_twist_sequence(np.zeros(6), 4)
        pred = forecast_next(seq, 3)
        assert np.abs(pred.matrix34() - seq.poses[-1].matrix34()).max() < 1e-12

    @pytest.mark.parametrize("start_m", [10.0, 15.0, 1005.0, 2000.0])
    def test_level_whole_metre_steps_are_bit_exact(self, start_m):
        # a level camera driving 5 m a frame forward: every twist, product and
        # mean is exact, so the forecast is the next pose bit for bit
        def pose(j):
            return Se3Pose(LEVEL_CAMERA_ROTATION, [0.0, start_m + 5.0 * j, 0.0])

        seq = PoseSequence(tuple(pose(j) for j in range(5)), tuple(range(0, 25, 5)), 5)
        assert np.array_equal(forecast_next(seq).matrix34(), pose(5).matrix34())

    def test_random_constant_twists_are_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = rng.normal(size=3)
            w *= rng.uniform(0.0, 0.3) / np.linalg.norm(w)
            xi = np.concatenate([w, rng.normal(scale=2.0, size=3)])
            seq = constant_twist_sequence(xi, 5)
            pred = forecast_next(seq)
            gt = compose(seq.poses[-1], se3_exp(xi))
            assert np.abs(pred.matrix34() - gt.matrix34()).max() < 1e-9


class TestPoseMse:
    def test_zero_at_equality(self):
        p = se3_exp([0.1, 0.2, 0.3, 1.0, 2.0, 3.0])
        assert pose_mse(p, p) == 0.0

    def test_translation_only_entry(self):
        # one differing entry of the 12: squared diff 1 averaged over 12
        gt = Se3Pose(np.eye(3), [0.0, 0.0, 1.0])
        assert pose_mse(Se3Pose.identity(), gt) == pytest.approx(1 / 12, abs=1e-15)

    def test_half_turn_rotation(self):
        # rotZ(180): entries (0,0) and (1,1) flip from +1 to -1, so the
        # entrywise mean is (4 + 4) / 12
        gt = Se3Pose(np.diag([-1.0, -1.0, 1.0]), np.zeros(3))
        assert pose_mse(Se3Pose.identity(), gt) == pytest.approx(2 / 3, abs=1e-15)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = se3_exp(rng.normal(scale=0.5, size=6))
            b = se3_exp(rng.normal(scale=0.5, size=6))
            assert pose_mse(a, b) == pytest.approx(pose_mse(b, a), rel=1e-12)
            assert pose_mse(a, b) >= 0.0


class TestPoseSequence:
    def test_spacing_enforced(self):
        with pytest.raises(ValueError):
            PoseSequence((Se3Pose.identity(), Se3Pose.identity()), (0, 3), 5)

    def test_default_window_cap(self):
        # 10-step history still extrapolates a recent turn exactly
        xi = np.array([0.0, -0.02, 0.0, 0.0, 0.0, 1.5])
        seq = constant_twist_sequence(xi, 10)
        pred = forecast_next(seq)
        gt = compose(seq.poses[-1], se3_exp(xi))
        assert np.abs(pred.matrix34() - gt.matrix34()).max() < 1e-9
