import numpy as np
import pytest

from oracles import scal_bruteforce, scal_geo_bruteforce, ssim_bruteforce, weighted_ce_bruteforce
from test_kitti_warp import traced_peak_mib
from scenecast.forecast import pose_mse
from scenecast.geom import Se3Pose, se3_exp
from scenecast.gradcheck import finite_difference, max_relative_error, random_volume_pair
from scenecast.losses import (
    DegenerateInputWarning,
    LabelVolume,
    LossWeights,
    ProbVolume,
    inverse_frequency_weights,
    l1_field,
    scal_geo,
    scal_sem,
    ssim_loss,
    total_ssc_loss,
    total_synth_loss,
    weighted_ce,
)

# value of the 2-voxel, 2-class affinity case, frozen from the scalar oracle
TWO_VOXEL_SCAL = 1.080542765360173


def one_hot_volume(labels, num_classes):
    labels = np.asarray(labels)
    probs = np.zeros(labels.shape + (num_classes,))
    flat = probs.reshape(-1, num_classes)
    flat[np.arange(labels.size), labels.ravel()] = 1.0
    return ProbVolume(probs)


def two_voxel_case():
    probs = np.array([[[[0.8, 0.2]]], [[[0.4, 0.6]]]])
    labels = np.array([[[0]], [[1]]])
    return ProbVolume(probs), LabelVolume(labels)


class TestScalSem:
    def test_perfect_one_hot_is_zero(self):
        labels = np.array([[[0, 1], [2, 1]]])
        pred = one_hot_volume(labels, 3)
        loss, grad = scal_sem(pred, LabelVolume(labels))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_two_voxel_case_matches_oracle(self):
        pred, gt = two_voxel_case()
        loss, _ = scal_sem(pred, gt)
        oracle = scal_bruteforce([[0.8, 0.2], [0.4, 0.6]], [0, 1])
        assert loss == pytest.approx(oracle, abs=1e-12)
        assert loss == pytest.approx(TWO_VOXEL_SCAL, abs=1e-12)

    def test_matches_oracle_on_random_volumes(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            pred, gt = random_volume_pair(rng, (5, 5, 3, 4))
            loss, _ = scal_sem(pred, gt)
            valid = gt.valid
            oracle = scal_bruteforce(pred.probs[valid].tolist(), gt.labels[valid].tolist())
            assert loss == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            pred, gt = random_volume_pair(rng, (4, 4, 2, 3))
            _, grad = scal_sem(pred, gt)
            fd = finite_difference(lambda _: scal_sem(pred, gt)[0], pred.probs)
            assert max_relative_error(fd, grad) <= 1e-4

    def test_invalid_voxels_excluded(self):
        pred, gt = two_voxel_case()
        masked = LabelVolume(np.array([[[0]], [[255]]]))
        # class 1 keeps predicted mass but loses gt support: clamps kick in
        with pytest.warns(DegenerateInputWarning):
            loss, grad = scal_sem(pred, masked)
        oracle = scal_bruteforce([[0.8, 0.2]], [0])
        assert loss == pytest.approx(oracle, abs=1e-12)
        assert np.all(grad[1] == 0.0)

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(22)
        pred, gt = random_volume_pair(rng, (4, 4, 3, 4))
        perm = rng.permutation(pred.num_classes)
        loss, _ = scal_sem(pred, gt)
        permuted_probs = pred.probs[..., perm]
        inv = np.argsort(perm)
        safe_labels = np.where(gt.valid, gt.labels, 0)
        permuted_labels = np.where(gt.valid, inv[safe_labels], 255)
        loss_p, _ = scal_sem(ProbVolume(permuted_probs), LabelVolume(permuted_labels))
        assert loss_p == pytest.approx(loss, abs=1e-12)

    def test_degenerate_input_warns_but_stays_finite(self):
        # class 2 has predicted mass but no ground-truth support
        probs = np.zeros((2, 1, 1, 3))
        probs[..., 0] = 0.5
        probs[..., 2] = 0.5
        labels = np.zeros((2, 1, 1), dtype=int)
        with pytest.warns(DegenerateInputWarning):
            loss, grad = scal_sem(ProbVolume(probs), LabelVolume(labels))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_one_warning_per_clamped_value(self):
        # num_s of class 0 and num_p, den_p of class 1 are 0: three clamped values
        probs = np.array([[[[1.0, 0.0]]], [[[1.0, 0.0]]]])
        labels = np.array([[[0]], [[1]]])
        with pytest.warns(DegenerateInputWarning) as record:
            scal_sem(ProbVolume(probs), LabelVolume(labels))
        assert len(record) == 3

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            pred, gt = random_volume_pair(rng, (4, 4, 3, 4))
            loss, _ = scal_sem(pred, gt)
            assert loss >= 0.0


class TestScalGeo:
    def test_perfect_occupancy_is_zero(self):
        labels = np.array([[[0, 2], [1, 0]]])
        pred = one_hot_volume(labels, 3)
        loss, _ = scal_geo(pred, LabelVolume(labels))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_two_voxel_case_matches_oracle(self):
        pred, gt = two_voxel_case()
        loss, _ = scal_geo(pred, gt)
        oracle = scal_geo_bruteforce([[0.8, 0.2], [0.4, 0.6]], [0, 1])
        assert loss == pytest.approx(oracle, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            pred, gt = random_volume_pair(rng, (4, 4, 2, 3))
            _, grad = scal_geo(pred, gt)
            fd = finite_difference(lambda _: scal_geo(pred, gt)[0], pred.probs)
            assert max_relative_error(fd, grad) <= 1e-4

    def test_gradient_only_on_empty_channel(self):
        rng = np.random.default_rng(25)
        pred, gt = random_volume_pair(rng, (3, 3, 2, 4))
        _, grad = scal_geo(pred, gt)
        assert np.all(grad[..., 1:] == 0.0)


class TestWeightedCe:
    def test_perfect_prediction_zero(self):
        labels = np.array([[[0, 1], [1, 0]]])
        pred = one_hot_volume(labels, 2)
        loss, _ = weighted_ce(pred, LabelVolume(labels), np.ones(2))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_textbook_half_probability(self):
        probs = np.array([[[[0.5, 0.5]]]])
        labels = np.array([[[0]]])
        loss, _ = weighted_ce(ProbVolume(probs), LabelVolume(labels), np.ones(2))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(26)
        pred, gt = random_volume_pair(rng, (5, 4, 3, 4))
        w = inverse_frequency_weights(gt, pred.num_classes)
        loss, _ = weighted_ce(pred, gt, w)
        valid = gt.valid
        oracle = weighted_ce_bruteforce(
            pred.probs[valid].tolist(), gt.labels[valid].tolist(), w.tolist()
        )
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            pred, gt = random_volume_pair(rng, (4, 4, 2, 3))
            w = inverse_frequency_weights(gt, pred.num_classes)
            _, grad = weighted_ce(pred, gt, w)
            fd = finite_difference(lambda _: weighted_ce(pred, gt, w)[0], pred.probs)
            assert max_relative_error(fd, grad) <= 1e-4

    def test_zero_true_probability_warns_once(self):
        # the clamp is the one warning: the gradient divides by no zero
        probs = np.array([[[[1.0, 0.0]]], [[[0.5, 0.5]]]])
        labels = np.array([[[1]], [[0]]])
        with pytest.warns(DegenerateInputWarning) as record:
            loss, grad = weighted_ce(ProbVolume(probs), LabelVolume(labels), np.ones(2))
        assert len(record) == 1
        assert loss == pytest.approx((-np.log(1e-8) - np.log(0.5)) / 2, rel=1e-12)
        assert np.array_equal(grad.reshape(2, 2), [[0.0, 0.0], [-1.0, 0.0]])

    def test_weight_length_checked(self):
        pred, gt = two_voxel_case()
        with pytest.raises(ValueError):
            weighted_ce(pred, gt, np.ones(3))


class TestInverseFrequencyWeights:
    def test_mean_one_over_present(self):
        gt = LabelVolume(np.array([[[0, 0, 0, 1]]]))
        w = inverse_frequency_weights(gt, 3)
        present = w[:2]
        assert present.mean() == pytest.approx(1.0)
        assert w[1] > w[0]  # rarer class weighs more


class TestL1Field:
    def test_zero_at_equality(self):
        a = np.random.default_rng(28).random((5, 6, 3))
        assert l1_field(a, a) == 0.0

    def test_hand_value(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 3.0]])
        assert l1_field(a, b) == pytest.approx(2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(29)
        a, b = rng.random((4, 4)), rng.random((4, 4))
        assert l1_field(a, b) == pytest.approx(l1_field(b, a), rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            l1_field(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_channels_summed_pixels_averaged(self):
        a = np.zeros((2, 2, 3))
        b = np.full((2, 2, 3), 0.5)
        assert l1_field(a, b) == pytest.approx(1.5)


class TestSsimLoss:
    def test_zero_at_equality(self):
        rng = np.random.default_rng(30)
        img = rng.random((24, 24, 3))
        assert ssim_loss(img, img) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        a, b = rng.random((20, 24)), rng.random((20, 24))
        assert ssim_loss(a, b) == pytest.approx(ssim_loss(b, a), abs=1e-12)

    def test_constant_images_closed_form(self):
        v, w = 0.3, 0.7
        c1 = 0.01 ** 2
        expected = 1.0 - (2 * v * w + c1) / (v * v + w * w + c1)
        loss = ssim_loss(np.full((16, 16), v), np.full((16, 16), w))
        assert loss == pytest.approx(expected, abs=1e-9)

    def test_small_image_rejected(self):
        with pytest.raises(ValueError):
            ssim_loss(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_matches_scalar_oracle(self):
        # the oracle spells out the 11x11 window, its sigma and both constants,
        # which the constant-image closed form cannot see (it cancels C2)
        rng = np.random.default_rng(36)
        for i, noise in enumerate((0.02, 0.2, 1.0, 0.05, 0.5, 0.1)):
            h, w = (int(v) for v in rng.integers(11, 41, size=2))
            shape = (h, w) if i % 2 else (h, w, 3)
            a = rng.random(shape)
            b = np.clip(a + rng.normal(scale=noise, size=shape), 0.0, 1.0)
            assert ssim_loss(a, b) == pytest.approx(ssim_bruteforce(a, b), abs=1e-12)

    def test_traced_peak_holds_one_channel(self):
        # window sums of one channel's five planes at a time peak at 2.7 MiB
        # for this pair; the five planes of all three channels at once, 5.1
        rng = np.random.default_rng(37)
        a, b = rng.random((96, 128, 3)), rng.random((96, 128, 3))
        assert traced_peak_mib(ssim_loss, a, b) < 3.5

    def test_range(self):
        rng = np.random.default_rng(32)
        a, b = rng.random((16, 16)), rng.random((16, 16))
        loss = ssim_loss(a, b)
        assert 0.0 <= loss <= 2.0


class TestTotals:
    def test_ssc_total_zero_at_perfect(self):
        labels = np.array([[[0, 1], [2, 1]]])
        pred = one_hot_volume(labels, 3)
        assert total_ssc_loss(pred, LabelVolume(labels)) == pytest.approx(0.0, abs=1e-9)

    def test_ssc_total_is_component_sum(self):
        rng = np.random.default_rng(33)
        pred, gt = random_volume_pair(rng, (4, 4, 3, 4))
        w = inverse_frequency_weights(gt, pred.num_classes)
        total = total_ssc_loss(pred, gt, w)
        parts = scal_geo(pred, gt)[0] + scal_sem(pred, gt)[0] + weighted_ce(pred, gt, w)[0]
        assert total == pytest.approx(parts, rel=1e-12)

    def test_ssc_total_matches_oracles(self):
        pred, gt = two_voxel_case()
        total = total_ssc_loss(pred, gt, np.ones(2))
        flat_p = [[0.8, 0.2], [0.4, 0.6]]
        oracle = (
            scal_bruteforce(flat_p, [0, 1])
            + scal_geo_bruteforce(flat_p, [0, 1])
            + weighted_ce_bruteforce(flat_p, [0, 1], [1.0, 1.0])
        )
        assert total == pytest.approx(oracle, abs=1e-12)

    def test_synth_total_zero_at_perfect(self):
        rng = np.random.default_rng(34)
        pose = se3_exp(rng.normal(scale=0.3, size=6))
        img = rng.random((16, 16, 3))
        feat = rng.random((4, 4, 8))
        depth = rng.random((16, 16)) * 10
        total = total_synth_loss(pose, pose, img, img, feat, feat, depth, depth)
        assert total == pytest.approx(0.0, abs=1e-9)

    def test_synth_pose_weight(self):
        img = np.zeros((16, 16, 3))
        feat = np.zeros((4, 4, 8))
        depth = np.zeros((16, 16))
        pred = Se3Pose(np.eye(3), [0.0, 0.0, 1.0])
        gt = Se3Pose.identity()
        total = total_synth_loss(pred, gt, img, img, feat, feat, depth, depth)
        assert total == pytest.approx(0.1 * pose_mse(pred, gt), rel=1e-12)

    def test_synth_component_identity(self):
        rng = np.random.default_rng(35)
        pose_a = se3_exp(rng.normal(scale=0.2, size=6))
        pose_b = se3_exp(rng.normal(scale=0.2, size=6))
        img_a, img_b = rng.random((16, 16, 3)), rng.random((16, 16, 3))
        feat_a, feat_b = rng.random((4, 4, 8)), rng.random((4, 4, 8))
        d_a, d_b = rng.random((16, 16)), rng.random((16, 16))
        w = LossWeights()
        total = total_synth_loss(pose_a, pose_b, img_a, img_b, feat_a, feat_b, d_a, d_b, w)
        parts = (
            0.1 * pose_mse(pose_a, pose_b)
            + l1_field(img_a, img_b)
            + l1_field(feat_a, feat_b)
            + ssim_loss(img_a, img_b)
            + l1_field(d_a, d_b)
        )
        assert total == pytest.approx(parts, rel=1e-12)


class TestVolumes:
    def test_prob_volume_validates(self):
        with pytest.raises(ValueError):
            ProbVolume(np.full((2, 2, 2, 2), 0.4))  # rows sum to 0.8
        with pytest.raises(ValueError):
            ProbVolume(np.full((2, 2, 2), 0.5))  # missing class axis

    def test_label_volume_validates_against_classes(self):
        pred = ProbVolume(np.full((1, 1, 1, 2), 0.5))
        with pytest.raises(ValueError):
            scal_sem(pred, LabelVolume(np.array([[[7]]])))

    def test_weights_nonnegative(self):
        with pytest.raises(ValueError):
            LossWeights(w_img=-1.0)
