import numpy as np
import pytest

from oracles import confusion_bruteforce
from scenecast.fusion import BlockVisibility, SceneGrid, SceneRange
from scenecast.metrics import (
    confusion,
    coverage,
    iou_geometry,
    majority_complete,
    miou_semantic,
)


def grid_from(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    rng = SceneRange((0.0, 0.0, 0.0), tuple(d * 0.5 for d in labels.shape), 0.5)
    return SceneGrid(rng, labels)


def block_vis(visible, frame_indices=None, width=8, height=8):
    visible = np.asarray(visible, dtype=bool)
    if visible.ndim == 3:
        visible = visible[None]
    f = visible.shape[0]
    proj = np.zeros(visible.shape + (3,))
    return BlockVisibility(
        visible, proj,
        tuple(frame_indices or range(f)), width, height,
    )


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        g = grid_from(np.array([[[0, 1], [1, 0]]]))
        counts = confusion(g, g, 2)
        assert np.array_equal(counts, [[2, 0], [0, 2]])

    def test_all_empty_vs_all_class_one(self):
        pred = grid_from(np.zeros((2, 2, 1)))
        gt = grid_from(np.ones((2, 2, 1)))
        counts = confusion(pred, gt, 2)
        assert counts[1, 0] == 4
        assert counts.sum() == 4

    def test_hand_counted_three_voxels(self):
        pred = grid_from(np.array([[[1, 2, 0]]]))
        gt = grid_from(np.array([[[1, 1, 2]]]))
        counts = confusion(pred, gt, 3)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[1, 1] = 1  # voxel 0: gt 1 pred 1
        expected[1, 2] = 1  # voxel 1: gt 1 pred 2
        expected[2, 0] = 1  # voxel 2: gt 2 pred 0
        assert np.array_equal(counts, expected)

    def test_invalid_gt_excluded(self):
        pred = grid_from(np.array([[[1, 1]]]))
        gt = grid_from(np.array([[[1, 255]]]))
        counts = confusion(pred, gt, 2)
        assert counts.sum() == 1

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match=r"^grid dims differ: \(2, 2, 1\) vs \(2, 2, 2\)$"):
            confusion(grid_from(np.zeros((2, 2, 1))), grid_from(np.zeros((2, 2, 2))))

    def test_out_of_range_prediction(self):
        pred = grid_from(np.array([[[5]]]))
        gt = grid_from(np.array([[[1]]]))
        with pytest.raises(ValueError):
            confusion(pred, gt, 2)


def _outcome(fn, pred, gt, num_classes):
    try:
        return fn(pred, gt, num_classes)
    except ValueError as err:
        return str(err)


class TestConfusionOracle:
    """`confusion` against the scalar loop over voxel pairs, counts and
    messages alike."""

    def test_random_grids_match_bruteforce(self):
        rng = np.random.default_rng(29)
        kinds = ("plain", "pred_255", "pred_out_of_range", "gt_out_of_range")
        for trial in range(1000):
            dims = tuple(int(v) for v in rng.integers(1, 13, size=3))
            c = int(rng.integers(2, 17))
            gt = rng.integers(0, c, size=dims).astype(np.uint8)
            pred = rng.integers(0, c, size=dims).astype(np.uint8)
            gt[rng.random(dims) < rng.uniform(0.0, 0.3)] = 255
            kind = kinds[trial % len(kinds)]
            at = np.unravel_index(int(rng.integers(gt.size)), dims)
            if kind == "pred_255":
                gt[at], pred[at] = 1, 255
            elif kind == "pred_out_of_range":
                gt[at], pred[at] = 1, int(rng.integers(c, 255))
            elif kind == "gt_out_of_range":
                gt[at] = int(rng.integers(c, 255))
            for num_classes in (c, None):
                want = _outcome(confusion_bruteforce, pred, gt, num_classes)
                got = _outcome(confusion, grid_from(pred), grid_from(gt), num_classes)
                if isinstance(want, str):
                    assert isinstance(got, str) and got == want, (trial, kind, num_classes)
                else:
                    assert got.dtype == np.int64, (trial, kind, num_classes)
                    assert np.array_equal(got, want), (trial, kind, num_classes)

    def test_no_valid_voxel_infers_one_class(self):
        g = np.full((2, 3, 1), 255, dtype=np.uint8)
        counts = confusion(grid_from(np.zeros_like(g)), grid_from(g))
        assert counts.dtype == np.int64 and np.array_equal(counts, [[0]])


class TestIouGeometry:
    def test_perfect(self):
        g = grid_from(np.array([[[0, 1], [2, 0]]]))
        assert iou_geometry(confusion(g, g, 3)) == 1.0

    def test_set_iou_third(self):
        # pred occupies {a, b}, gt occupies {b, c}: intersection 1, union 3
        pred = grid_from(np.array([[[1, 1, 0]]]))
        gt = grid_from(np.array([[[0, 1, 1]]]))
        assert iou_geometry(confusion(pred, gt, 2)) == pytest.approx(1 / 3)

    def test_empty_vs_empty_degenerate(self):
        g = grid_from(np.zeros((2, 2, 1)))
        assert iou_geometry(confusion(g, g, 2)) == 1.0


class TestMiouSemantic:
    def test_perfect_labels(self):
        g = grid_from(np.array([[[1, 2, 1, 0]]]))
        res = miou_semantic(confusion(g, g, 3))
        assert res.value == 1.0

    def test_mean_of_two_classes(self):
        # class 1: IoU 0.5 (1 of 2); class 2: IoU 0.25 (1 of 4)
        pred = grid_from(np.array([[[1, 0, 2, 2, 2, 0]]]))
        gt = grid_from(np.array([[[1, 1, 2, 0, 0, 2]]]))
        res = miou_semantic(confusion(pred, gt, 3))
        assert res.per_class[1] == pytest.approx(0.5)
        assert res.per_class[2] == pytest.approx(0.25)
        assert res.value == pytest.approx(0.375)

    def test_absent_class_excluded(self):
        pred = grid_from(np.array([[[1, 0]]]))
        gt = grid_from(np.array([[[1, 0]]]))
        res = miou_semantic(confusion(pred, gt, 5))
        assert np.isnan(res.per_class[3])
        assert res.value == 1.0

    def test_diagonal_iff_miou_one(self):
        pred = grid_from(np.array([[[1, 2]]]))
        gt = grid_from(np.array([[[1, 1]]]))
        res = miou_semantic(confusion(pred, gt, 3))
        assert res.value < 1.0

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(40)
        labels_p = rng.integers(0, 4, size=(4, 4, 2))
        labels_g = rng.integers(0, 4, size=(4, 4, 2))
        order = rng.permutation(labels_p.size)
        shuffled_p = labels_p.reshape(-1)[order].reshape(labels_p.shape)
        shuffled_g = labels_g.reshape(-1)[order].reshape(labels_g.shape)
        a = miou_semantic(confusion(grid_from(labels_p), grid_from(labels_g), 4))
        b = miou_semantic(confusion(grid_from(shuffled_p), grid_from(shuffled_g), 4))
        assert a.value == pytest.approx(b.value)


class TestCoverage:
    def test_all_invisible(self):
        stats = coverage(block_vis(np.zeros((2, 2, 2), dtype=bool)))
        assert stats.per_frame == (0,) and stats.union == 0

    def test_single_frame_count(self):
        vis = np.zeros((2, 2, 2), dtype=bool)
        vis[0, 0, 0] = vis[1, 1, 1] = True
        stats = coverage(block_vis(vis))
        assert stats.per_frame == (2,) and stats.union == 2

    def test_union_at_least_max(self):
        rng = np.random.default_rng(41)
        vis = rng.random((3, 2, 2, 2)) < 0.4
        stats = coverage(block_vis(vis))
        assert stats.union >= max(stats.per_frame)
        assert stats.union <= sum(stats.per_frame)


class TestMajorityComplete:
    def _gt(self, seed=42, dims=(8, 8, 4)):
        rng = np.random.default_rng(seed)
        labels = (rng.random(dims) < 0.3) * rng.integers(1, 4, size=dims)
        return grid_from(labels.astype(np.uint8))

    def test_all_visible_reproduces_gt(self):
        gt = self._gt()
        bv = block_vis(np.ones((2, 2, 1), dtype=bool))
        out = majority_complete(bv, gt)
        assert np.array_equal(out.labels, gt.labels)

    def test_none_visible_all_empty(self):
        gt = self._gt()
        bv = block_vis(np.zeros((2, 2, 1), dtype=bool))
        out = majority_complete(bv, gt)
        assert not out.labels.any()

    def test_half_visible_iou_equals_occupied_fraction(self):
        gt = self._gt()
        vis = np.zeros((2, 2, 1), dtype=bool)
        vis[0] = True  # first half of the x-extent
        out = majority_complete(block_vis(vis), gt)
        iou = iou_geometry(confusion(out, gt, 4))
        occupied = gt.labels > 0
        expect = occupied[:4].sum() / occupied.sum()
        assert iou == pytest.approx(expect)

    def test_dims_checked(self):
        gt = self._gt(dims=(8, 8, 8))
        bv = block_vis(np.ones((2, 2, 1), dtype=bool))
        with pytest.raises(ValueError):
            majority_complete(bv, gt)

