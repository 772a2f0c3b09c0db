import numpy as np
import pytest

from mmdseg import boundary_accuracy, evaluate, f1, hungarian_match, iou, make_rng, mof
from mmdseg.errors import ConsistencyError, EmptyEvalError
from mmdseg.evaluation import solve_assignment

from oracles import boundary_accuracy_quadratic, brute_force_assignment, per_class_set_metrics


class TestSolveAssignment:
    def test_matches_brute_force_small(self):
        rng = make_rng(100)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            overlap = rng.integers(0, 20, size=(n, n)).astype(float)
            rows = solve_assignment(-overlap)
            total = sum(overlap[rows[j], j] for j in range(n))
            assert total == brute_force_assignment(overlap)

    def test_real_valued_costs(self):
        rng = make_rng(101)
        overlap = rng.normal(size=(5, 5))
        rows = solve_assignment(-overlap)
        total = sum(overlap[rows[j], j] for j in range(5))
        assert total == pytest.approx(brute_force_assignment(overlap), abs=1e-9)


class TestHungarianMatch:
    def test_identity_on_equal_sequences(self):
        gt = np.array([0, 0, 1, 1, 2, 2])
        assert hungarian_match(gt, gt) == {0: 0, 1: 1, 2: 2}

    def test_recovers_label_permutation(self):
        rng = make_rng(102)
        gt = rng.integers(0, 4, size=60)
        perm = {0: 3, 1: 0, 2: 2, 3: 1}
        pred = np.array([perm[int(g)] for g in gt])
        label_map = hungarian_match(pred, gt)
        assert label_map == {3: 0, 0: 1, 2: 2, 1: 3}

    def test_surplus_predicted_classes_map_to_none(self):
        pred = np.array([0, 1, 2, 2])
        gt = np.array([0, 0, 1, 1])
        label_map = hungarian_match(pred, gt)
        assert sorted(label_map) == [0, 1, 2]
        assert sum(1 for v in label_map.values() if v is None) == 1

    def test_exclusion_drops_frames(self):
        pred = np.array([0, 0, 1, 1])
        gt = np.array([9, 9, 1, 1])
        label_map = hungarian_match(pred, gt, exclude_gt=9)
        assert label_map[1] == 1

    def test_empty_after_exclusion(self):
        with pytest.raises(EmptyEvalError):
            hungarian_match([0, 0], [5, 5], exclude_gt=5)


class TestFrameMetrics:
    def test_perfect_prediction(self):
        gt = np.array([0, 0, 1, 2, 2])
        label_map = hungarian_match(gt, gt)
        assert mof(gt, gt, label_map) == 1.0
        assert iou(gt, gt, label_map) == 1.0
        assert f1(gt, gt, label_map) == 1.0

    def test_always_wrong_prediction(self):
        pred = np.array([0, 0, 1, 1])
        gt = np.array([1, 1, 0, 0])
        # Force the bad map instead of letting Hungarian fix it.
        label_map = {0: 0, 1: 1}
        assert mof(pred, gt, label_map) == 0.0

    def test_mof_matches_counting_loop(self):
        rng = make_rng(103)
        pred = rng.integers(0, 5, size=50)
        gt = rng.integers(0, 4, size=50)
        label_map = hungarian_match(pred, gt)
        expected = sum(1 for p, g in zip(pred, gt) if label_map[int(p)] == int(g)) / 50
        assert mof(pred, gt, label_map) == pytest.approx(expected, abs=1e-15)

    def test_iou_half_overlap(self):
        gt = np.zeros(10, dtype=int)
        pred = np.array([0] * 5 + [1] * 5)
        label_map = hungarian_match(pred, gt)
        assert iou(pred, gt, label_map) == pytest.approx(0.5)

    def test_f1_harmonic_mean(self):
        # gt class 0 has recall 1 and precision 0.5 -> F1 = 2/3; class 1 is
        # unmatched and scores 0.
        gt = np.array([0] * 5 + [1] * 5)
        pred = np.zeros(10, dtype=int)
        assert f1(pred, gt, {0: 0}) == pytest.approx((2 / 3 + 0.0) / 2)

    def test_iou_f1_match_set_oracle(self):
        rng = make_rng(104)
        pred = rng.integers(0, 6, size=80)
        gt = rng.integers(0, 4, size=80)
        label_map = hungarian_match(pred, gt)
        oracle = per_class_set_metrics(pred, gt, label_map)
        got_iou = iou(pred, gt, label_map)
        assert got_iou == pytest.approx(np.mean([o["iou"] for o in oracle.values()]), abs=1e-15)
        f1s = []
        for o in oracle.values():
            p, r = o["precision"], o["recall"]
            f1s.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
        assert f1(pred, gt, label_map) == pytest.approx(np.mean(f1s), abs=1e-15)


class TestBoundaryAccuracy:
    def test_perfect(self):
        gt = np.array([0, 0, 1, 1, 2])
        assert boundary_accuracy(gt, gt, tolerance=0) == 1.0

    def test_constant_prediction(self):
        gt = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        assert boundary_accuracy(np.zeros(8, dtype=int), gt, tolerance=3) == 0.0

    def test_no_gt_boundaries(self):
        assert boundary_accuracy(np.array([0, 1, 0]), np.array([4, 4, 4]), tolerance=1) == 1.0

    def test_one_to_one_matching(self):
        # A single predicted boundary can detect only one of two close gt ones.
        gt = np.array([0, 0, 1, 1, 2, 2])     # gt boundaries at 2 and 4
        pred = np.array([0, 0, 0, 1, 1, 1])   # one predicted boundary at 3
        assert boundary_accuracy(pred, gt, tolerance=3) == pytest.approx(0.5)

    def test_matches_quadratic_oracle(self):
        rng = make_rng(105)
        for _ in range(30):
            pred = rng.integers(0, 3, size=40)
            gt = rng.integers(0, 3, size=40)
            got = boundary_accuracy(pred, gt, tolerance=3)
            assert got == pytest.approx(boundary_accuracy_quadratic(pred, gt, 3), abs=1e-15)


class TestEvaluate:
    def test_perfect_segmentation(self):
        gt = np.array([0, 0, 1, 1, 2, 2])
        report = evaluate(gt, gt)
        assert report.mof == report.iou == report.f1 == 1.0
        assert report.boundary_accuracy == 1.0

    def test_hand_computed_fixture(self):
        gt = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2])
        pred = np.array([5, 5, 5, 7, 7, 7, 7, 7, 9, 5])
        report = evaluate(pred, gt, boundary_tol=3)
        assert report.label_map == {5: 0, 7: 1, 9: 2}
        assert report.mof == pytest.approx(0.8)
        assert report.iou == pytest.approx((3 / 5 + 4 / 5 + 1 / 2) / 3)
        assert report.f1 == pytest.approx((3 / 4 + 8 / 9 + 2 / 3) / 3)
        assert report.boundary_accuracy == 1.0
        assert report.per_class[1]["recall"] == 1.0
        assert report.per_class[1]["precision"] == pytest.approx(4 / 5)

    def test_unmatched_prediction_never_correct_on_negative_gt(self):
        # Three predicted classes for two ground-truth classes: one predicted
        # class stays unmatched, and its frames are wrong even where gt is -1.
        pred, gt = [0, 0, 1, 1, 2, 2], [-1, -1, -1, -1, 5, 5]
        report = evaluate(pred, gt)
        assert report.mof == pytest.approx(4 / 6)
        assert mof(pred, gt, report.label_map) == report.mof

    def test_renaming_invariance(self):
        rng = make_rng(106)
        gt = rng.integers(0, 4, size=60)
        pred = rng.integers(0, 4, size=60)
        base = evaluate(pred, gt)
        renamed = evaluate((pred + 11) * 3, gt)
        assert renamed.mof == pytest.approx(base.mof, abs=1e-15)
        assert renamed.iou == pytest.approx(base.iou, abs=1e-15)
        assert renamed.f1 == pytest.approx(base.f1, abs=1e-15)
        assert renamed.boundary_accuracy == pytest.approx(base.boundary_accuracy, abs=1e-15)

    def test_excluding_absent_class_changes_nothing(self):
        rng = make_rng(107)
        gt = rng.integers(0, 3, size=40)
        pred = rng.integers(0, 3, size=40)
        a = evaluate(pred, gt)
        b = evaluate(pred, gt, exclude_gt=77)
        assert (a.mof, a.iou, a.f1) == (b.mof, b.iou, b.f1)

    def test_metrics_in_unit_interval(self):
        rng = make_rng(108)
        for _ in range(20):
            pred = rng.integers(0, 6, size=30)
            gt = rng.integers(0, 3, size=30)
            r = evaluate(pred, gt)
            for val in (r.mof, r.iou, r.f1, r.boundary_accuracy):
                assert 0.0 <= val <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ConsistencyError):
            evaluate(np.zeros(5, dtype=int), np.zeros(6, dtype=int))
