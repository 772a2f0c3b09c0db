import numpy as np
import pytest

from mmdseg import boundary_accuracy, evaluate, make_rng
from mmdseg.errors import ConsistencyError, EmptyEvalError
from mmdseg.evaluation import aggregate_rows, solve_assignment

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

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match=r"needs a square matrix, got \(2, 3\)"):
            solve_assignment(np.zeros((2, 3)))


class TestHungarianMatch:
    def test_identity_on_equal_sequences(self):
        gt = np.array([0, 0, 1, 1, 2, 2])
        assert evaluate(gt, gt, boundary_tol=None).label_map == {0: 0, 1: 1, 2: 2}

    def test_recovers_label_permutation(self):
        rng = make_rng(102)
        gt = rng.integers(0, 4, size=60)
        perm = {0: 3, 1: 0, 2: 2, 3: 1}
        pred = np.array([perm[int(g)] for g in gt])
        label_map = evaluate(pred, gt, boundary_tol=None).label_map
        assert label_map == {3: 0, 0: 1, 2: 2, 1: 3}

    def test_surplus_predicted_classes_map_to_none(self):
        pred = np.array([0, 1, 2, 2])
        gt = np.array([0, 0, 1, 1])
        label_map = evaluate(pred, gt, boundary_tol=None).label_map
        assert sorted(label_map) == [0, 1, 2]
        assert sum(1 for v in label_map.values() if v is None) == 1

    def test_exclusion_drops_frames(self):
        pred = np.array([0, 0, 1, 1])
        gt = np.array([9, 9, 1, 1])
        label_map = evaluate(pred, gt, exclude_gt=9, boundary_tol=None).label_map
        assert label_map[1] == 1

    def test_empty_after_exclusion(self):
        with pytest.raises(EmptyEvalError):
            evaluate([0, 0], [5, 5], exclude_gt=5, boundary_tol=None)


class TestFrameMetrics:
    def test_perfect_prediction(self):
        gt = np.array([0, 0, 1, 2, 2])
        report = evaluate(gt, gt)
        assert report.mof == report.iou == report.f1 == 1.0

    def test_mof_matches_counting_loop(self):
        rng = make_rng(103)
        pred = rng.integers(0, 5, size=50)
        gt = rng.integers(0, 4, size=50)
        report = evaluate(pred, gt)
        expected = sum(1 for p, g in zip(pred, gt) if report.label_map[int(p)] == int(g)) / 50
        assert report.mof == pytest.approx(expected, abs=1e-15)

    def test_iou_half_overlap(self):
        gt = np.zeros(10, dtype=int)
        pred = np.array([0] * 5 + [1] * 5)
        assert evaluate(pred, gt).iou == pytest.approx(0.5)

    def test_f1_harmonic_mean(self):
        # The one predicted class matches either gt class (equal overlaps);
        # that class has recall 1 and precision 0.5 -> F1 = 2/3, and the
        # other is unmatched and scores 0.
        gt = np.array([0] * 5 + [1] * 5)
        pred = np.zeros(10, dtype=int)
        assert evaluate(pred, gt).f1 == pytest.approx((2 / 3 + 0.0) / 2)

    def test_iou_f1_match_set_oracle(self):
        rng = make_rng(104)
        pred = rng.integers(0, 6, size=80)
        gt = rng.integers(0, 4, size=80)
        report = evaluate(pred, gt)
        oracle = per_class_set_metrics(pred, gt, report.label_map)
        assert report.iou == pytest.approx(np.mean([o["iou"] for o in oracle.values()]), abs=1e-15)
        f1s = []
        for g, o in oracle.items():
            p, r = o["precision"], o["recall"]
            f1s.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
            assert report.per_class[g]["iou"] == pytest.approx(o["iou"], abs=1e-15)
            assert report.per_class[g]["precision"] == pytest.approx(p, abs=1e-15)
            assert report.per_class[g]["recall"] == pytest.approx(r, abs=1e-15)
        assert report.f1 == pytest.approx(np.mean(f1s), abs=1e-15)


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

    @pytest.mark.parametrize("tolerance", [10**30, 10**400, float("inf")], ids=["1e30", "1e400", "inf"])
    def test_tolerance_beyond_int64_matches_quadratic_oracle(self, tolerance):
        # A used boundary must stay out of reach of a huge tolerance, and the
        # tolerance must not be cast to a fixed-width integer or a float.
        rng = make_rng(106)
        for _ in range(10):
            pred = rng.integers(0, 3, size=40)
            gt = rng.integers(0, 3, size=40)
            assert boundary_accuracy(pred, gt, tolerance) == boundary_accuracy_quadratic(pred, gt, tolerance)

    @pytest.mark.parametrize("n_pred, tolerance, error, message", [
        (4, 1, ConsistencyError, "pred has 4 frames but gt has 3"),
        (3, -1, ValueError, "tolerance must be nonnegative"),
    ], ids=["length-mismatch", "negative-tolerance"])
    def test_rejects(self, n_pred, tolerance, error, message):
        with pytest.raises(error, match=message):
            boundary_accuracy(np.zeros(n_pred, dtype=int), np.zeros(3, dtype=int), tolerance=tolerance)


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
        assert sum(report.label_map[p] == g for p, g in zip(pred, gt)) / 6 == report.mof

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


def test_aggregate_rows_rejects_no_rows():
    with pytest.raises(ValueError, match="nothing to aggregate"):
        aggregate_rows([])
