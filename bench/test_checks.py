"""Tests of the benchmark's output checks: the brute-force MoF matcher on
hand-computed cases, and the invariants each workload checks.

Run with ``python3 -m pytest bench``.
"""

from pathlib import Path
import sys

import numpy as np
import pytest

from checks import best_matchings, brute_force_mof, check_randm_csv, check_video, f1_for_matching


def test_mof_of_a_relabelled_perfect_prediction():
    assert brute_force_mof([1, 1, 0, 0, 2], [0, 0, 2, 2, 1]) == 1.0


def test_mof_with_more_predicted_than_true_classes():
    assert brute_force_mof([0, 1, 2, 3], [7, 7, 7, 7]) == 0.25


def test_mof_with_an_unmatched_predicted_class():
    # pred 0 covers {5: 2}, pred 1 covers {5: 1, 6: 2}, pred 2 covers {6: 1}.
    assert brute_force_mof([0, 0, 1, 1, 1, 2], [5, 5, 5, 6, 6, 6]) == pytest.approx(4 / 6)


def test_mof_beats_the_greedy_matching():
    # Overlaps A-X 3, A-Y 2, B-X 2, B-Y 0. Greedy takes A-X and scores 3;
    # the best matching is A-Y plus B-X, which scores 4.
    pred = [0, 0, 0, 0, 0, 1, 1]
    gt = [0, 0, 0, 1, 1, 0, 0]
    best, matchings = best_matchings(pred, gt)
    assert best == 4
    assert matchings == [{0: 1, 1: 0}]
    assert brute_force_mof(pred, gt) == pytest.approx(4 / 7)


def test_f1_of_a_hand_computed_matching():
    pred = [0, 0, 1, 1, 1, 2]
    gt = [5, 5, 5, 6, 6, 6]
    _, matchings = best_matchings(pred, gt)
    assert matchings == [{0: 5, 1: 6}]
    # class 5: precision 2/2, recall 2/3 -> 0.8; class 6: 2/3 and 2/3 -> 2/3
    assert f1_for_matching(pred, gt, matchings[0]) == pytest.approx((0.8 + 2 / 3) / 2)


def test_matcher_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        brute_force_mof([0, 1], [0])


def test_matcher_agrees_with_the_program_on_random_labelings():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from mmdseg.evaluation import evaluate

    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        pred = rng.integers(0, int(rng.integers(1, 6)), size=n)
        gt = rng.integers(0, int(rng.integers(1, 6)), size=n)
        rep = evaluate(pred, gt, boundary_tol=None)
        best, matchings = best_matchings(pred, gt)
        assert best / n == pytest.approx(rep.mof, abs=1e-12)
        assert any(abs(f1_for_matching(pred, gt, mt) - rep.f1) <= 1e-12 for mt in matchings)


def _video_args(**overrides):
    args = dict(name="v", n_frames=6, m=3, epochs=2, labels=[0, 0, 1, 1, 2, 2],
                train_log=[1.0, 0.8, 0.5], weights=np.array([0.5, 0.25, 0.25]),
                gt=[4, 4, 5, 5, 6, 6], mof=1.0, f1=1.0)
    args.update(overrides)
    return args


def test_check_video_accepts_a_correct_output():
    assert check_video(**_video_args()) == []


@pytest.mark.parametrize("overrides, fragment", [
    ({"labels": [0, 0, 1, 1, 3, 3]}, "labels outside"),
    ({"labels": [0, 0, 1, 1, 2]}, "labels for 6 frames"),
    ({"train_log": [0.5, 0.6, 0.7]}, "loss rose"),
    ({"train_log": [1.0, float("nan"), 0.5]}, "finite"),
    ({"weights": np.array([0.6, 0.3, 0.3])}, "simplex"),
    ({"weights": None}, "no weights"),
    ({"mof": 0.9}, "brute-force"),
    ({"f1": 0.5}, "F1"),
])
def test_check_video_flags_each_violation(overrides, fragment):
    problems = check_video(**_video_args(**overrides))
    assert len(problems) == 1 and fragment in problems[0]


def _randm_rows():
    rows = [
        {"video": "a", "m_used": "3", "mof": "0.5", "iou": "0.25", "f1": "0.5", "boundary_accuracy": "1.0"},
        {"video": "b", "m_used": "1", "mof": "1.0", "iou": "0.75", "f1": "0.5", "boundary_accuracy": "0.0"},
    ]
    rows.append({"video": "mean", "m_used": "2.0", "mof": "0.75", "iou": "0.5", "f1": "0.5",
                 "boundary_accuracy": "0.5"})
    return rows


def test_check_randm_csv_accepts_a_consistent_table():
    assert check_randm_csv(_randm_rows(), ["a", "b"], [30, 30], mbar=5) == []


def test_check_randm_csv_flags_each_violation():
    assert "do not match" in check_randm_csv(_randm_rows(), ["a", "c"], [30, 30], mbar=5)[0]
    rows = _randm_rows()
    rows[0]["m_used"] = "5"
    rows[2]["m_used"] = "3.0"
    assert check_randm_csv(rows, ["a", "b"], [30, 30], mbar=5) == ["a: m_used 5 outside the protocol's range"]
    rows = _randm_rows()
    rows[1]["mof"] = "1.5"
    rows[2]["mof"] = "1.0"
    assert check_randm_csv(rows, ["a", "b"], [30, 30], mbar=5) == ["b: mof 1.5 outside [0, 1]"]
    rows = _randm_rows()
    rows[2]["f1"] = "0.6"
    assert check_randm_csv(rows, ["a", "b"], [30, 30], mbar=5) == ["mean f1 0.6 but the rows average 0.5"]
