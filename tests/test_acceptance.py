"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The heavyweight fixtures (the pinned 50-video synthetic test split
and the five-method comparison table) are shared across criteria.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from mmdseg import (
    FAMILIES,
    KernelSpec,
    SynthConfig,
    TrainConfig,
    evaluate,
    generate_moving5,
    generate_video,
    kernel_matrix,
    make_rng,
    segment_video,
)
from mmdseg.baselines import kmeans_centroids, uniform_segmentation
from mmdseg.cli import draw_m, main
from mmdseg.errors import DegenerateInputError, DegenerateScaleError
from mmdseg.evaluation import solve_assignment
from mmdseg.kernels import _stacked_pass, resolve_spec, row_stats
from mmdseg.learner import PROFILES, Approximation, Segmentation, assign
from mmdseg.mmd import mmd2_from_terms
from mmdseg.preprocess import l2_normalize_rows, save_features, VideoFeatures
from mmdseg.synthgen import REPEAT_CLASS

from oracles import brute_force_assignment, empirical_ntk, finite_diff_grad, mmd2_triple_loop


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def moving5_test_split():
    return generate_moving5(SynthConfig(n_videos=50, seed=0), split="test")


@pytest.fixture(scope="session")
def table_runs(moving5_test_split):
    """Every Table-style method on the pinned split, plus the trained state."""
    t0 = time.time()
    runs = {"uniform": [], "kmeans": [], "kernel_kmeans": [], "kernel_uniform": [], "ours": []}
    approximations, segmentations = [], []
    for i, v in enumerate(moving5_test_split):
        gt = v.labels
        runs["uniform"].append(evaluate(uniform_segmentation(v.n_frames, 5), gt).mof)
        centers, labels = kmeans_centroids(v.frames, 5, make_rng(1000, i))
        runs["kmeans"].append(evaluate(labels, gt).mof)
        spec = resolve_spec(v.frames, KernelSpec(family="gauss_ntk"), make_rng(i, 0))[0]
        kernel_kmeans = Approximation(prototypes=centers, spec=spec, train_log=[], weights=np.full(5, 1 / 5))
        runs["kernel_kmeans"].append(evaluate(assign(v, kernel_kmeans), gt).mof)
        _, seg0 = segment_video(v, TrainConfig(m=5, epochs=0, seed=i), PROFILES["synthetic"])
        runs["kernel_uniform"].append(evaluate(seg0, gt).mof)
        approx, seg = segment_video(v, TrainConfig(m=5, epochs=10, seed=i), PROFILES["synthetic"])
        runs["ours"].append(evaluate(seg, gt).mof)
        approximations.append(approx)
        segmentations.append(seg)
    return {
        "mof": {k: float(np.mean(v)) for k, v in runs.items()},
        "approximations": approximations,
        "segmentations": segmentations,
        "runtime": time.time() - t0,
    }


def test_criterion_1_kernel_gradient_oracle():
    t0 = time.time()
    rng = make_rng(201)
    worst = 0.0
    for family in FAMILIES:
        spec = KernelSpec(family=family, lengthscale=2.0, alpha=1.3)
        for _ in range(50):
            a, b = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)
            u, w = _stacked_pass(a[None], b[None], spec, row_stats(a[None], spec), grad=True)
            grad = u[1, 0] * a + w[1, 0] * b  # row 1: the cross block
            fd = finite_diff_grad(lambda m: kernel_matrix(a, m, spec)[0, 0], b[None, :], 1e-4)[0]
            rel = float(np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12))
            worst = max(worst, rel if np.isfinite(rel) else np.inf)  # a NaN gradient fails
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    assert report(1, "kernel-gradient oracle", ok,
                  f"max rel err {worst:.2e} (tol 1e-4) over 50 trials x {len(FAMILIES)} families, "
                  f"{elapsed:.1f} s (< 10 s)")


def test_criterion_2_ntk_closed_form_oracle():
    # Pairs are drawn like the artifact's inputs (nonnegative pixel vectors),
    # keeping the NTK bounded away from its zero crossing so relative error
    # is meaningful.
    t0 = time.time()
    spec = KernelSpec(family="ntk")
    rng = make_rng(202)
    worst = 0.0
    for trial in range(20):
        a, b = rng.uniform(0, 1, 8), rng.uniform(0, 1, 8)
        ntk = kernel_matrix(a, b, spec)[0, 0]
        emp = empirical_ntk(a, b, spec.sigma_w_sq, spec.sigma_b_sq, 2**14, 64, make_rng(203, trial))
        worst = max(worst, abs(emp - ntk) / abs(ntk))
    elapsed = time.time() - t0
    ok = worst < 0.03 and elapsed < 120.0
    assert report(2, "NTK closed form vs finite-width MC", ok,
                  f"max rel err {worst:.2%} (tol 3%) at width 2^14, 64 draws, 20 pairs, "
                  f"{elapsed:.1f} s (< 2 min)")


def test_criterion_3_mmd2_correctness():
    def mmd2(x, y, spec):  # the trainer's loss: mmd2_from_terms over kernel_matrix terms
        return mmd2_from_terms(kernel_matrix(x, x, spec).mean(), kernel_matrix(y, y, spec),
                               kernel_matrix(x, y, spec).mean(axis=0), np.full(len(y), 1 / len(y)))

    rng = make_rng(204)
    worst = 0.0
    min_val = np.inf
    self_max = 0.0
    for trial in range(100):
        family = FAMILIES[trial % len(FAMILIES)]
        spec = KernelSpec(family=family, lengthscale=2.0, alpha=1.2)
        x = rng.normal(size=(int(rng.integers(1, 8)), 3))
        y = rng.normal(size=(int(rng.integers(1, 5)), 3))
        val = mmd2(x, y, spec)
        worst = max(worst, abs(val - mmd2_triple_loop(x, y, spec)))
        self_val = mmd2(x, x.copy(), spec)
        self_max = max(self_max, abs(self_val))
        min_val = min(min_val, val, self_val)
    ok = worst <= 1e-10 and min_val >= -1e-10 and self_max <= 1e-10
    assert report(3, "MMD^2 vs triple-loop oracle", ok,
                  f"max |diff| {worst:.2e} (tol 1e-10) over 100 instances; "
                  f"min value {min_val:.2e} (>= -1e-10); max |mmd2(x,x)| {self_max:.2e}")


def test_criterion_4_hungarian_optimality():
    rng = make_rng(205)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        overlap = rng.integers(0, 25, size=(n, n)).astype(float)
        rows = solve_assignment(-overlap)
        total = sum(overlap[rows[j], j] for j in range(n))
        if total != brute_force_assignment(overlap):
            assert report(4, "Hungarian vs permutation brute force", False,
                          f"mismatch on a {n}x{n} table")
    assert report(4, "Hungarian vs permutation brute force", True,
                  "exact on 200 random contingency tables up to 6x6")


def test_criterion_5_table_ordering(table_runs):
    mof = table_runs["mof"]
    gap = 0.005
    clauses = [
        ("Ours > Kernel(Uniform) + 0.5", mof["ours"] > mof["kernel_uniform"] + gap),
        ("Kernel(Uniform) > Uniform + 0.5", mof["kernel_uniform"] > mof["uniform"] + gap),
        ("Kernel(K-means) > K-means + 0.5", mof["kernel_kmeans"] > mof["kmeans"] + gap),
        ("Ours >= 65%", mof["ours"] >= 0.65),
        ("runtime < 10 min", table_runs["runtime"] < 600.0),
    ]
    table = ", ".join(f"{k} {100 * v:.2f}" for k, v in mof.items())
    detail = f"MoF: {table}; " + "; ".join(f"{name}: {'ok' if ok else 'VIOLATED'}"
                                           for name, ok in clauses)
    assert report(5, "Table ordering in kind", all(ok for _, ok in clauses), detail)


def test_criterion_6_noisy_m_protocol(moving5_test_split):
    b_ours, b_unif, collapsed = [], [], 0
    for i, v in enumerate(moving5_test_split):
        m_drawn = draw_m(5, "synthetic", make_rng(0, 50, i))
        m_used = min(max(1, m_drawn), v.n_frames)
        cfg = TrainConfig(m=m_used, epochs=20, weight_decay=1e-4, seed=i)
        _, seg = segment_video(v, cfg, PROFILES["synthetic"])
        b_ours.append(evaluate(seg, v.labels, boundary_tol=3).boundary_accuracy)
        if np.unique(seg.frame_labels).size < m_used:
            collapsed += 1
        b_unif.append(evaluate(uniform_segmentation(v.n_frames, m_used), v.labels,
                               boundary_tol=3).boundary_accuracy)
    mean_ours, mean_unif = float(np.mean(b_ours)), float(np.mean(b_unif))
    ok = mean_ours > mean_unif and collapsed >= 1
    assert report(6, "random-M boundary accuracy", ok,
                  f"boundary acc (tol 3): ours {100 * mean_ours:.1f} vs uniform "
                  f"{100 * mean_unif:.1f}; {collapsed} video(s) used fewer labels than drawn M")


def test_criterion_7_repeated_actions(moving5_test_split, table_runs):
    handled, total = 0, 0
    for v, seg in zip(moving5_test_split, table_runs["segmentations"]):
        gt_segs = Segmentation.from_labels(v.labels).segments
        if sum(1 for _, _, lab in gt_segs if lab == REPEAT_CLASS) < 2:
            continue
        total += 1
        rep = evaluate(seg, v.labels)
        inverse = {g: p for p, g in rep.label_map.items() if g is not None}
        if REPEAT_CLASS in inverse:
            pred_runs = sum(1 for _, _, lab in seg.segments if lab == inverse[REPEAT_CLASS])
            if pred_runs >= 2:
                handled += 1
    ok = total > 0 and handled / total >= 0.5
    assert report(7, "repeated-action handling", ok,
                  f"{handled}/{total} repeat videos got the matched label on >= 2 disjoint segments")


def test_criterion_8_determinism(tmp_path):
    def one_pipeline(root: Path) -> str:
        root.mkdir()
        main(["gen", "--out", str(root / "data"), "--seed", "3", "--videos", "1"])
        feat = sorted((root / "data" / "test").glob("*_features.txt"))[0]
        labs = sorted((root / "data" / "test").glob("*_labels.txt"))[0]
        main(["segment", "--features", str(feat), "--labels", str(labs), "--m", "5",
              "--profile", "synthetic", "--seed", "11", "--out", str(root / "seg.json")])
        main(["eval", "--pred", str(root / "seg.json"), "--labels", str(labs),
              "--out", str(root / "report.json")])
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*")):
            if path.is_file():
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()

    first = one_pipeline(tmp_path / "run1")
    second = one_pipeline(tmp_path / "run2")
    ok = first == second
    assert report(8, "byte-identical reruns", ok,
                  f"gen+segment+eval sha256 {'match' if ok else 'MISMATCH'} across two runs")


def test_criterion_9_degenerate_inputs(tmp_path):
    flat = tmp_path / "flat_features.txt"
    save_features(flat, np.ones((12, 4)))
    code_flat = main(["segment", "--features", str(flat), "--m", "2",
                      "--out", str(tmp_path / "o1.json")])

    small = tmp_path / "small_features.txt"
    save_features(small, np.eye(3))
    code_small = main(["segment", "--features", str(small), "--m", "7",
                       "--out", str(tmp_path / "o2.json")])

    with pytest.raises(DegenerateInputError):
        l2_normalize_rows(VideoFeatures(frames=np.array([[0.0, 0.0], [1.0, 0.0]]), name="z"))
    with pytest.raises(DegenerateScaleError):
        resolve_spec(np.ones((8, 3)), KernelSpec())
    with pytest.raises(ValueError):
        uniform_segmentation(3, 9)

    ok = code_flat == 3 and code_small == 3
    assert report(9, "degenerate-input suite", ok,
                  f"identical frames -> exit {code_flat}; m > N -> exit {code_small}; "
                  "library raises degenerate-scale/input and argument errors")


def test_criterion_10_descent_sanity(table_runs):
    logs = [a.train_log for a in table_runs["approximations"]]
    bad = sum(1 for log in logs if not log[-1] <= log[0])
    ok = bad == 0
    assert report(10, "descent sanity", ok,
                  f"final logged MMD^2 <= initial on {len(logs) - bad}/{len(logs)} videos")


# sha256 of the pinned split's 50 int64 label arrays in order, as
# bench/workloads.py's _label_digest computes it; the same at 1 and 2 BLAS
# threads and at the default. A change that moves a label updates it.
PINNED_LABEL_DIGEST = "ae557e783ea1a3b7d99f35c8769ef096718f76ecd454d99e7b200c37fadc307b"


def test_pinned_split_labels_are_pinned(table_runs):
    digest = hashlib.sha256()
    for seg in table_runs["segmentations"]:
        digest.update(np.asarray(seg.frame_labels, dtype=np.int64).tobytes())
    assert digest.hexdigest() == PINNED_LABEL_DIGEST


# sha256 of the int64 labels, m = 5, 10 epochs and seed = video index, per
# family: of the first five pinned-split videos, which train in the frames'
# span, and of the pinned video projected to 60 dimensions as in
# tests/test_learner.py's TestFrameSpan, which trains on rows. The same at 1
# BLAS thread and at the default.
FAMILY_LABEL_DIGESTS = {
    "gauss": ("a4005fd55d99c7dbb17c4cda48b7c5ebc60744ed696445727c0dce8352b9bdb7",
             "5bab02f2c1121832ca181292745c75b63aae7d92f5e86b6fbab12e685bdce23c"),
    "nngp": ("a7fc4fe6df0e67a7e70dbad0f1b86efe092793d98dc4e1102f408ba27286de96",
            "0b584999f456738d6433a6a35929c7b2db6860668c8611fe3ef2443fd8969b8e"),
    "ntk": ("8b03c36aa32672c3b7a00193f53cf653688550c19f04180f23ca7adeb3e34bb2",
           "70825eb17d245edc7ccaa4b0dcfb6181468ac4b5898b4c9dfb4b2f12edd04428"),
    "ntk_sphere": ("62ecf7bc4971962cc14cf7ea835cf47d234437769e67fdd08d5bb691ddb84bf7",
                  "712929b9e62007d991bde4a0783cfbf4e835738b926eddc45aebeddd8ae7e15b"),
    "gauss_ntk": ("60ed62b21afff21f1034300523a5a9887a8213e7daeef8155c6a72592e46d971",
                 "7734321034af11a96f5b616b9711e4821064f452815da5f4aff30866fbbf4f67"),
    "gauss_ntk_sphere": ("c180ee2dd3780552affac6dd5aa71e3a019f2249df259e344d86f219a2bdb0d6",
                        "e5dfe2c6d781c21e4d204282520156e742ab0e8b0a4dd10a19a56934862a38dd"),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_labels_are_pinned_in_every_family(moving5_test_split, family):
    pinned = generate_video(make_rng(0), SynthConfig(seed=0)).frames
    projected = pinned @ make_rng(5).normal(size=(2352, 60)) / 50
    for videos, expected in zip((moving5_test_split[:5], [VideoFeatures(frames=projected)]),
                                FAMILY_LABEL_DIGESTS[family]):
        digest = hashlib.sha256()
        for i, v in enumerate(videos):
            _, seg = segment_video(v, TrainConfig(m=5, epochs=10, seed=i, kernel=family))
            digest.update(np.asarray(seg.frame_labels, dtype=np.int64).tobytes())
        assert digest.hexdigest() == expected
