from dataclasses import fields, replace

import numpy as np
import pytest

from mmdseg import (
    FAMILIES,
    KernelSpec,
    Segmentation,
    TrainConfig,
    VideoFeatures,
    assign,
    init_uniform_means,
    kernel_matrix,
    l2_normalize_rows,
    make_rng,
    segment_video,
    temporal_smooth,
    train_approximation,
    uniform_spans,
)
from mmdseg import kernels, learner
from mmdseg.learner import PROFILES, Profile, preprocess_video
from mmdseg.errors import DegenerateInputError, DegenerateScaleError, KernelSpecError, ShapeError
from mmdseg.mmd import mmd2_from_terms, simplex_weights
from mmdseg.synthgen import SynthConfig, generate_moving5, generate_video

from oracles import scalar_kernel_value


def mmd2(x, y, spec, weights=None):
    """Squared MMD as the trainer builds its loss: ``mmd2_from_terms`` over
    ``kernel_matrix`` terms, uniform weights unless given."""
    weights = np.full(len(y), 1.0 / len(y)) if weights is None else weights
    return mmd2_from_terms(kernel_matrix(x, x, spec).mean(), kernel_matrix(y, y, spec),
                           kernel_matrix(x, y, spec).mean(axis=0), weights)


def two_blob_video(segments=((0, 20), (1, 30), (0, 10)), noise=0.01, seed=80):
    # Balanced blob populations keep the median heuristic on the cross-blob
    # distance; the uneven segment layout still puts the uniform-span init
    # off the blob means.
    rng = make_rng(seed)
    means = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    frames = np.concatenate([
        means[lab] + noise * rng.normal(size=(count, 3)) for lab, count in segments
    ])
    labels = np.concatenate([np.full(count, lab, dtype=int) for lab, count in segments])
    return VideoFeatures(frames=frames, labels=labels, name="blobs"), means[0], means[1]


class TestUniformSpans:
    def test_remainder_goes_to_first_spans(self):
        assert uniform_spans(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_rejects_too_many_spans(self):
        with pytest.raises(ValueError):
            uniform_spans(2, 3)


class TestInitUniformMeans:
    def test_span_means(self):
        frames = np.array([[0.0], [2.0], [4.0], [6.0]])
        assert np.array_equal(init_uniform_means(frames, 2), [[1.0], [5.0]])

    def test_single_prototype_is_global_mean(self):
        frames = make_rng(81).normal(size=(9, 4))
        assert np.allclose(init_uniform_means(frames, 1), frames.mean(axis=0, keepdims=True), atol=0)

    def test_matches_scripted_per_span_average(self):
        frames = make_rng(82).normal(size=(10, 3))
        protos = init_uniform_means(frames, 3)
        expected = [frames[0:4].mean(axis=0), frames[4:7].mean(axis=0), frames[7:10].mean(axis=0)]
        assert np.array_equal(protos, np.stack(expected))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("weight_decay", float("nan")), ("weight_decay", float("inf")), ("weight_decay", -1e-3),
    ])
    def test_rejects_bad_step_settings(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(m=2, **{field: value})

    def test_settable_fields(self):
        assert [f.name for f in fields(TrainConfig)] == ["m", "epochs", "weight_decay", "seed", "kernel"]

    def test_accepts_zero_weight_decay(self):
        assert TrainConfig(m=2, weight_decay=0.0).weight_decay == 0.0

    def test_kernel_names_a_family(self):
        assert TrainConfig(m=2).kernel == KernelSpec().family
        with pytest.raises(KernelSpecError, match="unknown kernel family 'rbf'"):
            TrainConfig(m=2, kernel="rbf")


class TestTrainApproximation:
    def test_zero_epochs_returns_init(self):
        v, _, _ = two_blob_video()
        cfg = TrainConfig(m=2, epochs=0, seed=1)
        approx = train_approximation(v, cfg)
        assert np.array_equal(approx.prototypes, init_uniform_means(v.frames, 2))
        assert len(approx.train_log) == 1

    def test_blob_means_recovered(self):
        # Unequal halves leave the second uniform-span mean between the blobs;
        # training has to pull it onto the minority blob.
        v, mean_a, mean_b = two_blob_video()
        cfg = TrainConfig(m=2, epochs=50, seed=3)
        approx = train_approximation(v, cfg)
        init_err = np.linalg.norm(init_uniform_means(v.frames, 2)[1] - mean_b)
        assert init_err > 0.3  # the test is vacuous if the init already sits on the blob
        dists = np.linalg.norm(
            approx.prototypes[:, None, :] - np.stack([mean_a, mean_b])[None, :, :], axis=2)
        assert np.all(dists.min(axis=1) < 0.1)
        assert set(dists.argmin(axis=1)) == {0, 1}
        assert approx.train_log[-1] < approx.train_log[0]

    def test_deterministic_given_seed(self):
        v, _, _ = two_blob_video()
        cfg = TrainConfig(m=3, epochs=5, seed=11)
        a = train_approximation(v, cfg)
        b = train_approximation(v, cfg)
        assert a.train_log == b.train_log
        assert np.array_equal(a.prototypes, b.prototypes)

    def test_train_log_finite(self):
        v, _, _ = two_blob_video()
        approx = train_approximation(v, TrainConfig(m=2, epochs=10, seed=5))
        assert np.all(np.isfinite(approx.train_log))
        assert len(approx.train_log) == 11

    def test_m_larger_than_n(self):
        v, _, _ = two_blob_video(segments=((0, 3), (1, 2)))
        with pytest.raises(ValueError):
            train_approximation(v, TrainConfig(m=9))

    def test_identical_frames_degenerate(self):
        v = VideoFeatures(frames=np.ones((20, 4)), name="flat")
        with pytest.raises(DegenerateScaleError):
            train_approximation(v, TrainConfig(m=2, epochs=1))

    def test_static_shot_is_segmented(self):
        # A still frame held for 75 of 90 frames makes most pairwise distances
        # zero; the lengthscale comes from the frames that move.
        frames = generate_video(make_rng(0), SynthConfig(seed=0)).frames.copy()
        frames[:75] = frames[0]
        _, seg = segment_video(VideoFeatures(frames=frames), TrainConfig(m=5, epochs=1))
        assert seg.n_frames == frames.shape[0]

    def test_near_identical_frames_degenerate(self):
        # 2352-D near-duplicates: most squared distances are nonzero rounding
        # noise of the Gram expansion, so their median is no lengthscale.
        frame = generate_video(make_rng(0), SynthConfig(seed=0)).frames[:1]
        frames = np.repeat(frame, 50, axis=0) + 1e-9 * make_rng(1).normal(size=(50, frame.shape[1]))
        for family in FAMILIES:
            cfg = TrainConfig(m=5, epochs=1, kernel=family)
            with pytest.raises(DegenerateScaleError, match="rounding noise"):
                segment_video(VideoFeatures(frames=frames), cfg)

    def test_untrained_approximation_has_uniform_weights(self):
        v, _, _ = two_blob_video()
        weights = train_approximation(v, TrainConfig(m=3, epochs=0, seed=1)).weights
        assert np.array_equal(weights, np.full(3, 1 / 3))

    def test_weights_on_simplex_and_logged(self):
        v, _, _ = two_blob_video()
        approx = train_approximation(v, TrainConfig(m=3, epochs=5, seed=2))
        assert np.all(approx.weights >= 0.0)
        assert approx.weights.sum() == pytest.approx(1.0, abs=1e-12)
        expected = mmd2(v.frames, approx.prototypes, approx.spec, approx.weights)
        assert approx.train_log[-1] == pytest.approx(expected, rel=1e-9, abs=1e-15)

    def test_loss_and_refit_on_the_scale_sample(self, monkeypatch):
        # Above the frame cap the trainer logs and refits on the frames that
        # resolve_spec sampled for the scales.
        monkeypatch.setattr(kernels, "MAX_SCALE_FRAMES", 30)
        f = generate_video(make_rng(0), SynthConfig(seed=0)).frames[:80]
        v = VideoFeatures(frames=f, name="sampled")
        for s in (0, 1):
            cfg = TrainConfig(m=3, epochs=0, seed=s)
            spec, keep = kernels.resolve_spec(f, KernelSpec(family=cfg.kernel), make_rng(s, 0))[:2]
            sample = f[keep]
            assert len(sample) == 30
            log = train_approximation(v, cfg).train_log
            assert log[0] == pytest.approx(mmd2(sample, init_uniform_means(f, 3), spec), rel=1e-9)
            approx = train_approximation(v, replace(cfg, epochs=2))
            expected = mmd2(sample, approx.prototypes, spec, approx.weights)
            assert approx.train_log[-1] == pytest.approx(expected, rel=1e-9)

    def test_surplus_prototype_loses_its_mass(self):
        # Three prototypes for two blobs: MMD-optimal weights leave one of
        # them nearly empty instead of splitting a blob.
        v, _, _ = two_blob_video()
        approx = train_approximation(v, TrainConfig(m=3, epochs=50, seed=0))
        spare = int(np.argmin(approx.weights))
        assert approx.weights[spare] < 0.05
        assert spare not in set(assign(v, approx).frame_labels.tolist())


class TestFrameSpan:
    """A video of at most ``MAX_SCALE_FRAMES`` frames, fewer than its width,
    trains in the frames' span; any other trains on rows.

    Zero columns change no kernel value: the Gaussian reads distances, and
    K0 reads ``r^2 / d``, which is ``1 / med ||x||^2`` (or 1 for the
    ``_sphere`` families) whatever d is. So padding a row-path video past its
    frame count moves it to the span path and must move nothing but rounding.
    """

    RTOL = 1e-10  # the worst case here measures 4.4e-13

    @pytest.fixture(scope="class")
    def frames(self):
        # The pinned video projected to 60 dimensions: 90 frames, so N >= d.
        frames = generate_video(make_rng(0), SynthConfig(seed=0)).frames
        return frames @ make_rng(5).normal(size=(2352, 60)) / 50

    @staticmethod
    def train(monkeypatch, frames, cfg):
        paths = []
        terms = learner.mmd2_terms

        def spy(*args):
            paths.append("rows" if args[4] is None else "span")
            return terms(*args)

        monkeypatch.setattr(learner, "mmd2_terms", spy)
        approx, seg = segment_video(VideoFeatures(frames=frames), cfg)
        assert len(set(paths)) == 1
        return approx, seg, paths[0]

    @pytest.mark.parametrize("epochs", [0, 2])
    @pytest.mark.parametrize("m", [1, 3, 5])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_padding_past_the_frame_count_moves_only_rounding(self, monkeypatch, frames, family, m,
                                                              epochs):
        n, d = frames.shape
        padded = np.hstack((frames, np.zeros((n, 200 - d))))
        cfg = TrainConfig(m=m, epochs=epochs, seed=0, kernel=family)
        rows, seg_rows, path_rows = self.train(monkeypatch, frames, cfg)
        span, seg_span, path_span = self.train(monkeypatch, padded, cfg)
        assert (path_rows, path_span) == ("rows", "span")
        assert np.array_equal(seg_rows.frame_labels, seg_span.frame_labels)
        assert np.all(span.prototypes[:, d:] == 0.0)
        for a, b in ((rows.prototypes, span.prototypes[:, :d]), (rows.weights, span.weights),
                     (np.array(rows.train_log), np.array(span.train_log))):
            assert np.max(np.abs(a - b)) <= self.RTOL * np.max(np.abs(a))


class TestWarmRefit:
    """Each epoch's weight refit starts from the previous refit's weights;
    the refit before the first epoch starts cold."""

    M, EPOCHS = 5, 10

    def train(self, family):
        frames = generate_video(make_rng(0), SynthConfig(seed=0)).frames
        train_approximation(VideoFeatures(frames=frames),
                            TrainConfig(m=self.M, epochs=self.EPOCHS, kernel=family))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_warm_refit_returns_the_cold_bytes(self, monkeypatch, family):
        refits = []
        refit = learner.simplex_weights

        def spy(kyy, kxy_mean, start=None):
            w = refit(kyy, kxy_mean, start=start)
            refits.append((kyy, kxy_mean, start, w))
            return w

        monkeypatch.setattr(learner, "simplex_weights", spy)
        self.train(family)
        assert len(refits) == self.EPOCHS + 1 and refits[0][2] is None
        for (*_, previous), (kyy, kxy_mean, start, w) in zip(refits, refits[1:]):
            assert start is previous
            assert w.tobytes() == simplex_weights(kyy, kxy_mean).tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_about_one_face_solve_per_epoch(self, face_solves, family):
        # Cold at every refit, training took 55-66 solves (about m per
        # refit); warm, 15-17.
        self.train(family)
        assert len(face_solves) < self.M + 2 * self.EPOCHS


class TestAssign:
    def test_frames_equal_prototypes(self):
        rng = make_rng(83)
        protos = rng.normal(size=(4, 3)) + np.eye(4, 3) * 3.0
        spec = KernelSpec(family="gauss_ntk", lengthscale=2.0, alpha=1.0)
        from mmdseg.learner import Approximation
        approx = Approximation(prototypes=protos, spec=spec, train_log=[], weights=np.full(4, 1 / 4))
        seg = assign(VideoFeatures(frames=protos.copy(), name="p"), approx)
        # sanity of the instance: verify via direct kernel evaluation
        for i in range(4):
            vals = [scalar_kernel_value(protos[i], protos[m], spec) for m in range(4)]
            assert int(np.argmax(vals)) == i
        assert np.array_equal(seg.frame_labels, np.arange(4))

    def test_single_prototype(self):
        v, _, _ = two_blob_video()
        approx = train_approximation(v, TrainConfig(m=1, epochs=0))
        assert np.all(assign(v, approx).frame_labels == 0)

    def test_matches_brute_force_argmax(self):
        rng = make_rng(84)
        frames = rng.normal(size=(20, 4))
        protos = rng.normal(size=(3, 4))
        spec = KernelSpec(family="gauss_ntk", lengthscale=3.0, alpha=1.7)
        from mmdseg.learner import Approximation
        seg = assign(VideoFeatures(frames=frames, name="r"),
                     Approximation(prototypes=protos, spec=spec, train_log=[], weights=np.full(3, 1 / 3)))
        for i in range(20):
            best, best_val = 0, -np.inf
            for m in range(3):
                val = scalar_kernel_value(frames[i], protos[m], spec)
                if val > best_val:
                    best, best_val = m, val
            assert seg.frame_labels[i] == best

    def test_weighted_argmax_matches_brute_force(self):
        rng = make_rng(88)
        frames = rng.normal(size=(20, 4))
        protos = rng.normal(size=(3, 4))
        weights = np.array([0.6, 0.1, 0.3])
        spec = KernelSpec(family="gauss_ntk", lengthscale=3.0, alpha=1.7, input_scale=1.4)
        from mmdseg.learner import Approximation
        seg = assign(VideoFeatures(frames=frames, name="w"),
                     Approximation(prototypes=protos, spec=spec, train_log=[], weights=weights))
        expected = [max(range(3), key=lambda m: (weights[m] * scalar_kernel_value(frames[i], protos[m], spec), -m))
                    for i in range(20)]
        assert seg.frame_labels.tolist() == expected

    def test_zero_weight_never_wins_negative_kernel_values(self):
        # Near-antipodal inputs give negative NTK values; an empty prototype
        # (weight 0, product 0) must still lose to a weighted one.
        spec = KernelSpec(family="ntk", sigma_b_sq=0.0)
        frames = np.array([[-1.0, -0.1]])
        protos = np.array([[1.0, 0.0], [0.9, 0.3]])
        from mmdseg.learner import Approximation
        assert np.all(kernel_matrix(frames, protos, spec) < 0.0)
        seg = assign(VideoFeatures(frames=frames, name="neg"),
                     Approximation(prototypes=protos, spec=spec, train_log=[], weights=np.array([0.0, 1.0])))
        assert seg.frame_labels.tolist() == [1]

    def test_prototype_permutation_equivariance(self):
        rng = make_rng(85)
        frames = rng.normal(size=(15, 3))
        protos = rng.normal(size=(4, 3))
        spec = KernelSpec(family="gauss_ntk", lengthscale=2.0)
        from mmdseg.learner import Approximation
        uniform = np.full(4, 1 / 4)
        base = assign(VideoFeatures(frames=frames, name="x"),
                      Approximation(prototypes=protos, spec=spec, train_log=[], weights=uniform))
        perm = np.array([2, 0, 3, 1])
        permuted = assign(VideoFeatures(frames=frames, name="x"),
                          Approximation(prototypes=protos[perm], spec=spec, train_log=[], weights=uniform))
        # prototype j moves to position argwhere(perm == j)
        relabel = np.argsort(perm)
        assert np.array_equal(permuted.frame_labels, relabel[base.frame_labels])

    def test_dimension_mismatch(self):
        from mmdseg.learner import Approximation
        approx = Approximation(prototypes=np.zeros((2, 3)), spec=KernelSpec(), train_log=[],
                               weights=np.full(2, 1 / 2))
        with pytest.raises(ShapeError):
            assign(VideoFeatures(frames=np.zeros((4, 5)), name="bad"), approx)

    def test_zero_frame_prototype_instance(self):
        # Pinned instance where at least one prototype never wins a frame.
        v, _, _ = two_blob_video(seed=0)
        approx = train_approximation(v, TrainConfig(m=6, epochs=50, seed=0))
        used = set(int(x) for x in assign(v, approx).frame_labels)
        assert used != set(range(6))


class TestSegmentation:
    def test_run_length_encoding(self):
        seg = Segmentation.from_labels([1, 1, 0, 0, 0, 2])
        assert seg.segments == [(0, 2, 1), (2, 5, 0), (5, 6, 2)]
        assert seg.n_frames == 6

    def test_segments_partition_frames(self):
        labels = make_rng(87).integers(0, 3, size=50)
        seg = Segmentation.from_labels(labels)
        covered = []
        for s, e, lab in seg.segments:
            assert np.all(labels[s:e] == lab)
            covered.extend(range(s, e))
        assert covered == list(range(50))
        for (_, _, a), (_, _, b) in zip(seg.segments, seg.segments[1:]):
            assert a != b


class TestSegmentVideo:
    def test_label_domain(self):
        from mmdseg.synthgen import SynthConfig, generate_video
        v = generate_video(make_rng(88), SynthConfig(seed=88), name="demo")
        cfg = TrainConfig(m=5, epochs=2, seed=9)
        _, seg = segment_video(v, cfg, PROFILES["synthetic"])
        labels = set(int(x) for x in seg.frame_labels)
        assert 1 <= len(labels) <= 5
        assert labels <= set(range(5))

    @pytest.mark.parametrize("make_video", [
        lambda: two_blob_video()[0],  # 60 x 3: rows
        lambda: generate_video(make_rng(0), SynthConfig(seed=0)),  # 90 x 2352: the frames' span
    ], ids=["rows", "span"])
    def test_no_train_is_uniform_prototype_assignment(self, make_video):
        v = make_video()
        cfg = TrainConfig(m=3, epochs=0, seed=2)
        approx, seg = segment_video(v, cfg, PROFILES["synthetic"])
        assert np.array_equal(approx.prototypes, init_uniform_means(v.frames, 3))
        assert np.array_equal(seg.frame_labels,
                              np.argmax(kernel_matrix(v.frames, approx.prototypes, approx.spec), axis=1))

    @pytest.mark.parametrize("profile", ["short", "long"])
    def test_integer_frames_segment_as_their_float_copy(self, profile):
        frames = np.rint(generate_video(make_rng(0), SynthConfig(seed=0)).frames * 1000).astype(np.int64)
        cfg = TrainConfig(m=5, epochs=3)
        _, seg = segment_video(VideoFeatures(frames=frames), cfg, PROFILES[profile])
        _, expected = segment_video(VideoFeatures(frames=frames.astype(np.float64)), cfg, PROFILES[profile])
        assert np.array_equal(seg.frame_labels, expected.frame_labels)

    def test_pipeline_order_smooth_then_normalize(self):
        rng = make_rng(89)
        v = VideoFeatures(frames=rng.uniform(0.5, 1.5, size=(30, 4)), name="o")
        profile = Profile(smooth_s=1.5, normalize=True)
        got = preprocess_video(v, 5, profile)
        expected = l2_normalize_rows(temporal_smooth(v, 1.5, 5))
        assert np.array_equal(got.frames, expected.frames)


# Legitimate but awkward videos, each made from the pinned 90 x 2352 video x,
# as (frames from x, m, profile).
AWKWARD_VIDEOS = {
    "identical": (lambda x: np.repeat(x[:1], 90, axis=0), 5, "synthetic"),
    "noise-1e-9": (lambda x: x[:1] + 1e-9 * make_rng(1).normal(size=x.shape), 5, "synthetic"),
    "one-black-frame": (lambda x: np.where((np.arange(90) == 40)[:, None], 0.0, x), 5, "synthetic"),
    "ramp": (lambda x: np.arange(90.0)[:, None], 5, "synthetic"),
    "offset-1e3": (lambda x: x + 1e3, 5, "synthetic"),
    "two-frames-45x": (lambda x: np.repeat(x[[0, 60]], 45, axis=0), 2, "synthetic"),
    "n2-m2": (lambda x: x[[0, 60]], 2, "synthetic"),
    "static-90pct": (lambda x: np.vstack((x[:9], np.repeat(x[9:10], 81, axis=0))), 5, "synthetic"),
    "m-equals-n": (lambda x: x[::15], 6, "synthetic"),
    "long-6000x64": (lambda x: make_rng(2).normal(size=(6000, 64)), 5, "long"),
}


class TestAwkwardVideos:
    """Every awkward video gets a segmentation or a named degeneracy error
    (a ``DegenerateScaleError`` or ``DegenerateInputError`` with a message),
    in every family. Any other error, a ``NumericError``, a
    ``KernelSpecError`` or a bare ``ValueError`` from an internal invariant,
    fails the cell. The rule, not each cell's outcome, is what is asserted,
    so a fix that turns a named error into a segmentation needs no edit
    here. The short wide videos train in the frames' span; the ramp and the
    6000 x 64 video train on rows."""

    EPOCHS = 5

    @pytest.fixture(scope="class")
    def pinned(self):
        return generate_video(make_rng(0), SynthConfig(seed=0)).frames

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("case", AWKWARD_VIDEOS)
    def test_segments_or_names_the_degeneracy(self, pinned, case, family):
        make, m, profile = AWKWARD_VIDEOS[case]
        frames = make(pinned)
        cfg = TrainConfig(m=m, epochs=self.EPOCHS, kernel=family)
        try:
            approx, seg = segment_video(VideoFeatures(frames=frames, name=case), cfg, PROFILES[profile])
        except (DegenerateScaleError, DegenerateInputError) as exc:
            assert str(exc)
            return
        assert seg.n_frames == len(frames)
        assert set(seg.frame_labels.tolist()) <= set(range(m))
        assert len(approx.train_log) == self.EPOCHS + 1 and np.all(np.isfinite(approx.train_log))
        assert np.all(approx.weights >= 0.0) and approx.weights.sum() == pytest.approx(1.0)


class TestTrivialSolution:
    """The NTK sidesteps the trivial solution of a widening Gaussian.

    Train five prototypes per video, widen the resolved lengthscale by c,
    refit the simplex weights and take the squared MMD. With ``gauss`` every
    kernel value tends to 1 as c grows, so any prototypes reach MMD ~ 0: the
    widest kernel always wins. The Gaussian-NTK products keep an MMD floor.
    Measured on the three videos: ``gauss`` 2e-2..3e-2 at c = 1, 1e-8 and
    below at c = 128; ``gauss_ntk`` lowest at c = 2 (3e-2..4e-2);
    ``gauss_ntk_sphere`` falls from 7e-2..1e-1 to a plateau near 4e-2.
    """

    SCALES = [2.0 ** k for k in range(8)]

    @pytest.fixture(scope="class")
    def curves(self):
        videos = generate_moving5(SynthConfig(n_videos=3, seed=0), "test")
        curves = {}
        for family in ("gauss", "gauss_ntk", "gauss_ntk_sphere"):
            curves[family] = []
            for i, v in enumerate(videos):
                approx = train_approximation(v, TrainConfig(m=5, epochs=10, seed=i,
                                                            kernel=family))
                p = approx.prototypes
                curve = []
                for c in self.SCALES:
                    spec = replace(approx.spec, lengthscale=c * approx.spec.lengthscale)
                    w = simplex_weights(kernel_matrix(p, p, spec),
                                        kernel_matrix(v.frames, p, spec).mean(axis=0))
                    curve.append(mmd2(v.frames, p, spec, w))
                curves[family].append(np.array(curve))
        return curves

    def test_gauss_reaches_the_trivial_solution(self, curves):
        for curve in curves["gauss"]:
            assert np.all(np.diff(curve) <= 0)
            assert curve[-1] < 1e-6

    def test_gauss_ntk_has_an_interior_minimum(self, curves):
        for curve in curves["gauss_ntk"]:
            assert 0 < int(np.argmin(curve)) < len(self.SCALES) - 1

    def test_ntk_products_keep_a_floor(self, curves):
        for family in ("gauss_ntk", "gauss_ntk_sphere"):
            for curve in curves[family]:
                assert curve[-1] > 1e-2
