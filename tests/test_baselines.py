import warnings

import numpy as np
import pytest

from mmdseg import KernelSpec, VideoFeatures, assign, make_rng, uniform_segmentation
from mmdseg import baselines
from mmdseg.baselines import _kmeans_pp_seed, kmeans_centroids
from mmdseg.errors import NumericError
from mmdseg.learner import Approximation, uniform_spans
from mmdseg.numerics import pairwise_sqdist
from mmdseg.synthgen import SynthConfig, generate_video

from oracles import scalar_kernel_value


class TestUniformSegmentation:
    def test_six_frames_three_spans(self):
        assert np.array_equal(uniform_segmentation(6, 3).frame_labels, [0, 0, 1, 1, 2, 2])

    def test_single_span(self):
        assert np.all(uniform_segmentation(7, 1).frame_labels == 0)

    def test_spans_agree_with_uniform_means_split(self):
        seg = uniform_segmentation(10, 3)
        for j, (s, e) in enumerate(uniform_spans(10, 3)):
            assert np.all(seg.frame_labels[s:e] == j)
        assert [(s, e) for s, e, _ in seg.segments] == uniform_spans(10, 3)

    def test_rejects_m_above_n(self):
        with pytest.raises(ValueError):
            uniform_segmentation(2, 3)


class TestKmeans:
    def test_two_duplicate_groups(self):
        frames = np.array([[0.0, 0.0]] * 5 + [[5.0, 5.0]] * 5)
        _, labels = kmeans_centroids(frames, 2, make_rng(90))
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_m_equals_n(self):
        frames = make_rng(91).normal(size=(6, 3))
        centroids, labels = kmeans_centroids(frames, 6, make_rng(91))
        wcss = sum(float(np.sum((frames[i] - centroids[labels[i]]) ** 2)) for i in range(6))
        assert wcss == pytest.approx(0.0, abs=1e-20)
        assert sorted(labels) == list(range(6))

    def test_final_objective_not_worse_than_seeding(self):
        frames = make_rng(92).normal(size=(30, 4))
        seeds = _kmeans_pp_seed(frames, 3, make_rng(93))
        seed_wcss = float(np.min(
            np.sum((frames[:, None, :] - seeds[None, :, :]) ** 2, axis=2), axis=1).sum())
        centroids, labels = kmeans_centroids(frames, 3, make_rng(93))
        final_wcss = float(sum(np.sum((frames[i] - centroids[labels[i]]) ** 2) for i in range(30)))
        assert final_wcss <= seed_wcss + 1e-9

    def test_rejects_m_above_n(self):
        with pytest.raises(ValueError, match="kmeans needs at least 3 frames, got 2"):
            kmeans_centroids(np.eye(2), 3, make_rng(0))

    def test_deterministic(self):
        frames = make_rng(94).normal(size=(25, 3))
        a = kmeans_centroids(frames, 4, make_rng(7))
        b = kmeans_centroids(frames, 4, make_rng(7))
        assert np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_fewer_distinct_frames_than_m(self, m):
        # Three distinct frames, each held for ten: every reseed must take a
        # different frame and leave its donor cluster a member.
        frames = np.repeat(make_rng(0).normal(size=(3, 8)), 10, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centroids, labels = kmeans_centroids(frames, m, make_rng(0, 10))
        assert np.all(np.isfinite(centroids))
        assert sorted(set(labels.tolist())) == list(range(m))


    def test_a_large_common_offset_still_clusters(self):
        # Distances from Gram products cancel once an offset common to every
        # frame dominates their norms; k-means runs on the centered frames.
        # The labels are not compared with the unshifted run's: the shifted
        # input is itself rounded, and a k-means++ draw can move.
        frames = generate_video(make_rng(0), SynthConfig(seed=0)).frames + 1e6
        centroids, labels = kmeans_centroids(frames, 5, make_rng(0, 10))
        assert centroids.shape == (5, frames.shape[1]) and np.all(np.isfinite(centroids))
        assert sorted(set(labels.tolist())) == list(range(5))
        assert np.all(np.abs(centroids - 1e6) <= 1.0)  # the offset is added back

    def test_an_increasing_objective_is_a_numeric_error(self, monkeypatch):
        # Distances that grow on every call make the objective increase.
        calls = []

        def growing(a, b):
            calls.append(None)
            return len(calls) * pairwise_sqdist(a, b)

        monkeypatch.setattr(baselines, "pairwise_sqdist", growing)
        with pytest.raises(NumericError, match="k-means objective increased"):
            kmeans_centroids(make_rng(95).normal(size=(30, 3)), 3, make_rng(0))


class TestKernelKmeansAssign:
    """Kernel-space assignment of k-means centers: ``assign`` on an untrained
    approximation whose prototypes are the centers, as ``segment
    --baseline kernel-kmeans`` runs it."""

    def test_single_center(self):
        frames = make_rng(96).normal(size=(8, 2))
        seg = assign(VideoFeatures(frames=frames, name="x"),
                     Approximation(prototypes=frames[:1], spec=KernelSpec(lengthscale=1.0), train_log=[],
                                   weights=np.ones(1)))
        assert np.all(seg.frame_labels == 0)

    def test_matches_brute_force_argmax(self):
        rng = make_rng(97)
        frames = rng.normal(size=(15, 4))
        centers = rng.normal(size=(4, 4))
        spec = KernelSpec(family="gauss_ntk", lengthscale=2.5, alpha=0.8)
        seg = assign(VideoFeatures(frames=frames, name="x"),
                     Approximation(prototypes=centers, spec=spec, train_log=[], weights=np.full(4, 1 / 4)))
        for i in range(15):
            vals = [scalar_kernel_value(frames[i], centers[m], spec) for m in range(4)]
            best = max(range(4), key=lambda m: (vals[m], -m))
            assert seg.frame_labels[i] == best
