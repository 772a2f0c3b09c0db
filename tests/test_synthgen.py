import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from mmdseg import SynthConfig, generate_moving5, generate_video, make_rng, render_glyph
from mmdseg.learner import Segmentation
from mmdseg.synthgen import CANVAS, N_CLASSES, REPEAT_CLASS, trajectory_points, write_dataset

from oracles import generate_video_per_frame

GOLDEN_PIXEL_COUNTS = [148, 252, 152, 169, 272]

# sha256 of every video's frames, then its int64 labels, in split order: the
# pinned test split, and the three long videos of the ``long-smooth`` set.
PINNED_SPLIT_DIGEST = "0341a7ee2458514121a81ee95b0c513f267b49f3e30cb41aa6c5875d1e620e81"
LONG_SMOOTH_DIGEST = "cc22e6de9e66b333d2e7d6fefd2f474239e0e58423a4c43f562db93622dddd02"


def videos_digest(videos) -> str:
    digest = hashlib.sha256()
    for v in videos:
        digest.update(v.frames.tobytes())
        digest.update(np.asarray(v.labels, dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestRenderGlyph:
    def test_deterministic(self):
        a = render_glyph(2, (10.2, 17.8))
        b = render_glyph(2, (10.2, 17.8))
        assert np.array_equal(a, b)

    def test_classes_differ_at_same_position(self):
        for a in range(N_CLASSES):
            for b in range(a + 1, N_CLASSES):
                fa = render_glyph(a, (14, 14)).sum(axis=2) > 0
                fb = render_glyph(b, (14, 14)).sum(axis=2) > 0
                assert int(np.sum(fa != fb)) >= 10, (a, b)

    def test_golden_pixel_counts(self):
        counts = [int(np.count_nonzero(render_glyph(c, (14, 14)).sum(axis=2)))
                  for c in range(N_CLASSES)]
        assert counts == GOLDEN_PIXEL_COUNTS

    def test_values_in_unit_interval(self):
        f = render_glyph(4, (5, 25))
        assert f.min() >= 0.0 and f.max() <= 1.0

    def test_position_clamped_inside_canvas(self):
        f = render_glyph(1, (-40, 90))
        assert f.shape == (CANVAS, CANVAS, 3)
        assert np.count_nonzero(f) > 0

    def test_nan_position_raises(self):
        # Python's ``round`` places the glyph; a NaN centre has no place.
        with pytest.raises(ValueError):
            render_glyph(0, (float("nan"), 0.0))


class TestTrajectories:
    def test_top_to_bottom_ends_at_bottom_edge(self):
        for length in (5, 11, 30):
            last = trajectory_points(0, length)[-1]
            frame = render_glyph(0, last)
            rows = np.nonzero(frame.sum(axis=2))[0]
            assert rows.max() == CANVAS - 1  # glyph touches the bottom edge

    def test_full_traversal_regardless_of_length(self):
        from mmdseg.synthgen import TRAJECTORIES
        for class_id in range(N_CLASSES):
            (r0, c0), (r1, c1) = TRAJECTORIES[class_id]
            full = np.hypot(r1 - r0, c1 - c0)
            for length in (5, 30):
                pts = trajectory_points(class_id, length)
                span = np.linalg.norm(pts[-1] - pts[0])
                assert span == pytest.approx(full)  # endpoints reached at any length
                steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
                assert np.allclose(steps, span / (length - 1), atol=1e-9)


class TestGenerateVideo:
    def test_no_repeats_gives_five_segments(self):
        cfg = SynthConfig(max_repeats=1, seed=5)
        v = generate_video(make_rng(5), cfg)
        seg = Segmentation.from_labels(v.labels)
        assert len(seg.segments) == N_CLASSES
        assert sorted(lab for _, _, lab in seg.segments) == list(range(N_CLASSES))

    def test_length_envelope(self):
        for i in range(10):
            v = generate_video(make_rng(6, i), SynthConfig(seed=6))
            assert 25 <= v.n_frames <= 210

    def test_rows_unit_norm_with_labels(self):
        v = generate_video(make_rng(7), SynthConfig(seed=7))
        assert np.allclose(np.linalg.norm(v.frames, axis=1), 1.0, atol=1e-12)
        assert v.frames.shape[1] == CANVAS * CANVAS * 3
        assert v.labels is not None and len(v.labels) == v.n_frames

    def test_labels_match_segment_plan(self):
        for i in range(10):
            v = generate_video(make_rng(8, i), SynthConfig(seed=8))
            seg = Segmentation.from_labels(v.labels)
            for _, _, lab in seg.segments:
                assert 0 <= lab < N_CLASSES
            n_rep = sum(1 for _, _, lab in seg.segments if lab == 1)
            assert 1 <= n_rep <= 3
            assert len(seg.segments) == 4 + n_rep
            for (_, _, a), (_, _, b) in zip(seg.segments, seg.segments[1:]):
                assert a != b

    # (470, 490) makes about 2400 frames; lengths 5 to 30 put trajectory
    # points on the rounding ties x.5, and every horizontal or vertical path
    # holds the tie _MID = 13.5 throughout.
    @pytest.mark.parametrize("seg_len_range", [(1, 1), (5, 30), (470, 490)])
    @pytest.mark.parametrize("max_repeats", [1, 3])
    @pytest.mark.parametrize("noise_std", [0.0, 0.1])
    def test_matches_the_per_frame_oracle(self, seg_len_range, max_repeats, noise_std):
        cfg = SynthConfig(seg_len_range=seg_len_range, max_repeats=max_repeats, noise_std=noise_std)
        for seed in range(5):
            got = generate_video(make_rng(seed, 4), cfg)
            want = generate_video_per_frame(make_rng(seed, 4), cfg)
            assert got.frames.tobytes() == want.frames.tobytes(), seed
            assert got.labels.dtype == want.labels.dtype == np.int64
            assert np.array_equal(got.labels, want.labels), seed

    @pytest.mark.parametrize("noise_std", [0.0, 0.1])
    def test_peak_memory_is_two_frame_matrices(self, noise_std):
        # The frames are built in one matrix and normalized in place, with or
        # without noise.
        cfg = SynthConfig(seg_len_range=(470, 490), max_repeats=1, noise_std=noise_std)
        rng = make_rng(0, 2, 0)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            v = generate_video(rng, cfg)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert v.n_frames > 2300
        assert peak <= 2 * v.frames.nbytes + 2**20, peak / v.frames.nbytes

    def test_noiseless_peak_memory_is_one_frame_matrix(self):
        # Without noise nothing but the frame matrix is frame-sized: the rows
        # are normalized in the matrix they were rendered into.
        cfg = SynthConfig(seg_len_range=(470, 490), max_repeats=1, noise_std=0.0)
        rng = make_rng(0, 2, 0)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            v = generate_video(rng, cfg)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert v.n_frames == 2396
        assert peak <= v.frames.nbytes + 2 * 2**20, peak / v.frames.nbytes

    def test_noisy_peak_memory_is_one_frame_matrix(self):
        # The noise is drawn and added 32 rows at a time, so no frame-sized
        # draw sits beside the frame matrix.
        cfg = SynthConfig(seg_len_range=(470, 490), max_repeats=1, noise_std=0.1)
        rng = make_rng(0, 2, 0)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            v = generate_video(rng, cfg)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert v.n_frames == 2396
        assert peak <= v.frames.nbytes + 2 * 2**20, peak / v.frames.nbytes

    def test_max_repeats_beyond_the_classes_raises(self):
        # Six copies of the repeat class need five separators; four exist.
        with pytest.raises(ValueError, match=f"between 1 and {N_CLASSES}"):
            SynthConfig(max_repeats=N_CLASSES + 1)

    def test_max_repeats_at_the_limit_generates(self):
        repeats = []
        for i in range(20):
            v = generate_video(make_rng(9, 2, i), SynthConfig(max_repeats=N_CLASSES))
            seg = Segmentation.from_labels(v.labels)
            labels = [lab for _, _, lab in seg.segments]
            assert all(a != b for a, b in zip(labels, labels[1:]))
            repeats.append(labels.count(REPEAT_CLASS))
        assert max(repeats) == N_CLASSES, repeats


class TestGenerateMoving5:
    def test_identical_seeds_identical_datasets(self):
        a = generate_moving5(SynthConfig(n_videos=4, seed=9), split="test")
        b = generate_moving5(SynthConfig(n_videos=4, seed=9), split="test")
        for va, vb in zip(a, b):
            assert np.array_equal(va.frames, vb.frames)
            assert np.array_equal(va.labels, vb.labels)

    def test_splits_differ(self):
        cfg = SynthConfig(n_videos=2, seed=10)
        a = generate_moving5(cfg, split="train")
        b = generate_moving5(cfg, split="val")
        assert not np.array_equal(a[0].frames, b[0].frames)

    def test_repeated_action_videos_are_common(self):
        videos = generate_moving5(SynthConfig(n_videos=50, seed=0), split="test")
        with_repeats = sum(
            1 for v in videos
            if sum(1 for _, _, lab in Segmentation.from_labels(v.labels).segments if lab == 1) >= 2
        )
        assert with_repeats >= 15  # at least 30% of the pinned split


class TestPinnedBytes:
    def test_pinned_split(self):
        videos = generate_moving5(SynthConfig(n_videos=50, seed=0), "test")
        assert videos_digest(videos) == PINNED_SPLIT_DIGEST

    def test_long_smooth_set(self):
        cfg = SynthConfig(n_videos=3, seg_len_range=(470, 490), max_repeats=1, seed=0)
        assert videos_digest(generate_moving5(cfg, "test")) == LONG_SMOOTH_DIGEST


class TestWriteDataset:
    def test_layout_and_manifest(self, tmp_path):
        cfg = SynthConfig(n_videos=2, seed=11)
        manifest = write_dataset(tmp_path, cfg)
        assert sorted(manifest["splits"]) == ["test", "train", "val"]
        feature_files = sorted(tmp_path.glob("*/*_features.txt"))
        label_files = sorted(tmp_path.glob("*/*_labels.txt"))
        assert len(feature_files) == 6 and len(label_files) == 6
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["videos_per_split"] == 2
        for split, entries in on_disk["splits"].items():
            for entry in entries:
                assert (tmp_path / entry["features"]).exists()
                assert (tmp_path / entry["labels"]).exists()
