import warnings

import numpy as np
import pytest

from mmdseg import VideoFeatures, l2_normalize_rows, load_features, load_labels, make_rng, temporal_smooth
from mmdseg.errors import ConsistencyError, DegenerateInputError, ParseError
from mmdseg.preprocess import save_features, save_labels, smoothing_window

from oracles import direct_convolution, read_features_per_line

# What the differential test builds feature files from: float syntax, both
# separators, ASCII controls that str.split() or np.loadtxt treat as blank,
# tokens either reader might take as a number, and non-ASCII spaces and a
# digit that a UTF-8 read would strip or parse.
FUZZ_CHARS = list("0123456789+-.eE, \t\n") + ["\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u2003", "\x85", "\u0663"]
FUZZ_TOKENS = ["nan", "inf", "-inf", "1_0", "\u0663", "1e999", "4.9e-324"]
FUZZ_PADS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u2003", "\x85"]
FUZZ_SEPS = [",", ",", " ", "\t", ", ", " ,", "  "]


def video(frames, labels=None):
    return VideoFeatures(frames=np.asarray(frames, dtype=float),
                         labels=None if labels is None else np.asarray(labels))


class TestLoadFeatures:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "feat.txt"
        p.write_text("1,2\n3,4\n5,6\n")
        v = load_features(p)
        assert v.frames.shape == (3, 2)
        assert np.array_equal(v.frames, [[1, 2], [3, 4], [5, 6]])
        assert v.name == "feat"

    def test_whitespace_and_blank_lines(self, tmp_path):
        p = tmp_path / "feat.txt"
        p.write_text("1 2\n\n3\t4\n")
        assert load_features(p).frames.shape == (2, 2)

    def test_label_count_mismatch(self, tmp_path):
        f = tmp_path / "feat.txt"
        f.write_text("1,2\n3,4\n5,6\n")
        l = tmp_path / "labels.txt"
        l.write_text("0\n1\n")
        with pytest.raises(ConsistencyError):
            load_features(f, labels_path=l)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "feat.txt"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match=":2"):
            load_features(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "feat.txt"
        p.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match=":2"):
            load_features(p)

    def test_non_finite_value_reports_line(self, tmp_path):
        # Blank lines count: the third line of the file is the second row.
        p = tmp_path / "feat.txt"
        p.write_text("1,2\n\nnan,5\n3,inf\n")
        with pytest.raises(ParseError, match=r"feat\.txt:3: non-finite"):
            load_features(p)

    @pytest.mark.parametrize("text", ["1,,2\n3,,4\n", "1,2,\n", "1 2,3\n", ",\n"],
                             ids=["empty-middle", "trailing-comma", "space-joined", "comma-only"])
    def test_empty_or_space_joined_comma_field_reports_line(self, tmp_path, text):
        p = tmp_path / "feat.txt"
        p.write_text("5,6\n" + text)
        with pytest.raises(ParseError, match=r"feat\.txt:2: bad feature value"):
            load_features(p)

    def test_first_bad_line_wins_whatever_its_fault(self, tmp_path):
        p = tmp_path / "feat.txt"
        p.write_text("1,2\ninf,3\n4,5\noops,6\n")
        with pytest.raises(ParseError, match=r"feat\.txt:2: non-finite"):
            load_features(p)

    def test_round_trip_is_lossless(self, tmp_path):
        frames = make_rng(70).normal(size=(20, 6))
        p = tmp_path / "feat.txt"
        save_features(p, frames)
        assert np.array_equal(load_features(p).frames, frames)
        assert p.read_text() == "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in frames)
        # Signed zero, the smallest subnormal and the largest double survive;
        # tobytes() tells -0.0 from 0.0, which array_equal does not.
        edge = np.array([[0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3]])
        save_features(p, edge)
        assert p.read_text() == ("0,-0,4.9406564584124654e-324,1.7976931348623157e+308,"
                                 "0.10000000000000001,0.33333333333333331\n")
        assert load_features(p).frames.tobytes() == edge.tobytes()
        # Plain text whatever the name: np.savetxt and np.loadtxt given a path
        # compress or decompress one with these suffixes.
        for name in ("feat.txt.gz", "feat.txt.bz2", "feat.txt.xz"):
            compressed = tmp_path / name
            save_features(compressed, frames)
            assert np.array_equal(load_features(compressed).frames, frames)

    def test_label_interning(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("walk\nrun\nwalk\nsit\n")
        assert np.array_equal(load_labels(p), [0, 1, 0, 2])

    def test_integer_labels_kept(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("4\n2\n4\n")
        assert np.array_equal(load_labels(p), [4, 2, 4])

    def test_label_file_without_tokens_is_named(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("\n \n\t\n")
        with pytest.raises(ParseError, match=r"labels\.txt: no labels found"):
            load_labels(p)

    def test_label_round_trip(self, tmp_path):
        p = tmp_path / "labels.txt"
        save_labels(p, [3, 1, 2, 2])
        assert np.array_equal(load_labels(p), [3, 1, 2, 2])

    @pytest.mark.parametrize("token", ["99999999999999999999", "-99999999999999999999"])
    def test_integer_label_outside_int64_reports_line(self, tmp_path, token):
        p = tmp_path / "labels.txt"
        p.write_text(f"1\n\n{token}\n2\n")
        with pytest.raises(ParseError, match=rf"labels\.txt:3: label {token} is outside int64"):
            load_labels(p)
        p.write_text(f"{-2**63}\n{2**63 - 1}\n")  # the limits themselves are kept
        assert np.array_equal(load_labels(p), [-2**63, 2**63 - 1])

    def test_non_utf8_label_file_names_the_file(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_bytes(b"0\n1\xff\n")
        with pytest.raises(ParseError, match=r"labels\.txt: not UTF-8 text"):
            load_labels(p)

    def test_non_utf8_feature_file_names_the_file(self, tmp_path):
        p = tmp_path / "feat.txt"
        p.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(ParseError, match=r"feat\.txt: not UTF-8 text"):
            load_features(p)

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11", "+1_0", "-\u0663"])
    def test_label_token_of_other_digits_is_a_name(self, tmp_path, token):
        # int() reads "1_0" as 10 and Arabic-Indic or fullwidth digits as
        # numbers; a label file keeps them as names, so every token is interned.
        p = tmp_path / "labels.txt"
        p.write_text(f"{token}\n2\n{token}\n", encoding="utf-8")
        assert np.array_equal(load_labels(p), [0, 1, 0])

    def test_signed_and_zero_padded_integer_labels_kept(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("+3\n-2\n07\n")
        assert np.array_equal(load_labels(p), [3, -2, 7])

    # U+001C..U+001F are whitespace to str.split() and str.strip(), so without
    # the check "1\x1c2" would load as [1, 2] and a line of "\x1c" be blank.
    # str.strip() also empties a line of NBSP, U+2003 or U+3000, which is
    # non-ASCII and so an error, not a blank line.
    @pytest.mark.parametrize("line", ["1_0,2", "1,2_5", "\u0663,2", "\uff11 2", "1,2\u00a0",
                                      "1\x1c2", "1\x1d,2", "1,2\x1e", "\x1f", " \x1c ",
                                      "\u00a0", "\u2003", "\u3000"])
    def test_feature_line_with_digit_groups_or_non_ascii_reports_line(self, tmp_path, line):
        p = tmp_path / "feat.txt"
        p.write_text(f"1,2\n{line}\n3,4\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"feat\.txt:2: .*non-ASCII"):
            load_features(p)

    @pytest.mark.parametrize("read, text", [
        (lambda p: load_features(p).frames, "1,2\n3,4\n"),
        (load_labels, "0\n0\n1\n"),
        (load_labels, "walk\nrun\nwalk\n"),
    ], ids=["features", "integer-labels", "named-labels"])
    def test_leading_byte_order_mark_is_not_data(self, tmp_path, read, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        expected, got = read(plain), read(marked)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text, frames", [
        ("1,2\n \n3,4\n", [[1, 2], [3, 4]]),
        ("1,2\n3 4\n", [[1, 2], [3, 4]]),
        ("1 2\n3,4\n", [[1, 2], [3, 4]]),
        ("1\x1c2\n", ParseError),
        ("\ufeff1,2\n", [[1, 2]]),
    ], ids=["blank-line-in-comma-file", "comma-then-space", "space-then-comma",
            "separator-control", "byte-order-mark"])
    def test_mixed_separators_blank_lines_and_a_byte_order_mark(self, tmp_path, text, frames):
        p = tmp_path / "feat.txt"
        p.write_text(text, encoding="utf-8")
        if frames is ParseError:
            with pytest.raises(ParseError, match=r"feat\.txt:1: bad feature value"):
                load_features(p)
        else:
            assert load_features(p).frames.tolist() == frames

    @pytest.mark.parametrize("text", ["", "\n \n\t\x0b\n"], ids=["empty", "blank-lines"])
    def test_file_without_rows_is_named_without_a_numpy_warning(self, tmp_path, text):
        p = tmp_path / "feat.txt"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=r"feat\.txt: no feature rows found"):
                load_features(p)

    def test_fast_read_agrees_with_the_per_line_reader(self, tmp_path):
        """On a few thousand small files, mostly near-valid, ``load_features``
        gives the per-line reader's frames byte for byte, or its error."""
        rng = make_rng(78)

        def pick(options):
            return options[rng.integers(len(options))]

        def number():
            if rng.random() < 0.08:
                return pick(FUZZ_TOKENS)
            text = pick(["", "+", "-"]) + "".join(pick("0123456789") for _ in range(rng.integers(1, 4)))
            if rng.random() < 0.4:
                text += "." + "".join(pick("0123456789") for _ in range(rng.integers(0, 3)))
            if rng.random() < 0.2:
                text += pick("eE") + pick(["", "+", "-"]) + str(rng.integers(0, 40))
            return text

        def pad():
            return pick(FUZZ_PADS) if rng.random() < 0.1 else ""

        def feature_text():
            n_cols, sep, lines = int(rng.integers(1, 4)), pick(FUZZ_SEPS), []
            for _ in range(rng.integers(1, 5)):
                if rng.random() < 0.2:
                    lines.append(pad())
                row = rng.integers(n_cols, n_cols + 2) if rng.random() < 0.1 else n_cols
                lines.append(sep.join(pad() + number() + pad() for _ in range(row)))
            text = "\n".join(lines) + pick(["\n", ""])
            for _ in range(rng.integers(0, 3) if rng.random() < 0.4 else 0):
                at = int(rng.integers(len(text) + 1))
                text = text[:at] + pick(FUZZ_CHARS) + text[at:]
            return text

        def outcome(read, path):
            try:
                return read(path)
            except ParseError as exc:
                return str(exc)

        p = tmp_path / "feat.txt"
        accepted = 0
        for _ in range(3000):
            text = feature_text()
            p.write_text(text, encoding="utf-8")
            fast = outcome(lambda path: load_features(path).frames, p)
            per_line = outcome(read_features_per_line, p)
            if isinstance(per_line, str):
                assert isinstance(fast, str) and fast == per_line, repr(text)
            else:
                accepted += 1
                assert isinstance(fast, np.ndarray), repr(text)
                assert fast.shape == per_line.shape and fast.tobytes() == per_line.tobytes(), repr(text)
        # Both outcomes are exercised.
        assert 600 < accepted < 2400


class TestL2Normalize:
    def test_three_four_five(self):
        out = l2_normalize_rows(video([[3.0, 4.0]]))
        assert np.allclose(out.frames, [[0.6, 0.8]], atol=1e-15)

    def test_idempotent(self):
        v = l2_normalize_rows(video(make_rng(71).normal(size=(6, 4))))
        again = l2_normalize_rows(v)
        assert np.allclose(v.frames, again.frames, atol=1e-15)

    def test_unit_norms(self):
        out = l2_normalize_rows(video(make_rng(72).normal(size=(10, 5))))
        assert np.allclose(np.linalg.norm(out.frames, axis=1), 1.0, atol=1e-12)

    def test_zero_row(self):
        with pytest.raises(DegenerateInputError):
            l2_normalize_rows(video([[0.0, 0.0], [1.0, 0.0]]))

    def test_labels_pass_through(self):
        out = l2_normalize_rows(video([[3.0, 4.0], [1.0, 1.0]], labels=[0, 1]))
        assert np.array_equal(out.labels, [0, 1])


def gaussian_taps(w, n):
    """Radius and normalized taps of a w-frame window on an n-frame video."""
    radius = min((w - 1) // 2, n - 1)
    sigma = w / 4.0
    kern = np.exp(-np.arange(-radius, radius + 1) ** 2 / (2 * sigma**2))
    return radius, kern / kern.sum()


class TestTemporalSmooth:
    def test_window_of_one_is_identity(self):
        v = video(make_rng(73).normal(size=(30, 4)))
        out = temporal_smooth(v, s=0.01, m=5)  # w = max(1, round(0.06)) = 1
        assert np.array_equal(out.frames, v.frames)

    def test_constant_video_unchanged(self):
        v = video(np.tile([1.5, -0.5, 2.0], (25, 1)))
        out = temporal_smooth(v, s=2.5, m=5)
        assert np.allclose(out.frames, v.frames, atol=1e-12)

    def test_step_signal_matches_direct_convolution(self):
        sig = np.concatenate([np.zeros(20), np.ones(20)])
        v = video(sig[:, None])
        out = temporal_smooth(v, s=1.0, m=5)  # w = round(40/5) = 8
        w = smoothing_window(1.0, 40, 5)
        assert w == 8
        radius, kern = gaussian_taps(w, 40)
        assert np.allclose(out.frames[:, 0], direct_convolution(sig, kern, radius), atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 300])
    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_direct_convolution_across_row_blocks(self, n, d):
        """Windows from radius 0 to the n - 1 cap, the last with s * n / m > 2n;
        n = 127..129 and 300 put block edges inside and at the end of the video."""
        x = make_rng(76 + n + d).normal(size=(n, d)) * 1e3
        radii = set()
        for s in (0.5 / n, 3.0 / n, 0.1, 0.5, 1.0, 2.0, 3.0):  # m = 1, so w = round(s * n)
            w = smoothing_window(s, n, 1)
            radius, kern = gaussian_taps(w, n)
            radii.add(radius)
            out = temporal_smooth(video(x), s=s, m=1).frames
            ref = np.stack([direct_convolution(x[:, j], kern, radius) for j in range(d)], axis=1)
            assert np.allclose(out, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(x)))
        assert min(radii) == 0 and max(radii) == n - 1
        assert smoothing_window(3.0, n, 1) > 2 * n

    def test_shift_equivariant_in_the_interior(self):
        rng = make_rng(74)
        sig = rng.normal(size=(60, 2))
        shifted = np.roll(sig, 1, axis=0)
        a = temporal_smooth(video(sig), s=1.0, m=6).frames
        b = temporal_smooth(video(shifted), s=1.0, m=6).frames
        w = smoothing_window(1.0, 60, 6)
        assert np.allclose(a[w:-w - 1], b[w + 1:-w], atol=1e-12)

    def test_labels_and_shape_untouched(self):
        v = video(make_rng(75).normal(size=(40, 3)), labels=np.arange(40) % 4)
        out = temporal_smooth(v, s=2.0, m=4)
        assert out.frames.shape == v.frames.shape
        assert np.array_equal(out.labels, v.labels)

    def test_bad_s(self):
        with pytest.raises(ValueError):
            temporal_smooth(video(np.zeros((5, 2))), s=0.0, m=2)

    @pytest.mark.parametrize("s, name", [(np.inf, "inf"), (np.nan, "nan"), (1e308, "1e+308")])
    def test_non_finite_window(self, s, name):
        with pytest.raises(ValueError) as err:
            temporal_smooth(video(np.zeros((5, 2))), s=s, m=2)
        assert str(err.value) == f"smoothing factor s={name} gives a non-finite window s * N / m"
