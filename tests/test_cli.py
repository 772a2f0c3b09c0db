import argparse
import csv
import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

import mmdseg.cli as cli
from mmdseg.cli import draw_m, main
from mmdseg.numerics import make_rng
from mmdseg.preprocess import save_features, save_labels
from mmdseg.synthgen import SynthConfig, generate_moving5, generate_video

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "mmdseg" / "schemas"


def validate_schema(payload, schema_name):
    jsonschema = pytest.importorskip("jsonschema")
    from referencing import Registry, Resource
    from referencing.jsonschema import DRAFT7
    registry = Registry().with_resources(
        (name, Resource.from_contents(json.loads((SCHEMA_DIR / name).read_text()),
                                      default_specification=DRAFT7))
        for name in ("segmentation.schema.json", "evalreport.schema.json")
    )
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.Draft7Validator(schema, registry=registry).validate(payload)


def write_blob_video(tmp_path, name="vid", n_a=20, n_b=16, seed=3):
    rng = make_rng(seed)
    frames = np.concatenate([
        [1.0, 0.0, 0.0] + 0.05 * rng.normal(size=(n_a, 3)),
        [0.0, 1.0, 0.0] + 0.05 * rng.normal(size=(n_b, 3)),
    ])
    labels = [0] * n_a + [1] * n_b
    feat = tmp_path / f"{name}_features.txt"
    labs = tmp_path / f"{name}_labels.txt"
    save_features(feat, frames)
    save_labels(labs, labels)
    return feat, labs


def checksum_tree(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


# sha256 over relative paths and bytes of the tree ``gen --seed 3 --videos 1``
# writes under ``data/``, and of the report ``eval`` writes for its first test
# video segmented with ``--m 5 --seed 11`` (acceptance criterion 8's run).
GEN_TREE_DIGEST = "42de648f0aaa9d4514e377467179018404b34429e6f56dfa4e2ac917570f1a38"
EVAL_REPORT_DIGEST = "feda1237fdd863a866644e2f5ba0633cca9181cefef3d72b87adcd5beb9964a1"


def test_gen_tree_and_eval_report_are_pinned(tmp_path):
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data), "--seed", "3", "--videos", "1"]) == 0
    digest = hashlib.sha256()
    for path in sorted(data.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(tmp_path).as_posix().encode())
            digest.update(path.read_bytes())
    assert digest.hexdigest() == GEN_TREE_DIGEST
    feat = sorted((data / "test").glob("*_features.txt"))[0]
    labs = sorted((data / "test").glob("*_labels.txt"))[0]
    seg, report = tmp_path / "seg.json", tmp_path / "report.json"
    # seg.json is not pinned: its train_log floats vary with the BLAS thread count.
    assert main(["segment", "--features", str(feat), "--labels", str(labs), "--m", "5",
                 "--profile", "synthetic", "--seed", "11", "--out", str(seg)]) == 0
    assert main(["eval", "--pred", str(seg), "--labels", str(labs), "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == EVAL_REPORT_DIGEST


def test_readme_names_every_parser_flag():
    """README and ``build_parser`` name the same ``--flag`` set."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser_flags = {flag for p in sub.choices.values() for action in p._actions
                    for flag in action.option_strings if flag.startswith("--")} - {"--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", readme)) == parser_flags


class TestGen:
    def test_default_videos_per_split_is_50(self):
        from mmdseg.cli import build_parser
        args = build_parser().parse_args(["gen", "--out", "x"])
        assert args.videos == 50  # -> 150 feature files over the three splits

    def test_layout_counts(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "d"), "--seed", "1", "--videos", "2"]) == 0
        feats = list((tmp_path / "d").glob("*/*_features.txt"))
        labs = list((tmp_path / "d").glob("*/*_labels.txt"))
        assert len(feats) == 6 and len(labs) == 6
        assert (tmp_path / "d" / "manifest.json").exists()

    def test_same_seed_identical_tree(self, tmp_path):
        main(["gen", "--out", str(tmp_path / "a"), "--seed", "7", "--videos", "1"])
        main(["gen", "--out", str(tmp_path / "b"), "--seed", "7", "--videos", "1"])
        assert checksum_tree(tmp_path / "a") == checksum_tree(tmp_path / "b")

    def test_malformed_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--nope"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unwritable_path_exit_2(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["gen", "--out", str(blocker / "sub"), "--videos", "1"]) == 2

    @pytest.mark.parametrize("videos", ["0", "-2"])
    def test_videos_below_one_exit_3(self, tmp_path, capsys, videos):
        assert main(["gen", "--out", str(tmp_path / "d"), "--videos", videos]) == 3
        assert f"[ValueError]: n_videos must be at least 1, got {videos}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_failed_generation_leaves_nothing(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "d"), "--videos", "1", "--seed", "-1"]) == 3
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["gen", "segment", "randm"])
    def test_negative_seed_exit_3(self, tmp_path, capsys, command):
        feat, _ = write_blob_video(tmp_path)
        flags = {"gen": ["--out", str(tmp_path / "d"), "--videos", "1"],
                 "segment": ["--features", str(feat), "--m", "2", "--out", str(tmp_path / "o.json")],
                 "randm": ["--features-dir", str(tmp_path), "--mbar", "2", "--out", str(tmp_path / "o.csv")]}
        assert main([command, *flags[command], "--seed", "-1"]) == 3
        assert "[ValueError]: seed must be nonnegative, got -1" in capsys.readouterr().err


class TestSegment:
    def test_uniform_baseline_labels(self, tmp_path):
        feat = tmp_path / "six_features.txt"
        save_features(feat, np.arange(12.0).reshape(6, 2))
        out = tmp_path / "seg.json"
        assert main(["segment", "--features", str(feat), "--m", "3",
                     "--baseline", "uniform", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["frame_labels"] == [0, 0, 1, 1, 2, 2]
        validate_schema(payload, "segmentation.schema.json")

    def test_trained_run_with_labels_embeds_report(self, tmp_path):
        feat, labs = write_blob_video(tmp_path)
        out = tmp_path / "seg.json"
        assert main(["segment", "--features", str(feat), "--labels", str(labs),
                     "--m", "2", "--epochs", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate_schema(payload, "segmentation.schema.json")
        assert len(payload["train_log"]) == 4
        assert 0.0 <= payload["report"]["mof"] <= 1.0

    def test_kmeans_and_kernel_kmeans_baselines(self, tmp_path):
        feat, labs = write_blob_video(tmp_path)
        for baseline in ("kmeans", "kernel-kmeans"):
            out = tmp_path / f"{baseline}.json"
            assert main(["segment", "--features", str(feat), "--labels", str(labs),
                         "--m", "2", "--baseline", baseline, "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            assert payload["report"]["mof"] == 1.0  # blobs are trivially separable

    def test_kmeans_under_a_large_common_offset_exits_0(self, tmp_path):
        feat = tmp_path / "offset_features.txt"
        save_features(feat, generate_video(make_rng(0), SynthConfig(seed=0)).frames + 1e6)
        out = tmp_path / "o.json"
        assert main(["segment", "--features", str(feat), "--m", "5", "--baseline", "kmeans",
                     "--out", str(out)]) == 0
        assert len(set(json.loads(out.read_text())["frame_labels"])) == 5

    def test_missing_features_file_exit_2(self, tmp_path):
        assert main(["segment", "--features", str(tmp_path / "nope.txt"),
                     "--m", "2", "--out", str(tmp_path / "o.json")]) == 2

    def test_identical_frames_exit_3(self, tmp_path, capsys):
        feat = tmp_path / "flat_features.txt"
        save_features(feat, np.ones((10, 3)))
        assert main(["segment", "--features", str(feat), "--m", "2",
                     "--out", str(tmp_path / "o.json")]) == 3
        assert "DegenerateScaleError" in capsys.readouterr().err

    def test_one_frame_names_the_missing_scale_and_uniform_still_segments(self, tmp_path, capsys):
        feat = tmp_path / "one_features.txt"
        save_features(feat, np.array([[0.5, 0.25, 1.0]]))
        out = tmp_path / "o.json"
        assert main(["segment", "--features", str(feat), "--m", "1", "--out", str(out)]) == 3
        assert ("[DegenerateScaleError]: a video of one frame has no pairwise distance"
                in capsys.readouterr().err)
        assert main(["segment", "--features", str(feat), "--m", "1",
                     "--baseline", "uniform", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["frame_labels"] == [0] and payload["segments"] == [{"start": 0, "end": 1, "label": 0}]

    @pytest.mark.parametrize("with_labels", [False, True], ids=["no-labels", "labels"])
    def test_negative_boundary_tol_exit_3_before_training(self, tmp_path, capsys, with_labels):
        feat, labs = write_blob_video(tmp_path)
        out = tmp_path / "o.json"
        labels = ["--labels", str(labs)] if with_labels else []
        assert main(["segment", "--features", str(feat), *labels, "--m", "2", "--boundary-tol", "-1",
                     "--out", str(out)]) == 3
        assert "[ValueError]: --boundary-tol must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_boundary_tol_beyond_int64_exit_0(self, tmp_path):
        feat, labs = write_blob_video(tmp_path)
        out = tmp_path / "o.json"
        assert main(["segment", "--features", str(feat), "--labels", str(labs), "--m", "2",
                     "--boundary-tol", str(10**30), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["boundary_accuracy"] == 1.0

    @pytest.mark.parametrize("token", ["99999999999999999999", "-99999999999999999999"])
    def test_label_outside_int64_exit_2(self, tmp_path, capsys, token):
        feat, labs = write_blob_video(tmp_path)
        labs.write_text(labs.read_text().replace("0\n", f"{token}\n", 1))
        assert main(["segment", "--features", str(feat), "--labels", str(labs), "--m", "2",
                     "--out", str(tmp_path / "o.json")]) == 2
        assert f"{labs}:1: label {token} is outside int64" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["features", "labels"])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, which):
        feat, labs = write_blob_video(tmp_path)
        bad = {"features": feat, "labels": labs}[which]
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        assert main(["segment", "--features", str(feat), "--labels", str(labs), "--m", "2",
                     "--out", str(tmp_path / "o.json")]) == 2
        assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["1_0", "\u0663"])
    def test_feature_digit_group_or_non_ascii_exit_2(self, tmp_path, capsys, field):
        feat, _ = write_blob_video(tmp_path)
        lines = feat.read_text().splitlines()
        lines[2] = field + lines[2][lines[2].index(","):]
        feat.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["segment", "--features", str(feat), "--m", "2", "--out", str(tmp_path / "o.json")]) == 2
        assert f"error: {feat}:3: bad feature value" in capsys.readouterr().err

    def test_m_exceeding_frames_exit_3(self, tmp_path):
        feat, _ = write_blob_video(tmp_path, n_a=2, n_b=2)
        assert main(["segment", "--features", str(feat), "--m", "9",
                     "--out", str(tmp_path / "o.json")]) == 3

    def test_zero_row_normalize_exit_3(self, tmp_path, capsys):
        feat = tmp_path / "z_features.txt"
        save_features(feat, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        assert main(["segment", "--features", str(feat), "--m", "2", "--normalize",
                     "--epochs", "0", "--out", str(tmp_path / "o.json")]) == 3
        assert "DegenerateInputError" in capsys.readouterr().err

    def test_zero_row_sphere_kernel_exit_3(self, tmp_path, capsys):
        feat = tmp_path / "z_features.txt"
        save_features(feat, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        assert main(["segment", "--features", str(feat), "--m", "2", "--kernel", "gauss_ntk_sphere",
                     "--out", str(tmp_path / "o.json")]) == 3
        assert "[DegenerateInputError]: cannot sphere-project all-zero row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("smooth, message", [
        ("inf", "smoothing factor smooth_s must be finite, got inf"),
        ("nan", "smoothing factor smooth_s must be finite, got nan"),
        ("1e308", "smoothing factor s=1e+308 gives a non-finite window s * N / m"),
    ])
    def test_non_finite_smoothing_factor_exit_3(self, tmp_path, capsys, smooth, message):
        feat, _ = write_blob_video(tmp_path)
        assert main(["segment", "--features", str(feat), "--m", "2", "--epochs", "0",
                     "--smooth", smooth, "--out", str(tmp_path / "o.json")]) == 3
        assert f"[ValueError]: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lr", "--wd"])
    def test_step_settings_are_not_flags(self, tmp_path, capsys, flag):
        feat, _ = write_blob_video(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["segment", "--features", str(feat), "--m", "2", flag, "0.1",
                  "--out", str(tmp_path / "o.json")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err

    @pytest.mark.parametrize("baseline, flags, message", [
        ("uniform", ["--m", "2", "--epochs", "-1"], "epochs must be nonnegative"),
        ("kmeans", ["--m", "0"], "m must be at least 1"),
        ("kernel-kmeans", ["--m", "0"], "m must be at least 1"),
    ])
    def test_baseline_validates_m_and_epochs(self, tmp_path, capsys, baseline, flags, message):
        feat, _ = write_blob_video(tmp_path)
        assert main(["segment", "--features", str(feat), "--baseline", baseline, *flags,
                     "--out", str(tmp_path / "o.json")]) == 3
        assert message in capsys.readouterr().err


def _runs(labels):
    return [(label, len(list(group))) for label, group in itertools.groupby(labels)]


KMEANS_RUNS = [(1, 8), (0, 9), (2, 5), (3, 17), (1, 7), (0, 8), (2, 5), (0, 10), (1, 10),
               (4, 12), (2, 23), (0, 7)]
TRAINED_RUNS = [(0, 17), (2, 5), (1, 17), (0, 15), (2, 25), (3, 12), (4, 30)]


class TestGoldenLabels:
    """Frame labels of every CLI method on one generated video, pinned.

    The k-means labels pin its stream, ``make_rng(seed, 10)``: streams 0, 1
    and 11 give other labels on this video. The kernel scales' stream
    (``make_rng(seed, 0)``) draws frames only above ``MAX_SCALE_FRAMES``, so
    on this 121-frame video it does not move any label.
    """

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden")
        assert main(["gen", "--out", str(root), "--seed", "2", "--videos", "1"]) == 0
        return root / "test"

    @pytest.mark.parametrize("flags, runs, log_len", [
        (["--epochs", "0"], TRAINED_RUNS, 1),
        ([], TRAINED_RUNS, 11),
        (["--baseline", "uniform"], [(0, 25), (1, 24), (2, 24), (3, 24), (4, 24)], 0),
        (["--baseline", "kmeans"], KMEANS_RUNS, 0),
        (["--baseline", "kernel-kmeans"], KMEANS_RUNS, 0),
    ], ids=["no-train", "trained", "uniform", "kmeans", "kernel-kmeans"])
    def test_segment(self, data, tmp_path, flags, runs, log_len):
        out = tmp_path / "seg.json"
        assert main(["segment", "--features", str(data / "test_000_features.txt"),
                     "--m", "5", "--seed", "3", *flags, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert _runs(payload["frame_labels"]) == runs
        assert len(payload["frame_labels"]) == 121
        assert len(payload["train_log"]) == log_len

    @pytest.mark.parametrize("method", ["ours", "uniform"])
    def test_randm(self, data, tmp_path, method):
        out = tmp_path / "randm.csv"
        assert main(["randm", "--features-dir", str(data), "--mbar", "5", "--seed", "1",
                     "--method", method, "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["video"], r["m_used"]) for r in rows] == [("test_000", "1"), ("mean", "1.0")]
        assert rows[0]["mof"] == "0.34710743801652894"


class TestEval:
    def test_perfect_prediction_all_ones(self, tmp_path):
        feat, labs = write_blob_video(tmp_path)
        seg = {"name": "v", "n_frames": 36, "frame_labels": [0] * 20 + [1] * 16,
               "segments": [{"start": 0, "end": 20, "label": 0},
                            {"start": 20, "end": 36, "label": 1}], "train_log": []}
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(seg))
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(pred), "--labels", str(labs), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        validate_schema(report, "evalreport.schema.json")
        assert report["mof"] == report["iou"] == report["f1"] == 1.0

    def test_exclude_bg_noop_when_class_absent(self, tmp_path):
        feat, labs = write_blob_video(tmp_path)
        seg = {"name": "v", "n_frames": 36, "frame_labels": [0] * 18 + [1] * 18,
               "segments": [{"start": 0, "end": 18, "label": 0},
                            {"start": 18, "end": 36, "label": 1}], "train_log": []}
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(seg))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["eval", "--pred", str(pred), "--labels", str(labs), "--out", str(a)])
        main(["eval", "--pred", str(pred), "--labels", str(labs),
              "--exclude-bg", "99", "--out", str(b)])
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        for key in ("mof", "iou", "f1", "boundary_accuracy"):
            assert ra[key] == rb[key]

    def test_recomputation_matches_embedded_report(self, tmp_path):
        feat, labs = write_blob_video(tmp_path)
        seg_out = tmp_path / "seg.json"
        main(["segment", "--features", str(feat), "--labels", str(labs),
              "--m", "2", "--epochs", "2", "--out", str(seg_out)])
        rep_out = tmp_path / "rep.json"
        main(["eval", "--pred", str(seg_out), "--labels", str(labs), "--out", str(rep_out)])
        embedded = json.loads(seg_out.read_text())["report"]
        recomputed = json.loads(rep_out.read_text())
        for key in ("mof", "iou", "f1", "boundary_accuracy"):
            assert abs(embedded[key] - recomputed[key]) < 1e-12

    @pytest.mark.parametrize("flags", [[], ["--pred", "pred.json"], ["--labels", "l_labels.txt"]],
                             ids=["neither", "no-labels", "no-pred"])
    def test_missing_pred_or_labels_exit_3(self, tmp_path, capsys, flags):
        assert main(["eval", *flags, "--out", str(tmp_path / "r.json")]) == 3
        assert "[ConsistencyError]: eval needs --pred and --labels" in capsys.readouterr().err

    def test_length_mismatch_exit_3(self, tmp_path):
        feat, labs = write_blob_video(tmp_path)
        seg = {"name": "v", "n_frames": 5, "frame_labels": [0, 0, 1, 1, 1],
               "segments": [{"start": 0, "end": 2, "label": 0},
                            {"start": 2, "end": 5, "label": 1}], "train_log": []}
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(seg))
        assert main(["eval", "--pred", str(pred), "--labels", str(labs),
                     "--out", str(tmp_path / "r.json")]) == 3

    @pytest.mark.parametrize("frame_labels", [
        "abc", [[0, 1], [1]], [0.5, 1, 1], [True, False, True], ["0", "1", "1"],
        None, {"a": 1}, [1e300, 1, 1], [2**63, 1, 1],
    ], ids=["string", "nested", "fraction", "bool", "digit-strings", "null", "object",
            "huge-float", "above-int64"])
    def test_malformed_frame_labels_exit_2(self, tmp_path, capsys, frame_labels):
        labs = tmp_path / "l_labels.txt"
        save_labels(labs, [0, 1, 1])
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"name": "v", "frame_labels": frame_labels}))
        assert main(["eval", "--pred", str(pred), "--labels", str(labs),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert f"{pred}: 'frame_labels' must be a JSON array of int64 integers" in capsys.readouterr().err

    def test_label_outside_int64_exit_2(self, tmp_path, capsys):
        labs = tmp_path / "l_labels.txt"
        labs.write_text("0\n99999999999999999999\n1\n")
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"name": "v", "frame_labels": [0, 1, 1]}))
        assert main(["eval", "--pred", str(pred), "--labels", str(labs),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert f"{labs}:2: label 99999999999999999999 is outside int64" in capsys.readouterr().err

    def test_negative_boundary_tol_exit_3(self, tmp_path, capsys):
        labs = tmp_path / "l_labels.txt"
        save_labels(labs, [0, 1, 1])
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"name": "v", "frame_labels": [0, 1, 1]}))
        out = tmp_path / "r.json"
        assert main(["eval", "--pred", str(pred), "--labels", str(labs), "--boundary-tol", "-2",
                     "--out", str(out)]) == 3
        assert "[ValueError]: --boundary-tol must be nonnegative, got -2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["1_0", "\uff11\uff10"])
    def test_label_of_other_digits_is_not_the_integer_class(self, tmp_path, token):
        # "1_0" and fullwidth "10" are names, so --exclude-bg 10 excludes nothing.
        labs = tmp_path / "l_labels.txt"
        labs.write_text(f"{token}\n{token}\n7\n7\n", encoding="utf-8")
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"name": "v", "frame_labels": [0, 1, 1, 1]}))
        reports = []
        for extra in ([], ["--exclude-bg", "10"]):
            out = tmp_path / f"r{len(reports)}.json"
            assert main(["eval", "--pred", str(pred), "--labels", str(labs), *extra, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0]["mof"] == reports[1]["mof"] == 0.75

    def test_aggregate_writes_csv_with_mean_row(self, tmp_path):
        rows = [{"video": "a", "mof": 0.5, "iou": 0.25, "f1": 0.4, "boundary_accuracy": 1.0,
                 "label_map": {}, "per_class": {}},
                {"video": "b", "mof": 1.0, "iou": 0.75, "f1": 0.6, "boundary_accuracy": 0.0,
                 "label_map": {}, "per_class": {}}]
        paths = []
        for row in rows:
            p = tmp_path / f"{row['video']}.json"
            p.write_text(json.dumps(row))
            paths.append(str(p))
        out = tmp_path / "agg.csv"
        assert main(["eval", "--aggregate", *paths, "--out", str(out)]) == 0
        with open(out) as fh:
            parsed = list(csv.DictReader(fh))
        assert [r["video"] for r in parsed] == ["a", "b", "mean"]
        assert float(parsed[2]["mof"]) == pytest.approx(0.75)

    def test_aggregate_names_segment_outputs_by_video(self, tmp_path):
        # A segment JSON keeps the video name at the top level; its embedded
        # report has no "video" key.
        paths = []
        for name in ("alpha", "beta"):
            feat, labs = write_blob_video(tmp_path, name=name)
            out = tmp_path / f"seg_{name}.json"
            assert main(["segment", "--features", str(feat), "--labels", str(labs),
                         "--m", "2", "--epochs", "1", "--out", str(out)]) == 0
            paths.append(str(out))
        agg = tmp_path / "agg.csv"
        assert main(["eval", "--aggregate", *paths, "--out", str(agg)]) == 0
        with open(agg) as fh:
            assert [r["video"] for r in csv.DictReader(fh)] == ["alpha", "beta", "mean"]

    def test_aggregate_missing_metric_exit_2(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"video": "a", "mof": 0.5, "f1": 0.4}))
        assert main(["eval", "--aggregate", str(rep), "--out", str(tmp_path / "agg.csv")]) == 2
        assert f"{rep}: expected a JSON object with the key 'iou'" in capsys.readouterr().err

    def test_pred_missing_frame_labels_exit_2(self, tmp_path, capsys):
        _, labs = write_blob_video(tmp_path)
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"name": "v", "n_frames": 36}))
        assert main(["eval", "--pred", str(pred), "--labels", str(labs),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert f"{pred}: expected a JSON object with the key 'frame_labels'" in capsys.readouterr().err

    def test_top_level_not_an_object_exit_2(self, tmp_path, capsys):
        _, labs = write_blob_video(tmp_path)
        doc = tmp_path / "list.json"
        doc.write_text(json.dumps([0, 1, 1]))
        assert main(["eval", "--aggregate", str(doc), "--out", str(tmp_path / "agg.csv")]) == 2
        assert main(["eval", "--pred", str(doc), "--labels", str(labs),
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert f"{doc}: expected a JSON object with the key 'mof'" in err
        assert f"{doc}: expected a JSON object with the key 'frame_labels'" in err

    def test_not_json_exit_2(self, tmp_path, capsys):
        _, labs = write_blob_video(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("mof = 0.5\n")
        assert main(["eval", "--pred", str(bad), "--labels", str(labs),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert main(["eval", "--aggregate", str(bad), "--out", str(tmp_path / "agg.csv")]) == 2
        assert f"{bad}: not valid JSON" in capsys.readouterr().err


# sha256 of the ``randm --mode synthetic --mbar 5 --seed 0`` CSV over the first
# five test videos of ``SynthConfig(seed=0)``.
RANDM_CSV_DIGEST = "992ff591a276454b97c3be1c1f7dd09d301e9ea4e48055a282d978b3d49e3f3d"


class TestRandm:
    def test_synthetic_csv_is_pinned(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for v in generate_moving5(SynthConfig(seed=0), split="test")[:5]:
            save_features(data / f"{v.name}_features.txt", v.frames)
            save_labels(data / f"{v.name}_labels.txt", v.labels)
        out = tmp_path / "randm.csv"
        assert main(["randm", "--features-dir", str(data), "--mode", "synthetic", "--mbar", "5",
                     "--seed", "0", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RANDM_CSV_DIGEST

    def test_draw_envelope_synthetic(self):
        draws = {draw_m(5, "synthetic", make_rng(0, 50, i)) for i in range(300)}
        assert draws <= set(range(0, 11)) - {5}
        assert min(draws) >= 0 and max(draws) <= 10

    def test_draw_envelope_real(self):
        draws = [draw_m(6, "real", make_rng(1, 50, i)) for i in range(300)]
        assert all(0 <= d <= 12 for d in draws)

    def test_deterministic_csv(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for k in range(2):
            write_blob_video(data, name=f"v{k}", seed=k)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["randm", "--features-dir", str(data), "--mbar", "2",
                         "--mode", "synthetic", "--seed", "4", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        with open(a) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1]["video"] == "mean"
        for row in rows[:-1]:
            assert 1 <= int(row["m_used"]) <= 7

    def test_uniform_method(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        write_blob_video(data, name="v0", seed=9)
        out = tmp_path / "u.csv"
        assert main(["randm", "--features-dir", str(data), "--mbar", "2", "--method", "uniform",
                     "--mode", "synthetic", "--seed", "4", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    @pytest.mark.parametrize("mbar, n_frames", [(8, 4), (1, 36)])
    def test_drawn_m_clamped_to_frame_count(self, tmp_path, capsys, mbar, n_frames):
        # Synthetic draws are mbar +- 1..5: above 4 frames for mbar 8, and
        # below 1 for mbar 1 on the first seed that draws one.
        seed = next(s for s in range(100) if not 1 <= draw_m(mbar, "synthetic", make_rng(s, 50, 0)) <= n_frames)
        drawn = draw_m(mbar, "synthetic", make_rng(seed, 50, 0))
        clamped = min(max(1, drawn), n_frames)
        data = tmp_path / "data"
        data.mkdir()
        write_blob_video(data, name="v0", n_a=n_frames // 2, n_b=n_frames - n_frames // 2)
        out = tmp_path / "c.csv"
        assert main(["randm", "--features-dir", str(data), "--mbar", str(mbar), "--method", "uniform",
                     "--mode", "synthetic", "--seed", str(seed), "--out", str(out)]) == 0
        assert f"note: v0_features: drawn M {drawn} clamped to {clamped}" in capsys.readouterr().err
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert int(rows[0]["m_used"]) == clamped

    @pytest.mark.parametrize("mbar, mode", [("0", "synthetic"), ("-3", "real")])
    def test_mbar_below_one_exit_3(self, tmp_path, capsys, mbar, mode):
        data = tmp_path / "data"
        data.mkdir()
        write_blob_video(data, name="v0")
        assert main(["randm", "--features-dir", str(data), "--mbar", mbar, "--mode", mode,
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert f"[ValueError]: --mbar must be at least 1, got {mbar}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_3(self, tmp_path, capsys, jobs):
        data = tmp_path / "data"
        data.mkdir()
        write_blob_video(data, name="v0")
        out = tmp_path / "o.csv"
        assert main(["randm", "--features-dir", str(data), "--mbar", "2", "--jobs", jobs,
                     "--out", str(out)]) == 3
        assert f"[ValueError]: --jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_boundary_tol_exit_3(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        write_blob_video(data, name="v0")
        trained = []
        monkeypatch.setattr(cli, "_randm_task", trained.append)
        out = tmp_path / "o.csv"
        assert main(["randm", "--features-dir", str(data), "--mbar", "2", "--boundary-tol", "-1",
                     "--out", str(out)]) == 3
        assert "[ValueError]: --boundary-tol must be nonnegative, got -1" in capsys.readouterr().err
        assert trained == [] and not out.exists()

    def test_no_feature_files_exit_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        save_labels(data / "x_labels.txt", [0, 1])
        assert main(["randm", "--features-dir", str(data), "--mbar", "2",
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert f"[ConsistencyError]: no *_features.txt files under {data}" in capsys.readouterr().err

    def test_missing_labels_exit_3(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        feat = data / "x_features.txt"
        save_features(feat, np.eye(4))
        assert main(["randm", "--features-dir", str(data), "--mbar", "2",
                     "--out", str(tmp_path / "o.csv")]) == 3

    def test_worker_pool_does_not_change_results(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for k in range(3):
            write_blob_video(data, name=f"v{k}", seed=10 + k)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        assert main(["randm", "--features-dir", str(data), "--mbar", "2",
                     "--seed", "6", "--jobs", "1", "--out", str(serial)]) == 0
        assert main(["randm", "--features-dir", str(data), "--mbar", "2",
                     "--seed", "6", "--jobs", "2", "--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    @pytest.mark.parametrize("jobs, videos, workers", [(8, 2, 2), (2, 3, 2), (3, 3, 3)])
    def test_worker_pool_has_no_more_workers_than_videos(self, tmp_path, monkeypatch, jobs, videos,
                                                          workers):
        # A stand-in pool that records its size and maps in this process.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        data = tmp_path / "data"
        data.mkdir()
        for k in range(videos):
            write_blob_video(data, name=f"v{k}", seed=10 + k)
        assert main(["randm", "--features-dir", str(data), "--mbar", "2", "--method", "uniform",
                     "--jobs", str(jobs), "--out", str(tmp_path / "o.csv")]) == 0
        assert sizes == [workers]



class TestGenNoise:
    def test_noise_flag_changes_frames(self, tmp_path):
        main(["gen", "--out", str(tmp_path / "clean"), "--seed", "2", "--videos", "1"])
        main(["gen", "--out", str(tmp_path / "noisy"), "--seed", "2", "--videos", "1",
              "--noise", "0.05"])
        a = sorted((tmp_path / "clean").glob("*/*_features.txt"))[0].read_bytes()
        b = sorted((tmp_path / "noisy").glob("*/*_features.txt"))[0].read_bytes()
        assert a != b

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_negative_or_non_finite_noise_exit_3(self, tmp_path, capsys, noise):
        assert main(["gen", "--out", str(tmp_path / "d"), "--videos", "1", "--noise", noise]) == 3
        assert "[ValueError]: noise_std must be nonnegative and finite" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()
