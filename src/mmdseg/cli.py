"""Command-line entry point.

Subcommands: ``gen`` (synthetic dataset), ``segment`` (one video, learned or
baseline), ``eval`` (metrics from stored labels, or CSV aggregation), and
``randm`` (the random-segment-count protocol over a directory of videos).

Exit codes: 0 success, 2 I/O or usage problems, 3 numeric degeneracies and
data inconsistencies.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baselines import kmeans_centroids, uniform_segmentation
from .errors import ConsistencyError, NumericError, ParseError
from .evaluation import aggregate_rows, evaluate
from .kernels import FAMILIES, KernelSpec, resolve_spec
from .learner import (PROFILES, Approximation, Profile, Segmentation, TrainConfig, assign,
                      preprocess_video, segment_video)
from .numerics import make_rng
from .preprocess import VideoFeatures, load_features, load_labels, save_json
from .synthgen import SynthConfig, write_dataset

CSV_COLUMNS = ["video", "mof", "iou", "f1", "boundary_accuracy"]
RANDM_COLUMNS = ["video", "m_used", *CSV_COLUMNS[1:]]

# Training settings when the requested segment count is deliberately noisy.
NOISY_M_EPOCHS = {"synthetic": 20, "real": 200}
NOISY_M_WEIGHT_DECAY = 1e-4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmdseg", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic moving-glyph dataset")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--videos", type=int, default=SynthConfig.n_videos, help="videos per split")
    p_gen.add_argument("--noise", type=float, default=SynthConfig.noise_std, help="pixel noise std")

    p_seg = sub.add_parser("segment", help="segment one video")
    p_seg.add_argument("--features", required=True)
    p_seg.add_argument("--labels")
    p_seg.add_argument("--m", type=int, required=True, help="number of prototypes / spans")
    p_seg.add_argument("--epochs", type=int, default=None)
    p_seg.add_argument("--smooth", type=float, default=None, help="override the profile smoothing factor")
    p_seg.add_argument("--normalize", action="store_true", help="L2-normalize frames after smoothing")

    p_eval = sub.add_parser("eval", help="evaluate a stored segmentation, or aggregate reports")
    p_eval.add_argument("--pred", help="segmentation JSON produced by `segment`")
    p_eval.add_argument("--labels", help="ground-truth label file")
    p_eval.add_argument("--aggregate", nargs="+", metavar="REPORT",
                        help="aggregate report JSONs into a CSV instead of evaluating")

    p_rm = sub.add_parser("randm", help="segment a directory with per-video randomized M")
    p_rm.add_argument("--features-dir", required=True)
    p_rm.add_argument("--mbar", type=int, required=True, help="average number of actions")
    p_rm.add_argument("--mode", choices=sorted(NOISY_M_EPOCHS), default="synthetic")
    p_rm.add_argument("--jobs", type=int, default=1)

    # Each flag that several subcommands share is defined once.
    for p in (p_seg, p_rm):
        p.add_argument("--method", choices=["ours", "uniform", "kmeans", "kernel-kmeans"], default="ours")
        p.add_argument("--kernel", choices=FAMILIES, default=TrainConfig.kernel)
        p.add_argument("--profile", choices=sorted(PROFILES), default="synthetic")
        p.add_argument("--seed", type=int, default=0)
    for p in (p_seg, p_eval):
        p.add_argument("--exclude-bg", type=int, default=None)
    for p in (p_seg, p_eval, p_rm):
        p.add_argument("--boundary-tol", type=int, default=3)
        p.add_argument("--out", required=True)
    return parser


def _write_csv(path, columns, rows) -> None:
    """Write the per-video ``rows`` under ``columns``, then their mean row."""
    mean = aggregate_rows(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows([*rows, {"video": "mean", **{k: mean.get(k) for k in columns[1:]}}])


def cmd_gen(args) -> int:
    cfg = SynthConfig(n_videos=args.videos, seed=args.seed, noise_std=args.noise)
    manifest = write_dataset(args.out, cfg)
    n = sum(len(v) for v in manifest["splits"].values())
    print(f"wrote {n} videos to {args.out}")
    return 0


def _segment_profile(args) -> Profile:
    profile = PROFILES[args.profile]
    if args.smooth is not None:
        profile = replace(profile, smooth_s=args.smooth)
    if args.normalize:
        profile = replace(profile, normalize=True)
    return profile


def _default_epochs(profile_name: str) -> int:
    return 10 if profile_name == "synthetic" else TrainConfig.epochs


def _segment_by(method: str, video: VideoFeatures, cfg: TrainConfig,
                profile: Profile) -> tuple[Segmentation, list[float]]:
    """Segment one video by ``method``, the ``--method`` of both ``segment``
    and ``randm``: ``ours`` (trained prototypes) or the ``uniform``,
    ``kmeans`` or ``kernel-kmeans`` baseline. Returns ``(Segmentation,
    train_log)``, the log empty for baselines."""
    if method == "ours":
        approx, seg = segment_video(video, cfg, profile)
        return seg, approx.train_log
    if method == "uniform":
        return uniform_segmentation(video.n_frames, cfg.m), []
    prepped = preprocess_video(video, cfg.m, profile)
    centers, labels = kmeans_centroids(prepped.frames, cfg.m, make_rng(cfg.seed, 10))
    if method == "kmeans":
        return Segmentation.from_labels(labels), []
    spec = resolve_spec(prepped.frames, KernelSpec(family=cfg.kernel), make_rng(cfg.seed, 0))[0]
    uniform = np.full(cfg.m, 1.0 / cfg.m)
    return assign(prepped, Approximation(prototypes=centers, spec=spec, train_log=[], weights=uniform)), []


def cmd_segment(args) -> int:
    video = load_features(args.features, labels_path=args.labels)
    epochs = args.epochs if args.epochs is not None else _default_epochs(args.profile)
    cfg = TrainConfig(m=args.m, epochs=epochs, seed=args.seed, kernel=args.kernel)
    seg, train_log = _segment_by(args.method, video, cfg, _segment_profile(args))
    payload = {"name": video.name, **seg.to_dict(), "train_log": train_log}
    if video.labels is not None:
        report = evaluate(seg, video.labels, exclude_gt=args.exclude_bg,
                          boundary_tol=args.boundary_tol)
        payload["report"] = report.to_dict()
    save_json(args.out, payload)
    return 0


def _read_json(path: str, keys: tuple[str, ...], section: str | None = None) -> tuple[dict, dict]:
    """The JSON object stored in ``path`` and the part of it that must hold
    ``keys``: its ``section`` member when it has one, else the whole object.
    Anything else is a ``ParseError`` naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from None
    part = doc.get(section, doc) if isinstance(doc, dict) else doc
    missing = [key for key in keys if not isinstance(part, dict) or key not in part]
    if missing:
        raise ParseError(f"{path}: expected a JSON object with the key {missing[0]!r}")
    return doc, part


def cmd_eval(args) -> int:
    if args.aggregate:
        rows = []
        for path in args.aggregate:
            doc, rep = _read_json(path, ("mof", "iou", "f1"), section="report")
            rows.append({"video": rep.get("video", doc.get("name", Path(path).stem)),
                         **{k: rep.get(k) for k in CSV_COLUMNS[1:]}})
        _write_csv(args.out, CSV_COLUMNS, rows)
        return 0
    if not args.pred or not args.labels:
        raise ConsistencyError("eval needs --pred and --labels (or --aggregate)")
    pred, _ = _read_json(args.pred, ("frame_labels",))
    labels = pred["frame_labels"]
    if not isinstance(labels, list) or not all(type(v) is int and -2**63 <= v < 2**63 for v in labels):
        raise ParseError(f"{args.pred}: 'frame_labels' must be a JSON array of int64 integers")
    report = evaluate(np.asarray(labels, dtype=np.int64), load_labels(args.labels),
                      exclude_gt=args.exclude_bg, boundary_tol=args.boundary_tol)
    save_json(args.out, {"video": pred.get("name", Path(args.pred).stem), **report.to_dict()})
    return 0


def draw_m(mbar: int, mode: str, rng: np.random.Generator) -> int:
    """Noisy segment count: synthetic mode mbar +- d with d in 1..5, real
    mode mbar + u with u uniform in [-mbar, mbar]."""
    if mode == "synthetic":
        delta = int(rng.integers(1, 6))
        sign = 1 if rng.integers(0, 2) == 1 else -1
        return mbar + sign * delta
    return mbar + int(rng.integers(-mbar, mbar + 1))


def _randm_task(payload):
    """Segment and score one video of ``randm``. ``payload`` is ``(features
    path, labels path, drawn m, train seed, args)``; the method, kernel,
    profile, mode and boundary tolerance are read from the parsed ``args``.
    Returns the video's CSV row, plus the count of labels it used."""
    feat_path, labels_path, m_drawn, train_seed, args = payload
    video = load_features(feat_path, labels_path=labels_path)
    m_used = min(max(1, m_drawn), video.n_frames)
    if m_used != m_drawn:
        print(f"note: {Path(feat_path).stem}: drawn M {m_drawn} clamped to {m_used}", file=sys.stderr)
    cfg = TrainConfig(m=m_used, epochs=NOISY_M_EPOCHS[args.mode], weight_decay=NOISY_M_WEIGHT_DECAY,
                      seed=train_seed, kernel=args.kernel)
    seg, _ = _segment_by(args.method, video, cfg, PROFILES[args.profile])
    report = evaluate(seg, video.labels, boundary_tol=args.boundary_tol)
    return {"video": video.name, "m_used": m_used, **{k: getattr(report, k) for k in CSV_COLUMNS[1:]},
            "n_labels_used": int(np.unique(seg.frame_labels).size)}


def cmd_randm(args) -> int:
    for flag, value in (("--mbar", args.mbar), ("--jobs", args.jobs)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    root = Path(args.features_dir)
    feature_files = sorted(root.glob("*_features.txt"))
    if not feature_files:
        raise ConsistencyError(f"no *_features.txt files under {root}")
    tasks = []
    for idx, feat in enumerate(feature_files):
        labels = feat.with_name(feat.name.replace("_features.txt", "_labels.txt"))
        if not labels.exists():
            raise ConsistencyError(f"missing label file for {feat.name}")
        m_drawn = draw_m(args.mbar, args.mode, make_rng(args.seed, 50, idx))
        train_seed = int(np.random.SeedSequence([args.seed, 51, idx]).generate_state(1)[0])
        tasks.append((str(feat), str(labels), m_drawn, train_seed, args))

    if args.jobs > 1:
        # The fork start method starts every worker at the first submit.
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_randm_task, tasks))
    else:
        rows = [_randm_task(t) for t in tasks]

    collapsed = sum(1 for r in rows if r["n_labels_used"] < r["m_used"])
    for row in rows:
        row.pop("n_labels_used")
    _write_csv(args.out, RANDM_COLUMNS, rows)
    print(f"{len(tasks)} videos; {collapsed} used fewer labels than their drawn M")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "segment": cmd_segment, "eval": cmd_eval, "randm": cmd_randm}
    try:
        if getattr(args, "boundary_tol", 0) < 0:  # segment, eval and randm, before any work
            raise ValueError(f"--boundary-tol must be nonnegative, got {args.boundary_tol}")
        return handlers[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ValueError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
