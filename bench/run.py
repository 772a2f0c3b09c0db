"""Benchmark of per-video segmentation with mmdseg.

    python3 bench/run.py --workload table-moving5 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's inputs are made from ``--seed`` and set up three
times (``setup_s`` is the median). Whole passes over the workload's videos
then run until ``--seconds`` is used up, at least one pass. ``--trace 0``
prints the end-to-end metrics; their times are scaled to a reference
machine speed that a probe measures during the run (see ``speed.py``).
``--trace 1`` runs an untraced pass, a traced pass and another untraced
pass, prints the per-layer metrics and writes the spans to ``.bench_out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS runs on one thread in this process: the variables below are set before
numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from speed import SpeedProbe
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def _import_program():
    """Import mmdseg from this checkout's ``src/``, and only from there."""
    if not (SRC / "mmdseg" / "__init__.py").is_file():
        sys.exit(f"error: no mmdseg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mmdseg

    if Path(mmdseg.__file__).resolve().parent != (SRC / "mmdseg").resolve():
        sys.exit(f"error: imported mmdseg from {mmdseg.__file__}, not from {SRC}")
    import mmdseg.cli  # noqa: F401  (loads every module the tracer patches)


def _rows(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 2) == 2 else 1


# (metric prefix, module, function, counter, modules whose binding is traced)
LAYERS = [
    ("preprocess.load_features", "mmdseg.preprocess", "load_features",
     lambda path, *a, **k: {"bytes": os.path.getsize(path)}, None),
    ("preprocess.temporal_smooth", "mmdseg.preprocess", "temporal_smooth", None, None),
    ("numerics.pairwise_sqdist", "mmdseg.numerics", "pairwise_sqdist", None, ("mmdseg.kernels",)),
    ("numerics.median", "mmdseg.numerics", "median", None, ("mmdseg.kernels",)),
    ("kernels.resolve_spec", "mmdseg.kernels", "resolve_spec", None, None),
    ("kernels.kernel_matrix", "mmdseg.kernels", "kernel_matrix",
     lambda a, b, *r, **k: {"pairs": _rows(a) * _rows(b)}, None),
    ("mmd.mmd2_grad_y", "mmdseg.mmd", "mmd2_grad_y",
     lambda x, y, *r, **k: {"pairs": _rows(x) * _rows(y) + _rows(y) ** 2}, None),
    ("mmd.simplex_weights", "mmdseg.mmd", "simplex_weights", None, None),
    ("learner.train_approximation", "mmdseg.learner", "train_approximation", None, None),
    ("learner.assign", "mmdseg.learner", "assign", None, None),
    ("evaluation.evaluate", "mmdseg.evaluation", "evaluate", None, None),
    ("cli.main", "mmdseg.cli", "main", None, None),
]
COUNTERS = ["kernels.kernel_matrix.pairs", "mmd.mmd2_grad_y.pairs", "preprocess.load_features.bytes"]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed, seconds, workdir):
    probe = SpeedProbe()
    workload.clock = probe.clock
    setups, passes = [], []
    with probe:
        setup_start = probe.wall()
        for _ in range(SETUP_REPEATS):
            t0 = probe.clock()
            workload.setup(seed, workdir)
            setups.append(probe.clock() - t0)
        start = probe.wall()
        while True:
            passes.append(workload.run_pass())
            elapsed = probe.wall() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
        end = probe.wall()
    video_s = [t for p in passes for t in p.video_s]
    if not video_s:
        sys.exit("error: every operation failed, so nothing was measured")
    frames = sum(p.frames for p in passes)
    wall_s = sum(p.wall_s for p in passes)
    # Each phase is scaled by the machine's speed during it.
    setup_scale, scale = probe.scale(setup_start, start), probe.scale(start, end)
    print(f"# measured: setup {statistics.median(setups):.4f} s, {frames / wall_s:.2f} frames/s, "
          f"video p50 {np.percentile(video_s, 50):.4f} s; scale {setup_scale:.4f} in set-up, "
          f"{scale:.4f} after; {len(probe.samples)} probe ticks took {probe.spent_s:.3f} s",
          file=sys.stderr)
    metrics = {
        "setup_s": _metric(statistics.median(setups) * setup_scale, "s"),
        "frames_per_s": _metric(frames / (wall_s * scale), "frames/s"),
        "video_s_p50": _metric(float(np.percentile(video_s, 50)) * scale, "s"),
        "video_s_p80": _metric(float(np.percentile(video_s, 80)) * scale, "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "mof": _metric(passes[0].mof, "%"),
        "f1": _metric(passes[0].f1, "%"),
    }
    return passes, metrics


def per_layer(workload, seed, workdir, trace_path):
    workload.setup(seed, workdir)
    before = workload.run_pass()
    tracer = Tracer()
    for name, module, func, count, only_in in LAYERS:
        tracer.patch(module, func, name, count, only_in)
    try:
        traced = workload.run_pass(tracer)
    finally:
        tracer.unpatch()
    after = workload.run_pass()
    tracer.dump(trace_path)
    self_times = tracer.self_times()
    metrics = {}
    for name, *_ in LAYERS:
        s, calls = self_times.get(name, (0.0, 0))
        metrics[f"{name}.s"] = _metric(s, "s")
        metrics[f"{name}.calls"] = _metric(calls, "count")
    for name in COUNTERS:
        metrics[name] = _metric(tracer.counters.get(name, 0), "bytes" if name.endswith(".bytes") else "count")
    # Averaging the untraced passes on both sides cancels the first pass's
    # warm-up and a steady drift of the machine.
    metrics["trace.overhead_s"] = _metric(traced.wall_s - (before.wall_s + after.wall_s) / 2, "s")
    return [before, traced, after], metrics


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            passes, metrics = per_layer(workload, args.seed, workdir, trace_path)
        else:
            passes, metrics = end_to_end(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for ps in passes for p in ps.problems]
    digests = {p.digest for p in passes if p.failed == 0}
    if len(digests) > 1:
        problems.append("passes over the same inputs gave different outputs")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{_threads()} thread(s), numpy {np.__version__}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
