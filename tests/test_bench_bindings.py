"""What the benchmark under ``bench/`` binds in the package must keep existing.

``bench/run.py`` patches the functions listed in its ``LAYERS`` by module and
name, and ``bench/workloads.py`` imports the package at module level and
times ``randm`` by rebinding ``cli._randm_task``. A deletion or a move that
breaks any of these would otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np

from mmdseg import TrainConfig, VideoFeatures, cli, make_rng, segment_video
from mmdseg.learner import PROFILES
from mmdseg.preprocess import save_features, save_labels

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _layers():
    """``(module, function, traced-in modules)`` of each ``LAYERS`` entry,
    read from the source: importing ``run.py`` would set BLAS variables."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return [(entry.elts[1].value, entry.elts[2].value,
                     ast.literal_eval(entry.elts[4]) or ())
                    for entry in node.value.elts]
    raise AssertionError("bench/run.py defines no LAYERS list")


def test_every_traced_layer_resolves():
    layers = _layers()
    assert len(layers) >= 10
    for module, func, only_in in layers:
        assert callable(getattr(importlib.import_module(module), func, None)), f"{module}.{func}"
        for name in only_in:
            importlib.import_module(name)


def test_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    assert {"table-moving5", "long-smooth", "randm-cli"} <= set(workloads.WORKLOADS)


def test_randm_task_is_rebindable_with_features_path_first(tmp_path, monkeypatch):
    """``workloads.RandmCli`` rebinds ``cli._randm_task`` and names each call
    by ``payload[0]``, so ``randm`` must look the task up at call time and
    pass the features path first."""
    feats = []
    for k in range(2):
        feats.append(tmp_path / f"v{k}_features.txt")
        save_features(feats[-1], np.arange(12.0 + k).reshape(-1, 1))
        save_labels(tmp_path / f"v{k}_labels.txt", [0] * (12 + k))
    seen = []
    task = cli._randm_task

    def spy(payload):
        seen.append(payload[0])
        return task(payload)

    monkeypatch.setattr(cli, "_randm_task", spy)
    assert cli.main(["randm", "--features-dir", str(tmp_path), "--mbar", "2", "--method", "uniform",
                     "--out", str(tmp_path / "randm.csv")]) == 0
    assert seen == [str(f) for f in feats]


def test_resolve_spec_is_traced_once_per_video(monkeypatch):
    """``run.py`` traces ``kernels.resolve_spec`` through every module that
    binds it; one ``segment_video`` must open exactly one such span."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer").Tracer()
    frames = make_rng(7).normal(size=(30, 4))
    tracer.patch("mmdseg.kernels", "resolve_spec", "kernels.resolve_spec")
    try:
        segment_video(VideoFeatures(frames=frames, name="traced"), TrainConfig(m=3, epochs=1))
    finally:
        tracer.unpatch()
    assert [span[0] for span in tracer.spans] == ["kernels.resolve_spec"]


def test_temporal_smooth_is_traced_once_per_long_video(monkeypatch):
    """``run.py`` traces ``preprocess.temporal_smooth``: one ``segment_video``
    opens one such span on the ``long`` profile and none on ``synthetic``,
    which does not smooth."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer").Tracer()
    v = VideoFeatures(frames=make_rng(8).normal(size=(40, 4)), name="traced")
    tracer.patch("mmdseg.preprocess", "temporal_smooth", "preprocess.temporal_smooth")
    try:
        segment_video(v, TrainConfig(m=3, epochs=1), PROFILES["long"])
        long_spans = [span[0] for span in tracer.spans]
        segment_video(v, TrainConfig(m=3, epochs=1), PROFILES["synthetic"])
    finally:
        tracer.unpatch()
    assert long_spans == ["preprocess.temporal_smooth"]
    assert [span[0] for span in tracer.spans] == long_spans
