"""What the benchmark under ``bench/`` binds in the package must keep existing.

``bench/run.py`` patches the functions listed in its ``LAYERS`` by module and
name, and ``bench/workloads.py`` imports the package at module level. A
deletion or a move that breaks either would otherwise surface only when the
benchmark runs.
"""

import ast
import importlib
import sys
from pathlib import Path

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
