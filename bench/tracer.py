"""Span tracer that wraps a program's functions from the outside.

The tracer never edits the program's source. It rebinds a function's name in
the modules that look it up, so every call through those names opens a span
(name, start, end, parent, operation id) and may add to a work counter.
Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children; calls nest strictly in one
thread, so the children cover disjoint parts of the parent's interval.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory spans and counters for one traced pass.

    ``clock`` returns seconds; tests pass a scripted clock to check the
    self-time arithmetic exactly.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = None
        # One entry per span: [name, op, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, self.clock(), None, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][3] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` traced as ``name``; ``count(*args, **kwargs)`` returns
        ``{counter suffix: amount}`` added under ``name.<suffix>``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                for suffix, amount in count(*args, **kwargs).items():
                    self.counters[f"{name}.{suffix}"] += amount
            return self.call(name, fn, *args, **kwargs)
        return traced

    def patch(self, module_name: str, attr: str, name: str, count=None, only_in=None):
        """Trace ``module_name.attr`` wherever a module under the same top
        package binds that very function, or only in the modules ``only_in``."""
        original = getattr(sys.modules[module_name], attr)
        traced = self.wrap(name, original, count)
        package = module_name.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            if only_in is not None and mod_name not in only_in:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))

    def unpatch(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``{name: (self seconds, calls)}`` over every closed span."""
        child_time = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for idx, (name, _, start, end, _) in enumerate(self.spans):
            totals[name][0] += (end - start) - child_time[idx]
            totals[name][1] += 1
        return {name: (s, n) for name, (s, n) in totals.items()}

    def dump(self, path) -> None:
        """Write every span and counter as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "op", "start", "end", "parent"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)
            fh.write("\n")
