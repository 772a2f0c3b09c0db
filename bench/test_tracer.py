"""Tests of the benchmark's tracer: self-time arithmetic on nested calls
with a scripted clock, and patching a function where modules bind it.

Run with ``python3 -m pytest bench``.
"""

import sys
import types

import pytest

from tracer import Tracer


class ScriptedClock:
    """Returns the given readings in order, one per call."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_self_time_of_nested_calls():
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]; the first inner
    # holds leaf [1.5, 2.5].
    tracer = Tracer(clock=ScriptedClock([0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 7.0, 10.0]))

    def outer():
        tracer.call("inner", lambda: tracer.call("leaf", lambda: None))
        tracer.call("inner", lambda: None)

    tracer.call("outer", outer)
    times = tracer.self_times()
    assert times["outer"] == (10.0 - 2.0 - 3.0, 1)
    assert times["inner"] == ((2.0 - 1.0) + 3.0, 2)
    assert times["leaf"] == (1.0, 1)
    assert sum(s for s, _ in times.values()) == 10.0
    assert [span[4] for span in tracer.spans] == [-1, 0, 1, 0]


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=ScriptedClock([0.0, 1.0, 2.0, 5.0]))

    def failing():
        raise RuntimeError("boom")

    def outer():
        with pytest.raises(RuntimeError):
            tracer.call("inner", failing)

    tracer.call("outer", outer)
    assert tracer.self_times() == {"outer": (4.0, 1), "inner": (1.0, 1)}


def test_spans_carry_the_operation_id():
    tracer = Tracer(clock=ScriptedClock([0.0, 1.0, 2.0, 3.0]))
    tracer.op = "video-a"
    tracer.call("f", lambda: None)
    tracer.op = "video-b"
    tracer.call("f", lambda: None)
    assert [span[1] for span in tracer.spans] == ["video-a", "video-b"]


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    other = types.ModuleType("fakepkg.other")

    def work(rows, cols):
        return rows * cols

    core.work = work
    user.work = work      # as `from .core import work` binds it
    other.work = work
    pkg.work = work
    user.run = lambda: user.work(2, 3)
    names = ["fakepkg", "fakepkg.core", "fakepkg.user", "fakepkg.other"]
    sys.modules.update(zip(names, [pkg, core, user, other]))
    yield types.SimpleNamespace(pkg=pkg, core=core, user=user, other=other, work=work)
    for name in names:
        sys.modules.pop(name, None)


def test_patch_traces_every_binding_and_unpatch_restores(fake_package):
    tracer = Tracer()
    tracer.patch("fakepkg.core", "work", "core.work", count=lambda r, c: {"cells": r * c})
    assert fake_package.user.run() == 6
    assert fake_package.other.work(1, 4) == 4
    assert tracer.self_times()["core.work"][1] == 2
    assert tracer.counters["core.work.cells"] == 10
    tracer.unpatch()
    for mod in (fake_package.pkg, fake_package.core, fake_package.user, fake_package.other):
        assert mod.work is fake_package.work


def test_patch_only_in_named_modules(fake_package):
    tracer = Tracer()
    tracer.patch("fakepkg.core", "work", "core.work", only_in=("fakepkg.user",))
    fake_package.other.work(1, 1)
    fake_package.user.run()
    assert tracer.self_times()["core.work"][1] == 1
    assert fake_package.core.work is fake_package.work
    tracer.unpatch()
    assert fake_package.user.work is fake_package.work
