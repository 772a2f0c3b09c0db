"""Tests of the speed probe: its arithmetic with a scripted clock, and its
timer.

Run with ``python3 -m pytest bench``.
"""

import time

import pytest

import speed
from speed import SpeedProbe


def test_clock_leaves_out_probe_ticks_and_scale_uses_their_median():
    readings = iter([1.0, 1.002, 1.5, 2.0, 2.006, 3.0, 3.003, 3.5])
    probe = SpeedProbe(clock=lambda: next(readings))
    probe.sample()  # tick [1.0, 1.002]
    assert probe.clock() == pytest.approx(1.5 - 0.002)
    probe.sample()  # tick [2.0, 2.006]
    probe.sample()  # tick [3.0, 3.003]
    assert probe.clock() == pytest.approx(3.5 - 0.011)
    assert probe.scale(0.0, 4.0) == pytest.approx(speed.REFERENCE_S / 0.003)
    assert probe.scale(1.5, 2.5) == pytest.approx(speed.REFERENCE_S / 0.006)
    with pytest.raises(ValueError):
        probe.scale(3.1, 4.0)


def test_clock_reads_again_when_a_tick_runs_between_its_reads():
    probe = SpeedProbe()

    def wall_with_a_tick():
        probe.spent_s += 0.25  # a tick ends after spent_s was read
        probe.wall = lambda: 12.0
        return 10.0

    probe.wall = wall_with_a_tick
    assert probe.clock() == pytest.approx(12.0 - 0.25)


def test_a_tick_signalled_during_a_tick_is_dropped():
    probe = SpeedProbe()
    rounds = []

    def round_with_a_signal():
        rounds.append(1)
        if len(rounds) == 1:
            probe.sample()  # the timer fires while the first round runs
        return 0.0

    probe.round = round_with_a_signal
    probe.sample()
    assert len(probe.samples) == 1
    assert len(rounds) == speed.ROUNDS


def test_probe_computes_the_same_value_every_round():
    probe = SpeedProbe()
    assert probe.round() == probe.round() == SpeedProbe().round()


def test_timer_runs_ticks_until_the_block_ends():
    probe = SpeedProbe()
    with probe:
        end = time.perf_counter() + 5 * speed.PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
    n = len(probe.samples)
    assert n >= 2
    time.sleep(2 * speed.PERIOD_S)
    assert len(probe.samples) == n
