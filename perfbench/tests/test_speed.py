"""Tests of the host-speed probe."""

import signal
import statistics
import time

import pytest

import speed


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_periodic_probes_sample_inside_the_block_and_are_not_timed():
    with speed.measure() as m:
        _busy(0.3)
    inside_ms = m.samples_ms[1:-1]  # one probe before, one after the block
    assert len(inside_ms) >= 0.3 / speed.INTERVAL_S - 2
    # The busy loop runs to a wall-clock deadline, so the probes' time
    # comes out of the 300 ms that the block measures.
    assert 300 - sum(inside_ms) - 5 < m.wall_ms < 300 - sum(inside_ms) + 5
    assert m.scaled_ms == pytest.approx(m.wall_ms * statistics.fmean(
        speed.NOMINAL_MS / s for s in m.samples_ms))


def test_an_unprobed_block_is_bracketed_only():
    with speed.measure(periodic=False) as m:
        _busy(0.2)
    assert len(m.samples_ms) == 2


def test_a_raising_block_stops_the_timer_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ZeroDivisionError):
        with speed.measure() as m:
            1 / 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert m.wall_ms >= 0 and len(m.samples_ms) == 2
