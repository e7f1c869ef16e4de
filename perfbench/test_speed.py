"""Tests of the machine-speed probe.

    python3 -m pytest perfbench
"""

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_samples_the_interval_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        started = time.perf_counter()
        _busy(0.5)
        wall = time.perf_counter() - started
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 3 <= len(probe.samples) <= 11
    assert 0 < probe.own_s(wall) < wall
    expected = probe.own_s(wall) * speed.REFERENCE_UNIT_S / probe.unit_s()
    assert probe.scale(wall) == expected


def test_probe_without_samples_refuses_to_scale():
    with speed.Probe() as probe:
        pass
    try:
        probe.scale(0.01)
    except RuntimeError:
        return
    raise AssertionError("scale() gave a time without any probe sample")


def test_unit_is_fixed_work():
    assert {k: p.c for k, p in speed.unit().items()} == {
        k: p.c for k, p in speed.unit().items()
    }
