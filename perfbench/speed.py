"""A probe of the machine's speed that runs inside a measured process.

The benchmark runs on a few cores of a shared host, and the speed of those
cores drifts by up to ~1.6x within minutes as other work on the host comes
and goes.  A wall time alone then measures the neighbours as much as the
program.  While a ``Probe`` is active, a timer signal interrupts the measured
code every ``INTERVAL_S`` seconds of wall time and times one fixed unit of
pure-Python work (``unit``) on the same core, in the same process, in the
middle of the measured interval.  ``Probe.scale`` turns a wall time into the
time the same work takes at ``REFERENCE_UNIT_S`` per unit:

    scaled = (wall - time spent in the probe) * REFERENCE_UNIT_S / mean unit time

The probe takes ~2% of the measured interval; that time is subtracted.  It
allocates only short-lived tuples, and the garbage collector is off while a
unit runs, so the size of the program's heap does not enter its times.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.05

# Mean time of one unit on the machine the benchmark was tuned on (2 cores of
# an Intel Xeon host, CPython 3.11.7), at its usual speed.  Scaled times read
# in seconds on a machine where one unit takes this long.
REFERENCE_UNIT_S = 0.0017

_K = 8
_P = 2_147_483_647


class _Poly:
    """A polynomial mod (x^8 + 1, p): a small scalar type with Python-level
    arithmetic, as the program's own scalar layer has."""

    __slots__ = ("c",)

    def __init__(self, c: tuple[int, ...]):
        self.c = c

    def __add__(self, other: _Poly) -> _Poly:
        return _Poly(tuple((a + b) % _P for a, b in zip(self.c, other.c)))

    def __mul__(self, other: _Poly) -> _Poly:
        out = [0] * (2 * _K - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[i + j] += a * b
        for k in range(2 * _K - 2, _K - 1, -1):
            out[k - _K] -= out[k]
        return _Poly(tuple(v % _P for v in out[:_K]))


_XS = [_Poly(tuple((7 * i + 3 * j + 1) % 23 for j in range(_K))) for i in range(6)]


def unit() -> dict[int, _Poly]:
    """One fixed unit of work: products and sums kept in a dict."""
    table: dict[int, _Poly] = {}
    for r in range(3):
        for i, x in enumerate(_XS):
            for j, y in enumerate(_XS):
                key = (i + j + r) % 7
                prod = x * y
                table[key] = table[key] + prod if key in table else prod
    return table


class Probe:
    """Times one ``unit`` every ``INTERVAL_S`` seconds while active.

    Use as a context manager around the measured code, in the main thread.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            unit()
            self.samples.append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def unit_s(self) -> float:
        if not self.samples:
            raise RuntimeError("the measured interval was shorter than one probe interval")
        return statistics.fmean(self.samples)

    def own_s(self, wall: float) -> float:
        """``wall`` less the time spent in the probe."""
        return wall - sum(self.samples)

    def scale(self, wall: float) -> float:
        return self.own_s(wall) * REFERENCE_UNIT_S / self.unit_s()
