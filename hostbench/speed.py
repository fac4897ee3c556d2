"""Machine-speed probe: scales measured seconds to a reference host speed.

The shared host this benchmark runs on changes speed by up to 1.8× in
phases of seconds to minutes, with no steal time and no change in the
work done (user CPU time moves with wall time).  A wall-clock figure then
says more about the phase than about the program.  ``SpeedProbe`` samples
the host's speed *while* the program runs: a ``SIGALRM`` timer fires
every ``PERIOD_S`` and the handler, which Python runs in the main thread
between bytecodes, times a fixed piece of pure-Python work
(``probe_once``): an arithmetic loop, and lookups in random order in a
dict too large for the CPU's caches.  The loop alone follows about
70–90% of a slow phase, the lookups alone over-correct on some
workloads; together they follow both workloads best
(iteration-to-iteration variation of the scaled times 3.3–3.6%, against
4.5–5.4% for the loop alone).

``SpeedProbe.scaled(start, end)`` is the interval's wall time, minus the
probes that ran inside it, times ``REFERENCE_PROBE_S`` over the mean probe
time around the interval: the seconds the interval would have taken on a
host where a probe takes ``REFERENCE_PROBE_S``.  Work that gets faster or
slower changes it as it changes wall time; the host's phase mostly does
not.  The probe touches nothing of the program, so no change to the
program moves the reference.

Imported by the child interpreters that time ``import repro.cli``, so
it imports only modules the interpreter has loaded at start-up or that
cost nothing.
"""

from __future__ import annotations

import bisect
import signal
import time

#: one probe, about 0.7 ms: this many loop turns, then this many lookups
#: in a dict of TABLE_SIZE entries (about 5 MB with its keys), each probe
#: going on where the last stopped in a fixed shuffle of the keys.  The
#: order must be random: lookups in a constant stride, which the CPU
#: prefetches, hardly slowed in the host's slow phases
ARITH_LOOPS = 1500
LOOKUPS = 800
TABLE_SIZE = 60_000
#: seconds between probes (about 2% of the host's time goes to probing)
PERIOD_S = 0.05
#: probe time that defines the reference speed; about a probe's time on
#: the 2-vCPU host the benchmark was built on, while a workload runs
REFERENCE_PROBE_S = 0.0007
#: at least this many probes estimate the speed around an interval; the
#: window around a short interval widens until it holds them
MIN_PROBES = 8
MARGIN_S = 0.25


def _shuffled(keys: list) -> list:
    """``keys`` in an order fixed by a 64-bit LCG (the ``random`` module is
    left for the program to import)."""
    x = 1
    for i in range(len(keys) - 1, 0, -1):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        j = (x >> 33) % (i + 1)
        keys[i], keys[j] = keys[j], keys[i]
    return keys


_TABLE = {k * 7919: k for k in range(TABLE_SIZE)}
_KEYS = _shuffled(list(_TABLE))


def probe_once(offset: int = 0) -> float:
    """Seconds the fixed work takes now; ``offset`` (the number of probes
    taken before) picks where the lookups go on."""
    start = time.perf_counter()
    acc = 0
    slots = {}
    for i in range(ARITH_LOOPS):
        acc = (acc + i * i) % 1_000_003
        slots[i & 255] = acc
    first = offset * LOOKUPS % (TABLE_SIZE - LOOKUPS)
    for key in _KEYS[first:first + LOOKUPS]:
        acc += _TABLE[key]
    return time.perf_counter() - start


class SpeedProbe:
    """Probe times, sampled by a timer while it runs (``start``/``stop``)."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        #: start times (``perf_counter``) and durations of the probes, in order
        self.at = []
        self.took = []
        self._previous = None

    def _fire(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Take one probe now."""
        at = time.perf_counter()
        self.took.append(probe_once(len(self.took)))
        self.at.append(at)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def _window(self, start: float, end: float, margin: float):
        return (bisect.bisect_left(self.at, start - margin),
                bisect.bisect_right(self.at, end + margin))

    def probe_s(self, start: float, end: float) -> float:
        """Mean probe time around ``[start, end]``: the probes inside it,
        and outside it within a margin that widens until there are at
        least ``MIN_PROBES`` (or all there are)."""
        if not self.took:
            raise ValueError("no probes were taken")
        margin = MARGIN_S
        lo, hi = self._window(start, end, margin)
        while hi - lo < min(MIN_PROBES, len(self.took)):
            margin *= 2
            lo, hi = self._window(start, end, margin)
        return sum(self.took[lo:hi]) / (hi - lo)

    def inside_s(self, start: float, end: float) -> float:
        """Seconds spent probing within ``[start, end]``."""
        lo, hi = self._window(start, end, 0.0)
        return sum(self.took[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at the reference speed,
        without the probes that ran inside it."""
        work = (end - start) - self.inside_s(start, end)
        return work * REFERENCE_PROBE_S / self.probe_s(start, end)
