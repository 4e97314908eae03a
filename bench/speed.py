"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed changes within seconds:
the same work can take 1.5 times as long a moment later.  A fixed
pure-Python loop, the reference slice, slows down with it.  ``Meter``
interleaves such slices with the measured work in the same process, so
each stretch of work is compared with the host's speed right after it.

A reference slice never calls srpowers, so no change to the program can
move it.
"""

from __future__ import annotations

import os
import signal
import time

REF_LOOPS = 20_000  # iterations of one reference slice
REF_NOMINAL_S = 0.05  # one reference slice at the nominal host speed
TICK_S = 0.4  # work between two reference slices


def reference_slice() -> float:
    """Seconds for a fixed loop over tuples, sorting, frozensets and
    dicts, the kind of work srpowers spends its time on."""
    t0 = time.perf_counter()
    seen: dict = {}
    acc = 0
    for i in range(REF_LOOPS):
        t = tuple(sorted(((i * 7919) ^ (j * 104729)) & 1023 for j in range(8)))
        fs = frozenset(t)
        seen[fs] = seen.get(fs, 0) + 1
        acc ^= hash(t) & 0xFFFF
        if len(seen) > 5000:
            seen.clear()
    return time.perf_counter() - t0


def _signal_all(pids: list[int], sig: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, sig)
        except ProcessLookupError:  # it has just ended
            pass


class Meter:
    """Times work in quanta of about TICK_S seconds, each followed by a
    reference slice run from a SIGALRM handler.  The process's child
    processes (pool workers) are stopped during the slice, so the slice
    has the host to itself and the workers' time excludes it.

    ``work_s`` is the work's elapsed time without the slices;
    ``scaled_s`` is the sum of each quantum times REF_NOMINAL_S over the
    slice after it: the work's time at the nominal host speed."""

    def __init__(self) -> None:
        self.quanta: list[tuple[float, float]] = []
        self._since = 0.0

    def __enter__(self) -> "Meter":
        signal.signal(signal.SIGALRM, self._tick)
        self._since = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._measure()

    def _tick(self, *_) -> None:
        self._measure()
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def _measure(self) -> None:
        work = time.perf_counter() - self._since
        import multiprocessing  # here, so that set-ups do not pay for it

        pids = [p.pid for p in multiprocessing.active_children()]
        _signal_all(pids, signal.SIGSTOP)
        try:
            ref = reference_slice()
        finally:
            _signal_all(pids, signal.SIGCONT)
        self.quanta.append((work, ref))
        self._since = time.perf_counter()

    @property
    def work_s(self) -> float:
        return sum(w for w, _ in self.quanta)

    @property
    def scaled_s(self) -> float:
        return sum(w * REF_NOMINAL_S / r for w, r in self.quanta)
