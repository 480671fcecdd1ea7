"""Host-speed reference: scales measured times to one nominal host speed.

The shared host this benchmark runs on switches between a fast and a
slow state (about 1.6x apart) every few seconds, and drifts by up to a
factor of two within minutes, so raw seconds of the same work spread
more between runs than any useful regression bound.  The benchmark
therefore times short slices of a fixed reference loop while it
measures, and reports each time scaled to a host on which one slice
takes ``REFERENCE_S``:

    scaled = seconds * REFERENCE_S / mean(slice seconds during the interval)

A :class:`Meter` times one slice just before and one just after the
interval, and one slice every ``PERIOD_S`` of CPU time inside it, from
a ``SIGPROF`` timer; the slices inside are taken out of the interval's
seconds.  Sampling inside the interval tracks a switch of host state in
the middle of a cell, which slices only at its ends miss.

The loop is pure Python shaped like the program's discrete-event core
(a heap of timestamped callbacks, closures, dict state, float math and
an append-only history) and calls nothing of the program, so a faster
or slower program moves the scaled times and a faster or slower host
does not.  Raw seconds are printed next to every scaled metric.

Start-up time of a fresh process follows the host's process-spawn and
page-fault cost more than its Python speed, which slices do not track.
It is scaled by :func:`startup` instead, the start-up time of a
reference interpreter that imports numpy (the program's one
third-party dependency) and nothing of the program.
"""

from __future__ import annotations

import gc
import heapq
import math
import signal
import statistics
import subprocess
import sys
import time

#: Events of one slice of the reference loop.
REFERENCE_EVENTS = 10_000
#: Seconds one slice takes on the nominal host (about the tuning host,
#: a 2-core x86 container with py3.11, in its fast state).
REFERENCE_S = 0.0125
#: CPU seconds between two slices inside a metered interval.
PERIOD_S = 0.2
#: Seconds from spawning the reference interpreter to its ready line on
#: the nominal host.
STARTUP_S = 0.2


def _loop(n: int) -> int:
    heap = []
    state = {}
    history = []

    def handler(key, t):
        entry = state.get(key)
        if entry is None:
            entry = state[key] = [0, 0.0]
        entry[0] += 1
        entry[1] += 10.0 * math.log10(1.0 + (t * 1e6) % 97.0)
        history.append((t, key, entry[0]))

    for seq in range(64):
        heapq.heappush(heap, (seq * 1e-6, seq, handler, seq % 7))
    seq = 64
    for done in range(1, n + 1):
        t, _, fn, key = heapq.heappop(heap)
        fn(key, t)
        heapq.heappush(heap, (t + 1e-6 * (1 + (done * 7919) % 13), seq, fn, (key + done) % 7))
        seq += 1
    return len(history)


def _slice() -> float:
    """Seconds of one slice.  The collector is off meanwhile: a
    collection the slice's allocations set off would traverse the
    program's heap and charge its size to the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop(REFERENCE_EVENTS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def startup() -> float:
    """Seconds from spawning the reference interpreter to its ready line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import numpy; print('ready', flush=True)"],
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().strip()
    seconds = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line != "ready":
        raise SystemExit("error: reference interpreter failed")
    return seconds


def factor(slice_seconds: float) -> float:
    """Scale for a time taken while a slice took ``slice_seconds``."""
    return REFERENCE_S / slice_seconds


class Meter:
    """Times one interval (a ``with`` block) and the host speed during it.

    After the block, ``seconds`` is its wall time without the slices
    taken inside it, and ``scale`` the factor to the nominal host.  With
    ``sampling`` off only the slices before and after are taken, so
    nothing runs inside the block (traced passes, whose layer times
    must not include slices).
    """

    def __init__(self, sampling: bool = True) -> None:
        self.sampling = sampling
        self.seconds = 0.0
        self.scale = 1.0
        self._slices = []
        self._inside = 0.0
        self._open = False
        self._previous = None
        self._t0 = 0.0

    def _tick(self, signum, frame) -> None:
        if self._open:
            t0 = time.perf_counter()
            self._slices.append(_slice())
            self._inside += time.perf_counter() - t0

    def __enter__(self) -> "Meter":
        self._slices = [_slice()]
        self._inside = 0.0
        if self.sampling:
            self._previous = signal.signal(signal.SIGPROF, self._tick)
            signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        self._open = True
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        # Close first: a tick still pending after this takes no slice.
        self._open = False
        elapsed = time.perf_counter() - self._t0
        if self.sampling:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, self._previous)
        self.seconds = elapsed - self._inside
        self._slices.append(_slice())
        self.scale = factor(statistics.mean(self._slices))
        return False
