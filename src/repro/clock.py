"""The one clock: real time, or deterministic virtual time.

Every component that reads time takes a :class:`Clock` from its owner
(server → pipeline → executor, caches, pool, stale store, coalescer;
``obs`` tracers and event logs) and reads ``clock.monotonic()``. Retry
delays, breaker recovery windows, modeled round trips and injected
latency spikes sleep on the same object, so a test (or a replayed
failure schedule) can run on :class:`VirtualTimeClock` and finish in
microseconds while producing *exactly* the same timeline on every run.
The production default is :data:`SYSTEM_CLOCK`.

This module sits at the bottom of the package order and imports only the
standard library; no other module reads ``time`` itself.
"""

from __future__ import annotations

import threading
import time
from typing import Protocol


class Clock(Protocol):
    """What a time-reading component needs from a clock."""

    def monotonic(self) -> float:  # pragma: no cover - protocol
        ...

    def sleep(self, seconds: float) -> None:  # pragma: no cover - protocol
        ...


class SystemClock:
    """Wall-clock time; ``sleep`` really sleeps."""

    #: The builtin itself (a builtin does not bind as a method), so a
    #: read on the system clock adds no Python frame to a hot path.
    monotonic = time.monotonic

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualTimeClock:
    """A thread-safe virtual clock where sleeping *is* advancing.

    ``sleep`` advances the clock instead of blocking, so a scripted
    failure schedule (including every backoff wait) replays in constant
    real time. ``advance`` moves time without a sleeper (e.g. to expire a
    breaker's recovery window or an idle connection).
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(max(seconds, 0.0))

    def advance(self, seconds: float) -> float:
        with self._lock:
            self._now += seconds
            return self._now


#: The default every ``clock: Clock = SYSTEM_CLOCK`` parameter takes.
SYSTEM_CLOCK = SystemClock()
