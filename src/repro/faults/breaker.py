"""A circuit breaker for data-source connections.

Repeated transient failures against one source mean more retries can
only add load and latency; the breaker converts them into fast, cheap
rejections (:class:`~repro.errors.CircuitOpenError`) that the pipeline
turns into stale serves or per-zone errors instead of whole-dashboard
failures.

States follow the classic machine:

* **closed** — calls flow; ``failure_threshold`` consecutive failures
  trip it open.
* **open** — calls are rejected without touching the source until
  ``recovery_s`` has elapsed on the breaker's clock.
* **half-open** — one probe call is admitted and the rest rejected;
  a success closes the breaker, a failure re-opens it (and restarts the
  recovery window).

Thread-safe; every transition is emitted as a ``breaker.*`` decision
event with the reason, so recordings show why requests were rejected.
"""

from __future__ import annotations

import threading

from .. import obs
from ..clock import SYSTEM_CLOCK, Clock
from ..errors import CircuitOpenError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker over an injectable clock."""

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        recovery_s: float = 30.0,
        clock: Clock = SYSTEM_CLOCK,
        name: str = "",
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self.clock = clock
        self.name = name
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._lock = threading.Lock()
        self.trips = 0
        self.rejections = 0
        #: TraceContext of the request whose failure tripped the breaker
        #: (None while tracing is off). Rejected requests link to it:
        #: their fast-fail latency was inherited from that trace's outage.
        self._opened_by = None

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        # Caller holds the lock.
        if (
            self._state == OPEN
            and self.clock.monotonic() - self._opened_at >= self.recovery_s
        ):
            self._state = HALF_OPEN
            if obs.events_enabled():
                obs.event(
                    "breaker.half_open",
                    "probing",
                    f"recovery window of {self.recovery_s:.1f}s elapsed: "
                    "admitting one probe call",
                    breaker=self.name,
                )

    # ------------------------------------------------------------------ #
    def admit(self) -> None:
        """Gate one call; raises :class:`CircuitOpenError` when rejected."""
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return
            if self._state == HALF_OPEN:
                if not self._probing:
                    self._probing = True
                    return
                self.rejections += 1
                raise CircuitOpenError(
                    f"circuit {self.name or 'breaker'} is half-open and its "
                    "probe is in flight"
                )
            self.rejections += 1
            remaining = self.recovery_s - (self.clock.monotonic() - self._opened_at)
            if obs.enabled():
                span = obs.current_span()
                if span is not None and span.trace_id:
                    span.add_link(
                        "breaker.opened_by", self._opened_by, breaker=self.name
                    )
            obs.counter("breaker.rejections").inc()
            if obs.events_enabled():
                obs.event(
                    "breaker.rejected",
                    "rejected",
                    f"circuit open: failing fast for another {remaining:.2f}s "
                    "instead of loading a failing source",
                    breaker=self.name,
                )
            raise CircuitOpenError(
                f"circuit {self.name or 'breaker'} is open "
                f"(retry in {max(remaining, 0.0):.2f}s)",
                retry_after_s=max(remaining, 0.0),
            )

    def record_success(self) -> None:
        with self._lock:
            was = self._state
            self._failures = 0
            if was == HALF_OPEN:
                self._probing = False
                self._state = CLOSED
                if obs.events_enabled():
                    obs.event(
                        "breaker.closed",
                        "recovered",
                        "half-open probe succeeded: source is healthy again",
                        breaker=self.name,
                    )
            elif was == OPEN:
                # A success while open can only come from a call admitted
                # before the trip; it does not prove recovery.
                return

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state == HALF_OPEN:
                self._trip("half-open probe failed: source is still unhealthy")
                return
            if self._state == OPEN:
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._trip(
                    f"{self._failures} consecutive failures reached the "
                    f"threshold of {self.failure_threshold}"
                )

    def _trip(self, reason: str) -> None:
        # Caller holds the lock.
        self._state = OPEN
        self._opened_by = obs.current_trace_context() if obs.enabled() else None
        self._opened_at = self.clock.monotonic()
        self._probing = False
        self._failures = 0
        self.trips += 1
        obs.counter("breaker.trips").inc()
        if obs.events_enabled():
            obs.event(
                "breaker.open",
                "tripped",
                f"{reason}; rejecting calls for {self.recovery_s:.1f}s",
                breaker=self.name,
            )

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "name": self.name,
                "state": self._state,
                "failures": self._failures,
                "trips": self.trips,
                "rejections": self.rejections,
            }
