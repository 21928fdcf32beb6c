"""The decision-event log: *why* the system did what it did.

Spans and metrics (PR 1) answer *where the time went*; this module
answers *why*. Every optimizer-like component on the hot path — the
intelligent cache's subsumption prover, the literal cache, eviction, the
query fuser, the prefetcher, the connection pool — emits a typed
:class:`DecisionEvent` describing the decision it took and the
human-readable reason, so a :class:`~repro.obs.recording.PerformanceRecording`
tells the full story of a slow (or fast) request: missed cache because
the provider was truncated, un-fused batch because filters differed,
evicted entry because its retention score ranked last, and so on.

Design constraints mirror the tracer's:

* **Free when off.** The default log is :data:`NULL_EVENTS`, whose
  ``emit`` discards everything without allocating; the module-level
  :func:`repro.obs.event` helper dispatches to it. Components that must
  *compute* a reason string guard the computation behind
  :func:`repro.obs.events_enabled`.
* **Bounded.** Live logs are ring buffers (``maxlen`` events, default
  4096): a long soak cannot exhaust memory, and the most recent —
  diagnostic — window always survives.
* **Deterministic export.** Events carry a monotonically increasing
  sequence number assigned under the log's lock, so exports are stably
  ordered even when emitted from concurrent executor workers.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..clock import SYSTEM_CLOCK, Clock


@dataclass(frozen=True)
class DecisionEvent:
    """One recorded decision: what was decided, about what, and why."""

    seq: int
    t_s: float
    kind: str  # dotted component.decision, e.g. "cache.subsumption"
    outcome: str  # short verdict, e.g. "accept" / "reject" / "evict"
    reason: str  # human-readable explanation
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "t_s": self.t_s,
            "kind": self.kind,
            "outcome": self.outcome,
            "reason": self.reason,
            "attributes": dict(self.attributes),
        }

    def __str__(self) -> str:
        attrs = " ".join(
            f"{k}={v}" for k, v in self.attributes.items() if not isinstance(v, (dict, list))
        )
        base = f"[{self.kind}] {self.outcome}: {self.reason}"
        return f"{base}  {attrs}" if attrs else base


class EventLog:
    """A bounded, thread-safe ring buffer of :class:`DecisionEvent`."""

    enabled = True

    def __init__(self, maxlen: int = 4096, clock: Clock = SYSTEM_CLOCK):
        self.clock = clock
        self._events: deque[DecisionEvent] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._seq = 0
        self.dropped = 0  # events rotated out of the ring

    # ------------------------------------------------------------------ #
    def emit(self, kind: str, outcome: str, reason: str, **attributes: Any) -> None:
        """Record one decision; cheap enough for per-lookup call sites."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(
                DecisionEvent(seq, self.clock.monotonic(), kind, outcome, reason, attributes)
            )

    # ------------------------------------------------------------------ #
    def cursor(self) -> int:
        """The next sequence number — pass to ``events(since_seq=...)``."""
        with self._lock:
            return self._seq

    def events(
        self,
        kind: str | None = None,
        *,
        outcome: str | None = None,
        since_seq: int | None = None,
    ):
        """Events in emission order, optionally filtered.

        ``kind`` matches exactly, or as a dotted prefix (``"cache"``
        selects ``cache.subsumption``, ``cache.evict``, ...).

        With ``since_seq`` this is an **incremental cursor drain**: only
        events with ``seq >= since_seq`` are returned, paired with the
        next cursor, so exporters and the slow-query log stop rescanning
        the whole ring::

            events, cursor = log.events(since_seq=cursor)

        Events that rotated out of the ring before the drain are simply
        gone (the ``dropped`` counter accounts for them).
        """
        with self._lock:
            snapshot = list(self._events)
            next_cursor = self._seq
        out = []
        for ev in snapshot:
            if since_seq is not None and ev.seq < since_seq:
                continue
            if kind is not None and ev.kind != kind and not ev.kind.startswith(kind + "."):
                continue
            if outcome is not None and ev.outcome != outcome:
                continue
            out.append(ev)
        if since_seq is not None:
            return out, next_cursor
        return out

    def kinds(self) -> dict[str, int]:
        """Event counts by kind (the summary row of a recording)."""
        counts: dict[str, int] = {}
        with self._lock:
            snapshot = list(self._events)
        for ev in snapshot:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return dict(sorted(counts.items()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterable[DecisionEvent]:
        return iter(self.events())

    def to_list(self) -> list[dict[str, Any]]:
        return [ev.to_dict() for ev in self.events()]

    def reset(self) -> None:
        with self._lock:
            self._events.clear()
            self._seq = 0
            self.dropped = 0


class NullEventLog:
    """The default log: emission is a shared no-op, queries are empty."""

    enabled = False
    dropped = 0

    def emit(self, kind: str, outcome: str, reason: str, **attributes: Any) -> None:
        pass

    def cursor(self) -> int:
        return 0

    def events(
        self,
        kind: str | None = None,
        *,
        outcome: str | None = None,
        since_seq: int | None = None,
    ):
        if since_seq is not None:
            return [], 0
        return []

    def kinds(self) -> dict[str, int]:
        return {}

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    def to_list(self) -> list:
        return []

    def reset(self) -> None:
        pass


NULL_EVENTS = NullEventLog()
