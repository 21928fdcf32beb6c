"""Single-flight query coalescing for herd traffic (paper 3.2).

"The user-generated traffic is saturated by initial load requests, as
many viewers just read content with the initial state of a dashboard and
make further interactions rarely." The caches only help *after* the
first query completes: N concurrent identical requests all miss and all
execute. This module closes that window.

A :class:`SingleFlightRegistry` tracks queries that are in flight right
now, keyed by spec canonical form. The first thread to ask for a key
becomes the **leader** and executes normally; any thread that asks for
the same key while the leader is running becomes a **follower** and
waits on the leader's published result instead of going remote.
Coalescing is also **subsumption-aware**: a follower whose spec is
derivable from an in-flight leader's spec (proved by
:func:`~repro.core.cache.intelligent.match_specs`, the same proof the
intelligent cache uses) waits on that leader and answers locally with
post-ops — the in-flight generalization of a semantic cache hit.

Failure semantics are deliberately conservative: a leader publishes only
*fresh* results. When the leader fails (or degrades to a stale serve),
followers receive the :class:`~repro.errors.SourceError` and then retry
or degrade **independently** — no follower inherits a stale flag it did
not earn from its own stale store.

Waits run on real ``threading.Event`` primitives (followers genuinely
block while another thread works) but wait *durations* are read off the
injectable :class:`~repro.clock.Clock`, so replayed virtual-time
runs report deterministic timings. Every decision lands in the
``obs.events`` ring as a ``coalesce.*`` event and in the
``coalesce.wait_s`` histogram.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .. import obs
from ..clock import SYSTEM_CLOCK, Clock
from ..errors import SourceError, SourceUnavailableError
from ..queries.postops import PostOp
from ..queries.spec import QuerySpec
from .cache.intelligent import match_specs


class CoalesceTimeoutError(SourceUnavailableError):
    """A follower's wait on an in-flight leader exceeded the timeout."""


class Flight:
    """One in-flight execution: the leader's promise to its followers."""

    __slots__ = ("spec", "key", "followers", "_done", "_table", "_error", "ctx")

    def __init__(self, spec: QuerySpec):
        self.spec = spec
        self.key = spec.canonical()
        self.followers = 0
        self._done = threading.Event()
        self._table = None
        self._error: SourceError | None = None
        #: The leader request's TraceContext (None while tracing is off):
        #: followers link their coalesce wait to the trace that actually
        #: ran the query, so the critical-path analyzer can descend into
        #: the leader's backend fetch.
        self.ctx = None

    def _resolve(self, table, error: SourceError | None) -> None:
        self._table = table
        self._error = error
        self._done.set()


@dataclass(frozen=True)
class WaitOutcome:
    """What a follower's wait produced.

    Exactly one of ``table`` / ``error`` is set; ``waited_s`` is read off
    the registry's clock (0.0 under a virtual clock that nobody advances,
    which keeps replays deterministic).
    """

    table: object | None
    error: SourceError | None
    waited_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class JoinTicket:
    """A follower's claim on an in-flight leader.

    ``post_ops`` is empty for an exact (same-canonical) join and carries
    the local derivation plan for a subsumption join.
    """

    flight: Flight = field(repr=False)
    post_ops: tuple[PostOp, ...] = ()
    leader_key: str = ""
    subsumed: bool = False

    def wait(self, timeout_s: float | None, *, clock: Clock = SYSTEM_CLOCK) -> WaitOutcome:
        started = clock.monotonic()
        completed = self.flight._done.wait(timeout_s)
        waited = clock.monotonic() - started
        if not completed:
            return WaitOutcome(
                None,
                CoalesceTimeoutError(
                    f"coalesced wait on leader {self.leader_key!r} timed out "
                    f"after {timeout_s}s"
                ),
                waited,
            )
        return WaitOutcome(self.flight._table, self.flight._error, waited)


@dataclass
class CoalesceStats:
    """Registry-lifetime accounting (reads are approximate under load)."""

    leads: int = 0
    exact_joins: int = 0
    subsumed_joins: int = 0
    published: int = 0
    failed: int = 0

    @property
    def joins(self) -> int:
        return self.exact_joins + self.subsumed_joins


class SingleFlightRegistry:
    """In-flight query index for one data source.

    One registry per source: a :class:`~repro.server.vizserver.VizServer`
    shares a single registry across all its nodes' pipelines so a herd
    of identical initial loads is deduplicated cluster-wide, not just
    per node.
    """

    def __init__(self, name: str = "", *, clock: Clock = SYSTEM_CLOCK):
        self.name = name
        self.clock = clock
        self._flights: dict[str, Flight] = {}
        self._lock = threading.Lock()
        self.stats = CoalesceStats()

    # ------------------------------------------------------------------ #
    # Leader / follower resolution
    # ------------------------------------------------------------------ #
    def lead_or_join(
        self,
        spec: QuerySpec,
        *,
        subsume: bool = True,
        exclude: frozenset[str] = frozenset(),
    ) -> tuple[Flight | None, JoinTicket | None]:
        """Atomically become the leader for ``spec`` or join one in flight.

        Returns ``(flight, None)`` when the caller is now the leader and
        *must* eventually call :meth:`publish` or :meth:`fail` on the
        flight, or ``(None, ticket)`` when an in-flight leader (exact or
        subsuming) already covers the spec. ``exclude`` lists leader keys
        the caller refuses to join — a batch passes its *own* flights so
        intra-batch derivation stays with the (non-blocking) batch graph
        and coalescing only ever waits on other requests.
        """
        key = spec.canonical()
        with self._lock:
            flight = self._flights.get(key)
            # An exact match joins even when excluded: the only way a
            # caller meets its own key is a duplicate spec, and joining
            # one's own flight is safe (leaders publish before waiting)
            # while re-leading the same key would orphan the first flight.
            if flight is not None:
                flight.followers += 1
                self.stats.exact_joins += 1
                ticket = JoinTicket(flight, (), flight.key, False)
            else:
                ticket = None
                if subsume:
                    for candidate in self._flights.values():
                        if candidate.key in exclude:
                            continue
                        match = match_specs(candidate.spec, spec)
                        if match is not None:
                            candidate.followers += 1
                            self.stats.subsumed_joins += 1
                            ticket = JoinTicket(
                                candidate, match.post_ops, candidate.key, True
                            )
                            break
                if ticket is None:
                    flight = Flight(spec)
                    if obs.enabled():
                        flight.ctx = obs.current_trace_context()
                    self._flights[key] = flight
                    self.stats.leads += 1
        if ticket is not None:
            obs.counter("coalesce.joins").inc()
            if obs.events_enabled():
                obs.event(
                    "coalesce.join",
                    "subsumed" if ticket.subsumed else "exact",
                    (
                        "spec is derivable from the in-flight leader "
                        f"{ticket.leader_key!r}; waiting on its result and "
                        "answering locally with post-ops"
                        if ticket.subsumed
                        else "an identical query is already in flight; "
                        "waiting on the leader's result instead of executing"
                    ),
                    spec=key,
                    leader=ticket.leader_key,
                )
            return None, ticket
        obs.counter("coalesce.leads").inc()
        if obs.events_enabled():
            obs.event(
                "coalesce.lead",
                "leader",
                "no in-flight query covers this spec; executing as leader",
                spec=key,
            )
        return flight, None

    def peek(self, spec: QuerySpec) -> JoinTicket | None:
        """Would ``spec`` coalesce right now? (EXPLAIN's view; no joining.)"""
        key = spec.canonical()
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                return JoinTicket(flight, (), flight.key, False)
            for candidate in self._flights.values():
                match = match_specs(candidate.spec, spec)
                if match is not None:
                    return JoinTicket(candidate, match.post_ops, candidate.key, True)
        return None

    # ------------------------------------------------------------------ #
    # Leader completion
    # ------------------------------------------------------------------ #
    def publish(self, flight: Flight, table) -> int:
        """Leader succeeded: hand ``table`` to every waiting follower.

        Returns the number of followers that were waiting (accounting
        only — late joiners that raced completion still get the result).
        """
        followers = self._finish(flight, table, None)
        self.stats.published += 1
        if obs.events_enabled() and followers:
            obs.event(
                "coalesce.publish",
                "shared",
                f"leader finished; {followers} coalesced follower(s) share "
                "this one execution",
                spec=flight.key,
                followers=followers,
            )
        return followers

    def fail(self, flight: Flight, error: SourceError) -> int:
        """Leader failed (or degraded): propagate ``error`` to followers.

        Followers then retry or degrade on their own — the registry never
        shares stale or failed results.
        """
        followers = self._finish(flight, None, error)
        self.stats.failed += 1
        if obs.events_enabled():
            obs.event(
                "coalesce.leader_failed",
                "propagated",
                f"leader failed ({type(error).__name__}: {error}); "
                f"{followers} follower(s) will retry or degrade independently",
                spec=flight.key,
                followers=followers,
            )
        return followers

    def _finish(self, flight: Flight, table, error: SourceError | None) -> int:
        with self._lock:
            # Remove before resolving so a post-completion caller starts a
            # fresh flight instead of joining a finished one.
            current = self._flights.get(flight.key)
            if current is flight:
                del self._flights[flight.key]
            followers = flight.followers
        flight._resolve(table, error)
        return followers

    # ------------------------------------------------------------------ #
    def in_flight(self) -> int:
        with self._lock:
            return len(self._flights)

    def snapshot(self) -> dict:
        """Operator view: live flights plus lifetime stats."""
        with self._lock:
            flights = {key: f.followers for key, f in self._flights.items()}
        return {
            "name": self.name,
            "in_flight": flights,
            "leads": self.stats.leads,
            "exact_joins": self.stats.exact_joins,
            "subsumed_joins": self.stats.subsumed_joins,
            "published": self.stats.published,
            "failed": self.stats.failed,
        }
