"""Connection pooling with age-wise eviction (paper 3.5).

"The process of opening a connection, retrieving configuration information
and metadata are costly, therefore, connections are pooled and kept around
even if idle. In addition, connection pooling plays an important role in
preserving and reusing temporary structures stored in remote sessions. ...
An age-wise eviction policy is used in case of local memory pressure or to
release remote resources unused for longer periods of time."

Checked-out connections are multiplexed across callers "regardless of
their remote state": acquire() prefers a connection that already has the
requested temporary structure, falling back to any idle one, and finally
opening a new one up to the pool's limit.

Robustness: an optional :class:`~repro.faults.breaker.CircuitBreaker`
gates ``acquire`` — when the source keeps failing, callers are rejected
fast with :class:`~repro.errors.CircuitOpenError` instead of piling
retries onto a sick backend. Callers report query failures through
``release(conn, failed=True)`` (or ``discard``), which closes the member
(pool-member death) and feeds the breaker.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from .. import obs
from ..clock import SYSTEM_CLOCK, Clock
from ..errors import SourceError, TransientSourceError
from .connection import Connection, DataSource


class PoolStats:
    def __init__(self) -> None:
        self.opened = 0
        self.reused = 0
        self.evicted = 0
        self.wait_events = 0
        self.discarded = 0
        self.connect_failures = 0


class ConnectionPool:
    """A bounded pool of connections to one data source."""

    def __init__(
        self,
        source: DataSource,
        *,
        max_connections: int = 8,
        idle_ttl_s: float = 300.0,
        breaker=None,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.source = source
        self.max_connections = max_connections
        self.idle_ttl_s = idle_ttl_s
        self.breaker = breaker
        self.clock = clock
        self.stats = PoolStats()
        self._idle: list[Connection] = []
        self._busy: set[Connection] = set()
        self._opening = 0  # slots reserved by in-flight connect() calls
        self._lock = threading.Condition()
        self._closed = False
        #: id(conn) -> TraceContext of the current / most recent holder.
        #: Populated only while tracing is on; a caller that *blocked*
        #: for a connection links ``pool.waited_behind`` to the request
        #: it queued behind, so pool contention is causally attributed.
        self._holders: dict[int, object] = {}
        self._last_holder: dict[int, object] = {}

    # ------------------------------------------------------------------ #
    def acquire(self, *, prefer_temp_table: str | None = None) -> Connection:
        """Check out a connection, opening one if needed.

        ``prefer_temp_table`` selects an idle connection whose remote
        session already holds that temporary structure, avoiding a
        re-creation round trip (paper 3.5: "popular temporary structures
        will be duplicated in several connections", so preference — not a
        guarantee — is the right contract).
        """
        if self.breaker is not None:
            self.breaker.admit()  # raises CircuitOpenError when open
        wait_started: float | None = None
        with self._lock:
            while True:
                if self._closed:
                    raise SourceError("pool is closed")
                conn = self._pick_idle(prefer_temp_table)
                if conn is not None:
                    self._busy.add(conn)
                    self.stats.reused += 1
                    if obs.enabled():
                        self._note_checkout(conn, waited=wait_started is not None)
                    if prefer_temp_table is not None and conn.has_temp_table(
                        prefer_temp_table
                    ):
                        reason = (
                            f"idle connection already holds temp table "
                            f"{prefer_temp_table!r}: reusing its remote session"
                        )
                    elif prefer_temp_table is not None:
                        reason = (
                            f"reused an idle connection (none held temp table "
                            f"{prefer_temp_table!r}; it must be re-created)"
                        )
                    else:
                        reason = "reused an idle connection"
                    self._record_acquire("reused", wait_started, reason)
                    return conn
                if (
                    len(self._busy) + len(self._idle) + self._opening
                    < self.max_connections
                ):
                    self._opening += 1  # reserve the slot across connect()
                    break
                self.stats.wait_events += 1
                if wait_started is None:
                    wait_started = self.clock.monotonic()
                self._lock.wait()
        try:
            with obs.span("pool.connect", source=self.source.name):
                conn = self.source.connect()
        except SourceError:
            with self._lock:
                self._opening -= 1
                self.stats.connect_failures += 1
                self._lock.notify()  # the reserved slot is free again
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        with self._lock:
            self._opening -= 1
            self._busy.add(conn)
            self.stats.opened += 1
            if obs.enabled():
                self._note_checkout(conn, waited=False)
            self._record_acquire(
                "opened",
                wait_started,
                f"no idle connection available: opened a new one "
                f"({len(self._busy) + len(self._idle)}/{self.max_connections})",
            )
        return conn

    def _note_checkout(self, conn: Connection, *, waited: bool) -> None:
        """Trace bookkeeping at checkout (caller holds the lock, obs on)."""
        if waited:
            span = obs.current_span()
            if span is not None and span.trace_id:
                # The previous holder is why this caller queued: record
                # the causal edge (a no-op when that request ran untraced).
                span.add_link(
                    "pool.waited_behind",
                    self._last_holder.get(id(conn)),
                    source=self.source.name,
                )
        self._holders[id(conn)] = obs.current_trace_context()

    def _record_acquire(
        self, how: str, wait_started: float | None, reason: str
    ) -> None:
        obs.counter(f"pool.{how}").inc()
        waited = None
        if wait_started is not None:
            waited = self.clock.monotonic() - wait_started
            obs.histogram("pool.wait_s").observe(waited)
        if obs.events_enabled():
            if waited is not None:
                reason += f" after waiting {waited * 1000.0:.1f}ms for a slot"
            obs.event(
                "pool",
                how,
                reason,
                source=self.source.name,
                busy=len(self._busy),
                idle=len(self._idle),
            )

    def _pick_idle(self, prefer_temp_table: str | None) -> Connection | None:
        if not self._idle:
            return None
        if prefer_temp_table is not None:
            for i, conn in enumerate(self._idle):
                if conn.has_temp_table(prefer_temp_table):
                    return self._idle.pop(i)
        return self._idle.pop()

    def release(self, conn: Connection, *, failed: bool = False) -> None:
        """Return a connection; ``failed=True`` reports a query failure.

        A failed member is closed instead of going back to idle — its
        remote session state is suspect (the death may have severed it)
        — and the failure feeds the breaker. Healthy releases feed the
        breaker a success, resetting its consecutive-failure count.
        """
        if failed:
            self.discard(conn)
            return
        with self._lock:
            self._busy.discard(conn)
            if self._holders:
                self._last_holder[id(conn)] = self._holders.pop(id(conn), None)
            if conn.is_open and not self._closed:
                conn.last_used = self.clock.monotonic()
                self._idle.append(conn)
            self._lock.notify()
        if self.breaker is not None:
            self.breaker.record_success()

    def discard(self, conn: Connection) -> None:
        """Close and drop a (suspected dead) member, feeding the breaker."""
        with self._lock:
            self._busy.discard(conn)
            self._holders.pop(id(conn), None)
            self._last_holder.pop(id(conn), None)
            conn.close()
            self.stats.discarded += 1
            self._lock.notify()
        obs.counter("pool.discarded").inc()
        if obs.events_enabled():
            obs.event(
                "pool",
                "discarded",
                "connection failed mid-flight: closed instead of returning "
                "it to the pool (remote session state is suspect)",
                source=self.source.name,
            )
        if self.breaker is not None:
            self.breaker.record_failure()

    @contextmanager
    def connection(self, *, prefer_temp_table: str | None = None) -> Iterator[Connection]:
        """Check out a connection; transient failures discard the member."""
        conn = self.acquire(prefer_temp_table=prefer_temp_table)
        try:
            yield conn
        except TransientSourceError:
            self.release(conn, failed=True)
            raise
        except BaseException:
            # Non-transient errors (bad SQL, logic bugs) say nothing about
            # the member's health: return it without penalizing the source.
            self.release(conn)
            raise
        else:
            self.release(conn)

    # ------------------------------------------------------------------ #
    def evict_idle(self) -> int:
        """Close idle connections unused for longer than the TTL."""
        ttl = self.idle_ttl_s
        evicted = 0
        now = self.clock.monotonic()
        with self._lock:
            keep: list[Connection] = []
            for conn in self._idle:
                if now - conn.last_used > ttl:
                    if obs.events_enabled():
                        obs.event(
                            "pool",
                            "evicted",
                            f"idle for {now - conn.last_used:.1f}s, over the "
                            f"{ttl:.1f}s limit: closed to release remote "
                            f"resources",
                            source=self.source.name,
                        )
                    conn.close()
                    evicted += 1
                else:
                    keep.append(conn)
            self._idle = keep
            self.stats.evicted += evicted
        if evicted:
            obs.counter("pool.evicted").inc(evicted)
        return evicted

    def size(self) -> int:
        with self._lock:
            return len(self._idle) + len(self._busy)

    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for conn in self._idle:
                conn.close()
            self._idle.clear()
            self._holders.clear()
            self._last_holder.clear()
            self._lock.notify_all()
