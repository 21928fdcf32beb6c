"""Fault injection at the data-source boundary.

:class:`FaultyDataSource` wraps any :class:`~repro.connectors.connection.
DataSource` and consults a :class:`~repro.faults.plan.FaultPlan` before
every ``connect`` / ``execute`` / ``create_temp_table``, injecting the
planned errors, latency spikes, timeouts and connection deaths. It keeps
the inner source's ``name`` so cache keys, pool stats and events are
indistinguishable from the healthy system's — only the failures are new.

Timeouts are *modeled*, not enforced with alarms: an injected latency is
slept on the wrapper's clock (virtual in tests) and compared against the
connector's ``timeout_s``; breaching it raises
:class:`~repro.errors.SourceTimeoutError` after sleeping only the
timeout, exactly like a client-side statement timeout would behave.
"""

from __future__ import annotations

from typing import Any

from .. import obs
from ..clock import SYSTEM_CLOCK, Clock
from ..connectors.connection import Connection
from ..datatypes import LogicalType
from ..errors import ConnectionDiedError, SourceTimeoutError
from ..tde.storage.table import Table
from .plan import FaultDecision, FaultPlan


class FaultyDataSource:
    """A data source whose calls can fail according to a FaultPlan."""

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        *,
        clock: Clock = SYSTEM_CLOCK,
        timeout_s: float | None = None,
    ):
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.timeout_s = timeout_s
        self.name = inner.name
        self.dialect = inner.dialect
        self.query_language = inner.query_language
        #: Never inherited (``__getattr__`` would leak the inner source's
        #: value): injected latency and timeouts are slept, like a remote
        #: wait, so concurrent submission still pays off.
        self.in_process = False
        self.injected = 0
        if plan.clock is None:
            plan.clock = self.clock

    # ------------------------------------------------------------------ #
    def _apply(self, op: str) -> None:
        """Realize the plan's decision for one call (may raise/sleep)."""
        decision = self.plan.decide(op, self.name)
        if decision.clean:
            return
        self.injected += 1
        obs.counter("fault.injected").inc()
        if obs.events_enabled():
            obs.event(
                "fault.injected",
                decision.kind,
                f"fault plan injected {decision.kind} into {op} against "
                f"{self.name}"
                + (
                    f" (latency {decision.latency_s * 1000.0:.1f}ms)"
                    if decision.latency_s
                    else ""
                ),
                op=op,
                source=self.name,
                latency_s=round(decision.latency_s, 6),
            )
        self._realize(decision, op)

    def _realize(self, decision: FaultDecision, op: str) -> None:
        if decision.kind == "latency":
            budget = self.timeout_s
            if budget is not None and decision.latency_s > budget:
                self.clock.sleep(budget)
                raise SourceTimeoutError(
                    f"injected latency {decision.latency_s:.3f}s exceeded the "
                    f"{budget:.3f}s timeout on {op} against {self.name}",
                    timeout_s=budget,
                )
            self.clock.sleep(decision.latency_s)
            return
        if decision.kind == "timeout":
            self.clock.sleep(
                self.timeout_s if self.timeout_s is not None else decision.latency_s
            )
            raise SourceTimeoutError(
                f"injected timeout on {op} against {self.name}",
                timeout_s=self.timeout_s,
            )
        error = decision.to_error(op, self.name)
        assert error is not None
        raise error

    # ------------------------------------------------------------------ #
    def connect(self) -> Connection:
        self._apply("connect")
        inner_conn = self.inner.connect()
        return Connection(self, _FaultDriver(self, inner_conn))

    def schema_of(self, table: str) -> dict[str, LogicalType]:
        return self.inner.schema_of(table)

    def table_names(self) -> list[str]:
        names = getattr(self.inner, "table_names", None)
        return names() if names is not None else []

    def __getattr__(self, item: str) -> Any:
        # Transparent for source-specific extras (e.g. SimDb's .db).
        return getattr(self.inner, item)


class _FaultDriver:
    """Driver that injects faults around an inner Connection's calls."""

    def __init__(self, source: FaultyDataSource, inner_conn: Connection):
        self.source = source
        self.inner_conn = inner_conn

    def _guard(self, op: str) -> None:
        try:
            self.source._apply(op)
        except ConnectionDiedError:
            # A death severs the remote session, not just this statement.
            self.inner_conn.close()
            raise

    def execute(self, text: str) -> Table:
        self._guard("execute")
        return self.inner_conn.execute(text)

    def create_temp_table(self, name: str, table: Table) -> None:
        self._guard("create_temp_table")
        self.inner_conn.create_temp_table(name, table)

    def drop_temp_table(self, name: str) -> None:
        self.inner_conn.drop_temp_table(name)

    def close(self) -> None:
        self.inner_conn.close()
