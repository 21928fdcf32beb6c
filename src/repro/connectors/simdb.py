"""SimulatedDatabase: a small but real SQL server with modeled timing.

This substitutes for the paper's spectrum of remote backends (3.1, 3.5).
It actually parses and executes the SQL it receives (over the TDE's
storage and execution engine), while *timing* follows a configurable
profile so that the concurrency experiments reproduce real phenomena:

* a worker pool of W CPUs — concurrent queries queue once W is saturated;
* single-thread-per-query vs parallel-plan architectures
  (``per_query_parallelism``): "Many architectures use a single thread per
  query. That means that a serial execution of a query batch would leave a
  tremendous amount of processing power idle.";
* connection limits and admission throttling ("the database is likely to
  throttle them based on available resources or a hard-coded threshold");
* MARS-style single-connection concurrency vs one-statement-per-connection;
* session-local temporary tables, whose creation and rows cost modeled time.

Service times sleep inside worker threads, so wall-clock measurements of
concurrent workloads are physically meaningful even on a single-core host.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from .. import obs
from ..datatypes import LogicalType
from ..errors import ConnectionLimitError, SourceError, SqlError
from ..sql.dialects import ANSI, Capabilities
from ..sql.parser import (
    CreateTempTable,
    DropTable,
    InsertValues,
    SelectStatement,
    parse_statement,
)
from ..tde.engine import DataEngine
from ..tde.optimizer.cost import estimate_plan
from ..tde.optimizer.parallel import PlannerOptions
from ..tde.storage.table import Table
from ..tde.tql.plan import LogicalPlan, TableScan, transform_up
from .connection import Connection


#: Sessions one server accepts before refusing a connection.
MAX_CONNECTIONS = 32
#: Modeled cost of creating a temporary table, and of each row put in it.
TEMP_TABLE_OVERHEAD_S = 0.003
TEMP_TABLE_ROW_TIME_S = 2e-7


@dataclass(frozen=True)
class ServerProfile:
    """Architecture and timing profile of a simulated backend."""

    name: str = "ansi-server"
    dialect: Capabilities = ANSI
    workers: int = 4
    per_query_parallelism: int = 1
    max_concurrent_queries: int | None = None
    mars: bool = False
    connect_time_s: float = 0.004
    query_overhead_s: float = 0.002
    work_unit_time_s: float = 2e-8
    transfer_row_time_s: float = 2e-7
    time_scale: float = 1.0


#: Pre-canned profiles used by the experiments.
SERIAL_PER_QUERY = ServerProfile(name="serial-db", workers=4, per_query_parallelism=1)
PARALLEL_PLANS = ServerProfile(name="parallel-db", workers=4, per_query_parallelism=4)
THROTTLED = ServerProfile(name="throttled-db", workers=4, max_concurrent_queries=2)
MARS_SINGLE_CONN = ServerProfile(name="mars-db", workers=4, mars=True)


class ServerStats:
    """Thread-safe aggregate statistics for one server."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.queries = 0
        self.statements = 0
        self.rows_transferred = 0
        self.busy_seconds = 0.0
        self.temp_tables_created = 0
        self.peak_concurrency = 0
        self._inflight = 0

    def enter(self) -> None:
        with self._lock:
            self._inflight += 1
            self.peak_concurrency = max(self.peak_concurrency, self._inflight)

    def leave(self) -> None:
        with self._lock:
            self._inflight -= 1

    def record(self, **deltas) -> None:
        with self._lock:
            for key, delta in deltas.items():
                setattr(self, key, getattr(self, key) + delta)


class SimulatedDatabase:
    """One simulated server instance holding tables and sessions.

    It never fails on its own: faults are injected client-side, by
    wrapping its data source in a :class:`~repro.faults.FaultyDataSource`.
    """

    def __init__(self, name: str, profile: ServerProfile | None = None):
        self.name = name
        self.profile = profile or ServerProfile()
        # The inner engine runs serially; the *profile* decides how much
        # virtual parallelism the backend claims to have.
        self.engine = DataEngine(name, options=PlannerOptions(max_dop=1))
        self.stats = ServerStats()
        self._session_counter = 0
        self._connections = 0
        self._lock = threading.Lock()
        self._worker_slots = threading.Semaphore(self.profile.workers)
        self._admission = (
            threading.Semaphore(self.profile.max_concurrent_queries)
            if self.profile.max_concurrent_queries is not None
            else None
        )

    # ------------------------------------------------------------------ #
    # Loading (server-side, not timed)
    # ------------------------------------------------------------------ #
    def load_table(self, name: str, table: Table) -> None:
        self.engine.create_table(name, table, replace=True)

    def schema_of(self, table: str) -> dict[str, LogicalType]:
        return self.engine.table(table).schema()

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #
    def open_session(self) -> "SimSession":
        with self._lock:
            if self._connections >= MAX_CONNECTIONS:
                raise ConnectionLimitError(
                    f"{self.name}: connection limit {MAX_CONNECTIONS} reached"
                )
            self._connections += 1
            self._session_counter += 1
            session_id = self._session_counter
        self._sleep(self.profile.connect_time_s)
        return SimSession(self, session_id)

    def _release_session(self) -> None:
        with self._lock:
            self._connections -= 1

    @property
    def open_connections(self) -> int:
        return self._connections

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #
    def _sleep(self, seconds: float) -> None:
        scaled = seconds * self.profile.time_scale
        if scaled > 0:
            time.sleep(scaled)

    def service(self, cpu_seconds: float, overhead_s: float) -> float:
        """Hold worker slots for the duration of a query's CPU work.

        Acquires one slot (blocking — the queueing effect), then opportun-
        istically grabs up to ``per_query_parallelism - 1`` more; elapsed
        time is cpu / slots_held, mirroring how a parallel plan uses idle
        CPUs when they exist but degrades under concurrency.
        """
        self.stats.enter()
        queued = time.monotonic()
        try:
            if self._admission is not None:
                self._admission.acquire()
            try:
                self._worker_slots.acquire()
                obs.histogram("simdb.queue_wait_s").observe(time.monotonic() - queued)
                held = 1
                while held < self.profile.per_query_parallelism and self._worker_slots.acquire(
                    blocking=False
                ):
                    held += 1
                elapsed = overhead_s + cpu_seconds / held
                try:
                    self._sleep(elapsed)
                finally:
                    for _ in range(held):
                        self._worker_slots.release()
            finally:
                if self._admission is not None:
                    self._admission.release()
        finally:
            self.stats.leave()
        self.stats.record(busy_seconds=cpu_seconds + overhead_s)
        obs.histogram("simdb.service_s").observe(elapsed)
        return elapsed


class SimSession:
    """A server-side session: temp-table namespace + statement execution."""

    def __init__(self, db: SimulatedDatabase, session_id: int):
        self.db = db
        self.session_id = session_id
        self.temp_schema = f"sess{session_id}"
        self.temp_tables: dict[str, str] = {}  # client name -> qualified name
        self.closed = False
        self._statement_lock = None if db.profile.mars else threading.Lock()

    # ------------------------------------------------------------------ #
    def execute(self, sql: str) -> Table:
        if self.closed:
            raise SourceError("session closed")
        if self._statement_lock is not None:
            # One statement at a time per connection unless MARS.
            with self._statement_lock:
                return self._execute(sql)
        return self._execute(sql)

    def _execute(self, sql: str) -> Table:
        stmt = parse_statement(sql)
        self.db.stats.record(statements=1)
        if isinstance(stmt, SelectStatement):
            return self._select(stmt.plan)
        if isinstance(stmt, CreateTempTable):
            return self._create_temp(stmt)
        if isinstance(stmt, InsertValues):
            return self._insert(stmt)
        if isinstance(stmt, DropTable):
            self._drop(stmt.name)
            return Table({})
        raise SqlError(f"unsupported statement {type(stmt).__name__}")

    def _resolve(self, plan: LogicalPlan) -> LogicalPlan:
        mapping = dict(self.temp_tables)

        def fn(node: LogicalPlan) -> LogicalPlan:
            if isinstance(node, TableScan) and node.table in mapping:
                return TableScan(mapping[node.table])
            return node

        return transform_up(plan, fn)

    def _select(self, plan: LogicalPlan) -> Table:
        with obs.span("simdb.select", server=self.db.name) as sp:
            plan = self._resolve(plan)
            estimate = estimate_plan(plan, self.db.engine.catalog)
            cpu = estimate.cost * self.db.profile.work_unit_time_s
            with obs.span("simdb.service", server=self.db.name):
                # Queueing for worker slots + the modeled CPU burn: the
                # part of a backend query that contends, in its own span
                # so backend time splits into "service" vs row transfer.
                self.db.service(cpu, self.db.profile.query_overhead_s)
            result = self.db.engine.query(plan)
            transfer = result.n_rows * self.db.profile.transfer_row_time_s
            self.db._sleep(transfer)
            self.db.stats.record(queries=1, rows_transferred=result.n_rows)
            obs.counter("simdb.queries").inc()
            obs.counter("simdb.rows_transferred").inc(result.n_rows)
            sp.set(rows=result.n_rows)
        return result

    def _create_temp(self, stmt: CreateTempTable) -> Table:
        if not self.db.profile.dialect.supports_temp_tables:
            raise SourceError(f"{self.db.name} does not support temporary tables")
        qualified = f"{self.temp_schema}.{stmt.name.replace('.', '_')}"
        if stmt.plan is not None:
            table = self._select(stmt.plan)
        else:
            table = Table.from_pydict({name: [] for name, _t in stmt.columns or ()},
                                      types=dict(stmt.columns or ()))
        self.db._sleep(TEMP_TABLE_OVERHEAD_S)
        self.db.engine.create_table(qualified, table, replace=True)
        self.temp_tables[stmt.name] = qualified
        self.db.stats.record(temp_tables_created=1)
        return Table({})

    def _insert(self, stmt: InsertValues) -> Table:
        if stmt.name not in self.temp_tables:
            raise SourceError(f"unknown temp table {stmt.name}")
        qualified = self.temp_tables[stmt.name]
        existing = self.db.engine.table(qualified)
        names = existing.column_names
        data = {n: [row[i] for row in stmt.rows] for i, n in enumerate(names)}
        incoming = Table.from_pydict(data, types=existing.schema())
        merged = Table.concat([existing, incoming]) if existing.n_rows else incoming
        self.db._sleep(len(stmt.rows) * TEMP_TABLE_ROW_TIME_S)
        self.db.engine.create_table(qualified, merged, replace=True)
        return Table({})

    def bulk_load_temp(self, name: str, table: Table) -> None:
        """Driver-level temp-table load (models batched INSERT traffic)."""
        if not self.db.profile.dialect.supports_temp_tables:
            raise SourceError(f"{self.db.name} does not support temporary tables")
        qualified = f"{self.temp_schema}.{name.replace('.', '_')}"
        self.db._sleep(TEMP_TABLE_OVERHEAD_S + table.n_rows * TEMP_TABLE_ROW_TIME_S)
        self.db.engine.create_table(qualified, table, replace=True)
        self.temp_tables[name] = qualified
        self.db.stats.record(temp_tables_created=1, rows_transferred=table.n_rows)

    def _drop(self, name: str) -> None:
        if name in self.temp_tables:
            self.db.engine.drop_table(self.temp_tables.pop(name))

    def close(self) -> None:
        if not self.closed:
            for name in list(self.temp_tables):
                self._drop(name)
            self.closed = True
            self.db._release_session()


class _SimDbDriver:
    """Client-side driver wrapping a server session."""

    def __init__(self, session: SimSession):
        self.session = session

    def execute(self, text: str) -> Table:
        return self.session.execute(text)

    def create_temp_table(self, name: str, table: Table) -> None:
        self.session.bulk_load_temp(name, table)

    def drop_temp_table(self, name: str) -> None:
        self.session._drop(name)

    def close(self) -> None:
        self.session.close()


class SimDbDataSource:
    """Client-facing data source for a simulated server."""

    query_language = "sql"
    in_process = False  # a modeled remote server: callers wait, not compute

    def __init__(self, db: SimulatedDatabase):
        self.db = db
        self.name = db.name
        self.dialect = db.profile.dialect

    def connect(self) -> Connection:
        return Connection(self, _SimDbDriver(self.db.open_session()))

    def schema_of(self, table: str) -> dict[str, LogicalType]:
        return self.db.schema_of(table)

    def row_count(self, table: str) -> int:
        return self.db.engine.table(table).n_rows

    def table_names(self) -> list[str]:
        return [f"{s}.{t}" for s, t, _ in self.db.engine.database.iter_tables()]
