"""Connection and data-source abstractions.

A :class:`DataSource` mints :class:`Connection` objects; a connection
executes textual queries (SQL for remote servers, TQL for the embedded
TDE), owns session-local temporary tables, and counts its queries; the
pool that owns it stamps when it went idle.
"""

from __future__ import annotations

import threading
from typing import Protocol

from ..datatypes import LogicalType
from ..errors import ConnectionDiedError
from ..sql.dialects import ANSI, Capabilities
from ..tde.engine import DataEngine
from ..tde.storage.table import Table


class Driver(Protocol):
    """Backend-specific session handle behind a connection."""

    def execute(self, text: str) -> Table:  # pragma: no cover - protocol
        ...

    def create_temp_table(self, name: str, table: Table) -> None:  # pragma: no cover
        ...

    def drop_temp_table(self, name: str) -> None:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class Connection:
    """A pooled connection to one data source.

    Tracks the temporary tables created through it so that subsequent
    queries in the same batch (or later batches against the same
    dashboard) can reuse the remote state (paper 3.5).
    """

    _ids = iter(range(1, 10**9))

    def __init__(self, data_source: "DataSource", driver: Driver):
        self.data_source = data_source
        self.driver = driver
        self.connection_id = next(Connection._ids)
        self.temp_tables: dict[str, dict[str, LogicalType]] = {}
        #: When the connection last went idle, on its pool's clock.
        self.last_used = 0.0
        self.queries_executed = 0
        self.is_open = True
        self._lock = threading.Lock()

    def execute(self, text: str) -> Table:
        if not self.is_open:
            raise ConnectionDiedError("connection is closed")
        try:
            result = self.driver.execute(text)
        except ConnectionDiedError:
            # The remote session is gone; make the death visible to the
            # pool so the member is dropped rather than re-idled.
            self.close()
            raise
        with self._lock:
            self.queries_executed += 1
        return result

    def create_temp_table(self, name: str, table: Table) -> None:
        if not self.is_open:
            raise ConnectionDiedError("connection is closed")
        try:
            self.driver.create_temp_table(name, table)
        except ConnectionDiedError:
            self.close()
            raise
        with self._lock:
            self.temp_tables[name] = table.schema()

    def has_temp_table(self, name: str) -> bool:
        return name in self.temp_tables

    def drop_temp_table(self, name: str) -> None:
        if name in self.temp_tables:
            self.driver.drop_temp_table(name)
            del self.temp_tables[name]

    def close(self) -> None:
        if self.is_open:
            self.is_open = False
            self.driver.close()


class DataSource(Protocol):
    """Anything connections can be opened against."""

    name: str
    dialect: Capabilities
    query_language: str  # "sql" | "tql"
    #: Whether queries execute on the caller's own interpreter rather
    #: than on a server it waits for. Threads cannot overlap such a
    #: source's work (one GIL), so the executor runs its batches inline.
    in_process: bool

    def connect(self) -> Connection:  # pragma: no cover - protocol
        ...

    def schema_of(self, table: str) -> dict[str, LogicalType]:  # pragma: no cover
        ...

    def row_count(self, table: str) -> int:  # pragma: no cover
        ...


class _TdeDriver:
    """Driver speaking TQL against an in-process DataEngine."""

    def __init__(self, engine: DataEngine, temp_schema: str):
        self.engine = engine
        self.temp_schema = temp_schema
        self._temps: set[str] = set()

    def execute(self, text: str) -> Table:
        # Pass the query *text* through so the engine's plan cache can
        # key on it — repeat dashboard queries skip recompilation.
        return self.engine.query(self._rewrite_temp_names(text))

    def _rewrite_temp_names(self, text: str) -> str:
        for name in self._temps:
            text = text.replace(f'"{name}"', f'"{self.temp_schema}.{name}"')
        return text

    def create_temp_table(self, name: str, table: Table) -> None:
        self.engine.create_table(f"{self.temp_schema}.{name}", table, replace=True)
        self._temps.add(name)

    def drop_temp_table(self, name: str) -> None:
        if name in self._temps:
            self.engine.drop_table(f"{self.temp_schema}.{name}")
            self._temps.discard(name)

    def close(self) -> None:
        for name in list(self._temps):
            self.drop_temp_table(name)


class TdeDataSource:
    """A local TDE extract as a data source (paper 2, 4.1.4).

    Connections are cheap and a query is computed by the calling thread,
    inside this interpreter: there is no remote wait for concurrent
    submission (paper 3.5) to overlap, only numpy kernels contending for
    one GIL. The source therefore declares itself ``in_process`` and the
    executor runs its batches inline, in order — the opposite profile
    from the remote servers of the concurrency experiments.
    """

    query_language = "tql"
    in_process = True

    def __init__(self, engine: DataEngine, name: str | None = None):
        self.engine = engine
        self.name = name or f"tde:{engine.database.name}"
        self.dialect = ANSI  # capability-complete; text is TQL, not SQL
        self._temp_counter = 0
        self._lock = threading.Lock()

    def connect(self) -> Connection:
        with self._lock:
            self._temp_counter += 1
            schema = f"tmp_{self._temp_counter}"
        return Connection(self, _TdeDriver(self.engine, schema))

    def schema_of(self, table: str) -> dict[str, LogicalType]:
        return self.engine.table(table).schema()

    def row_count(self, table: str) -> int:
        return self.engine.table(table).n_rows

    def table_names(self) -> list[str]:
        return [f"{s}.{t}" for s, t, _ in self.engine.database.iter_tables()]
