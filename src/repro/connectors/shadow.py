"""Shadow extracts for file-based sources (paper 4.4).

"When a text or excel file is connected, Tableau extracts the data from
the file, and stores them in temporary tables in the TDE. Subsequently,
all queries are executed by the TDE instead of parsing the entire file
each time. This greatly improves the query execution time, however, we
need to pay a one-time cost of creating the temporary database. Last but
not least, the system can persist extracts in workbooks to avoid
recreating temporary tables at every load."

Two data sources for the same file expose the trade-off:

* :class:`JetLikeDataSource` — the legacy path: re-parse the file for
  every query, with the 4GB parse limit;
* :class:`FileDataSource` — shadow extract: parse once into an embedded
  TDE, answer every query from columnar storage, optionally persisting
  the extract through a :class:`ShadowExtractStore`.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path

from .. import obs
from ..datatypes import LogicalType
from ..errors import SourceError, SourceUnavailableError
from ..sql.dialects import ANSI
from ..tde.engine import DataEngine
from ..tde.optimizer.catalog import StorageCatalog
from ..tde.storage.filepack import pack_database, unpack_database
from ..tde.storage.table import Table
from .connection import Connection, _TdeDriver
from .textfile import JET_PARSE_LIMIT_BYTES, parse_text_file, parse_workbook

#: Table name under which a file's rows are exposed.
FILE_TABLE = "Extract.data"


class ShadowExtractStore:
    """Persists shadow extracts keyed by file identity (path+mtime+size)."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _key(self, path: Path) -> Path:
        stat = path.stat()
        digest = hashlib.sha256(
            f"{path.resolve()}|{stat.st_mtime_ns}|{stat.st_size}".encode()
        ).hexdigest()[:24]
        return self.directory / f"{digest}.tde"

    def load(self, path: Path) -> DataEngine | None:
        key = self._key(path)
        if key.exists():
            self.hits += 1
            engine = DataEngine(path.stem)
            engine.database = unpack_database(key)

            engine.catalog = StorageCatalog(engine.database)
            return engine
        self.misses += 1
        return None

    def save(self, path: Path, engine: DataEngine) -> None:
        pack_database(engine.database, self._key(path))


class FileDataSource:
    """A text/workbook file served through a shadow extract."""

    query_language = "tql"
    in_process = False  # file reads and extract creation are I/O waits

    def __init__(
        self,
        path: str | Path,
        *,
        store: ShadowExtractStore | None = None,
        delimiter: str = ",",
        workbook: bool = False,
    ):
        self.path = Path(path)
        self.name = f"file:{self.path.name}"
        self.dialect = ANSI
        self.store = store
        self.delimiter = delimiter
        self.workbook = workbook
        self.extract_creations = 0
        #: True while queries are being answered from a stale extract
        #: because the underlying file became unreadable.
        self.serving_stale = False
        self._engine: DataEngine | None = None
        self._stale_engine: DataEngine | None = None
        self._lock = threading.Lock()
        self._temp_counter = 0

    # ------------------------------------------------------------------ #
    def _ensure_engine(self) -> DataEngine:
        with self._lock:
            if self._engine is not None:
                return self._engine
            try:
                if self.store is not None:
                    cached = self.store.load(self.path)
                    if cached is not None:
                        self._engine = cached
                        self.serving_stale = False
                        return cached
                engine = DataEngine(self.path.stem)
                if self.workbook:
                    for sheet, table in parse_workbook(self.path).items():
                        engine.create_table(f"Extract.{sheet}", table)
                else:
                    table = parse_text_file(self.path, delimiter=self.delimiter)
                    engine.create_table(FILE_TABLE, table)
            except OSError as exc:
                # The file vanished or became unreadable. Degrade to the
                # extract we already built (if any) instead of failing;
                # otherwise surface a retryable source error, not a raw
                # OSError the pipeline's degradation net cannot catch.
                if self._stale_engine is not None:
                    self.serving_stale = True
                    if obs.events_enabled():
                        obs.event(
                            "degrade.stale_extract",
                            "stale",
                            f"file {self.path.name} is unreadable "
                            f"({type(exc).__name__}: {exc}); serving the "
                            "previous shadow extract flagged stale",
                            source=self.name,
                        )
                    self._engine = self._stale_engine
                    return self._engine
                raise SourceUnavailableError(
                    f"cannot read {self.path}: {exc}"
                ) from exc
            self.extract_creations += 1
            self.serving_stale = False
            if self.store is not None:
                self.store.save(self.path, engine)
            self._engine = engine
            return engine

    def invalidate(self) -> None:
        """Drop the in-memory extract (e.g. after the file changed).

        The dropped extract is retained as a stale fallback: if the next
        re-parse fails because the file is gone, queries degrade to the
        last good extract (``serving_stale`` flips on) rather than erroring.
        """
        with self._lock:
            if self._engine is not None:
                self._stale_engine = self._engine
            self._engine = None

    def connect(self) -> Connection:
        engine = self._ensure_engine()
        with self._lock:
            self._temp_counter += 1
            schema = f"tmp_{self._temp_counter}"
        return Connection(self, _TdeDriver(engine, schema))

    def schema_of(self, table: str) -> dict[str, LogicalType]:
        return self._ensure_engine().table(table).schema()

    def row_count(self, table: str) -> int:
        return self._ensure_engine().table(table).n_rows

    def table_names(self) -> list[str]:
        engine = self._ensure_engine()
        return [f"{s}.{t}" for s, t, _ in engine.database.iter_tables()]


class _JetDriver:
    """Legacy driver: parse the whole file on every query (paper 4.4)."""

    def __init__(self, source: "JetLikeDataSource"):
        self.source = source

    def execute(self, text: str) -> Table:
        engine = self.source._fresh_engine()  # re-parses: the Jet tax
        return engine.query(text)

    def create_temp_table(self, name: str, table: Table) -> None:
        raise SourceError("legacy file driver does not support temporary tables")

    def drop_temp_table(self, name: str) -> None:  # pragma: no cover - nothing to do
        pass

    def close(self) -> None:  # pragma: no cover - nothing to hold
        pass


class JetLikeDataSource:
    """The pre-shadow-extract behaviour: per-query parsing + 4GB limit."""

    query_language = "tql"
    in_process = False

    def __init__(
        self,
        path: str | Path,
        *,
        delimiter: str = ",",
        parse_limit_bytes: int = JET_PARSE_LIMIT_BYTES,
    ):
        self.path = Path(path)
        self.name = f"jet:{self.path.name}"
        self.dialect = ANSI
        self.delimiter = delimiter
        self.parse_limit_bytes = parse_limit_bytes
        self.parse_count = 0

    def _fresh_engine(self) -> DataEngine:
        table = parse_text_file(
            self.path, delimiter=self.delimiter, max_bytes=self.parse_limit_bytes
        )
        self.parse_count += 1
        engine = DataEngine(self.path.stem)
        engine.create_table(FILE_TABLE, table)
        return engine

    def connect(self) -> Connection:
        return Connection(self, _JetDriver(self))

    def schema_of(self, table: str) -> dict[str, LogicalType]:
        if table != FILE_TABLE:
            raise SourceError(f"legacy file source exposes only {FILE_TABLE}")
        return self._fresh_engine().table(FILE_TABLE).schema()

    def row_count(self, table: str) -> int:
        return self._fresh_engine().table(table).n_rows
