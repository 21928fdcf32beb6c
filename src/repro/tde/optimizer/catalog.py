"""Optimizer-facing catalog: schemas, storage tables, and metadata.

The query compiler "incorporates information about cardinalities, domains,
and overall capabilities" (paper 3.1); for the TDE that information lives
here: declared unique keys, declared sort order, and foreign-key
relationships used by join culling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...datatypes import LogicalType
from ...errors import BindError
from ..storage.schema import Database
from ..storage.table import Table


@dataclass(frozen=True)
class TableMeta:
    """Declared constraints for one stored table."""

    unique_keys: tuple[tuple[str, ...], ...] = ()

    def is_unique(self, columns: tuple[str, ...]) -> bool:
        """Whether ``columns`` is a superset of some declared unique key."""
        colset = set(columns)
        return any(set(key) <= colset for key in self.unique_keys)


@dataclass(frozen=True)
class ForeignKey:
    """A declared FK: ``child.fk_columns`` references ``parent.key_columns``.

    ``total`` declares that every child value is present (no orphans) and
    child FK columns are non-NULL — required to drop an unused dimension.
    ``onto`` declares that every parent key appears in some child row —
    required for fact-table culling to preserve domain-query results.
    """

    child: str
    fk_columns: tuple[str, ...]
    parent: str
    key_columns: tuple[str, ...]
    total: bool = True
    onto: bool = False


class StorageCatalog:
    """Catalog over a :class:`Database` plus declared metadata."""

    def __init__(self, db: Database):
        self._db = db
        self._metas: dict[str, TableMeta] = {}
        self._fks: list[ForeignKey] = []
        self._decl_version = 0

    @property
    def version(self) -> tuple[int, int]:
        """(DDL version, declaration version) — plans bound under a
        different pair may reference dropped tables or miss constraints
        that would change the plan, so the plan cache keys on this."""
        return (self._db.version, self._decl_version)

    # ------------------------------------------------------------------ #
    # Declarations
    # ------------------------------------------------------------------ #
    def declare_unique(self, table: str, columns: tuple[str, ...] | list[str]) -> None:
        table = self._qualify(table)
        meta = self._metas.get(table, TableMeta())
        self._metas[table] = TableMeta(meta.unique_keys + (tuple(columns),))
        self._decl_version += 1

    def declare_foreign_key(
        self,
        child: str,
        fk_columns,
        parent: str,
        key_columns,
        *,
        total: bool = True,
        onto: bool = False,
    ) -> None:
        self._fks.append(
            ForeignKey(
                self._qualify(child),
                tuple(fk_columns),
                self._qualify(parent),
                tuple(key_columns),
                total,
                onto,
            )
        )
        self._decl_version += 1

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def schema_of(self, table: str) -> dict[str, LogicalType]:
        try:
            return self.storage(table).schema()
        except Exception as exc:
            raise BindError(f"unknown table {table!r}") from exc

    def storage(self, table: str) -> Table:
        return self._db.table(self._qualify(table))

    def meta(self, table: str) -> TableMeta:
        return self._metas.get(self._qualify(table), TableMeta())

    def foreign_key(self, child: str, fk_columns, parent: str, key_columns) -> ForeignKey | None:
        child = self._qualify(child)
        parent = self._qualify(parent)
        want_fk = tuple(fk_columns)
        want_key = tuple(key_columns)
        for fk in self._fks:
            if (
                fk.child == child
                and fk.parent == parent
                and fk.fk_columns == want_fk
                and fk.key_columns == want_key
            ):
                return fk
        return None

    def sort_keys(self, table: str) -> tuple[str, ...]:
        return self.storage(table).sort_keys

    def row_count(self, table: str) -> int:
        return self.storage(table).n_rows

    def _qualify(self, table: str) -> str:
        schema, name = Database.split_name(table)
        return f"{schema}.{name}"
