"""Tables: ordered collections of equal-length named columns."""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ...collation import BINARY, Collation
from ...datatypes import LogicalType
from ...errors import StorageError
from .column import Column


class Table:
    """An immutable table of named columns.

    ``sort_keys`` is declared metadata: the ordered list of column names the
    rows are sorted by. The optimizer trusts it for streaming aggregation
    and range partitioning decisions (paper 4.2.3), so constructors that
    cannot guarantee it must not set it.
    """

    def __init__(
        self,
        columns: Mapping[str, Column],
        *,
        sort_keys: Sequence[str] = (),
        name: str | None = None,
    ):
        self.columns: dict[str, Column] = dict(columns)
        self.name = name
        lengths = {len(c) for c in self.columns.values()}
        if len(lengths) > 1:
            raise StorageError(f"ragged table: column lengths {sorted(lengths)}")
        self.n_rows = lengths.pop() if lengths else 0
        bad = [k for k in sort_keys if k not in self.columns]
        if bad:
            raise StorageError(f"sort keys not in table: {bad}")
        self.sort_keys: tuple[str, ...] = tuple(sort_keys)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pydict(
        cls,
        data: Mapping[str, Sequence[Any]],
        *,
        types: Mapping[str, LogicalType] | None = None,
        collations: Mapping[str, Collation] | None = None,
        encodings: Mapping[str, str] | None = None,
        compress: bool | None = None,
        sort_keys: Sequence[str] = (),
        name: str | None = None,
    ) -> "Table":
        """Build a table from ``{column_name: python_values}``."""
        types = types or {}
        collations = collations or {}
        encodings = encodings or {}
        cols = {
            key: Column.from_values(
                values,
                types.get(key),
                collation=collations.get(key, BINARY),
                compress=compress,
                encoding=encodings.get(key),
            )
            for key, values in data.items()
        }
        return cls(cols, sort_keys=sort_keys, name=name)

    @classmethod
    def _of(cls, columns: dict[str, Column], n_rows: int, name: str | None = None) -> "Table":
        """Internal: a table over ``columns``, each already known to hold
        ``n_rows`` rows, built without checking them again."""
        table = cls.__new__(cls)
        table.columns, table.name, table.n_rows, table.sort_keys = columns, name, n_rows, ()
        return table

    @staticmethod
    def empty_like(table: "Table") -> "Table":
        return table.slice(0, 0)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise StorageError(f"no column {name!r}; have {self.column_names}") from None

    def has_column(self, name: str) -> bool:
        return name in self.columns

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.columns.values())

    def schema(self) -> dict[str, LogicalType]:
        return {k: c.ltype for k, c in self.columns.items()}

    # ------------------------------------------------------------------ #
    # Shaping
    # ------------------------------------------------------------------ #
    def project(self, names: Sequence[str]) -> "Table":
        cols = {n: self.column(n) for n in names}
        kept_sort = []
        for key in self.sort_keys:
            if key in cols:
                kept_sort.append(key)
            else:
                break  # a sort prefix only survives while contiguous
        return Table(cols, sort_keys=kept_sort, name=self.name)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        cols = {mapping.get(k, k): c for k, c in self.columns.items()}
        if len(cols) != len(self.columns):
            raise StorageError("rename would collide column names")
        sort = tuple(mapping.get(k, k) for k in self.sort_keys)
        return Table(cols, sort_keys=sort, name=self.name)

    def with_column(self, name: str, column: Column) -> "Table":
        if len(column) != self.n_rows and self.columns:
            raise StorageError("with_column length mismatch")
        cols = dict(self.columns)
        cols[name] = column
        return Table(cols, sort_keys=self.sort_keys, name=self.name)

    def drop(self, names: Sequence[str]) -> "Table":
        keep = [n for n in self.column_names if n not in set(names)]
        return self.project(keep)

    # ------------------------------------------------------------------ #
    # Row selection
    # ------------------------------------------------------------------ #
    def take(self, indices: np.ndarray) -> "Table":
        n_rows = len(indices) if self.columns else 0
        return Table._of({k: c.take(indices) for k, c in self.columns.items()}, n_rows, self.name)

    def filter(self, keep: np.ndarray) -> "Table":
        return self.take(np.flatnonzero(keep))

    def slice(self, start: int, stop: int) -> "Table":
        return Table(
            {k: c.slice(start, stop) for k, c in self.columns.items()},
            sort_keys=self.sort_keys,
            name=self.name,
        )

    def head(self, n: int) -> "Table":
        return self.slice(0, min(n, self.n_rows))

    # ------------------------------------------------------------------ #
    # Sorting
    # ------------------------------------------------------------------ #
    def _sort_array(self, name: str) -> tuple[np.ndarray, bool]:
        """Return (array, numeric) where array orders rows by the column.

        Dictionary codes are collation-order by construction, so they sort
        correctly and cheaply. NULLs sort first via a -inf sentinel trick
        handled by the caller (we return the null mask separately there).
        """
        col = self.column(name)
        if col.is_dictionary_encoded:
            return col.physical.materialize().astype(np.int64), True
        storage = col.storage_values()
        if storage.dtype == object:
            keyed = col.collation.sort_keys(storage)
            return keyed, False
        if storage.dtype == np.bool_:
            storage = storage.astype(np.int8)
        return storage, True

    def sort_by(self, keys: Sequence[tuple[str, bool]]) -> "Table":
        """Stable sort by ``[(column, ascending), ...]``; NULLs sort first."""
        if self.n_rows <= 1 or not keys:
            return Table(dict(self.columns), sort_keys=tuple(k for k, _ in keys), name=self.name)
        arrays: list[tuple[np.ndarray, np.ndarray, bool, bool]] = []
        for name, asc in keys:
            arr, numeric = self._sort_array(name)
            mask = self.column(name).null_mask
            nulls = mask if mask is not None else np.zeros(self.n_rows, dtype=np.bool_)
            arrays.append((arr, nulls, asc, numeric))
        if all(numeric for _, _, _, numeric in arrays):
            lex_keys = []
            for arr, nulls, asc, _ in reversed(arrays):
                a = arr if asc else -arr
                # NULLs sort first regardless of direction (0 before 1).
                nk = np.where(nulls, 0, 1)
                lex_keys.append(a)
                lex_keys.append(nk)
            order = np.lexsort(lex_keys)
        else:
            def row_key(i: int):
                parts = []
                for arr, nulls, asc, numeric in arrays:
                    if nulls[i]:
                        parts.append((0, 0))
                    else:
                        v = arr[i]
                        if not asc and numeric:
                            v = -v
                        parts.append((1, v) if asc or numeric else (1, _Reversed(v)))
                return tuple(parts)

            order = np.asarray(sorted(range(self.n_rows), key=row_key), dtype=np.int64)
        out = self.take(order)
        out.sort_keys = tuple(k for k, asc in keys if asc)
        return out

    # ------------------------------------------------------------------ #
    # Combination / comparison / export
    # ------------------------------------------------------------------ #
    @staticmethod
    def concat(tables: Sequence["Table"]) -> "Table":
        """Vertically concatenate tables with identical schemas."""
        tables = [t for t in tables if t is not None]
        if not tables:
            raise StorageError("concat of zero tables")
        first = tables[0]
        if len(tables) == 1:
            return first
        names = first.column_names
        for t in tables[1:]:
            if t.column_names != names or t.schema() != first.schema():
                raise StorageError("concat schema mismatch")
        cols = {n: Column.concat([t.column(n) for t in tables]) for n in names}
        return Table(cols, name=first.name)

    def to_pydict(self) -> dict[str, list[Any]]:
        return {k: c.python_values() for k, c in self.columns.items()}

    def to_rows(self) -> list[tuple[Any, ...]]:
        cols = [c.python_values() for c in self.columns.values()]
        return list(zip(*cols)) if cols else []

    def equals(self, other: "Table") -> bool:
        """Order-sensitive logical equality (column names, types, values)."""
        return (
            self.column_names == other.column_names
            and self.schema() == other.schema()
            and self.to_rows() == other.to_rows()
        )

    def approx_equals(
        self,
        other: "Table",
        *,
        rel: float = 1e-9,
        abs_tol: float = 1e-9,
        ordered: bool = True,
    ) -> bool:
        """Logical equality with float tolerance (parallel plans reorder
        floating-point summation, paper 4.2.3's local/global aggregation)."""
        if self.column_names != other.column_names or self.schema() != other.schema():
            return False
        if self.n_rows != other.n_rows:
            return False
        rows_a = self.to_rows()
        rows_b = other.to_rows()
        if not ordered:
            def key(row: tuple) -> tuple:
                return tuple(
                    (v is None, "" if v is None else str(v), str(type(v))) for v in row
                )

            rows_a = sorted(rows_a, key=key)
            rows_b = sorted(rows_b, key=key)
        for ra, rb in zip(rows_a, rows_b):
            for va, vb in zip(ra, rb):
                if va is None or vb is None:
                    if va is not vb:
                        return False
                elif isinstance(va, float) or isinstance(vb, float):
                    if abs(va - vb) > abs_tol + rel * max(abs(va), abs(vb)):
                        return False
                elif va != vb:
                    return False
        return True

    def equals_unordered(self, other: "Table") -> bool:
        """Order-insensitive equality (bag semantics over rows)."""
        if self.column_names != other.column_names or self.schema() != other.schema():
            return False

        def key(row: tuple) -> tuple:
            return tuple((v is None, "" if v is None else str(v), str(type(v))) for v in row)

        return sorted(self.to_rows(), key=key) == sorted(other.to_rows(), key=key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name or ''} {self.n_rows}x{len(self.columns)} {self.column_names})"


class _Reversed:
    """Wrapper inverting comparisons, for descending sorts of strings."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value
