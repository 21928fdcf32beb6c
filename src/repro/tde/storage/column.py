"""Columns: logical type + physical vector + optional dictionary + nulls."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ...collation import BINARY, Collation
from ...datatypes import LogicalType, from_storage, infer_type, storage_array
from ...errors import StorageError
from .dictionary import Dictionary
from .vectors import PhysicalVector, PlainVector, encode_best


class ColumnStats:
    """Lazily computed column statistics used by the optimizer.

    Attributes mirror what the paper's optimizer consults: cardinalities and
    domains (3.1), sortedness for streaming aggregates and range
    partitioning (4.2.3), and run structure for the RLE index scan (4.3).
    """

    def __init__(self, column: "Column"):
        self.null_count = int(column.null_mask.sum()) if column.null_mask is not None else 0
        storage = column.storage_values()
        valid = storage if column.null_mask is None else storage[~column.null_mask]
        self.row_count = len(column)
        if len(valid):
            if column.is_dictionary_encoded:
                self.n_distinct = len(column.dictionary)
                self.min_value = column.dictionary.values[0]
                self.max_value = column.dictionary.values[-1]
            else:
                uniq = np.unique(valid)
                self.n_distinct = len(uniq)
                self.min_value = uniq[0]
                self.max_value = uniq[-1]
            if len(valid) > 1:
                order_src = column.codes() if column.is_dictionary_encoded else storage
                order_valid = order_src if column.null_mask is None else order_src[~column.null_mask]
                self.is_sorted = bool(np.all(order_valid[1:] >= order_valid[:-1]))
            else:
                self.is_sorted = True
        else:
            self.n_distinct = 0
            self.min_value = None
            self.max_value = None
            self.is_sorted = True
        if len(storage):
            changes = 1 + int(np.count_nonzero(storage[1:] != storage[:-1])) if len(storage) > 1 else 1
            self.avg_run_length = len(storage) / changes
        else:
            self.avg_run_length = 0.0


class Column:
    """A typed, optionally dictionary-compressed and encoded column.

    The physical vector holds either raw storage values (plain columns) or
    int32 dictionary codes (compressed columns). ``null_mask`` marks NULL
    rows with ``True``; the underlying slot contains an unobservable fill.
    String columns carry a :class:`~repro.collation.Collation`.
    """

    def __init__(
        self,
        ltype: LogicalType,
        physical: PhysicalVector,
        *,
        dictionary: Dictionary | None = None,
        null_mask: np.ndarray | None = None,
        collation: Collation = BINARY,
    ):
        self.ltype = ltype
        self.physical = physical
        self.dictionary = dictionary
        self.null_mask = null_mask
        self.collation = collation if ltype is LogicalType.STR else BINARY
        if null_mask is not None and len(null_mask) != len(physical):
            raise StorageError("null mask length mismatch")
        self._stats: ColumnStats | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_values(
        cls,
        values: Sequence[Any],
        ltype: LogicalType | None = None,
        *,
        collation: Collation = BINARY,
        compress: bool | None = None,
        encoding: str | None = None,
    ) -> "Column":
        """Build a column from Python values (``None`` marks NULL).

        ``ltype`` is inferred from the first non-null value when omitted.
        ``compress`` controls dictionary compression (defaults to True for
        strings, and for other types when it saves space). ``encoding``
        forces the physical encoding of the stored vector.
        """
        if ltype is None:
            first = next((v for v in values if v is not None), None)
            if first is None:
                raise StorageError("cannot infer type of an all-NULL column")
            ltype = infer_type(first)
        arr, mask = storage_array(list(values), ltype)
        return cls.from_numpy(arr, ltype, null_mask=mask, collation=collation, compress=compress, encoding=encoding)

    @classmethod
    def from_numpy(
        cls,
        arr: np.ndarray,
        ltype: LogicalType,
        *,
        null_mask: np.ndarray | None = None,
        collation: Collation = BINARY,
        compress: bool | None = None,
        encoding: str | None = None,
    ) -> "Column":
        """Build a column from a storage-representation numpy array."""
        if compress is None:
            compress = ltype is LogicalType.STR
        if compress:
            codes, dictionary = Dictionary.encode(
                arr, is_string=ltype is LogicalType.STR, collation=collation
            )
            physical = encode_best(codes, prefer=encoding)
            return cls(ltype, physical, dictionary=dictionary, null_mask=null_mask, collation=collation)
        if ltype is LogicalType.STR:
            # Uncompressed strings stay plain; encodings need fixed width.
            return cls(ltype, PlainVector(arr), null_mask=null_mask, collation=collation)
        return cls(ltype, encode_best(arr, prefer=encoding), null_mask=null_mask, collation=collation)

    @classmethod
    def concat(cls, parts: Sequence["Column"]) -> "Column":
        """Concatenate same-typed columns without leaving code space.

        Parts carrying the *same* dictionary object concatenate their code
        vectors and keep it (entries no row uses are allowed). String
        parts with different dictionaries merge them per distinct value
        (:meth:`Dictionary.merge`); only a string part without a usable
        dictionary is encoded row by row. Other columns decode to plain.
        """
        first = parts[0]
        mask = None
        if any(p.null_mask is not None for p in parts):
            mask = np.concatenate(
                [
                    p.null_mask if p.null_mask is not None else np.zeros(len(p), dtype=np.bool_)
                    for p in parts
                ]
            )
            if not mask.any():
                mask = None
        dictionary = first.dictionary
        if dictionary is not None and all(p.dictionary is dictionary for p in parts):
            values = np.concatenate([p.physical.materialize() for p in parts])
        elif first.ltype is LogicalType.STR:
            coded = [
                (p.physical.materialize(), p.dictionary)
                if p.dictionary is not None and p.dictionary.collation == first.collation
                else Dictionary.encode(p.storage_values(), is_string=True, collation=first.collation)
                for p in parts
            ]
            dictionary, remaps = Dictionary.merge(coded)
            values = np.concatenate([remap[codes] for (codes, _), remap in zip(coded, remaps)])
        else:
            dictionary = None
            values = np.concatenate([p.storage_values() for p in parts])
        return cls(
            first.ltype,
            PlainVector(values),
            dictionary=dictionary,
            null_mask=mask,
            collation=first.collation,
        )

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.physical)

    @property
    def is_dictionary_encoded(self) -> bool:
        return self.dictionary is not None

    @property
    def encoding(self) -> str:
        return self.physical.encoding

    def codes(self) -> np.ndarray | None:
        """Materialized dictionary codes, or None for plain columns."""
        if self.dictionary is None:
            return None
        return self.physical.materialize()

    def storage_values(self) -> np.ndarray:
        """Decoded storage-representation values (dictionary applied)."""
        raw = self.physical.materialize()
        if self.dictionary is not None:
            return self.dictionary.decode(raw)
        return raw

    def python_values(self) -> list[Any]:
        """Friendly Python values with ``None`` for NULLs (slow; for tests/IO)."""
        storage = self.storage_values()
        out = [from_storage(v, self.ltype) for v in storage]
        if self.null_mask is not None:
            for i in np.flatnonzero(self.null_mask):
                out[i] = None
        return out

    def value_at(self, row: int) -> Any:
        if self.null_mask is not None and self.null_mask[row]:
            return None
        raw = self.physical.take(np.asarray([row]))[0]
        if self.dictionary is not None:
            raw = self.dictionary.values[raw]
        return from_storage(raw, self.ltype)

    # ------------------------------------------------------------------ #
    # Row selection (results decoded, or a free view; dictionary kept)
    # ------------------------------------------------------------------ #
    def take(self, indices: np.ndarray) -> "Column":
        taken = self.physical.take(indices)
        mask = self.null_mask[indices] if self.null_mask is not None else None
        if mask is not None and not mask.any():
            mask = None
        return Column(
            self.ltype,
            PlainVector(taken),
            dictionary=self.dictionary,
            null_mask=mask,
            collation=self.collation,
        )

    def filter(self, keep: np.ndarray) -> "Column":
        return self.take(np.flatnonzero(keep))

    def slice(self, start: int, stop: int) -> "Column":
        mask = self.null_mask[start:stop] if self.null_mask is not None else None
        if mask is not None and not mask.any():
            mask = None
        return Column(
            self.ltype,
            self.physical.window(start, stop),
            dictionary=self.dictionary,
            null_mask=mask,
            collation=self.collation,
        )

    # ------------------------------------------------------------------ #
    # Stats & comparison
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> ColumnStats:
        if self._stats is None:
            self._stats = ColumnStats(self)
        return self._stats

    @property
    def nbytes(self) -> int:
        total = self.physical.nbytes
        if self.dictionary is not None:
            total += self.dictionary.nbytes
        if self.null_mask is not None:
            total += self.null_mask.nbytes
        return total

    def equals(self, other: "Column") -> bool:
        """Logical equality: same type, same values (NULL == NULL)."""
        if self.ltype != other.ltype or len(self) != len(other):
            return False
        return self.python_values() == other.python_values()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dict_part = f", dict={len(self.dictionary)}" if self.dictionary is not None else ""
        return f"Column({self.ltype.name}, n={len(self)}, enc={self.encoding}{dict_part})"
