"""Dictionary compression for TDE columns.

"The TDE uses a dictionary-based compression. When data is compressed, the
fixed tokens are stored in the original column. Each compressed column also
owns an associated dictionary for the original fixed length (array
compression) or variable length (heap compression) values." (paper 4.1.1)

Dictionaries here are *sorted by the column's collation*, so that the
integer code order equals the value order. This lets the optimizer translate
range predicates on dictionary-compressed columns into code ranges, and lets
ORDER BY on such columns sort codes directly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Sequence

import numpy as np

from ...collation import BINARY, Collation
from ...errors import StorageError


class Dictionary:
    """An immutable, collation-sorted dictionary of distinct column values.

    Attributes:
        values: numpy array of distinct representative values, sorted by
            the collation's sort key (or natural order for non-strings).
        kind: ``"heap"`` for variable-width (string) values, ``"array"``
            for fixed-width values.
        collation: collation the dictionary was built under (strings only;
            ``BINARY`` otherwise).
    """

    def __init__(self, values: np.ndarray, kind: str, collation: Collation = BINARY):
        if kind not in ("heap", "array"):
            raise StorageError(f"unknown dictionary kind {kind!r}")
        self.values = values
        self.kind = kind
        self.collation = collation
        if kind == "heap":
            self._keys = [collation.key(v) for v in values]
        else:
            self._keys = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def encode(
        cls, values: Sequence[Any] | np.ndarray, *, is_string: bool, collation: Collation = BINARY
    ) -> tuple[np.ndarray, "Dictionary"]:
        """Build a dictionary over ``values`` and return (codes, dictionary).

        For strings under a non-binary collation, values that compare equal
        share one code; the representative is the first occurrence.
        """
        if is_string:
            rep_by_key: dict[str, str] = {}
            for v in values:
                k = collation.key(v)
                if k not in rep_by_key:
                    rep_by_key[k] = v
            dictionary, code_by_key = cls._from_representatives(rep_by_key, collation)
            codes = np.fromiter(
                (code_by_key[collation.key(v)] for v in values), dtype=np.int32, count=len(values)
            )
            return codes, dictionary
        arr = np.asarray(values)
        uniq, codes = np.unique(arr, return_inverse=True)
        return codes.astype(np.int32), cls(uniq, "array", BINARY)

    @classmethod
    def merge(
        cls, parts: Sequence[tuple[np.ndarray, "Dictionary"]]
    ) -> tuple["Dictionary", list[np.ndarray]]:
        """Merge the entries that each part's codes use into one dictionary.

        ``parts`` are ``(codes, dictionary)`` pairs as :meth:`encode`
        returns them, every dictionary a heap built under one collation.
        Returns the merged dictionary and, per part, a lookup array taking
        the part's codes to merged codes — the work is per distinct value,
        never per row. Parts are visited in order, so values that compare
        equal keep the representative of the first part using them,
        exactly as :meth:`encode` over the concatenated rows would choose.
        """
        used = [np.flatnonzero(np.bincount(codes, minlength=len(d))) for codes, d in parts]
        rep_by_key: dict[str, str] = {}
        for (_, d), codes in zip(parts, used):
            for code in codes.tolist():
                rep_by_key.setdefault(d._keys[code], d.values[code])
        merged, code_by_key = cls._from_representatives(rep_by_key, parts[0][1].collation)
        remaps = []
        for (_, d), codes in zip(parts, used):
            remap = np.zeros(len(d), dtype=np.int32)
            remap[codes] = [code_by_key[d._keys[code]] for code in codes.tolist()]
            remaps.append(remap)
        return merged, remaps

    @classmethod
    def _from_representatives(
        cls, rep_by_key: dict[str, str], collation: Collation
    ) -> tuple["Dictionary", dict[str, int]]:
        """A heap dictionary of ``rep_by_key``'s values in sort-key order,
        plus the code each sort key received."""
        sorted_keys = sorted(rep_by_key)
        values = np.empty(len(sorted_keys), dtype=object)
        values[:] = [rep_by_key[k] for k in sorted_keys]
        return cls(values, "heap", collation), {k: i for i, k in enumerate(sorted_keys)}

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.values)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Map an int code array back to values (vectorized gather)."""
        return self.values[codes]

    def code_for(self, value: Any) -> int:
        """Exact-match lookup; returns -1 when absent (collation-aware)."""
        if self.kind == "heap":
            k = self.collation.key(value)
            i = bisect_left(self._keys, k)
            return i if i < len(self._keys) and self._keys[i] == k else -1
        i = int(np.searchsorted(self.values, value))
        return i if i < len(self.values) and self.values[i] == value else -1

    def code_range(self, op: str, value: Any) -> tuple[int, int]:
        """Translate a comparison predicate into a half-open code range.

        Returns ``(lo, hi)`` such that codes in ``range(lo, hi)`` satisfy
        ``column <op> value``. Only meaningful for <, <=, >, >= (equality
        uses :meth:`code_for`). Relies on the dictionary being sorted.
        """
        if self.kind == "heap":
            key = self.collation.key(value)
            left = bisect_left(self._keys, key)
            right = bisect_right(self._keys, key)
        else:
            left = int(np.searchsorted(self.values, value, side="left"))
            right = int(np.searchsorted(self.values, value, side="right"))
        if op == "<":
            return 0, left
        if op == "<=":
            return 0, right
        if op == ">":
            return right, len(self.values)
        if op == ">=":
            return left, len(self.values)
        raise StorageError(f"code_range does not support operator {op!r}")

    @property
    def nbytes(self) -> int:
        if self.kind == "heap":
            return int(sum(len(v) for v in self.values)) + 8 * len(self.values)
        return int(self.values.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dictionary(kind={self.kind}, size={len(self)}, collation={self.collation.name})"
