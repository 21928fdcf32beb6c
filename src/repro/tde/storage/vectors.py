"""Physical vectors: the on-disk/in-memory representations of column data.

The TDE distinguishes *dictionary compression* (visible outside the storage
layer) from *encodings* (run-length, delta, frame-of-reference) which are
"a storage format that is typically invisible outside this layer" (paper
4.1.1). This module implements the encodings; ``dictionary.py`` implements
compression.

A :class:`PhysicalVector` stores a sequence of fixed-width values (int64,
float64, bool) or — for plain vectors only — object-dtype strings. Columns
compose a vector with an optional dictionary and a null mask.

The run-length representation deliberately exposes its runs
(:meth:`RleVector.index_table`) because the optimizer turns them into an
IndexTable joined back to the main table for range skipping (paper 4.3).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ...errors import StorageError


class PhysicalVector:
    """Abstract base for physical vector encodings."""

    encoding: str = "abstract"

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def materialize(self) -> np.ndarray:
        """Decode to a plain numpy array of the storage dtype."""
        raise NotImplementedError  # pragma: no cover - abstract

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Decode rows [start, stop) to a plain numpy array."""
        return self.materialize()[start:stop]

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Decode the given row positions."""
        return self.materialize()[indices]

    def window(self, start: int, stop: int) -> "PhysicalVector":
        """Rows [start, stop) as a vector (decoded unless a view is free)."""
        return PlainVector(self.slice(start, stop))

    @property
    def nbytes(self) -> int:
        """Approximate storage footprint in bytes."""
        raise NotImplementedError  # pragma: no cover - abstract


class PlainVector(PhysicalVector):
    """Uncompressed fixed-width (or object/str) storage."""

    encoding = "plain"

    def __init__(self, values: np.ndarray):
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    def materialize(self) -> np.ndarray:
        return self._values

    def slice(self, start: int, stop: int) -> np.ndarray:
        return self._values[start:stop]

    def take(self, indices: np.ndarray) -> np.ndarray:
        return self._values[indices]

    @property
    def nbytes(self) -> int:
        if self._values.dtype == object:
            return int(sum(len(str(v)) for v in self._values)) + 8 * len(self._values)
        return int(self._values.nbytes)


class RleVector(PhysicalVector):
    """Run-length encoded storage for fixed-width values.

    Stored as parallel arrays ``values``/``counts``; ``starts`` is the
    exclusive prefix sum of counts. Decoding is ``np.repeat``; positional
    access binary-searches the starts.
    """

    encoding = "rle"

    def __init__(self, values: np.ndarray, counts: np.ndarray):
        if len(values) != len(counts):
            raise StorageError("RLE values/counts length mismatch")
        self.values = values
        self.counts = np.asarray(counts, dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(self.counts)[:-1])) if len(counts) else np.zeros(0, dtype=np.int64)
        self._length = int(self.counts.sum())

    @classmethod
    def from_plain(cls, values: np.ndarray) -> "RleVector":
        """Encode a plain array; empty input produces an empty vector."""
        n = len(values)
        if n == 0:
            return cls(values[:0], np.zeros(0, dtype=np.int64))
        change = np.empty(n, dtype=np.bool_)
        change[0] = True
        np.not_equal(values[1:], values[:-1], out=change[1:])
        run_starts = np.flatnonzero(change)
        run_values = values[run_starts]
        counts = np.diff(np.concatenate((run_starts, [n])))
        return cls(run_values, counts)

    def __len__(self) -> int:
        return self._length

    @property
    def n_runs(self) -> int:
        return len(self.values)

    def materialize(self) -> np.ndarray:
        return np.repeat(self.values, self.counts)

    def take(self, indices: np.ndarray) -> np.ndarray:
        run_idx = np.searchsorted(self.starts, indices, side="right") - 1
        return self.values[run_idx]

    def _window(self, start: int, stop: int) -> tuple[slice, np.ndarray]:
        """Runs overlapping rows ``[start, stop)`` and their clipped counts.

        Each run contributes ``min(run_end, stop) - max(run_start, start)``
        rows, so the cost is O(runs in range), not O(column).
        """
        stop = min(stop, self._length)
        if start >= stop:
            return slice(0, 0), self.counts[:0]
        first = int(np.searchsorted(self.starts, start, side="right")) - 1
        last = int(np.searchsorted(self.starts, stop, side="left"))
        starts = self.starts[first:last]
        ends = starts + self.counts[first:last]
        return slice(first, last), np.minimum(ends, stop) - np.maximum(starts, start)

    def slice(self, start: int, stop: int) -> np.ndarray:
        runs, counts = self._window(start, stop)
        return np.repeat(self.values[runs], counts)

    def index_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the (value, count, start) arrays of the IndexTable.

        The optimizer materializes these as a small table, applies the
        query's filter to the ``value`` column and joins the surviving
        ranges back to the main table — expressing range skipping "simply
        as a join in the query plan" (paper 4.3).
        """
        return self.values, self.counts, self.starts

    def runs(self) -> Iterator[tuple[int, int, object]]:
        """Yield (start, count, value) triples in row order."""
        for v, c, s in zip(self.values, self.counts, self.starts):
            yield int(s), int(c), v

    def expand_runs(self, per_run: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Expand a per-run array to per-row values over ``[start, stop)``.

        The per-run/per-row bridge of code-space execution: a predicate
        evaluated once per run (``per_run``) becomes a row mask without
        ever materializing the decoded column.
        """
        runs, counts = self._window(start, self._length if stop is None else stop)
        return np.repeat(per_run[runs], counts)

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes + self.counts.nbytes)


class DeltaVector(PhysicalVector):
    """Delta encoding for int64-backed values (ids, dates, timestamps).

    Stores the first value and successive differences in the narrowest
    integer dtype that fits. Decoding is a cumulative sum — restarted from
    the nearest *checkpoint* (the decoded value of every
    ``CHECKPOINT_ROWS``-th row), so reading rows ``[a, b)`` costs
    O(b - a + CHECKPOINT_ROWS) rather than O(column). Checkpoints are
    computed once here and never change: the vector is immutable and safe
    to read from any number of scan threads.
    """

    encoding = "delta"

    #: Rows between decoded prefix values; bounds a slice's wasted decode.
    CHECKPOINT_ROWS = 1024

    def __init__(self, base: int, deltas: np.ndarray, dtype: np.dtype = np.dtype(np.int64)):
        self.base = int(base)
        self.deltas = deltas
        self._out_dtype = dtype
        block = self.CHECKPOINT_ROWS
        # int64 accumulation: an int8 delta column's running sum leaves int8.
        block_sums = np.add.reduceat(deltas, np.arange(0, len(deltas), block), dtype=np.int64)
        self._checkpoints = self.base + np.concatenate(([0], np.cumsum(block_sums)))[
            : len(deltas) // block + 1
        ]

    @classmethod
    def from_plain(cls, values: np.ndarray) -> "DeltaVector":
        if len(values) == 0:
            raise StorageError("cannot delta-encode an empty vector")
        diffs = np.diff(values.astype(np.int64))
        for candidate in (np.int8, np.int16, np.int32):
            info = np.iinfo(candidate)
            if len(diffs) == 0 or (diffs.min() >= info.min and diffs.max() <= info.max):
                return cls(int(values[0]), diffs.astype(candidate), values.dtype)
        return cls(int(values[0]), diffs, values.dtype)

    def __len__(self) -> int:
        return len(self.deltas) + 1

    def materialize(self) -> np.ndarray:
        return self.slice(0, len(self))

    def slice(self, start: int, stop: int) -> np.ndarray:
        stop = min(stop, len(self))
        if start >= stop:
            return np.empty(0, dtype=self._out_dtype)
        block = start // self.CHECKPOINT_ROWS
        origin = block * self.CHECKPOINT_ROWS
        out = np.empty(stop - origin, dtype=np.int64)
        out[0] = 0
        np.cumsum(self.deltas[origin : stop - 1], out=out[1:], dtype=np.int64)
        out += self._checkpoints[block]
        return out[start - origin :].astype(self._out_dtype, copy=False)

    def take(self, indices: np.ndarray) -> np.ndarray:
        if len(indices) == 0:
            return np.empty(0, dtype=self._out_dtype)
        lo = int(indices.min())
        return self.slice(lo, int(indices.max()) + 1)[indices - lo]

    @property
    def nbytes(self) -> int:
        return int(self.deltas.nbytes + self._checkpoints.nbytes) + 8


class ForVector(PhysicalVector):
    """Frame-of-reference encoding: ``value − base`` in the narrowest
    unsigned dtype that holds the span, ``(base, span)`` recorded when
    encoding. The offsets are order-preserving codes in ``[0, span)`` that
    a group-by reads as they are; decoding is one add per row, no running
    sum, so :meth:`window` is a view of the offsets."""

    encoding = "for"

    def __init__(self, base: int, offsets: np.ndarray, span: int, dtype: np.dtype = np.dtype(np.int64)):
        self.base, self.offsets, self.span, self.dtype = int(base), offsets, int(span), np.dtype(dtype)

    @classmethod
    def from_plain(cls, values: np.ndarray) -> "ForVector":
        lo, hi = (int(values.min()), int(values.max())) if len(values) else (0, -1)
        if not 0 <= hi - lo <= np.iinfo(np.uint16).max:
            raise StorageError(f"{len(values)} values spanning {hi - lo + 1} take no 16-bit offsets")
        width = np.uint8 if hi - lo <= np.iinfo(np.uint8).max else np.uint16
        return cls(lo, (values.astype(np.int64) - lo).astype(width), hi - lo + 1, values.dtype)

    def __len__(self) -> int:
        return len(self.offsets)

    def take(self, indices) -> np.ndarray:
        out = self.offsets[indices].astype(self.dtype)
        out += self.base
        return out

    def materialize(self) -> np.ndarray:
        return self.take(slice(None))

    def slice(self, start: int, stop: int) -> np.ndarray:
        return self.take(slice(start, stop))

    def window(self, start: int, stop: int) -> "ForVector":
        return ForVector(self.base, self.offsets[start:stop], self.span, self.dtype)

    @property
    def nbytes(self) -> int:
        return int(self.offsets.nbytes) + 16


#: Minimum average run length for RLE to be chosen over plain storage.
RLE_MIN_AVG_RUN = 2.0


def encode_best(values: np.ndarray, *, prefer: str | None = None) -> PhysicalVector:
    """Choose a storage encoding for a plain array.

    ``prefer`` forces ``"plain"``, ``"rle"``, ``"delta"`` or ``"for"``;
    otherwise the encoder picks RLE when the average run length is at
    least ``RLE_MIN_AVG_RUN``, delta for monotone int64 data whose deltas
    fit in 16 bits, frame-of-reference for other integers whose span fits
    16 bits, and plain otherwise. Object (string) arrays are never encoded
    here — they go through dictionary compression first, after which their
    codes can be encoded.
    """
    if prefer is not None:
        encoders = {"plain": PlainVector, "rle": RleVector, "delta": DeltaVector, "for": ForVector}
        if prefer not in encoders:
            raise StorageError(f"unknown encoding preference {prefer!r}")
        return PlainVector(values) if prefer == "plain" else encoders[prefer].from_plain(values)
    n = len(values)
    if n == 0 or values.dtype == object:
        return PlainVector(values)
    rle = RleVector.from_plain(values)
    if n / max(rle.n_runs, 1) >= RLE_MIN_AVG_RUN:
        return rle
    if values.dtype.kind == "i" and n >= 2:
        diffs = np.diff(values.astype(np.int64))
        if (diffs.min() >= 0 or diffs.max() <= 0) and -32768 <= diffs.min() and diffs.max() <= 32767:
            return DeltaVector.from_plain(values)
        if int(values.max()) - int(values.min()) <= np.iinfo(np.uint16).max:
            return ForVector.from_plain(values)
    return PlainVector(values)
