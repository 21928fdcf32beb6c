"""Logical type system shared by the TDE, the SQL front end and the caches.

The engine supports a deliberately small set of logical types — the ones the
paper's workloads exercise (section 2: filtering, calculations, aggregation
over relational data):

* ``BOOL``    — three-valued logic with NULL handled via validity masks
* ``INT``     — 64-bit signed integers
* ``FLOAT``   — IEEE double
* ``STR``     — unicode strings, optionally collated (see ``repro.collation``)
* ``DATE``    — days since 1970-01-01, stored as int64
* ``DATETIME``— microseconds since epoch, stored as int64

NULL is represented *outside* the value arrays by per-column validity masks;
the value slot under a NULL is an arbitrary fill value and must never be
read. Helpers in this module define promotion/coercion rules used by the
expression binder and the SQL generator.
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Any

import numpy as np

from .errors import TypeMismatchError

_EPOCH_DATE = _dt.date(1970, 1, 1)
_EPOCH_DATETIME = _dt.datetime(1970, 1, 1)


class LogicalType(enum.Enum):
    """Logical column/expression types understood by the engine."""

    BOOL = "bool"
    INT = "int"
    FLOAT = "float"
    STR = "str"
    DATE = "date"
    DATETIME = "datetime"

    # ------------------------------------------------------------------ #
    # Classification helpers
    # ------------------------------------------------------------------ #
    @property
    def is_numeric(self) -> bool:
        return self in (LogicalType.INT, LogicalType.FLOAT)

    @property
    def is_temporal(self) -> bool:
        return self in (LogicalType.DATE, LogicalType.DATETIME)

    def numpy_dtype(self) -> np.dtype:
        """Physical numpy dtype used for plain storage of this type."""
        return _NUMPY_DTYPES[self]

    def fill_value(self) -> Any:
        """Value stored under NULL slots (never observable)."""
        return "" if self is LogicalType.STR else _FILL_VALUES[self]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LogicalType.{self.name}"


_NUMPY_DTYPES = {
    LogicalType.BOOL: np.dtype(np.bool_),
    LogicalType.INT: np.dtype(np.int64),
    LogicalType.FLOAT: np.dtype(np.float64),
    LogicalType.STR: np.dtype(object),
    LogicalType.DATE: np.dtype(np.int64),
    LogicalType.DATETIME: np.dtype(np.int64),
}

_FILL_VALUES = {
    LogicalType.BOOL: False,
    LogicalType.INT: 0,
    LogicalType.FLOAT: 0.0,
    LogicalType.DATE: 0,
    LogicalType.DATETIME: 0,
}

#: Types whose plain representation is an int64 array.
_INT64_BACKED = (LogicalType.INT, LogicalType.DATE, LogicalType.DATETIME)


# ---------------------------------------------------------------------- #
# Promotion / coercion
# ---------------------------------------------------------------------- #
def promote(a: LogicalType, b: LogicalType) -> LogicalType:
    """Return the common type for a binary arithmetic/comparison operation.

    Promotion follows the usual SQL rules restricted to our type set:
    INT + FLOAT -> FLOAT; identical types promote to themselves; DATE and
    DATETIME promote to DATETIME. Anything else is a type error.
    """
    if a == b:
        return a
    pair = {a, b}
    if pair == {LogicalType.INT, LogicalType.FLOAT}:
        return LogicalType.FLOAT
    if pair == {LogicalType.DATE, LogicalType.DATETIME}:
        return LogicalType.DATETIME
    raise TypeMismatchError(f"no common type for {a.name} and {b.name}")


def can_cast(src: LogicalType, dst: LogicalType) -> bool:
    """Whether an explicit CAST from ``src`` to ``dst`` is supported."""
    if src == dst:
        return True
    allowed = {
        LogicalType.INT: {LogicalType.FLOAT, LogicalType.BOOL, LogicalType.STR},
        LogicalType.FLOAT: {LogicalType.INT, LogicalType.STR},
        LogicalType.BOOL: {LogicalType.INT, LogicalType.STR},
        LogicalType.STR: {LogicalType.INT, LogicalType.FLOAT, LogicalType.BOOL},
        LogicalType.DATE: {LogicalType.DATETIME, LogicalType.STR, LogicalType.INT},
        LogicalType.DATETIME: {LogicalType.DATE, LogicalType.STR, LogicalType.INT},
    }
    return dst in allowed[src]


# ---------------------------------------------------------------------- #
# Python <-> engine value conversion
# ---------------------------------------------------------------------- #
def infer_type(value: Any) -> LogicalType:
    """Infer the logical type of a single Python value (for literals)."""
    if isinstance(value, bool):
        return LogicalType.BOOL
    if isinstance(value, (int, np.integer)):
        return LogicalType.INT
    if isinstance(value, (float, np.floating)):
        return LogicalType.FLOAT
    if isinstance(value, str):
        return LogicalType.STR
    if isinstance(value, _dt.datetime):
        return LogicalType.DATETIME
    if isinstance(value, _dt.date):
        return LogicalType.DATE
    raise TypeMismatchError(f"unsupported literal {value!r} of {type(value).__name__}")


def to_storage(value: Any, ltype: LogicalType) -> Any:
    """Convert one Python value to its physical (storage) representation."""
    if value is None:
        return ltype.fill_value()
    if ltype is LogicalType.DATE:
        if isinstance(value, _dt.datetime):
            value = value.date()
        if isinstance(value, _dt.date):
            return (value - _EPOCH_DATE).days
        return int(value)
    if ltype is LogicalType.DATETIME:
        if isinstance(value, _dt.datetime):
            return round((value - _EPOCH_DATETIME).total_seconds() * 1_000_000)
        if isinstance(value, _dt.date):
            return round(
                (_dt.datetime.combine(value, _dt.time()) - _EPOCH_DATETIME).total_seconds()
                * 1_000_000
            )
        return int(value)
    if ltype is LogicalType.BOOL:
        return bool(value)
    if ltype is LogicalType.INT:
        return int(value)
    if ltype is LogicalType.FLOAT:
        return float(value)
    if ltype is LogicalType.STR:
        return str(value)
    raise TypeMismatchError(f"cannot store {value!r} as {ltype.name}")


def from_storage(raw: Any, ltype: LogicalType) -> Any:
    """Convert one physical value back to a friendly Python value."""
    if ltype is LogicalType.DATE:
        return _EPOCH_DATE + _dt.timedelta(days=int(raw))
    if ltype is LogicalType.DATETIME:
        return _EPOCH_DATETIME + _dt.timedelta(microseconds=int(raw))
    if ltype is LogicalType.BOOL:
        return bool(raw)
    if ltype is LogicalType.INT:
        return int(raw)
    if ltype is LogicalType.FLOAT:
        return float(raw)
    return raw


def storage_array(values: list[Any], ltype: LogicalType) -> tuple[np.ndarray, np.ndarray | None]:
    """Build a (values, null_mask) pair from a list of Python values.

    ``null_mask`` is ``None`` when no value is NULL; otherwise a boolean
    array with ``True`` marking NULL slots.
    """
    mask = np.fromiter((v is None for v in values), dtype=np.bool_, count=len(values))
    storage = [to_storage(v, ltype) for v in values]
    if ltype is LogicalType.STR:
        arr = np.empty(len(storage), dtype=object)
        arr[:] = storage
    else:
        arr = np.asarray(storage, dtype=ltype.numpy_dtype())
    return arr, (mask if mask.any() else None)
