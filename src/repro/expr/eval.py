"""Vectorized expression evaluation over storage tables.

``evaluate`` returns ``(values, null_mask)`` in storage representation
(dates as day counts, datetimes as microseconds). It is used by the TDE's
Select/Project operators, by the simulated SQL servers, and by the
intelligent cache's local post-processing stage. A table is anything
with the storage ``Table`` interface (``column``, ``n_rows``, ...): the
evaluator sits below the storage layer in the package order.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..datatypes import LogicalType, from_storage, to_storage, infer_type as infer_literal
from ..errors import BindError, ExecutionError
from .ast import Call, CaseWhen, Cast, ColumnRef, Expr, Literal, infer_type
from .functions import FUNCTIONS

#: Functions whose temporal argument must be normalized to *days*.
_DAY_FUNCS = {"year", "month", "day", "weekday"}

_MICROS_PER_DAY = 86_400_000_000


def evaluate(expr: Expr, table: Any) -> tuple[np.ndarray, np.ndarray | None]:
    """Evaluate ``expr`` over every row of ``table``."""
    schema = table.schema()
    return _eval(expr, table, schema)


def evaluate_predicate(expr: Expr, table: Any) -> np.ndarray:
    """Evaluate a BOOL predicate; NULL results are treated as False."""
    values, mask = evaluate(expr, table)
    keep = values.astype(np.bool_)
    if mask is not None:
        keep = keep & ~mask
    return keep


def _eval(expr: Expr, table: Any, schema) -> tuple[np.ndarray, np.ndarray | None]:
    n = table.n_rows
    if isinstance(expr, ColumnRef):
        if not table.has_column(expr.name):
            raise BindError(f"unknown column {expr.name!r}; have {table.column_names}")
        col = table.column(expr.name)
        return col.storage_values(), col.null_mask
    if isinstance(expr, Literal):
        if isinstance(expr.value, tuple):
            holder = np.empty(1, dtype=object)
            holder[0] = tuple(to_storage(v, _element_type(expr)) for v in expr.value)
            return holder, None
        if expr.value is None:
            ltype = expr.ltype or LogicalType.INT
            return (
                np.full(n, ltype.fill_value(), dtype=ltype.numpy_dtype()),
                np.ones(n, dtype=np.bool_),
            )
        storage = to_storage(expr.value, expr.ltype)
        if expr.ltype is LogicalType.STR:
            arr = np.empty(n, dtype=object)
            arr[:] = storage
            return arr, None
        return np.full(n, storage, dtype=expr.ltype.numpy_dtype()), None
    if isinstance(expr, Cast):
        return _eval_cast(expr, table, schema)
    if isinstance(expr, CaseWhen):
        return _eval_case(expr, table, schema, n)
    if isinstance(expr, Call):
        return _eval_call(expr, table, schema, n)
    raise ExecutionError(f"cannot evaluate {expr!r}")


def _element_type(lit: Literal) -> LogicalType:
    for v in lit.value:
        if v is not None:
            return infer_literal(v)
    return LogicalType.INT


def _eval_call(expr: Call, table, schema, n: int):
    fdef = FUNCTIONS.get(expr.func)
    if fdef is None:
        raise BindError(f"unknown function {expr.func!r}")
    if not (fdef.min_args <= len(expr.args) <= fdef.max_args):
        raise BindError(f"{expr.func} takes {fdef.min_args}..{fdef.max_args} args")
    args = [_eval(a, table, schema) for a in expr.args]
    if expr.func in _DAY_FUNCS:
        arg_type = infer_type(expr.args[0], schema)
        if arg_type is LogicalType.DATETIME:
            values, mask = args[0]
            args[0] = (values // _MICROS_PER_DAY, mask)
    if fdef.mask_aware:
        return fdef.kernel(args, n)
    mask: np.ndarray | None = None
    for _, m in args:
        if m is not None:
            mask = m.copy() if mask is None else (mask | m)
    values = fdef.kernel([v for v, _ in args])
    return values, mask


def _eval_case(expr: CaseWhen, table, schema, n: int):
    result_type = infer_type(expr, schema)
    out = np.full(n, result_type.fill_value(), dtype=result_type.numpy_dtype())
    out_mask = np.zeros(n, dtype=np.bool_)
    decided = np.zeros(n, dtype=np.bool_)
    for cond, value in expr.branches:
        cv, cm = _eval(cond, table, schema)
        taken = cv.astype(np.bool_)
        if cm is not None:
            taken = taken & ~cm
        taken = taken & ~decided
        if taken.any():
            vv, vm = _eval(value, table, schema)
            out[taken] = vv[taken]
            if vm is not None:
                out_mask[taken] = vm[taken]
        decided |= taken
    rest = ~decided
    if rest.any():
        ev, em = _eval(expr.otherwise, table, schema)
        out[rest] = ev[rest]
        if em is not None:
            out_mask[rest] = em[rest]
    return out, (out_mask if out_mask.any() else None)


def _eval_cast(expr: Cast, table, schema):
    src_type = infer_type(expr.arg, schema)
    values, mask = _eval(expr.arg, table, schema)
    dst = expr.to
    if src_type == dst:
        return values, mask
    if dst is LogicalType.STR:
        out = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            out[i] = str(from_storage(v, src_type))
        return out, mask
    if src_type is LogicalType.STR:
        return _cast_from_str(values, mask, dst)
    if src_type is LogicalType.DATE and dst is LogicalType.DATETIME:
        return values * _MICROS_PER_DAY, mask
    if src_type is LogicalType.DATETIME and dst is LogicalType.DATE:
        return values // _MICROS_PER_DAY, mask
    if dst is LogicalType.BOOL:
        return values != 0, mask
    if dst is LogicalType.INT:
        return values.astype(np.int64), mask
    if dst is LogicalType.FLOAT:
        return values.astype(np.float64), mask
    raise ExecutionError(f"unsupported cast {src_type.name} -> {dst.name}")


def _cast_from_str(values: np.ndarray, mask: np.ndarray | None, dst: LogicalType):
    n = len(values)
    out_mask = mask.copy() if mask is not None else np.zeros(n, dtype=np.bool_)
    out = np.full(n, dst.fill_value(), dtype=dst.numpy_dtype())
    for i, v in enumerate(values):
        if out_mask[i]:
            continue
        try:
            if dst is LogicalType.INT:
                out[i] = int(v)
            elif dst is LogicalType.FLOAT:
                out[i] = float(v)
            elif dst is LogicalType.BOOL:
                out[i] = v.strip().lower() in ("true", "1", "yes", "t")
            else:
                raise ValueError(dst)
        except (ValueError, TypeError):
            out_mask[i] = True  # unparseable strings become NULL
    return out, (out_mask if out_mask.any() else None)
