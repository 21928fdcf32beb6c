"""Scalar function registry: typing rules, vectorized kernels, cost profile.

The cost profile mirrors the paper's observation (4.2.2) that "certain
operations, such as string manipulations, are much more expensive than
others, even though the engine employs vectorization" — the TDE's parallel
plan generator consults these constants when deciding the degree of
parallelism, and the virtual-time simulator charges them per row.

Kernels come in two flavours:

* *null-propagating* (the default): the wrapper in ``repro.expr.eval``
  computes the OR of input masks; the kernel sees raw value arrays.
* *mask-aware*: the kernel receives ``(values, mask)`` pairs and returns
  ``(values, mask)`` — needed for three-valued AND/OR, IS NULL, IFNULL,
  IN, and division (which yields NULL on a zero divisor, matching the
  product's forgiving semantics for ad-hoc calculations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..datatypes import LogicalType, promote
from ..errors import TypeMismatchError

Mask = "np.ndarray | None"


@dataclass(frozen=True)
class FunctionDef:
    """One registered scalar function."""

    name: str
    min_args: int
    max_args: int
    type_fn: Callable[[list[LogicalType]], LogicalType]
    kernel: Callable
    cost: float = 1.0
    mask_aware: bool = False


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise TypeMismatchError(msg)


# ---------------------------------------------------------------------- #
# Type rules
# ---------------------------------------------------------------------- #
def _t_numeric_binary(ts: list[LogicalType]) -> LogicalType:
    _require(all(t.is_numeric for t in ts), f"numeric op over {[t.name for t in ts]}")
    return promote(ts[0], ts[1])


def _t_float_binary(ts: list[LogicalType]) -> LogicalType:
    _require(all(t.is_numeric for t in ts), f"numeric op over {[t.name for t in ts]}")
    return LogicalType.FLOAT


def _t_comparison(ts: list[LogicalType]) -> LogicalType:
    if ts[0] != ts[1]:
        promote(ts[0], ts[1])  # raises if incomparable
    return LogicalType.BOOL


def _t_bool_args(ts: list[LogicalType]) -> LogicalType:
    _require(all(t is LogicalType.BOOL for t in ts), "logical op over non-BOOL")
    return LogicalType.BOOL


def _t_numeric_unary(ts: list[LogicalType]) -> LogicalType:
    _require(ts[0].is_numeric, f"numeric function over {ts[0].name}")
    return ts[0]


def _t_float_unary(ts: list[LogicalType]) -> LogicalType:
    _require(ts[0].is_numeric, f"numeric function over {ts[0].name}")
    return LogicalType.FLOAT


def _t_str_unary(ts: list[LogicalType]) -> LogicalType:
    _require(ts[0] is LogicalType.STR, f"string function over {ts[0].name}")
    return LogicalType.STR


def _t_str_pred(ts: list[LogicalType]) -> LogicalType:
    _require(all(t is LogicalType.STR for t in ts), "string predicate over non-STR")
    return LogicalType.BOOL


def _t_temporal_part(ts: list[LogicalType]) -> LogicalType:
    _require(ts[0].is_temporal, f"date part of {ts[0].name}")
    return LogicalType.INT


# ---------------------------------------------------------------------- #
# Kernel helpers
# ---------------------------------------------------------------------- #
def _str_map(fn: Callable[[str], object], values: np.ndarray, dtype=object) -> np.ndarray:
    out = np.empty(len(values), dtype=dtype)
    for i, v in enumerate(values):
        out[i] = fn(v)
    return out


def _ymd(days: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d64 = days.astype("datetime64[D]")
    months = d64.astype("datetime64[M]")
    years = d64.astype("datetime64[Y]")
    year = years.astype(np.int64) + 1970
    month = months.astype(np.int64) % 12 + 1
    day = (d64 - months).astype(np.int64) + 1
    return year, month, day


# ---------------------------------------------------------------------- #
# Mask-aware kernels
# ---------------------------------------------------------------------- #
def _k_and(args, n):
    (av, am), (bv, bm) = args
    av = av.astype(np.bool_)
    bv = bv.astype(np.bool_)
    out = av & bv
    if am is None and bm is None:
        return out, None
    am_ = am if am is not None else np.zeros(n, dtype=np.bool_)
    bm_ = bm if bm is not None else np.zeros(n, dtype=np.bool_)
    # Kleene: NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
    known_false = (~am_ & ~av) | (~bm_ & ~bv)
    mask = (am_ | bm_) & ~known_false
    return out & ~mask, (mask if mask.any() else None)


def _k_or(args, n):
    (av, am), (bv, bm) = args
    av = av.astype(np.bool_)
    bv = bv.astype(np.bool_)
    out = av | bv
    if am is None and bm is None:
        return out, None
    am_ = am if am is not None else np.zeros(n, dtype=np.bool_)
    bm_ = bm if bm is not None else np.zeros(n, dtype=np.bool_)
    known_true = (~am_ & av) | (~bm_ & bv)
    mask = (am_ | bm_) & ~known_true
    return out | (~am_ & av) | (~bm_ & bv), (mask if mask.any() else None)


def _k_isnull(args, n):
    (_, mask) = args[0]
    out = mask.copy() if mask is not None else np.zeros(n, dtype=np.bool_)
    return out, None


def _k_ifnull(args, n):
    (av, am), (bv, bm) = args
    if am is None:
        return av, None
    out = np.where(am, bv, av)
    if av.dtype == object:
        out = out.astype(object)
    mask = (am & bm) if bm is not None else None
    return out, (mask if mask is not None and mask.any() else None)


def _k_in(args, n):
    (xv, xm), (setv, _) = args
    # The second argument is a tuple literal broadcast as a 0-arg object.
    values = setv[0] if len(setv) else ()
    if xv.dtype == object:
        members = set(values)
        out = np.fromiter(map(members.__contains__, xv), dtype=np.bool_, count=n)
    else:
        out = np.isin(xv, np.asarray(list(values))) if len(values) else np.zeros(n, np.bool_)
    return out, (xm.copy() if xm is not None else None)


def _k_div(args, n):
    (av, am), (bv, bm) = args
    a = av.astype(np.float64)
    b = bv.astype(np.float64)
    zero = b == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(zero, 0.0, a / np.where(zero, 1.0, b))
    mask = zero.copy()
    if am is not None:
        mask |= am
    if bm is not None:
        mask |= bm
    return out, (mask if mask.any() else None)


def _k_mod(args, n):
    (av, am), (bv, bm) = args
    zero = bv == 0
    safe = np.where(zero, 1, bv)
    out = np.mod(av, safe)
    mask = zero.copy()
    if am is not None:
        mask |= am
    if bm is not None:
        mask |= bm
    return out, (mask if mask.any() else None)


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
FUNCTIONS: dict[str, FunctionDef] = {}


def _register(
    name: str,
    min_args: int,
    max_args: int,
    type_fn,
    kernel,
    *,
    cost: float = 1.0,
    mask_aware: bool = False,
) -> None:
    FUNCTIONS[name] = FunctionDef(name, min_args, max_args, type_fn, kernel, cost, mask_aware)


_register("+", 2, 2, _t_numeric_binary, lambda a: a[0] + a[1])
_register("-", 2, 2, _t_numeric_binary, lambda a: a[0] - a[1])
_register("*", 2, 2, _t_numeric_binary, lambda a: a[0] * a[1])
_register("/", 2, 2, _t_float_binary, _k_div, mask_aware=True)
_register("%", 2, 2, _t_numeric_binary, _k_mod, mask_aware=True)
_register("neg", 1, 1, _t_numeric_unary, lambda a: -a[0])

_register("=", 2, 2, _t_comparison, lambda a: np.asarray(a[0] == a[1], dtype=np.bool_))
_register("<>", 2, 2, _t_comparison, lambda a: np.asarray(a[0] != a[1], dtype=np.bool_))
_register("<", 2, 2, _t_comparison, lambda a: np.asarray(a[0] < a[1], dtype=np.bool_))
_register("<=", 2, 2, _t_comparison, lambda a: np.asarray(a[0] <= a[1], dtype=np.bool_))
_register(">", 2, 2, _t_comparison, lambda a: np.asarray(a[0] > a[1], dtype=np.bool_))
_register(">=", 2, 2, _t_comparison, lambda a: np.asarray(a[0] >= a[1], dtype=np.bool_))

_register("and", 2, 2, _t_bool_args, _k_and, mask_aware=True)
_register("or", 2, 2, _t_bool_args, _k_or, mask_aware=True)
_register("not", 1, 1, _t_bool_args, lambda a: ~a[0].astype(np.bool_))

def _t_ifnull(ts: list[LogicalType]) -> LogicalType:
    _require(ts[0] == ts[1], f"ifnull arguments differ: {[t.name for t in ts]}")
    return ts[0]


_register("isnull", 1, 1, lambda ts: LogicalType.BOOL, _k_isnull, mask_aware=True)
_register("ifnull", 2, 2, _t_ifnull, _k_ifnull, mask_aware=True)
_register("in", 2, 2, lambda ts: LogicalType.BOOL, _k_in, cost=1.5, mask_aware=True)

_register("abs", 1, 1, _t_numeric_unary, lambda a: np.abs(a[0]))
_register("floor", 1, 1, _t_numeric_unary, lambda a: np.floor(a[0]).astype(a[0].dtype), cost=1.5)
_register("ceil", 1, 1, _t_numeric_unary, lambda a: np.ceil(a[0]).astype(a[0].dtype), cost=1.5)
_register("round", 1, 2, _t_float_unary, lambda a: np.round(a[0].astype(np.float64), int(a[1][0]) if len(a) > 1 else 0), cost=1.5)
_register("sqrt", 1, 1, _t_float_unary, lambda a: np.sqrt(np.abs(a[0].astype(np.float64))), cost=4.0)
_register("ln", 1, 1, _t_float_unary, lambda a: np.log(np.maximum(a[0].astype(np.float64), 1e-300)), cost=4.0)
_register("exp", 1, 1, _t_float_unary, lambda a: np.exp(a[0].astype(np.float64)), cost=4.0)
_register("pow", 2, 2, _t_float_binary, lambda a: np.power(a[0].astype(np.float64), a[1].astype(np.float64)), cost=4.0)

_register("upper", 1, 1, _t_str_unary, lambda a: _str_map(str.upper, a[0]), cost=8.0)
_register("lower", 1, 1, _t_str_unary, lambda a: _str_map(str.lower, a[0]), cost=8.0)
_register("trim", 1, 1, _t_str_unary, lambda a: _str_map(str.strip, a[0]), cost=8.0)
_register(
    "len",
    1,
    1,
    lambda ts: (_require(ts[0] is LogicalType.STR, "len of non-STR"), LogicalType.INT)[1],
    lambda a: _str_map(len, a[0], dtype=np.int64),
    cost=6.0,
)
_register(
    "substr",
    3,
    3,
    lambda ts: _t_str_unary(ts[:1]),
    lambda a: _substr_kernel(a),
    cost=8.0,
)
_register(
    "concat",
    2,
    8,
    lambda ts: (_require(all(t is LogicalType.STR for t in ts), "concat of non-STR"), LogicalType.STR)[1],
    lambda a: _concat_kernel(a),
    cost=10.0,
)
_register("contains", 2, 2, _t_str_pred, lambda a: np.fromiter((y in x for x, y in zip(a[0], a[1])), np.bool_, len(a[0])), cost=8.0)
_register("startswith", 2, 2, _t_str_pred, lambda a: np.fromiter((x.startswith(y) for x, y in zip(a[0], a[1])), np.bool_, len(a[0])), cost=8.0)
_register("endswith", 2, 2, _t_str_pred, lambda a: np.fromiter((x.endswith(y) for x, y in zip(a[0], a[1])), np.bool_, len(a[0])), cost=8.0)

_register("year", 1, 1, _t_temporal_part, lambda a: _ymd(a[0])[0], cost=2.0)
_register("month", 1, 1, _t_temporal_part, lambda a: _ymd(a[0])[1], cost=2.0)
_register("day", 1, 1, _t_temporal_part, lambda a: _ymd(a[0])[2], cost=2.0)
_register("weekday", 1, 1, _t_temporal_part, lambda a: (a[0] + 3) % 7, cost=2.0)
_register(
    "hour",
    1,
    1,
    lambda ts: (_require(ts[0] is LogicalType.DATETIME, "hour of non-DATETIME"), LogicalType.INT)[1],
    lambda a: (a[0] // 3_600_000_000) % 24,
    cost=2.0,
)


def _substr_kernel(a):
    values, starts, lengths = a[0], a[1], a[2]
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        s = int(starts[i]) - 1  # 1-based, SQL style
        out[i] = v[s : s + int(lengths[i])]
    return out


def _concat_kernel(a):
    out = np.empty(len(a[0]), dtype=object)
    for i in range(len(a[0])):
        out[i] = "".join(str(part[i]) for part in a)
    return out


def function_cost(name: str) -> float:
    """Per-row cost weight of a function (1.0 = one arithmetic op)."""
    fdef = FUNCTIONS.get(name)
    return fdef.cost if fdef is not None else 1.0
