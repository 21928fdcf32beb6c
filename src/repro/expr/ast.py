"""Expression AST nodes.

All nodes are frozen dataclasses with structural equality and hashing; the
intelligent cache and the common-subexpression-elimination rewrite rely on
both. Types are *inferred*, not stored: :func:`infer_type` walks a tree
against an input schema, which keeps nodes reusable across schemas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from ..datatypes import LogicalType, can_cast, infer_type as infer_literal_type, promote
from ..errors import BindError, TypeMismatchError
from .functions import FUNCTIONS


class Expr:
    """Base class for scalar expressions."""

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Reference to an input column by name."""

    name: str

    def __repr__(self) -> str:
        return f"col({self.name})"


@dataclass(frozen=True)
class Literal(Expr):
    """A constant. ``value is None`` encodes the typed NULL literal."""

    value: Any
    ltype: LogicalType | None = None

    def __post_init__(self) -> None:
        if isinstance(self.value, list):
            object.__setattr__(self, "value", tuple(self.value))
        if (
            self.value is not None
            and self.ltype is None
            and not isinstance(self.value, tuple)
        ):
            object.__setattr__(self, "ltype", infer_literal_type(self.value))

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


@dataclass(frozen=True)
class Call(Expr):
    """A function or operator application.

    Operators are spelled as function names: ``+ - * / % = <> < <= > >=
    and or not in ...`` — see ``repro.expr.functions`` for the registry.
    """

    func: str
    args: tuple[Expr, ...]

    def __init__(self, func: str, args: tuple[Expr, ...] | list[Expr]):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(args))

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __repr__(self) -> str:
        return f"{self.func}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class Cast(Expr):
    """Explicit cast to a target logical type."""

    arg: Expr
    to: LogicalType

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def __repr__(self) -> str:
        return f"cast({self.arg!r} as {self.to.name})"


@dataclass(frozen=True)
class CaseWhen(Expr):
    """``CASE WHEN c1 THEN v1 ... ELSE e END``."""

    branches: tuple[tuple[Expr, Expr], ...]
    otherwise: Expr

    def __init__(self, branches, otherwise: Expr):
        object.__setattr__(self, "branches", tuple((c, v) for c, v in branches))
        object.__setattr__(self, "otherwise", otherwise)

    def children(self) -> tuple[Expr, ...]:
        out: list[Expr] = []
        for cond, val in self.branches:
            out.append(cond)
            out.append(val)
        out.append(self.otherwise)
        return tuple(out)


@dataclass(frozen=True)
class AggExpr:
    """An aggregate application: ``func`` over ``arg`` (None for COUNT(*)).

    Supported: sum, min, max, avg, count, count_distinct. Aggregates skip
    NULL inputs; COUNT(*) counts rows.
    """

    func: str
    arg: Expr | None = None

    SUPPORTED = ("sum", "min", "max", "avg", "count", "count_distinct")

    def __post_init__(self) -> None:
        if self.func not in self.SUPPORTED:
            raise BindError(f"unknown aggregate {self.func!r}")
        if self.func != "count" and self.arg is None:
            raise BindError(f"aggregate {self.func} requires an argument")

    def walk(self) -> Iterator[Expr]:
        if self.arg is not None:
            yield from self.arg.walk()

    def result_type(self, schema: Mapping[str, LogicalType]) -> LogicalType:
        if self.func in ("count", "count_distinct"):
            return LogicalType.INT
        arg_type = infer_type(self.arg, schema)
        if self.func == "avg":
            if not arg_type.is_numeric:
                raise TypeMismatchError(f"avg over {arg_type.name}")
            return LogicalType.FLOAT
        if self.func == "sum":
            if not arg_type.is_numeric:
                raise TypeMismatchError(f"sum over {arg_type.name}")
            return arg_type
        return arg_type  # min/max preserve type

    def __repr__(self) -> str:
        return f"{self.func}({'*' if self.arg is None else self.arg!r})"


# ---------------------------------------------------------------------- #
# Analysis helpers
# ---------------------------------------------------------------------- #
def infer_type(expr: Expr, schema: Mapping[str, LogicalType]) -> LogicalType:
    """Infer the logical type of ``expr`` against ``schema``.

    Raises :class:`BindError` for unresolved columns and
    :class:`TypeMismatchError` for ill-typed applications.
    """
    if isinstance(expr, ColumnRef):
        if expr.name not in schema:
            raise BindError(f"unknown column {expr.name!r}; have {sorted(schema)}")
        return schema[expr.name]
    if isinstance(expr, Literal):
        if expr.ltype is None:
            raise BindError("untyped NULL literal; wrap in Cast")
        return expr.ltype
    if isinstance(expr, Cast):
        src = infer_type(expr.arg, schema)
        if not can_cast(src, expr.to):
            raise TypeMismatchError(f"cannot cast {src.name} to {expr.to.name}")
        return expr.to
    if isinstance(expr, CaseWhen):
        result: LogicalType | None = None
        for cond, value in expr.branches:
            if infer_type(cond, schema) is not LogicalType.BOOL:
                raise TypeMismatchError("CASE condition must be BOOL")
            vt = infer_type(value, schema)
            result = vt if result is None else promote(result, vt)
        return promote(result, infer_type(expr.otherwise, schema))
    if isinstance(expr, Call):
        fdef = FUNCTIONS.get(expr.func)
        if fdef is None:
            raise BindError(f"unknown function {expr.func!r}")
        if expr.func == "in":
            # The second argument is a set literal with no scalar type.
            infer_type(expr.args[0], schema)
            return LogicalType.BOOL
        arg_types = [infer_type(a, schema) for a in expr.args]
        return fdef.type_fn(arg_types)
    raise BindError(f"cannot type {expr!r}")


def columns_used(expr: Expr | AggExpr | None) -> set[str]:
    """The set of input column names referenced anywhere in the tree."""
    if expr is None:
        return set()
    return {node.name for node in expr.walk() if isinstance(node, ColumnRef)}


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace column references by expressions (used by push-downs)."""
    if isinstance(expr, ColumnRef):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, Cast):
        return Cast(substitute(expr.arg, mapping), expr.to)
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            tuple((substitute(c, mapping), substitute(v, mapping)) for c, v in expr.branches),
            substitute(expr.otherwise, mapping),
        )
    if isinstance(expr, Call):
        return Call(expr.func, tuple(substitute(a, mapping) for a in expr.args))
    raise BindError(f"cannot substitute into {expr!r}")


def conjuncts(predicate: Expr | None) -> list[Expr]:
    """Split a predicate into top-level AND conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, Call) and predicate.func == "and":
        out: list[Expr] = []
        for arg in predicate.args:
            out.extend(conjuncts(arg))
        return out
    return [predicate]


def conjoin(predicates: list[Expr]) -> Expr | None:
    """Combine predicates with AND; None for the empty list."""
    if not predicates:
        return None
    result = predicates[0]
    for p in predicates[1:]:
        result = Call("and", (result, p))
    return result
