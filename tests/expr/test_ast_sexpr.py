"""Tests for the expression AST helpers and the s-expression round trip."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import LogicalType
from repro.errors import BindError, TqlParseError, TypeMismatchError
from repro.expr import (
    AggExpr,
    Call,
    Cast,
    ColumnRef,
    Literal,
    columns_used,
    infer_type,
    parse_sexpr,
    substitute,
    to_sexpr,
)
from repro.expr.ast import conjoin, conjuncts

SCHEMA = {"a": LogicalType.INT, "b": LogicalType.FLOAT, "s": LogicalType.STR}


class TestInferType:
    def test_promotion(self):
        assert infer_type(parse_sexpr("(+ a b)"), SCHEMA) is LogicalType.FLOAT
        assert infer_type(parse_sexpr("(+ a a)"), SCHEMA) is LogicalType.INT

    def test_division_always_float(self):
        assert infer_type(parse_sexpr("(/ a a)"), SCHEMA) is LogicalType.FLOAT

    def test_comparison_is_bool(self):
        assert infer_type(parse_sexpr("(< a b)"), SCHEMA) is LogicalType.BOOL

    def test_incompatible_comparison(self):
        with pytest.raises(TypeMismatchError):
            infer_type(parse_sexpr("(< a s)"), SCHEMA)

    def test_unknown_column(self):
        with pytest.raises(BindError):
            infer_type(parse_sexpr("zzz"), SCHEMA)

    def test_unknown_function(self):
        with pytest.raises(BindError):
            infer_type(Call("frobnicate", (ColumnRef("a"),)), SCHEMA)

    def test_case_promotes_branches(self):
        e = parse_sexpr("(case (when (> a 0) a) (else b))")
        assert infer_type(e, SCHEMA) is LogicalType.FLOAT

    def test_in_checks_target_only(self):
        assert infer_type(parse_sexpr("(in a (list 1 2))"), SCHEMA) is LogicalType.BOOL


class TestAggExpr:
    def test_unknown_aggregate(self):
        with pytest.raises(BindError):
            AggExpr("median", ColumnRef("a"))

    def test_count_star_allows_no_arg(self):
        assert AggExpr("count", None).arg is None

    def test_sum_requires_arg(self):
        with pytest.raises(BindError):
            AggExpr("sum", None)

    def test_result_types(self):
        assert AggExpr("sum", ColumnRef("a")).result_type(SCHEMA) is LogicalType.INT
        assert AggExpr("avg", ColumnRef("a")).result_type(SCHEMA) is LogicalType.FLOAT
        assert AggExpr("min", ColumnRef("s")).result_type(SCHEMA) is LogicalType.STR
        assert AggExpr("count_distinct", ColumnRef("s")).result_type(SCHEMA) is LogicalType.INT

    def test_sum_of_string_rejected(self):
        with pytest.raises(TypeMismatchError):
            AggExpr("sum", ColumnRef("s")).result_type(SCHEMA)


class TestHelpers:
    def test_columns_used(self):
        assert columns_used(parse_sexpr("(+ a (* b 2))")) == {"a", "b"}
        assert columns_used(None) == set()

    def test_substitute(self):
        e = substitute(parse_sexpr("(+ x 1)"), {"x": parse_sexpr("(* a 2)")})
        assert to_sexpr(e) == "(+ (* a 2) 1)"

    def test_conjuncts_flatten(self):
        e = parse_sexpr("(and (and (> a 1) (< a 5)) (= s \"x\"))")
        assert len(conjuncts(e)) == 3

    def test_conjoin_roundtrip(self):
        parts = conjuncts(parse_sexpr("(and (> a 1) (< a 5))"))
        assert conjuncts(conjoin(parts)) == parts
        assert conjoin([]) is None

    def test_structural_equality_and_hash(self):
        a = parse_sexpr("(+ a (abs b))")
        b = parse_sexpr("(+ a (abs b))")
        assert a == b
        assert hash(a) == hash(b)
        assert a != parse_sexpr("(+ a b)")


class TestSexprRoundTrip:
    CASES = [
        "(+ a 1)",
        '(and (> a 1) (in s (list "x" "y")))',
        "(case (when (> a 0) 1) (else 2))",
        "(cast a float)",
        '(= s "quote\\"inside")',
        "null",
        "true",
        "(neg 1.5)",
        '(in s (list))',
        '(>= d (date "2014-01-02"))',
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, text):
        expr = parse_sexpr(text)
        again = parse_sexpr(to_sexpr(expr))
        assert again == expr

    def test_aggregate_roundtrip(self):
        agg = parse_sexpr("(sum (+ a 1))", allow_agg=True)
        assert isinstance(agg, AggExpr)
        assert parse_sexpr(to_sexpr(agg), allow_agg=True) == agg

    def test_count_star_roundtrip(self):
        agg = parse_sexpr("(count)", allow_agg=True)
        assert to_sexpr(agg) == "(count)"

    def test_aggregate_rejected_in_scalar_context(self):
        with pytest.raises(TqlParseError):
            parse_sexpr("(sum a)")

    def test_weird_column_names(self):
        expr = ColumnRef("weird name!")
        assert parse_sexpr(to_sexpr(expr)) == expr

    def test_date_literals(self):
        expr = parse_sexpr('(date "2014-05-06")')
        assert expr == Literal(dt.date(2014, 5, 6))

    def test_parse_errors(self):
        for bad in ["(", ")", "(+ a", "(case (bogus 1 2))", '(col a)', "a b"]:
            with pytest.raises(TqlParseError):
                parse_sexpr(bad)


# Property: generated expression trees survive the text round trip.
_literals = st.one_of(
    st.integers(min_value=-1000, max_value=1000).map(Literal),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda f: Literal(float(f))),
    st.booleans().map(Literal),
    st.text(max_size=5).map(Literal),
)
_exprs = st.recursive(
    _literals | st.sampled_from(["a", "b", "s"]).map(ColumnRef),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
        st.tuples(children,).map(lambda t: Call("abs", (t[0],))),
        st.tuples(children, children).map(lambda t: Call("=", (t[0], t[1]))),
        children.map(lambda c: Cast(c, LogicalType.STR)),
    ),
    max_leaves=12,
)


@given(_exprs)
@settings(max_examples=80)
def test_sexpr_roundtrip_property(expr):
    assert parse_sexpr(to_sexpr(expr)) == expr
