"""Expression evaluation tests: kernels, NULL semantics, casts."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import LogicalType
from repro.errors import BindError, TypeMismatchError
from repro.expr import evaluate, evaluate_predicate, parse_sexpr
from repro.tde.storage import Table


def _table():
    return Table.from_pydict(
        {
            "i": [1, 2, None, -4],
            "f": [0.5, 0.0, 2.0, None],
            "s": ["ab", "CD", None, "xy"],
            "b": [True, False, True, None],
            "d": [dt.date(2014, 3, 1), dt.date(2014, 12, 31), None, dt.date(2015, 1, 1)],
            "ts": [dt.datetime(2014, 3, 1, 13, 45), None, dt.datetime(2014, 3, 2, 0, 0), dt.datetime(2015, 7, 4, 23, 59)],
        },
        types={"s": LogicalType.STR},
    )


def _vals(text, table=None):
    values, mask = evaluate(parse_sexpr(text), table or _table())
    out = list(values)
    if mask is not None:
        out = [None if m else v for v, m in zip(out, mask)]
    return out


class TestArithmetic:
    def test_add_propagates_null(self):
        assert _vals("(+ i 10)") == [11, 12, None, 6]

    def test_mixed_int_float(self):
        assert _vals("(* i f)") == [0.5, 0.0, None, None]

    def test_division_by_zero_yields_null(self):
        assert _vals("(/ i f)") == [2.0, None, None, None]

    def test_mod_by_zero_yields_null(self):
        out = _vals("(% i 2)")
        assert out == [1, 0, None, 0]

    def test_neg(self):
        assert _vals("(neg i)") == [-1, -2, None, 4]


class TestComparisons:
    def test_eq_and_null(self):
        assert _vals("(= i 2)") == [False, True, None, False]

    def test_string_comparison(self):
        assert _vals('(< s "b")') == [True, True, None, False]

    def test_date_literal_comparison(self):
        assert _vals('(>= d (date "2014-12-31"))') == [False, True, None, True]


class TestBooleans:
    def test_kleene_and(self):
        # NULL AND FALSE = FALSE; NULL AND TRUE = NULL
        assert _vals("(and b (= i 1))") == [True, False, None, False]

    def test_kleene_or(self):
        # NULL OR TRUE = TRUE
        t = Table.from_pydict({"x": [None, None], "y": [True, False]}, types={"x": LogicalType.BOOL})
        values, mask = evaluate(parse_sexpr("(or x y)"), t)
        assert bool(values[0]) is True and (mask is None or not mask[0])
        assert mask is not None and mask[1]

    def test_not(self):
        assert _vals("(not b)") == [False, True, False, None]

    def test_predicate_treats_null_as_false(self):
        keep = evaluate_predicate(parse_sexpr("(> i 0)"), _table())
        assert list(keep) == [True, True, False, False]


class TestNullFunctions:
    def test_isnull(self):
        assert _vals("(isnull i)") == [False, False, True, False]

    def test_ifnull(self):
        assert _vals("(ifnull i 0)") == [1, 2, 0, -4]

    def test_ifnull_type_mismatch(self):
        from repro.expr import infer_type

        with pytest.raises(TypeMismatchError):
            infer_type(parse_sexpr("(ifnull i 0.5)"), _table().schema())

    def test_in_with_null(self):
        assert _vals('(in s (list "ab" "xy"))') == [True, False, None, True]

    def test_in_numeric(self):
        assert _vals("(in i (list 1 2 99))") == [True, True, None, False]


class TestStrings:
    def test_upper_skips_nothing_but_masks(self):
        assert _vals("(upper s)") == ["AB", "CD", None, "XY"]

    def test_concat(self):
        assert _vals('(concat s "!")') == ["ab!", "CD!", None, "xy!"]

    def test_substr(self):
        assert _vals("(substr s 1 1)") == ["a", "C", None, "x"]

    def test_len(self):
        assert _vals("(len s)") == [2, 2, None, 2]

    def test_contains(self):
        assert _vals('(contains s "b")') == [True, False, None, False]


class TestTemporal:
    def test_year_month_day(self):
        assert _vals("(year d)") == [2014, 2014, None, 2015]
        assert _vals("(month d)") == [3, 12, None, 1]
        assert _vals("(day d)") == [1, 31, None, 1]

    def test_weekday(self):
        # 2014-03-01 was a Saturday -> 5 (Monday = 0)
        assert _vals("(weekday d)")[0] == 5

    def test_year_of_datetime(self):
        assert _vals("(year ts)") == [2014, None, 2014, 2015]

    def test_hour(self):
        assert _vals("(hour ts)") == [13, None, 0, 23]

    def test_hour_of_date_rejected(self):
        from repro.expr import infer_type

        with pytest.raises(TypeMismatchError):
            infer_type(parse_sexpr("(hour d)"), _table().schema())


class TestCase:
    def test_case_branches(self):
        out = _vals('(case (when (> i 1) "big") (when (= i 1) "one") (else "other"))')
        assert out == ["one", "big", "other", "other"]

    def test_case_null_condition_falls_through(self):
        out = _vals('(case (when b "t") (else "f"))')
        assert out == ["t", "f", "t", "f"]


class TestCast:
    def test_int_to_str_and_back(self):
        assert _vals("(cast (cast i str) int)") == [1, 2, None, -4]

    def test_str_parse_failure_becomes_null(self):
        assert _vals("(cast s int)") == [None, None, None, None]

    def test_date_to_datetime(self):
        values, _mask = evaluate(parse_sexpr("(cast d datetime)"), _table())
        days = (dt.date(2014, 3, 1) - dt.date(1970, 1, 1)).days
        assert values[0] == days * 86_400_000_000

    def test_datetime_to_date(self):
        values, mask = evaluate(parse_sexpr("(cast ts date)"), _table())
        assert values[0] == (dt.date(2014, 3, 1) - dt.date(1970, 1, 1)).days

    def test_float_to_int_truncates(self):
        t = Table.from_pydict({"x": [1.9, -1.9]})
        values, _ = evaluate(parse_sexpr("(cast x int)"), t)
        assert list(values) == [1, -1]

    def test_unknown_column(self):
        with pytest.raises(BindError):
            evaluate(parse_sexpr("(+ zz 1)"), _table())


@given(
    st.lists(st.one_of(st.integers(min_value=-100, max_value=100), st.none()), min_size=1, max_size=50),
    st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=50)
def test_arithmetic_property(values, k):
    t = Table.from_pydict({"x": values}, types={"x": LogicalType.INT})
    out_values, mask = evaluate(parse_sexpr(f"(+ (* x 2) {k})"), t)
    for i, v in enumerate(values):
        if v is None:
            assert mask is not None and mask[i]
        else:
            assert out_values[i] == v * 2 + k
