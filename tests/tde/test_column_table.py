"""Tests for Column and Table (nulls, collation, sorting, concat)."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collation import CASE_INSENSITIVE
from repro.datatypes import LogicalType
from repro.errors import StorageError
from repro.tde.storage import Column, Dictionary, PlainVector, Table


class TestColumn:
    def test_from_values_infers_type(self):
        col = Column.from_values([1, 2, None])
        assert col.ltype is LogicalType.INT
        assert col.python_values() == [1, 2, None]

    def test_all_null_rejected(self):
        with pytest.raises(StorageError):
            Column.from_values([None, None])

    def test_explicit_type_for_all_null(self):
        col = Column.from_values([None, None], LogicalType.FLOAT)
        assert col.python_values() == [None, None]

    def test_strings_dictionary_compressed_by_default(self):
        col = Column.from_values(["a", "b", "a"])
        assert col.is_dictionary_encoded
        assert len(col.dictionary) == 2

    def test_dates_roundtrip(self):
        days = [dt.date(2014, 1, 1), None, dt.date(2015, 6, 30)]
        col = Column.from_values(days)
        assert col.ltype is LogicalType.DATE
        assert col.python_values() == days

    def test_datetimes_roundtrip(self):
        stamps = [dt.datetime(2014, 1, 1, 12, 30, 15), dt.datetime(2014, 1, 2, 0, 0, 0, 250)]
        col = Column.from_values(stamps)
        assert col.ltype is LogicalType.DATETIME
        assert col.python_values() == stamps

    def test_take_preserves_nulls_and_dict(self):
        col = Column.from_values(["x", None, "y", "x"])
        taken = col.take(np.array([3, 1]))
        assert taken.python_values() == ["x", None]
        assert taken.is_dictionary_encoded

    def test_slice(self):
        col = Column.from_values([10, 20, 30, 40])
        assert col.slice(1, 3).python_values() == [20, 30]

    def test_value_at(self):
        col = Column.from_values([1.5, None])
        assert col.value_at(0) == 1.5
        assert col.value_at(1) is None

    def test_stats(self):
        col = Column.from_values([3, 1, 1, None, 2])
        st_ = col.stats
        assert st_.null_count == 1
        assert st_.n_distinct == 3  # NULL slots are excluded
        assert st_.min_value == 1
        assert st_.max_value == 3
        assert not st_.is_sorted

    def test_stats_sorted(self):
        col = Column.from_values([1, 2, 3])
        assert col.stats.is_sorted
        assert col.stats.min_value == 1
        assert col.stats.max_value == 3

    def test_equals(self):
        assert Column.from_values([1, None]).equals(Column.from_values([1, None]))
        assert not Column.from_values([1]).equals(Column.from_values([2]))
        assert not Column.from_values([1]).equals(Column.from_values([1.0]))

    def test_mask_length_mismatch(self):
        from repro.tde.storage.vectors import PlainVector

        with pytest.raises(StorageError):
            Column(
                LogicalType.INT,
                PlainVector(np.array([1, 2])),
                null_mask=np.array([True]),
            )


class TestTable:
    def test_ragged_rejected(self):
        with pytest.raises(StorageError):
            Table.from_pydict({"a": [1, 2], "b": [1]})

    def test_project_and_drop(self):
        t = Table.from_pydict({"a": [1], "b": [2], "c": [3]})
        assert t.project(["c", "a"]).column_names == ["c", "a"]
        assert t.drop(["b"]).column_names == ["a", "c"]

    def test_project_keeps_contiguous_sort_prefix(self):
        t = Table.from_pydict({"a": [1], "b": [2], "c": [3]}, sort_keys=["a", "b"])
        assert t.project(["a", "c"]).sort_keys == ("a",)
        assert t.project(["b", "c"]).sort_keys == ()

    def test_rename(self):
        t = Table.from_pydict({"a": [1]}, sort_keys=["a"])
        renamed = t.rename({"a": "x"})
        assert renamed.column_names == ["x"]
        assert renamed.sort_keys == ("x",)

    def test_rename_collision(self):
        t = Table.from_pydict({"a": [1], "b": [2]})
        with pytest.raises(StorageError):
            t.rename({"a": "b"})

    def test_with_column_length_check(self):
        t = Table.from_pydict({"a": [1, 2]})
        with pytest.raises(StorageError):
            t.with_column("b", Column.from_values([1]))

    def test_sort_nulls_first_both_directions(self):
        t = Table.from_pydict({"a": [2, None, 1]})
        assert t.sort_by([("a", True)]).to_pydict()["a"] == [None, 1, 2]
        assert t.sort_by([("a", False)]).to_pydict()["a"] == [None, 2, 1]

    def test_sort_multi_key_stable(self):
        t = Table.from_pydict({"g": [1, 1, 0, 0], "v": [9, 8, 7, 6], "tag": list("abcd")})
        out = t.sort_by([("g", True), ("v", True)])
        assert out.to_pydict()["tag"] == ["d", "c", "b", "a"]

    def test_sort_strings_with_collation(self):
        t = Table.from_pydict(
            {"s": ["b", "A", "a", "B"]}, collations={"s": CASE_INSENSITIVE}
        )
        # CI collation groups case variants under one representative.
        out = t.sort_by([("s", True)]).to_pydict()["s"]
        assert [v.lower() for v in out] == ["a", "a", "b", "b"]

    def test_sort_uncompressed_strings_desc(self):
        t = Table.from_pydict({"s": ["b", "a", "c"]}, compress=False)
        assert t.sort_by([("s", False)]).to_pydict()["s"] == ["c", "b", "a"]

    def test_concat(self):
        a = Table.from_pydict({"x": [1, None], "s": ["p", "q"]})
        b = Table.from_pydict({"x": [3], "s": [None]}, types={"s": LogicalType.STR})
        out = Table.concat([a, b])
        assert out.to_pydict() == {"x": [1, None, 3], "s": ["p", "q", None]}

    def test_concat_schema_mismatch(self):
        a = Table.from_pydict({"x": [1]})
        b = Table.from_pydict({"y": [1]})
        with pytest.raises(StorageError):
            Table.concat([a, b])

    def test_equals_unordered(self):
        a = Table.from_pydict({"x": [1, 2], "y": ["a", "b"]})
        b = Table.from_pydict({"x": [2, 1], "y": ["b", "a"]})
        assert a.equals_unordered(b)
        assert not a.equals(b)

    def test_approx_equals_tolerates_float_noise(self):
        a = Table.from_pydict({"x": [0.1 + 0.2]})
        b = Table.from_pydict({"x": [0.3]})
        assert a.approx_equals(b)
        assert not a.equals(b)

    def test_approx_equals_rejects_real_difference(self):
        a = Table.from_pydict({"x": [1.0]})
        b = Table.from_pydict({"x": [1.1]})
        assert not a.approx_equals(b)

    def test_to_rows(self):
        t = Table.from_pydict({"a": [1, 2], "b": ["x", "y"]})
        assert t.to_rows() == [(1, "x"), (2, "y")]

    def test_bad_sort_key_rejected(self):
        with pytest.raises(StorageError):
            Table.from_pydict({"a": [1]}, sort_keys=["nope"])


@given(
    st.lists(
        st.one_of(st.integers(min_value=-50, max_value=50), st.none()),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=50)
def test_sort_property_matches_python(values):
    t = Table.from_pydict({"a": values}, types={"a": LogicalType.INT})
    out = t.sort_by([("a", True)]).to_pydict()["a"]
    expected = sorted(values, key=lambda v: (v is not None, v if v is not None else 0))
    assert out == expected


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=60),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=40)
def test_slice_concat_roundtrip(values, parts):
    if not values:
        return
    t = Table.from_pydict({"a": values})
    bounds = np.linspace(0, len(values), parts + 1).astype(int)
    pieces = [t.slice(int(bounds[i]), int(bounds[i + 1])) for i in range(parts)]
    assert Table.concat(pieces).to_pydict()["a"] == values


# ---------------------------------------------------------------------- #
# Table.concat stays in code space
# ---------------------------------------------------------------------- #
STR = LogicalType.STR


def _reference_concat(tables):
    """``Table.concat`` as it was before it kept codes: decode every part,
    re-encode the strings row by row. The new one must be indistinguishable."""
    cols = {}
    for name in tables[0].column_names:
        parts = [t.column(name) for t in tables]
        values = np.concatenate([p.storage_values() for p in parts])
        mask = np.concatenate(
            [
                p.null_mask if p.null_mask is not None else np.zeros(len(p), dtype=np.bool_)
                for p in parts
            ]
        )
        mask = mask if mask.any() else None
        col = parts[0]
        if col.ltype is STR:
            cols[name] = Column.from_numpy(values, STR, null_mask=mask, collation=col.collation)
        else:
            cols[name] = Column(col.ltype, PlainVector(values), null_mask=mask)
    return Table(cols)


def _assert_concat_matches_reference(tables):
    out, ref = Table.concat(tables), _reference_concat(tables)
    assert out.column_names == ref.column_names and out.schema() == ref.schema()
    for name in ref.column_names:
        got, want = out.column(name), ref.column(name)
        # Values in row order (fill slots under NULLs included), storage
        # dtype, mask, collation — and codes that order rows identically.
        assert got.storage_values().dtype == want.storage_values().dtype, name
        assert list(got.storage_values()) == list(want.storage_values()), name
        assert (got.null_mask is None) == (want.null_mask is None), name
        if want.null_mask is not None:
            assert got.null_mask.dtype == np.bool_
            assert list(got.null_mask) == list(want.null_mask), name
        assert got.collation is want.collation
        assert got.is_dictionary_encoded == want.is_dictionary_encoded, name
        if want.is_dictionary_encoded:
            assert got.codes().dtype == want.codes().dtype == np.int32
            assert list(np.argsort(got.codes(), kind="stable")) == list(
                np.argsort(want.codes(), kind="stable")
            )
    return out, ref


def _str_table(values, **kwargs):
    return Table.from_pydict({"s": values}, types={"s": STR}, **kwargs)


class TestConcatKeepsCodes:
    def test_shared_dictionary_is_kept(self, monkeypatch):
        table = _str_table(["d", "a", None, "c", "a", "b", "e"])
        shared = table.column("s").dictionary
        parts = [table.slice(0, 2), table.take(np.array([5, 2, 3])), table.slice(6, 7)]
        monkeypatch.setattr(Dictionary, "encode", None)  # must not be reached
        out = Table.concat(parts)
        monkeypatch.undo()
        assert out.column("s").dictionary is shared  # unused entries and all
        assert out.to_pydict()["s"] == ["d", "a", "b", None, "c", "e"]
        _assert_concat_matches_reference(parts)

    def test_shared_dictionary_non_string(self):
        table = Table.from_pydict({"x": [30, 10, None, 20, 10]}, compress=True)
        parts = [table.slice(0, 3), table.slice(3, 5)]
        out = Table.concat(parts)
        assert out.column("x").dictionary is table.column("x").dictionary
        assert out.to_pydict()["x"] == [30, 10, None, 20, 10]

    def test_different_dictionaries_binary(self, monkeypatch):
        parts = [_str_table(["b", "a", None]), _str_table(["c", "a", "B"]), _str_table(["a"])]
        monkeypatch.setattr(Dictionary, "encode", None)  # merged per entry, not per row
        out = Table.concat(parts)
        monkeypatch.undo()
        assert list(out.column("s").dictionary.values) == ["", "B", "a", "b", "c"]
        _, ref = _assert_concat_matches_reference(parts)
        assert list(out.column("s").dictionary.values) == list(ref.column("s").dictionary.values)

    @pytest.mark.parametrize("flip", [False, True])
    def test_case_insensitive_representative_is_first_in_row_order(self, flip):
        ci = {"collations": {"s": CASE_INSENSITIVE}}
        parts = [_str_table(["x", "Abc", None], **ci), _str_table(["ABC", "abc", "X", "y"], **ci)]
        parts = parts[::-1] if flip else parts
        out, ref = _assert_concat_matches_reference(parts)
        reps = list(out.column("s").dictionary.values)
        assert reps == list(ref.column("s").dictionary.values)
        assert reps == (["", "ABC", "X", "y"] if flip else ["", "Abc", "x", "y"])

    def test_unused_entries_do_not_pick_the_representative(self):
        ci = {"collations": {"s": CASE_INSENSITIVE}}
        upper = _str_table(["ABC", "q"], **ci).slice(1, 2)  # carries "ABC", uses only "q"
        out, _ = _assert_concat_matches_reference([upper, _str_table(["abc"], **ci)])
        assert out.to_pydict()["s"] == ["q", "abc"]

    def test_empty_and_all_null_parts(self):
        full = _str_table(["m", None, "k"])
        parts = [full.slice(0, 0), _str_table([]), _str_table([None, None]), full, full.slice(3, 3)]
        out, _ = _assert_concat_matches_reference(parts)
        assert out.to_pydict()["s"] == [None, None, "m", None, "k"]
        only_nulls, _ = _assert_concat_matches_reference([_str_table([None]), _str_table([None])])
        assert only_nulls.to_pydict()["s"] == [None, None]

    def test_dictionary_less_string_parts(self):
        plain = _str_table(["z", "a", None], compress=False)
        assert not plain.column("s").is_dictionary_encoded
        _assert_concat_matches_reference([plain, _str_table(["p", "a"], compress=False)])
        # Left-join miss padding: fill slots under an all-true mask, no dictionary.
        padding = Table(
            {"s": Column(STR, PlainVector(np.array(["", ""], dtype=object)), null_mask=np.ones(2, bool))}
        )
        out, _ = _assert_concat_matches_reference([_str_table(["b", "a"]), padding, plain])
        assert out.to_pydict()["s"] == ["b", "a", None, None, "z", "a", None]

    def test_mixed_columns_and_plain_numbers(self):
        a = Table.from_pydict({"x": [1, None], "f": [0.5, 1.5], "s": ["p", "q"]})
        b = Table.from_pydict({"x": [3, 4], "f": [None, 2.5], "s": ["q", None]})
        _assert_concat_matches_reference([a, b, a.slice(1, 2)])
        compressed = [
            Table.from_pydict({"x": [5, 7, 5]}, compress=True),
            Table.from_pydict({"x": [6, None]}, compress=True),
        ]
        out, _ = _assert_concat_matches_reference(compressed)
        assert out.to_pydict()["x"] == [5, 7, 5, 6, None]
