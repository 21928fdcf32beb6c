"""Tests for dictionary compression (heap/array kinds, collations)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collation import ACCENT_INSENSITIVE, CASE_INSENSITIVE
from repro.errors import StorageError
from repro.tde.storage.dictionary import Dictionary


def _strings(values):
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


class TestHeapDictionary:
    def test_encode_decode(self):
        codes, d = Dictionary.encode(_strings(["b", "a", "b", "c"]), is_string=True)
        assert d.kind == "heap"
        assert list(d.values) == ["a", "b", "c"]  # collation-sorted
        assert list(d.decode(codes)) == ["b", "a", "b", "c"]

    def test_codes_are_sorted_by_value(self):
        codes, d = Dictionary.encode(_strings(["z", "a", "m"]), is_string=True)
        assert codes[1] < codes[2] < codes[0]

    def test_case_insensitive_merges(self):
        codes, d = Dictionary.encode(
            _strings(["Foo", "foo", "BAR"]), is_string=True, collation=CASE_INSENSITIVE
        )
        assert len(d) == 2
        assert codes[0] == codes[1]
        # representative is the first occurrence
        assert "Foo" in list(d.values)

    def test_accent_insensitive(self):
        codes, d = Dictionary.encode(
            _strings(["café", "cafe"]), is_string=True, collation=ACCENT_INSENSITIVE
        )
        assert len(d) == 1
        assert codes[0] == codes[1]

    def test_code_for(self):
        _codes, d = Dictionary.encode(_strings(["x", "y"]), is_string=True)
        assert d.code_for("x") >= 0
        assert d.code_for("nope") == -1

    def test_code_for_collation_aware(self):
        _codes, d = Dictionary.encode(
            _strings(["Hello"]), is_string=True, collation=CASE_INSENSITIVE
        )
        assert d.code_for("hELLO") == 0

    def test_code_range(self):
        _codes, d = Dictionary.encode(_strings(["a", "c", "e"]), is_string=True)
        assert d.code_range("<", "c") == (0, 1)
        assert d.code_range("<=", "c") == (0, 2)
        assert d.code_range(">", "c") == (2, 3)
        assert d.code_range(">=", "c") == (1, 3)

    def test_code_range_missing_value(self):
        _codes, d = Dictionary.encode(_strings(["a", "c", "e"]), is_string=True)
        assert d.code_range("<", "d") == (0, 2)
        assert d.code_range(">=", "d") == (2, 3)

    def test_code_range_bad_op(self):
        _codes, d = Dictionary.encode(_strings(["a"]), is_string=True)
        with pytest.raises(StorageError):
            d.code_range("=", "a")


class TestArrayDictionary:
    def test_encode_decode_ints(self):
        codes, d = Dictionary.encode(np.array([30, 10, 30, 20]), is_string=False)
        assert d.kind == "array"
        assert list(d.values) == [10, 20, 30]
        assert list(d.decode(codes)) == [30, 10, 30, 20]

    def test_code_for(self):
        _codes, d = Dictionary.encode(np.array([5, 7]), is_string=False)
        assert d.code_for(7) == 1
        assert d.code_for(6) == -1

    def test_bad_kind_rejected(self):
        with pytest.raises(StorageError):
            Dictionary(np.array([1]), "bogus")


@given(st.lists(st.text(max_size=6), min_size=0, max_size=100))
@settings(max_examples=60)
def test_heap_roundtrip_property(values):
    codes, d = Dictionary.encode(_strings(values), is_string=True)
    assert list(d.decode(codes)) == values
    # codes must be dense: every dictionary slot used
    if values:
        assert set(codes) == set(range(len(d)))


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=100))
@settings(max_examples=60)
def test_array_roundtrip_property(values):
    codes, d = Dictionary.encode(np.asarray(values, dtype=np.int64), is_string=False)
    assert list(d.decode(codes)) == values
    assert list(d.values) == sorted(set(values))
