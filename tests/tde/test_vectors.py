"""Unit and property tests for the storage encodings (paper 4.1.1)."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import LogicalType
from repro.errors import StorageError
from repro.tde.storage import Column, Database, Table, pack_database, unpack_database
from repro.tde.storage.vectors import (
    DeltaVector,
    ForVector,
    PlainVector,
    RleVector,
    encode_best,
)


class TestPlainVector:
    def test_roundtrip(self):
        arr = np.array([1, 2, 3], dtype=np.int64)
        vec = PlainVector(arr)
        assert len(vec) == 3
        assert vec.materialize() is arr
        assert list(vec.slice(1, 3)) == [2, 3]
        assert list(vec.take(np.array([2, 0]))) == [3, 1]

    def test_nbytes_objects(self):
        arr = np.array(["ab", "cdef"], dtype=object)
        assert PlainVector(arr).nbytes == 6 + 16


class TestRleVector:
    def test_from_plain_basic(self):
        vec = RleVector.from_plain(np.array([5, 5, 5, 1, 1, 9]))
        assert vec.n_runs == 3
        assert list(vec.values) == [5, 1, 9]
        assert list(vec.counts) == [3, 2, 1]
        assert list(vec.starts) == [0, 3, 5]
        assert list(vec.materialize()) == [5, 5, 5, 1, 1, 9]

    def test_empty(self):
        vec = RleVector.from_plain(np.zeros(0, dtype=np.int64))
        assert len(vec) == 0
        assert vec.n_runs == 0
        assert list(vec.materialize()) == []

    def test_take_positions(self):
        vec = RleVector.from_plain(np.array([7, 7, 8, 8, 8, 9]))
        assert list(vec.take(np.array([0, 1, 2, 4, 5]))) == [7, 7, 8, 8, 9]

    def test_slice_within_single_run(self):
        vec = RleVector.from_plain(np.array([4, 4, 4, 4]))
        assert list(vec.slice(1, 3)) == [4, 4]

    def test_slice_across_runs(self):
        vec = RleVector.from_plain(np.array([1, 1, 2, 2, 3, 3]))
        assert list(vec.slice(1, 5)) == [1, 2, 2, 3]

    def test_slice_empty(self):
        vec = RleVector.from_plain(np.array([1, 2]))
        assert len(vec.slice(1, 1)) == 0

    def test_index_table_matches_runs(self):
        vec = RleVector.from_plain(np.array([3, 3, 1, 9, 9, 9]))
        values, counts, starts = vec.index_table()
        triples = list(zip(starts, counts, values))
        assert triples == list(vec.runs())

    def test_length_mismatch_rejected(self):
        with pytest.raises(StorageError):
            RleVector(np.array([1]), np.array([1, 2]))

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=200)
    )
    @settings(max_examples=60)
    def test_roundtrip_property(self, values):
        arr = np.asarray(values, dtype=np.int64)
        vec = RleVector.from_plain(arr)
        assert list(vec.materialize()) == values
        if values:
            idx = np.arange(0, len(values), 2)
            assert list(vec.take(idx)) == [values[i] for i in idx]

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60),
        st.data(),
    )
    @settings(max_examples=60)
    def test_slice_property(self, values, data):
        arr = np.asarray(values, dtype=np.int64)
        vec = RleVector.from_plain(arr)
        start = data.draw(st.integers(min_value=0, max_value=len(values)))
        stop = data.draw(st.integers(min_value=start, max_value=len(values)))
        assert list(vec.slice(start, stop)) == values[start:stop]

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=60),
        st.data(),
    )
    @settings(max_examples=100)
    def test_window_property(self, values, data):
        """slice and expand_runs read exactly ``[start, stop)``: empty
        ranges, ranges inside one run, ranges ending on and straddling run
        boundaries, and a stop past the end (clipped, as array slicing)."""
        arr = np.asarray(values, dtype=np.int64)
        vec = RleVector.from_plain(arr)
        start = data.draw(st.integers(min_value=0, max_value=len(values) + 2))
        stop = data.draw(st.integers(min_value=0, max_value=len(values) + 2))
        expected = arr[start:stop]
        got = vec.slice(start, stop)
        assert got.dtype == arr.dtype and list(got) == list(expected)
        per_run = vec.values * 10 + 1
        assert list(vec.expand_runs(per_run, start, stop)) == list(expected * 10 + 1)
        assert list(vec.expand_runs(per_run)) == list(arr * 10 + 1)

    def test_window_touches_only_runs_in_range(self):
        vec = RleVector.from_plain(np.repeat(np.arange(1000), 3))
        runs, counts = vec._window(301, 308)
        assert (runs.start, runs.stop) == (100, 103)
        assert list(counts) == [2, 3, 2]


class TestDeltaVector:
    def test_roundtrip(self):
        arr = np.array([100, 101, 103, 103, 110], dtype=np.int64)
        vec = DeltaVector.from_plain(arr)
        assert list(vec.materialize()) == list(arr)
        assert len(vec) == 5

    def test_narrow_dtype_chosen(self):
        arr = np.arange(1000, dtype=np.int64)
        vec = DeltaVector.from_plain(arr)
        assert vec.deltas.dtype == np.int8
        assert vec.nbytes < arr.nbytes / 4

    def test_wide_deltas(self):
        arr = np.array([0, 10**12], dtype=np.int64)
        vec = DeltaVector.from_plain(arr)
        assert list(vec.materialize()) == [0, 10**12]

    def test_empty_rejected(self):
        with pytest.raises(StorageError):
            DeltaVector.from_plain(np.zeros(0, dtype=np.int64))

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=100))
    @settings(max_examples=60)
    def test_roundtrip_property(self, values):
        arr = np.asarray(values, dtype=np.int64)
        vec = DeltaVector.from_plain(arr)
        assert list(vec.materialize()) == values

    @pytest.mark.parametrize("width", [np.int8, np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("block", [1, 4, 1024])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_slice_take_property(self, width, block, data):
        """``slice``/``take`` equal indexing the materialized column, for
        every delta width, with ranges on, off and across checkpoints."""
        # One delta the next-narrower dtype cannot hold forces the width.
        widest = {np.int8: 0, np.int16: 2**7, np.int32: 2**15, np.int64: 2**31}[width]
        bound = min(np.iinfo(width).max, 2**40)
        deltas = data.draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=40))
        deltas[0] = widest or deltas[0]
        base = data.draw(st.integers(-(2**40), 2**40))
        arr = np.cumsum([base] + deltas).astype(np.int64)
        start = data.draw(st.integers(0, len(arr) + 2))
        stop = data.draw(st.integers(0, len(arr) + 2))
        idx = data.draw(st.lists(st.integers(0, len(arr) - 1), max_size=20))  # unsorted, repeats
        idx = np.asarray(idx, dtype=np.int64)
        with mock.patch.object(DeltaVector, "CHECKPOINT_ROWS", block):
            vec = DeltaVector.from_plain(arr)
            assert vec.deltas.dtype == width
            for got, expected in [
                (vec.materialize(), arr),
                (vec.slice(start, stop), arr[start:stop]),
                (vec.take(idx), arr[idx]),
            ]:
                assert got.dtype == arr.dtype and np.array_equal(got, expected)

    def test_int8_deltas_whose_running_sum_leaves_int8(self):
        arr = np.arange(0, 100 * 5000, 100, dtype=np.int64)  # deltas 100, sums to 499 900
        vec = DeltaVector.from_plain(arr)
        assert vec.deltas.dtype == np.int8
        block = DeltaVector.CHECKPOINT_ROWS
        for start, stop in [
            (0, 0),
            (0, 1),
            (block, block),  # empty, on a checkpoint
            (block, block + 1),  # starts on a checkpoint
            (block - 1, block),  # ends on a checkpoint
            (block - 3, block + 3),  # straddles one
            (block - 3, 3 * block + 7),  # straddles several
            (4999, 5000),
            (0, 5000),
        ]:
            assert np.array_equal(vec.slice(start, stop), arr[start:stop]), (start, stop)
        idx = np.array([4999, 0, block, block - 1, block, 17, 4999])
        assert np.array_equal(vec.take(idx), arr[idx])

    def test_length_one_vector(self):
        vec = DeltaVector.from_plain(np.array([42], dtype=np.int64))
        assert len(vec) == 1
        assert list(vec.materialize()) == [42]
        assert list(vec.slice(0, 1)) == [42] and len(vec.slice(1, 1)) == 0
        assert list(vec.take(np.array([0, 0]))) == [42, 42]
        assert len(vec.take(np.zeros(0, dtype=np.int64))) == 0

    def test_slice_decodes_only_the_range(self, monkeypatch):
        """O(rows returned + one block): the cumsum never sees the column."""
        vec = DeltaVector.from_plain(np.arange(100_000, dtype=np.int64))
        seen = []
        real = np.cumsum

        def counting_cumsum(a, *args, **kwargs):
            seen.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counting_cumsum)
        vec.slice(50_000, 50_100)
        vec.take(np.array([70_010, 70_000]))
        assert max(seen) <= 100 + DeltaVector.CHECKPOINT_ROWS


class TestForVector:
    def test_offsets_are_codes_from_the_minimum(self):
        arr = np.array([103, 100, 355, 100, 101], dtype=np.int64)
        vec = ForVector.from_plain(arr)
        assert (vec.base, vec.span, vec.offsets.dtype) == (100, 256, np.uint8)
        assert list(vec.offsets) == [3, 0, 255, 0, 1]
        assert ForVector.from_plain(np.resize(arr, 1000)).nbytes < arr.nbytes * 200 / 4

    def test_width_follows_the_span(self):
        assert ForVector.from_plain(np.array([0, 256])).offsets.dtype == np.uint16
        with pytest.raises(StorageError):
            ForVector.from_plain(np.array([0, 2**16]))
        with pytest.raises(StorageError):
            ForVector.from_plain(np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("width", [np.uint8, np.uint16])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_slice_take_property(self, width, data):
        """``slice``/``take``/``window`` equal indexing the materialized
        column, for each offset width, with ranges on and off the column."""
        span = np.iinfo(width).max
        base = data.draw(st.integers(-(2**40), 2**40))
        # 0 and the span force the width; the rest come in any order.
        offsets = [span, 0] + data.draw(st.lists(st.integers(0, span), max_size=40))
        arr = np.asarray(offsets, dtype=np.int64) + base
        start = data.draw(st.integers(0, len(arr) + 2))
        stop = data.draw(st.integers(0, len(arr) + 2))
        idx = np.asarray(data.draw(st.lists(st.integers(0, len(arr) - 1), max_size=20)), dtype=np.int64)
        vec = ForVector.from_plain(arr)
        assert vec.offsets.dtype == width
        window = vec.window(start, stop)
        assert isinstance(window, ForVector) and window.offsets.base is vec.offsets  # a view
        for got, expected in [
            (vec.materialize(), arr),
            (vec.slice(start, stop), arr[start:stop]),
            (window.materialize(), arr[start:stop]),
            (vec.take(idx), arr[idx]),
        ]:
            assert got.dtype == arr.dtype and np.array_equal(got, expected)


class TestEncodeBest:
    def test_prefers_for_for_unsorted_small_spans(self):
        rng = np.random.default_rng(0)
        assert encode_best(rng.integers(0, 20, size=500)).encoding == "for"
        assert encode_best(rng.integers(120, 2800, size=500)).encoding == "for"
        # Past a 16-bit span only a monotone column is worth encoding.
        walk = np.cumsum(rng.integers(-30000, 30001, size=500))
        assert encode_best(walk).encoding == "plain"
        assert encode_best(np.sort(walk)).encoding == "delta"

    def test_prefers_rle_for_runs(self):
        arr = np.repeat(np.arange(10), 50)
        assert encode_best(arr).encoding == "rle"

    def test_prefers_delta_for_monotone(self):
        arr = np.arange(0, 1000, 3, dtype=np.int64)
        assert encode_best(arr).encoding == "delta"

    def test_plain_for_random(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(-(2**40), 2**40, size=500)
        assert encode_best(arr).encoding == "plain"

    def test_respects_preference(self):
        arr = np.array([1, 2, 3], dtype=np.int64)
        assert encode_best(arr, prefer="rle").encoding == "rle"
        assert encode_best(arr, prefer="plain").encoding == "plain"
        assert encode_best(arr, prefer="delta").encoding == "delta"
        assert encode_best(arr, prefer="for").encoding == "for"

    def test_unknown_preference(self):
        with pytest.raises(StorageError):
            encode_best(np.array([1]), prefer="zstd")

    def test_object_arrays_stay_plain(self):
        arr = np.array(["a", "a", "a", "b"], dtype=object)
        assert encode_best(arr).encoding == "plain"

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=0, max_size=300))
    @settings(max_examples=60)
    def test_any_choice_roundtrips(self, values):
        arr = np.asarray(values, dtype=np.int64)
        vec = encode_best(arr)
        assert list(vec.materialize()) == values


def test_pack_and_unpack_keep_every_encoding():
    rng = np.random.default_rng(1)
    table = Table(
        {
            "plain": Column.from_numpy(rng.integers(-(2**40), 2**40, size=300), LogicalType.INT),
            "rle": Column.from_numpy(np.repeat(np.arange(30), 10), LogicalType.INT),
            "delta": Column.from_numpy(np.arange(0, 900, 3), LogicalType.INT),
            "for": Column.from_numpy(rng.integers(0, 40, size=300), LogicalType.INT),
            "forced": Column.from_numpy(np.arange(300), LogicalType.INT, encoding="plain"),
            "codes": Column.from_values([str(v) for v in rng.integers(0, 9, size=300)]),
        }
    )
    db = Database("packed")
    db.add_table("Extract.t", table)
    buf = io.BytesIO()
    pack_database(db, buf)
    reloaded = unpack_database(io.BytesIO(buf.getvalue())).table("Extract.t")
    encodings = {name: col.encoding for name, col in table.columns.items()}
    assert encodings == {
        "plain": "plain", "rle": "rle", "delta": "delta", "for": "for", "forced": "plain", "codes": "for"
    }
    assert {name: col.encoding for name, col in reloaded.columns.items()} == encodings
    assert reloaded.equals(table)
    listed = db.table("SYS.columns").to_pydict()
    assert dict(zip(listed["column_name"], listed["encoding"])) == encodings
