"""The result wire format: what a cached table looks like between nodes.

Round-trip properties over every column shape the engine produces, the
error contract for bytes that are not a payload, and two counted guards
in the style of ``test_kernel_cost.py``: a small result over a large
dictionary ships only the entries it uses, and the serving tier never
opens a ZIP or decodes/re-encodes a string on its way through the codec.
"""

import io
import threading
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collation import BINARY, CASE_INSENSITIVE
from repro.connectors import TdeDataSource
from repro.core.cache import distributed
from repro.core.cache.replicated import ReplicatedStore
from repro.datatypes import LogicalType
from repro.errors import CacheError, StorageError
from repro.clock import VirtualTimeClock
from repro.server import VizServer
from repro.tde.storage import wire
from repro.tde.storage.column import Column
from repro.tde.storage.dictionary import Dictionary
from repro.tde.storage.table import Table
from repro.tde.storage.wire import decode_table, encode_table
from repro.workloads import fig1_dashboard, flights_model, generate_flights

_VALUES = {
    LogicalType.STR: st.text(max_size=6) | st.sampled_from(["Foo", "foo", "FOO", "bar", "Bar"]),
    LogicalType.INT: st.integers(-100, 100) | st.integers(-(2**62), 2**62),
    LogicalType.FLOAT: st.floats(allow_nan=False),
    LogicalType.BOOL: st.booleans(),
    LogicalType.DATE: st.dates(),
    LogicalType.DATETIME: st.datetimes(),
}


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    columns = {}
    for i in range(draw(st.integers(0, 4))):
        ltype = draw(st.sampled_from(list(_VALUES)))
        values = draw(
            st.lists(st.none() | _VALUES[ltype], min_size=n_rows, max_size=n_rows)
        )
        columns[f"c{i}"] = Column.from_values(
            values,
            ltype,
            collation=draw(st.sampled_from([BINARY, CASE_INSENSITIVE])),
            compress=draw(st.booleans()),
        )
    sort_keys = draw(st.lists(st.sampled_from(sorted(columns)), unique=True)) if columns else []
    return Table(columns, sort_keys=sort_keys, name=draw(st.none() | st.text(max_size=8)))


def _bits(col: Column) -> list:
    """Storage values as Python scalars, floats by bit pattern."""
    storage = col.storage_values()
    if storage.dtype == np.float64:
        storage = storage.view(np.int64)
    return storage.tolist()


def _assert_same(decoded: Table, table: Table) -> None:
    assert decoded.column_names == table.column_names
    assert decoded.schema() == table.schema()
    assert decoded.sort_keys == table.sort_keys and decoded.name == table.name
    assert decoded.n_rows == table.n_rows
    for name, col in table.columns.items():
        got = decoded.column(name)
        assert got.collation == col.collation
        assert (got.null_mask is None) == (col.null_mask is None)
        if col.null_mask is not None:
            assert got.null_mask.tolist() == col.null_mask.tolist()
        assert got.is_dictionary_encoded == col.is_dictionary_encoded
        assert got.physical.materialize().dtype == col.physical.materialize().dtype
        # Same values row by row — the representative a collation kept,
        # the exact bits of a float — not merely equal under comparison.
        assert _bits(got) == _bits(col)
        if got.dictionary is not None:
            entries = got.dictionary.values
            keys = entries.tolist()
            if col.ltype is LogicalType.STR:
                keys = [col.collation.key(v) for v in keys]
            assert all(a < b for a, b in zip(keys, keys[1:])), "dictionary left sort order"
            assert len(entries) == len(set(got.codes().tolist())), "unused entry shipped"


@given(tables())
@settings(max_examples=120, deadline=None)
def test_round_trip(table):
    payload = encode_table(table)
    decoded = decode_table(payload)
    assert decoded.equals(table)
    _assert_same(decoded, table)
    assert encode_table(table) == payload
    assert encode_table(decoded) == payload


def test_float_specials_are_bit_exact():
    bits = np.array(
        [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000000,
         0xFFF0000000000000, 0x8000000000000000, 0x0000000000000001],
        dtype=np.uint64,
    )  # NaN, NaN with a payload, -NaN, +inf, -inf, -0.0, the smallest subnormal
    col = Column.from_numpy(bits.view(np.float64), LogicalType.FLOAT, compress=False)
    decoded = decode_table(encode_table(Table({"f": col})))
    assert decoded.column("f").storage_values().view(np.uint64).tolist() == bits.tolist()


@pytest.mark.parametrize(
    "values",
    [
        [127, -128], [128, 0], [-129, 0], [32767, -32768], [32768, 0], [-32769, 0],
        [2**31 - 1, -(2**31)], [2**31, 0], [-(2**31) - 1, 0], [2**62, -(2**62)],
        [np.iinfo(np.int64).max, np.iinfo(np.int64).min],
    ],
)
def test_integers_survive_narrowing(values):
    table = Table.from_pydict({"plain": values, "coded": values}, compress=False)
    table = table.with_column("coded", Column.from_values(values, compress=True))
    decoded = decode_table(encode_table(table))
    assert decoded.to_pydict() == {"plain": values, "coded": values}
    assert decoded.column("plain").storage_values().dtype == np.int64


def test_narrow_picks_the_smallest_width_that_holds_the_range():
    widths = {127: 1, 128: 2, 32767: 2, 32768: 4, 2**31 - 1: 4, 2**31: 8}
    for top, width in widths.items():
        assert wire._narrow(np.array([0, top], dtype=np.int64)).itemsize == width
        assert wire._narrow(np.array([0, -top - 1], dtype=np.int64)).itemsize == width


def test_all_null_zero_row_and_zero_column_tables():
    all_null = Table(
        {
            "s": Column.from_values([None, None], LogicalType.STR),
            "d": Column.from_values([None, None], LogicalType.DATE, compress=True),
            "f": Column.from_values([None, None], LogicalType.FLOAT),
        },
        sort_keys=["s"],
        name="Extract.nulls",
    )
    for table in (all_null, Table.empty_like(all_null), Table({}), Table({}, name="t")):
        decoded = decode_table(encode_table(table))
        assert decoded.equals(table)
        _assert_same(decoded, table)


def test_case_insensitive_representative_and_order_survive_pruning():
    col = Column.from_values(
        ["delta", "Bravo", "bravo", "ALPHA", "charlie", "alpha"], collation=CASE_INSENSITIVE
    )
    assert list(col.dictionary.values) == ["ALPHA", "Bravo", "charlie", "delta"]
    kept = Table({"s": col.take(np.array([0, 5, 2]))}, name="Extract.result")
    decoded = decode_table(encode_table(kept)).column("s")
    assert list(decoded.dictionary.values) == ["ALPHA", "Bravo", "delta"]
    assert decoded.python_values() == ["delta", "ALPHA", "Bravo"]
    assert decoded.dictionary.code_for("BRAVO") == 1  # lookups still bisect


def test_small_result_over_a_large_dictionary_ships_only_what_it_uses():
    big = Column.from_values([f"customer-{i:05d}" for i in range(50_000)])
    assert len(big.dictionary) == 50_000
    rows = np.arange(10) * 4_999
    result = Table({"customer": big.take(rows), "n": Column.from_values(list(range(10)))})
    payload = encode_table(result)
    assert len(payload) < 2048
    decoded = decode_table(payload)
    assert len(decoded.column("customer").dictionary) == 10
    assert decoded.equals(result)


# ---------------------------------------------------------------------- #
# What is not a payload
# ---------------------------------------------------------------------- #
def _reframe(payload: bytes, edit) -> bytes:
    """Re-wrap ``payload`` with its decompressed body passed through ``edit``."""
    body = zlib.decompress(payload[5:])
    return payload[:5] + zlib.compress(edit(body), 1)


def test_bytes_that_are_not_a_payload_are_refused():
    table = Table.from_pydict({"s": ["x", "y", None], "n": [1, 2, 300]}, name="t")
    good = encode_table(table)
    zipped = io.BytesIO()
    with zipfile.ZipFile(zipped, "w") as zf:
        zf.writestr("manifest.json", "{}")

    def one_more_row(body):
        return body[:4] + body[4:].replace(b'"rows":3', b'"rows":4')

    damaged = {
        "empty": b"",
        "magic only": wire.MAGIC,
        "wrong magic": b"XXXX" + good[4:],
        "zip": zipped.getvalue(),
        "future version": good[:4] + bytes([wire.WIRE_VERSION + 1]) + good[5:],
        "truncated": good[: len(good) // 2],
        "one byte short": good[:-1],
        "bad zlib stream": good[:5] + bytes(reversed(good[5:])),
        "random": bytes(np.random.default_rng(5).integers(0, 256, 400, dtype=np.uint8)),
        "body cut short": _reframe(good, lambda body: body[:-1]),
        "body too long": _reframe(good, lambda body: body + b"\0"),
        "header is not json": _reframe(good, lambda body: body[:4] + b"?" + body[5:]),
        "header length past the end": _reframe(good, lambda body: b"\xff\xff\xff\x7f" + body[4:]),
        "row count disagrees with buffers": _reframe(good, one_more_row),
        "strings that are not a list": _reframe(
            good, lambda body: body.replace(b'["", "x", "y"]', b'{"":1,"x":2} ')
        ),
    }
    for what, payload in damaged.items():
        with pytest.raises(StorageError):
            decode_table(payload)
            pytest.fail(f"decoded a payload with {what}")
        with pytest.raises(CacheError):
            distributed.deserialize_table(payload)
    assert decode_table(good).equals(table)


def test_a_code_outside_its_dictionary_is_refused():
    table = Table({"s": Column.from_values(["a", "b"])})
    good = encode_table(table)
    # The codes are the last two bytes of the body (no null mask follows).
    bad = _reframe(good, lambda body: body[:-1] + b"\x07")
    with pytest.raises(StorageError, match="out of range"):
        decode_table(bad)


# ---------------------------------------------------------------------- #
# Counted: the tier path opens no ZIP and touches no string
# ---------------------------------------------------------------------- #
def test_tier_path_never_zips_or_recodes_strings(monkeypatch):
    counts = {"zip": 0, "encode": 0, "decode": 0}
    in_tier = threading.local()

    class CountingZip(zipfile.ZipFile):
        def __init__(self, *args, **kwargs):
            counts["zip"] += 1
            super().__init__(*args, **kwargs)

    def in_tier_call(fn):
        def wrapper(*args, **kwargs):
            in_tier.depth = getattr(in_tier, "depth", 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                in_tier.depth -= 1

        return wrapper

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if getattr(in_tier, "depth", 0):
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(zipfile, "ZipFile", CountingZip)
    for name in ("get", "put"):
        method = getattr(distributed.DistributedQueryCache, name)
        monkeypatch.setattr(distributed.DistributedQueryCache, name, in_tier_call(method))
    monkeypatch.setattr(
        Dictionary, "encode", classmethod(counted("encode", Dictionary.encode.__func__))
    )
    monkeypatch.setattr(Dictionary, "decode", counted("decode", Dictionary.decode))

    engine = generate_flights(2_000, seed=3).load_into_engine()
    store = ReplicatedStore(("c0", "c1", "c2"), replication=2, clock=VirtualTimeClock())
    server = VizServer(2, TdeDataSource(engine), flights_model(), store=store)
    dashboard = fig1_dashboard()
    server.register_dashboard(dashboard)
    first = server.load("alice", dashboard.name)[1]
    second = server.load("bob", dashboard.name)[1]  # round robin: the other node
    summary = server.cache_summary()
    assert first.remote_queries > 0 and second.remote_queries == 0
    assert store.statz()["fleet"]["puts"] > 0 and summary["l2_hits"] > 0 and summary["corrupt"] == 0
    for zone, table in first.zone_tables.items():
        assert second.zone_tables[zone].equals(table), zone
    assert counts == {"zip": 0, "encode": 0, "decode": 0}
    # ... and the counters are live.
    zipfile.ZipFile(io.BytesIO(), "w").close()
    in_tier_call(lambda: Column.from_values(["a"]).storage_values())()
    assert counts == {"zip": 1, "encode": 1, "decode": 1}
