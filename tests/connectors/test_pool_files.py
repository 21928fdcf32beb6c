"""Connection pool, text parsing, and shadow extract tests."""

import threading

import pytest

from repro.clock import VirtualTimeClock
from repro.connectors import (
    ConnectionPool,
    FileDataSource,
    JetLikeDataSource,
    ShadowExtractStore,
    TdeDataSource,
    parse_text_file,
    parse_workbook,
    write_text_file,
)
from repro.connectors.textfile import write_workbook
from repro.datatypes import LogicalType
from repro.errors import SourceError
from repro.tde.storage import Table


class TestConnectionPool:
    def test_reuse(self, sim_source):
        pool = ConnectionPool(sim_source, max_connections=2)
        with pool.connection() as c1:
            first_id = c1.connection_id
        with pool.connection() as c2:
            assert c2.connection_id == first_id
        assert pool.stats.opened == 1
        assert pool.stats.reused == 1

    def test_respects_limit_and_blocks(self, sim_source):
        pool = ConnectionPool(sim_source, max_connections=1)
        conn = pool.acquire()
        got = []

        def waiter():
            other = pool.acquire()
            got.append(other)
            pool.release(other)

        t = threading.Thread(target=waiter)
        t.start()
        t.join(timeout=0.2)
        assert t.is_alive()  # blocked on the limit
        pool.release(conn)
        t.join(timeout=2)
        assert got and pool.stats.wait_events >= 1

    def test_prefer_temp_table(self, sim_source):
        pool = ConnectionPool(sim_source, max_connections=3)
        c1 = pool.acquire()
        c1.create_temp_table("#f", Table.from_pydict({"region": ["east"]}))
        c2 = pool.acquire()
        pool.release(c1)
        pool.release(c2)
        with pool.connection(prefer_temp_table="#f") as chosen:
            assert chosen.has_temp_table("#f")

    def test_evict_idle(self, sim_source):
        pool = ConnectionPool(sim_source, max_connections=4, idle_ttl_s=0.0)
        with pool.connection():
            pass
        assert pool.idle_count() == 1
        assert pool.evict_idle() == 1
        assert pool.idle_count() == 0
        assert pool.stats.evicted == 1
        # On the pool's virtual clock a connection is idle from its release,
        # and is closed only once virtual time passes the TTL.
        clock = VirtualTimeClock()
        pool = ConnectionPool(sim_source, max_connections=4, idle_ttl_s=300.0, clock=clock)
        with pool.connection():
            clock.advance(1000.0)  # busy time is not idle time
        clock.advance(300.0)
        assert pool.evict_idle() == 0
        assert pool.idle_count() == 1
        clock.advance(0.5)
        assert pool.evict_idle() == 1
        assert pool.idle_count() == 0

    def test_closed_pool(self, sim_source):
        pool = ConnectionPool(sim_source)
        pool.close()
        with pytest.raises(SourceError):
            pool.acquire()


class TestTextFiles:
    def test_inference(self, tmp_path):
        path = write_text_file(
            tmp_path / "data.csv",
            {
                "i": [1, 2, None],
                "f": [1.5, None, 2.0],
                "b": [True, False, None],
                "d": ["2014-01-01", None, "2015-12-31"],
                "s": ["x", "y", None],
            },
        )
        table = parse_text_file(path)
        assert table.schema() == {
            "i": LogicalType.INT,
            "f": LogicalType.FLOAT,
            "b": LogicalType.BOOL,
            "d": LogicalType.DATE,
            "s": LogicalType.STR,
        }
        assert table.column("i").python_values() == [1, 2, None]

    def test_schema_file_overrides_inference(self, tmp_path):
        path = write_text_file(tmp_path / "d.csv", {"a": [1, 2]})
        table = parse_text_file(path, schema={"a": LogicalType.STR})
        assert table.column("a").python_values() == ["1", "2"]

    def test_schema_missing_column(self, tmp_path):
        path = write_text_file(tmp_path / "d.csv", {"a": [1], "b": [2]})
        with pytest.raises(SourceError):
            parse_text_file(path, schema={"a": LogicalType.INT})

    def test_missing_and_duplicate_headers(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text(",x,x\n1,2,3\n")
        table = parse_text_file(path)
        assert table.column_names == ["F1", "x", "x_2"]

    def test_parse_limit(self, tmp_path):
        path = write_text_file(tmp_path / "d.csv", {"a": list(range(100))})
        with pytest.raises(SourceError):
            parse_text_file(path, max_bytes=10)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SourceError):
            parse_text_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SourceError):
            parse_text_file(tmp_path / "nope.csv")

    def test_workbook_roundtrip(self, tmp_path):
        path = write_workbook(
            tmp_path / "book.wbk",
            {"Sales": {"a": [1, 2]}, "Costs": {"b": ["x"]}},
        )
        sheets = parse_workbook(path)
        assert set(sheets) == {"Sales", "Costs"}
        assert sheets["Sales"].to_pydict() == {"a": [1, 2]}

    def test_workbook_without_sheets(self, tmp_path):
        path = tmp_path / "bad.wbk"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SourceError):
            parse_workbook(path)


class TestShadowExtracts:
    def _file(self, tmp_path, n=50):
        return write_text_file(
            tmp_path / "flights.csv",
            {"day": [i % 10 for i in range(n)], "delay": [float(i) for i in range(n)]},
        )

    def test_single_parse_many_queries(self, tmp_path):
        source = FileDataSource(self._file(tmp_path))
        conn = source.connect()
        for _ in range(5):
            out = conn.execute('(aggregate () ((n (count))) (scan "Extract.data"))')
        assert out.to_pydict() == {"n": [50]}
        assert source.extract_creations == 1

    def test_jet_reparses_every_query(self, tmp_path):
        source = JetLikeDataSource(self._file(tmp_path))
        conn = source.connect()
        for _ in range(3):
            conn.execute('(scan "Extract.data")')
        assert source.parse_count == 3

    def test_jet_no_temp_tables(self, tmp_path):
        source = JetLikeDataSource(self._file(tmp_path))
        conn = source.connect()
        with pytest.raises(SourceError):
            conn.create_temp_table("#x", Table.from_pydict({"a": [1]}))

    def test_store_persists_across_instances(self, tmp_path):
        path = self._file(tmp_path)
        store = ShadowExtractStore(tmp_path / "cache")
        first = FileDataSource(path, store=store)
        first.connect().execute('(scan "Extract.data")')
        second = FileDataSource(path, store=store)
        second.connect().execute('(scan "Extract.data")')
        assert first.extract_creations == 1
        assert second.extract_creations == 0
        assert store.hits == 1

    def test_store_invalidated_by_file_change(self, tmp_path):
        path = self._file(tmp_path)
        store = ShadowExtractStore(tmp_path / "cache")
        FileDataSource(path, store=store).connect()
        import os
        import time

        time.sleep(0.01)
        write_text_file(path, {"day": [1], "delay": [9.0]})
        os.utime(path)
        fresh = FileDataSource(path, store=store)
        out = fresh.connect().execute('(scan "Extract.data")')
        assert out.n_rows == 1
        assert fresh.extract_creations == 1

    def test_workbook_source(self, tmp_path):
        path = write_workbook(tmp_path / "b.wbk", {"S1": {"a": [1, 2, 3]}})
        source = FileDataSource(path, workbook=True)
        out = source.connect().execute('(aggregate () ((n (count))) (scan "Extract.S1"))')
        assert out.to_pydict() == {"n": [3]}


class TestTdeDataSource:
    def test_query_and_temp_tables(self, flights_engine):
        source = TdeDataSource(flights_engine)
        conn = source.connect()
        out = conn.execute('(aggregate () ((n (count))) (scan "Extract.flights"))')
        assert out.to_pydict() == {"n": [20000]}
        conn.create_temp_table("#ids", Table.from_pydict({"carrier_id": [0, 1]}))
        joined = conn.execute(
            '(aggregate () ((n (count))) (join inner ((carrier_id carrier_id))'
            ' (scan "Extract.flights") (scan "#ids")))'
        )
        assert 0 < joined.to_pydict()["n"][0] < 20000
        conn.close()
        assert not flights_engine.has_table("tmp_1.#ids")
