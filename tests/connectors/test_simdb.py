"""Simulated database server tests: sessions, temp tables, limits, timing."""

import threading
import time

import pytest

import repro.connectors.simdb as simdb
from repro import obs
from repro.connectors import SimulatedDatabase
from repro.connectors.simdb import MAX_CONNECTIONS, ServerProfile
from repro.errors import ConnectionLimitError, SourceError
from repro.tde.storage import Table


def _db(**kwargs) -> SimulatedDatabase:
    profile = ServerProfile(time_scale=0, **kwargs)
    db = SimulatedDatabase("t", profile)
    db.load_table(
        "Extract.t",
        Table.from_pydict({"g": [1, 1, 2, 2, 3], "v": [1.0, 2.0, 3.0, 4.0, 5.0]}),
    )
    return db


class TestSessions:
    def test_select(self):
        session = _db().open_session()
        out = session.execute('SELECT "g", SUM("v") AS "s" FROM "Extract"."t" GROUP BY "g"')
        assert sorted(out.to_rows()) == [(1, 3.0), (2, 7.0), (3, 5.0)]

    def test_connection_limit(self):
        db = _db()
        sessions = [db.open_session() for _ in range(MAX_CONNECTIONS)]
        with pytest.raises(ConnectionLimitError):
            db.open_session()
        sessions.pop().close()
        sessions.append(db.open_session())  # freed slot is reusable
        for session in sessions:
            session.close()
        assert db.open_connections == 0

    def test_closed_session_rejects(self):
        session = _db().open_session()
        session.close()
        with pytest.raises(SourceError):
            session.execute("SELECT * FROM t")

    def test_stats_count_queries(self):
        db = _db()
        session = db.open_session()
        session.execute('SELECT * FROM "Extract"."t"')
        session.execute('SELECT * FROM "Extract"."t"')
        assert db.stats.queries == 2
        assert db.stats.rows_transferred == 10


    def test_the_queue_wait_reads_the_wall_only_for_a_live_histogram(self, monkeypatch):
        reads = []

        class Wall:
            sleep = staticmethod(time.sleep)

            @staticmethod
            def monotonic():
                reads.append(1)
                return time.monotonic()

        monkeypatch.setattr(simdb, "time", Wall)
        session = _db().open_session()
        session.execute('SELECT * FROM "Extract"."t"')
        assert reads == []
        with obs.recording() as rec:
            session.execute('SELECT * FROM "Extract"."t"')
        assert len(reads) == 2
        assert rec.metrics.snapshot()["simdb.queue_wait_s"]["count"] == 1


class TestTempTables:
    def test_create_as_select(self):
        session = _db().open_session()
        session.execute('CREATE TEMP TABLE "#big" AS SELECT * FROM "Extract"."t" WHERE "v" > 2.5')
        out = session.execute('SELECT COUNT(*) AS "n" FROM "#big"')
        assert out.to_pydict() == {"n": [3]}

    def test_create_insert_join(self):
        session = _db().open_session()
        session.execute('CREATE TEMP TABLE "#keys" ("g" BIGINT)')
        session.execute('INSERT INTO "#keys" VALUES (1), (3)')
        out = session.execute(
            'SELECT "v" FROM "Extract"."t" AS a INNER JOIN "#keys" AS b ON "g" = "g"'
        )
        assert sorted(out.to_pydict()["v"]) == [1.0, 2.0, 5.0]

    def test_temp_tables_are_session_scoped(self):
        db = _db()
        s1 = db.open_session()
        s2 = db.open_session()
        s1.execute('CREATE TEMP TABLE "#x" ("g" BIGINT)')
        with pytest.raises(Exception):
            s2.execute('SELECT * FROM "#x"')

    def test_same_name_in_two_sessions(self):
        db = _db()
        s1 = db.open_session()
        s2 = db.open_session()
        s1.execute('CREATE TEMP TABLE "#x" ("g" BIGINT)')
        s2.execute('CREATE TEMP TABLE "#x" ("g" BIGINT)')
        s1.execute('INSERT INTO "#x" VALUES (7)')
        assert s2.execute('SELECT COUNT(*) AS "n" FROM "#x"').to_pydict() == {"n": [0]}

    def test_drop(self):
        session = _db().open_session()
        session.execute('CREATE TEMP TABLE "#x" ("g" BIGINT)')
        session.execute('DROP TABLE "#x"')
        with pytest.raises(Exception):
            session.execute('SELECT * FROM "#x"')

    def test_cleanup_on_close(self):
        db = _db()
        session = db.open_session()
        session.execute('CREATE TEMP TABLE "#x" ("g" BIGINT)')
        qualified = session.temp_tables["#x"]
        session.close()
        assert not db.engine.has_table(qualified)

    def test_bulk_load(self):
        db = _db()
        session = db.open_session()
        session.bulk_load_temp("#bulk", Table.from_pydict({"g": [2]}))
        out = session.execute('SELECT * FROM "#bulk"')
        assert out.to_pydict() == {"g": [2]}
        assert db.stats.temp_tables_created == 1

    def test_no_temp_table_support(self):
        from repro.sql.dialects import QUIRKDB

        db = SimulatedDatabase("q", ServerProfile(dialect=QUIRKDB, time_scale=0))
        session = db.open_session()
        with pytest.raises(SourceError):
            session.bulk_load_temp("#x", Table.from_pydict({"g": [1]}))


class TestTiming:
    def test_worker_pool_limits_concurrency(self):
        # 4 workers, 8 concurrent queries of ~15ms → at least two waves.
        profile = ServerProfile(
            workers=4,
            per_query_parallelism=1,
            query_overhead_s=0.015,
            work_unit_time_s=0.0,
            transfer_row_time_s=0.0,
            connect_time_s=0.0,
        )
        db = SimulatedDatabase("timing", profile)
        db.load_table("Extract.t", Table.from_pydict({"v": [1.0]}))
        sessions = [db.open_session() for _ in range(8)]
        started = time.perf_counter()
        threads = [
            threading.Thread(target=s.execute, args=('SELECT * FROM "Extract"."t"',))
            for s in sessions
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started
        assert elapsed >= 0.028  # two waves of 15ms
        assert db.stats.peak_concurrency <= 8

    def test_mars_vs_serial_connection(self):
        profile = ServerProfile(
            mars=False,
            workers=8,
            query_overhead_s=0.01,
            work_unit_time_s=0.0,
            transfer_row_time_s=0.0,
            connect_time_s=0.0,
        )
        db = SimulatedDatabase("serial-conn", profile)
        db.load_table("Extract.t", Table.from_pydict({"v": [1.0]}))
        session = db.open_session()

        def run_pair(target_session):
            threads = [
                threading.Thread(
                    target=target_session.execute, args=('SELECT * FROM "Extract"."t"',)
                )
                for _ in range(2)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return time.perf_counter() - start

        serial_elapsed = run_pair(session)
        assert serial_elapsed >= 0.019  # statements serialized on one conn

    def test_admission_throttle(self):
        profile = ServerProfile(
            workers=8,
            max_concurrent_queries=1,
            query_overhead_s=0.01,
            work_unit_time_s=0.0,
            transfer_row_time_s=0.0,
            connect_time_s=0.0,
        )
        db = SimulatedDatabase("throttled", profile)
        db.load_table("Extract.t", Table.from_pydict({"v": [1.0]}))
        sessions = [db.open_session() for _ in range(3)]
        start = time.perf_counter()
        threads = [
            threading.Thread(target=s.execute, args=('SELECT * FROM "Extract"."t"',))
            for s in sessions
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert time.perf_counter() - start >= 0.028  # three serialized waves
