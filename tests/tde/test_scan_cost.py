"""Cost guard: a render pays for the rows and columns its plans read.

These count *work*, not time, so they are exact and cheap to keep in
tier-1. Before the storage layer learned to slice encoded vectors and to
keep dictionary codes through ``Table.concat``, one Fig-1 render over
20k rows re-materialized delta columns 193 times and re-encoded 8 967
string values one Python dict probe at a time.
"""

from functools import partial

import numpy as np

from repro.connectors import SimDbDataSource, TdeDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import QueryPipeline
from repro.dashboard import DashboardSession
from repro.queries import postops
from repro.tde.engine import DataEngine
from repro.tde.exec import kernels, physical
from repro.tde.exec.physical import ExecContext, PScan
from repro.tde.exec import grouping
from repro.tde.storage import Column, DeltaVector, Dictionary, ForVector, PlainVector, RleVector, Table
from repro.workloads import fig1_dashboard, flights_model, generate_flights


#: Every encoded vector type; only a plain vector materializes for free.
ENCODED = (RleVector, DeltaVector, ForVector)


def test_fig1_render_never_rematerializes_or_reencodes(monkeypatch):
    engine = generate_flights(20_000, seed=1).load_into_engine()
    present = {type(c.physical) for c in engine.table("Extract.flights").columns.values()}
    # Each encoded type the fact table holds is watched below (the key
    # columns are frame-of-reference; distance's span left delta unused).
    assert ForVector in present and present - {PlainVector} <= set(ENCODED)
    materialized = []
    encoded = []
    encode = Dictionary.encode.__func__

    def counting(materialize):
        def counting_materialize(self):
            materialized.append((type(self).__name__, len(self)))
            return materialize(self)

        return counting_materialize

    def counting_encode(cls, values, **kwargs):
        encoded.append(len(values))
        return encode(cls, values, **kwargs)

    for vector in ENCODED:
        monkeypatch.setattr(vector, "materialize", counting(vector.materialize))
    monkeypatch.setattr(Dictionary, "encode", classmethod(counting_encode))
    pipeline = QueryPipeline(TdeDataSource(engine), flights_model())
    try:
        result = DashboardSession(fig1_dashboard(), pipeline).render()
    finally:
        pipeline.close()
    assert result.remote_queries > 0 and not result.degraded
    assert materialized == []
    assert sum(encoded) == 0


def test_fig1_render_scans_the_fact_table_once(monkeypatch):
    """Seven zones aggregate join(join(flights, carriers), markets): an
    in-process TDE gets them as one grouping-sets query and reads each
    fragment of the fact table once, in one piece, where it used to read
    it seven times; a source that is waited for still gets its seven
    queries. No fragment is joined to a dimension: every zone reads the
    dimensions only as group keys, so the partials group by the foreign
    keys and each zone joins the dimensions to their results. Above the
    rows, the sets share the work they have in common: their seven
    groupings fall on four foreign-key grains, one partial each; each of
    the six distinct key columns is coded once per fragment (25 codings
    when each set coded its own keys, 7 when the sets grouped by the
    dimension columns); the three keys all four partials group by are
    densified once per fragment (each partial densified its own keys, 16
    times a render); and no partial computes a measure twice (the
    ``avg`` split and the ``__reuse`` measures both ask for ``sum`` and
    ``count`` of one column)."""
    dataset = generate_flights(20_000, seed=1)
    queries, ranges, codings, densified, measures, probes = [], [], [], [], [], []
    query, slice_ = DataEngine.query, Table.slice

    def counting_query(self, text, **kwargs):
        queries.append(text)
        return query(self, text, **kwargs)

    def counting_slice(self, start, stop):
        if self.name == "Extract.flights":
            ranges.append((start, stop))
        return slice_(self, start, stop)

    key_codes, slot_ranks = kernels.key_codes, kernels._slot_ranks

    def coding(col, *ranked):
        codings.append(len(col))
        return key_codes(col, *ranked)

    def densifying(combined, domain):
        densified.append(len(combined))
        return slot_ranks(combined, domain)

    aggregate_groups, aggregate_one = kernels.aggregate_groups, kernels._aggregate_one

    def one_call(table, gids, n_groups, specs, aggregate=aggregate_groups):
        measures.append((table.n_rows, []))
        return aggregate(table, gids, n_groups, specs)

    def one_measure(col, gids, k, spec, shared):
        measures[-1][1].append((spec.func, spec.arg))
        return aggregate_one(col, gids, k, spec, shared)

    probe_index = physical.probe_index

    def one_probe(index, probe, keys):
        probes.append(probe.n_rows)
        return probe_index(index, probe, keys)

    for module in (kernels, grouping):
        monkeypatch.setattr(module, "key_codes", coding)
        monkeypatch.setattr(module, "_slot_ranks", densifying)
    monkeypatch.setattr(physical, "aggregate_groups", one_call)
    # An unfiltered roll-up of a cached result calls the kernel from the post-ops.
    monkeypatch.setattr(postops, "aggregate_groups", one_call)
    monkeypatch.setattr(grouping, "aggregate_slots", partial(one_call, aggregate=kernels.aggregate_slots))
    monkeypatch.setattr(kernels, "_aggregate_one", one_measure)
    monkeypatch.setattr(physical, "probe_index", one_probe)

    def render(source):
        pipeline = QueryPipeline(source, flights_model())
        try:
            result = DashboardSession(fig1_dashboard(), pipeline).render()
        finally:
            pipeline.close()
        assert not result.degraded
        return result

    engine = dataset.load_into_engine()
    # Batches smaller than a fragment, so a batched read would show.
    engine.batch_size = 1024
    monkeypatch.setattr(DataEngine, "query", counting_query)
    monkeypatch.setattr(Table, "slice", counting_slice)
    result = render(TdeDataSource(engine))
    assert len(queries) == 1 and queries[0].startswith("(grouping-sets ")
    assert result.remote_queries == 1
    assert sum(batch.fused_away for batch in result.batches) == 6
    fragments = len(engine.plan(queries[0]).fragments)
    assert len(ranges) == len(set(ranges)) == fragments > 1  # one read per fragment
    assert sum(stop - start for start, stop in ranges) == 20_000
    fragment_rows = {stop - start for start, stop in ranges}
    assert len([n for n in codings if n in fragment_rows]) == 6 * fragments
    assert len([n for n in densified if n in fragment_rows]) == fragments
    assert len([n for n, _ in measures if n in fragment_rows]) == 4 * fragments
    assert all(len(set(m)) == len(m) for _, m in measures)
    assert probes and not [n for n in probes if n in fragment_rows]

    del queries[:]
    db = dataset.load_into_simdb(ServerProfile(time_scale=0), name="warehouse")
    result = render(SimDbDataSource(db))
    assert result.remote_queries == 7 and db.stats.queries == 7
    assert sum(batch.fused_away for batch in result.batches) == 0
    assert not any("grouping-sets" in str(q) for q in queries)


def test_scan_slices_only_planned_columns(monkeypatch):
    flights = generate_flights(3_000, seed=1).load_into_engine().table("Extract.flights")
    assert len(flights.columns) == 11
    sliced = []
    real = Column.slice

    def counting_slice(self, start, stop):
        sliced.append(next(name for name, col in flights.columns.items() if col is self))
        return real(self, start, stop)

    monkeypatch.setattr(Column, "slice", counting_slice)
    scan = PScan(flights, columns=["carrier_id", "dep_delay"])
    batches = list(scan.execute(ExecContext(batch_size=1_000)))
    assert [b.column_names for b in batches] == [["carrier_id", "dep_delay"]] * 3
    assert sorted(set(sliced)) == ["carrier_id", "dep_delay"] and len(sliced) == 6
    assert np.array_equal(
        np.concatenate([b.column("dep_delay").storage_values() for b in batches]),
        flights.column("dep_delay").storage_values(),
    )
