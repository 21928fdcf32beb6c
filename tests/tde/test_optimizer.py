"""Optimizer tests: simplification, pushdown, culling, plan choices."""

import datetime as dt

import pytest

from repro.expr import parse_sexpr, to_sexpr
from repro.expr.ast import Literal
from repro.tde.exec import (
    ExecContext,
    PExchange,
    PHashAggregate,
    PIndexedRleScan,
    PScan,
    PStreamAggregate,
    PTopN,
    execute_to_table,
)
from repro.tde.optimizer import provenance
from repro.tde.optimizer.parallel import PlannerOptions, decide_dop
from repro.tde.optimizer.rules import simplify_predicate
from repro.tde.tql import Aggregate, Join, Select, TableScan, to_tql


class TestSimplifyPredicate:
    @pytest.mark.parametrize(
        "before,after",
        [
            ("(and true (> a 1))", "(> a 1)"),
            ("(and (> a 1) true)", "(> a 1)"),
            ("(and false (> a 1))", "false"),
            ("(or false (> a 1))", "(> a 1)"),
            ("(or (> a 1) true)", "true"),
            ("(not (not (> a 1)))", "(> a 1)"),
            ("(not true)", "false"),
            ("(in a (list))", "false"),
            ("(in a (list 5))", "(= a 5)"),
            ("(> 3 1)", "true"),
            ("(= (+ 1 2) 4)", "false"),
            ("(and (> 2 1) (> a 0))", "(> a 0)"),
        ],
    )
    def test_cases(self, before, after):
        assert to_sexpr(simplify_predicate(parse_sexpr(before))) == after

    def test_null_folding(self):
        out = simplify_predicate(parse_sexpr("(+ 1 null)"))
        assert isinstance(out, Literal) and out.value is None

    def test_leaves_column_predicates_alone(self):
        text = "(and (> a 1) (< a 5))"
        assert to_sexpr(simplify_predicate(parse_sexpr(text))) == text


class TestRewrites:
    def test_distinct_becomes_aggregate(self, flights_engine):
        plan = flights_engine.rewrite('(distinct (carrier_id) (scan "Extract.flights"))')
        assert isinstance(plan, Aggregate)
        assert plan.groupby == ("carrier_id",)
        assert plan.aggs == ()

    def test_selects_merge(self, flights_engine):
        plan = flights_engine.rewrite(
            '(select (> delay 1) (select (< delay 50) (scan "Extract.flights")))'
        )
        assert isinstance(plan, Select)
        assert isinstance(plan.child, TableScan)

    def test_pushdown_through_project(self, flights_engine):
        plan = flights_engine.rewrite(
            '(select (> x 5) (project ((x (+ delay 1)) (c carrier_id)) (scan "Extract.flights")))'
        )
        # Select moved below the Project and was rewritten over `delay`.
        assert to_tql(plan).startswith("(project")
        assert "(> (+ delay 1) 5)" in to_tql(plan)

    def test_pushdown_splits_join_conjuncts(self, flights_engine):
        plan = flights_engine.rewrite(
            '(select (and (> delay 5) (= name "AA"))'
            ' (join inner ((carrier_id id)) (scan "Extract.flights") (scan "Extract.carriers")))'
        )
        assert isinstance(plan, Join)
        assert isinstance(plan.left, Select)
        assert isinstance(plan.right, Select)
        assert "delay" in to_tql(plan.left)
        assert "name" in to_tql(plan.right)

    def test_join_key_filter_copied_to_build_side(self, flights_engine):
        plan = flights_engine.rewrite(
            '(select (= carrier_id 2)'
            ' (join inner ((carrier_id id)) (scan "Extract.flights") (scan "Extract.carriers")))'
        )
        assert isinstance(plan, Join)
        assert "(= id 2)" in to_tql(plan.right)

    def test_pushdown_stops_at_topn(self, flights_engine):
        plan = flights_engine.rewrite(
            '(select (> delay 5) (topn 3 ((delay desc)) (scan "Extract.flights")))'
        )
        assert isinstance(plan, Select)  # must stay above TopN

    def test_pushdown_below_aggregate_on_keys_only(self, flights_engine):
        plan = flights_engine.rewrite(
            '(select (and (= carrier_id 1) (> n 10))'
            ' (aggregate (carrier_id) ((n (count))) (scan "Extract.flights")))'
        )
        # (= carrier_id 1) sinks below the aggregate; (> n 10) stays above.
        assert isinstance(plan, Select)
        assert to_sexpr(plan.predicate) == "(> n 10)"
        inner = plan.child
        assert isinstance(inner, Aggregate)
        assert isinstance(inner.child, Select)


class TestCulling:
    def test_unused_dimension_removed(self, flights_engine):
        plan = flights_engine.rewrite(
            '(aggregate (carrier_id) ((n (count)))'
            ' (join inner ((carrier_id id)) (scan "Extract.flights") (scan "Extract.carriers")))'
        )
        assert isinstance(plan, Aggregate)
        assert isinstance(plan.child, TableScan)

    def test_used_dimension_kept(self, flights_engine):
        plan = flights_engine.rewrite(
            '(aggregate (name) ((n (count)))'
            ' (join inner ((carrier_id id)) (scan "Extract.flights") (scan "Extract.carriers")))'
        )
        assert isinstance(plan.child, Join)

    def test_fact_culling_for_domain_query(self, flights_engine):
        plan = flights_engine.rewrite(
            '(distinct (name)'
            ' (join inner ((carrier_id id)) (scan "Extract.flights") (scan "Extract.carriers")))'
        )
        assert isinstance(plan, Aggregate)
        assert isinstance(plan.child, TableScan)
        assert plan.child.table == "Extract.carriers"

    def test_fact_culling_blocked_by_aggregates(self, flights_engine):
        # COUNT changes when the fact table is dropped; must not cull.
        plan = flights_engine.rewrite(
            '(aggregate (name) ((n (count)))'
            ' (join inner ((carrier_id id)) (scan "Extract.flights") (scan "Extract.carriers")))'
        )
        assert isinstance(plan.child, Join)

    def test_culling_requires_declarations(self, flights_engine):
        # markets joined on a column with no FK declaration for carriers.
        plan = flights_engine.rewrite(
            '(aggregate (carrier_id) ((n (count)))'
            ' (join inner ((carrier_id mid)) (scan "Extract.flights") (scan "Extract.markets")))'
        )
        assert isinstance(plan.child, Join)

    def test_culling_results_match(self, flights_engine):
        q = (
            '(distinct (name)'
            ' (join inner ((carrier_id id)) (scan "Extract.flights") (scan "Extract.carriers")))'
        )
        assert flights_engine.query(q).equals_unordered(flights_engine.query_naive(q))


class TestPlanChoices:
    def test_parallel_scan_degree(self, flights_engine):
        plan = flights_engine.plan('(aggregate () ((n (count))) (scan "Extract.flights"))')
        exchanges = [n for n in plan.walk() if isinstance(n, PExchange)]
        assert exchanges and exchanges[0].degree > 1

    def test_serial_scan_note_states_the_comparison_it_lost(self):
        """A split needs two fractions' work: 1.5 fractions' stays serial,
        and the note must not claim that is under one fraction's."""
        with provenance.collect() as collector:
            assert decide_dop(1500, 0.0, PlannerOptions(min_work_per_fraction=1000.0)) == 1
        (note,) = collector.notes
        assert note.detail == "serial scan: 1500 work units, under the 2000 two fractions need"

    def test_small_table_stays_serial(self, flights_engine):
        plan = flights_engine.plan('(scan "Extract.carriers")')
        assert isinstance(plan, PScan)

    def test_local_global_aggregation_shape(self, flights_engine):
        plan = flights_engine.plan(
            '(aggregate (carrier_id) ((s (sum delay))) (scan "Extract.flights"))'
        )
        # global hash agg over an Exchange over local aggs
        assert isinstance(plan, PHashAggregate)
        assert isinstance(plan.child, PExchange)
        assert all(isinstance(c, PHashAggregate) for c in plan.child.children())

    def test_range_partitioned_aggregation_has_no_global_phase(self, flights_engine):
        plan = flights_engine.plan(
            '(aggregate (date_) ((n (count))) (scan "Extract.flights"))'
        )
        assert isinstance(plan, PExchange)
        for frag in plan.children():
            assert isinstance(frag, (PStreamAggregate, PHashAggregate))

    def test_streaming_aggregate_chosen_for_sorted_input(self, flights_engine):
        opts = PlannerOptions(max_dop=1)
        plan = flights_engine.plan(
            '(aggregate (date_) ((n (count))) (scan "Extract.flights"))', options=opts
        )
        assert isinstance(plan, PStreamAggregate)

    def test_count_distinct_forces_exchange_then_complete(self, flights_engine):
        plan = flights_engine.plan(
            '(aggregate (carrier_id) ((u (count_distinct date_))) (scan "Extract.flights"))'
        )
        assert isinstance(plan, PHashAggregate)
        assert isinstance(plan.child, PExchange)
        assert all(isinstance(c, PScan) for c in plan.child.children())

    def test_rle_index_scan_chosen_for_selective_filter(self, flights_engine):
        plan = flights_engine.plan(
            '(select (= date_ (date "2014-03-05")) (scan "Extract.flights"))'
        )
        assert isinstance(plan, PIndexedRleScan)

    def test_rle_index_scan_rejected_for_wide_range(self, flights_engine):
        plan = flights_engine.plan(
            '(select (>= date_ (date "2014-01-01")) (scan "Extract.flights"))',
            options=PlannerOptions(max_dop=1),
        )
        assert isinstance(plan, PScan)

    @pytest.mark.parametrize("days", [1, 7, 30, 182])
    def test_rle_index_scan_reads_only_the_matching_rows(self, flights_engine, days):
        """Paper 4.3: a filter on the run-length encoded column becomes a
        join with its IndexTable, so the scan reads only the runs that
        match; past the selectivity threshold the optimizer declines the
        index and scans the whole column. Counted, not timed."""
        start = dt.date(2014, 3, 1)
        end = start + dt.timedelta(days=days)
        query = (
            '(aggregate () ((n (count)) (s (sum delay)))'
            f' (select (and (>= date_ (date "{start}")) (< date_ (date "{end}")))'
            ' (scan "Extract.flights")))'
        )
        serial = PlannerOptions(max_dop=1)
        indexed = flights_engine.plan(query, options=serial)
        full = flights_engine.plan(
            query, options=PlannerOptions(max_dop=1, enable_rle_index=False)
        )
        indexed_ctx, full_ctx = ExecContext(), ExecContext()
        answer = execute_to_table(indexed, indexed_ctx)
        assert answer.equals(execute_to_table(full, full_ctx))
        total = flights_engine.table("Extract.flights").n_rows
        matching = answer.column("n").python_values()[0]
        assert full_ctx.metrics.rows_scanned == total
        uses_index = any(isinstance(n, PIndexedRleScan) for n in indexed.walk())
        assert uses_index == (days < 182)
        if uses_index:
            assert 0 < indexed_ctx.metrics.rows_scanned == matching < total
        else:
            assert indexed_ctx.metrics.rows_scanned == total

    def test_rle_index_disabled_by_option(self, flights_engine):
        opts = PlannerOptions(enable_rle_index=False, max_dop=1)
        plan = flights_engine.plan(
            '(select (= date_ (date "2014-03-05")) (scan "Extract.flights"))', options=opts
        )
        assert isinstance(plan, PScan)

    def test_topn_local_global(self, flights_engine):
        plan = flights_engine.plan(
            '(topn 5 ((delay desc)) (scan "Extract.flights"))'
        )
        assert isinstance(plan, PTopN)
        assert isinstance(plan.child, PExchange)
        assert all(isinstance(c, PTopN) for c in plan.child.children())

    def test_column_pruning_reaches_scans(self, flights_engine):
        plan = flights_engine.plan(
            '(aggregate (carrier_id) ((s (sum delay))) (scan "Extract.flights"))'
        )
        scans = [n for n in plan.walk() if isinstance(n, PScan)]
        for scan in scans:
            assert scan.columns == ["carrier_id", "delay"]
