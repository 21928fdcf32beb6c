"""Sharded TDE cluster tests (paper §7's data-partitioning plan)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServerError
from repro.server import ShardedTdeCluster
from repro.workloads import generate_flights

DATASET = generate_flights(6000, seed=37)
SINGLE = DATASET.load_into_engine()
CLUSTER = ShardedTdeCluster(3, DATASET.load_into_engine, "Extract.flights")


def _agree(query: str, *, ordered: bool = False) -> None:
    sharded = CLUSTER.query(query)
    reference = SINGLE.query_naive(query)
    assert sharded.approx_equals(reference, ordered=ordered, rel=1e-7, abs_tol=1e-7), query


class TestSetup:
    def test_fact_rows_partitioned(self):
        counts = CLUSTER.row_counts()
        assert sum(counts) == 6000
        assert len(counts) == 3
        assert max(counts) - min(counts) <= 1

    def test_dimensions_replicated(self):
        for node in CLUSTER.nodes:
            assert node.table("Extract.carriers").n_rows == 8

    def test_shards_keep_sort_order(self):
        for node in CLUSTER.nodes:
            assert node.table("Extract.flights").sort_keys == ("date_",)

    def test_validation(self):
        with pytest.raises(ServerError):
            ShardedTdeCluster(0, DATASET.load_into_engine, "Extract.flights")
        with pytest.raises(ServerError):
            ShardedTdeCluster(2, DATASET.load_into_engine, "Extract.nope")


class TestScatterGather:
    def test_sum_min_max_count(self):
        _agree(
            '(aggregate (carrier_id) ((n (count)) (s (sum dep_delay))'
            ' (lo (min dep_delay)) (hi (max dep_delay))) (scan "Extract.flights"))'
        )

    def test_avg_recombined_from_components(self):
        _agree('(aggregate (market_id) ((a (avg arr_delay))) (scan "Extract.flights"))')

    def test_count_distinct_across_shards(self):
        """A market seen on every shard must count once per group."""
        _agree(
            '(aggregate (carrier_id) ((u (count_distinct market_id)))'
            ' (scan "Extract.flights"))'
        )

    def test_global_aggregate(self):
        _agree('(aggregate () ((n (count)) (s (sum distance))) (scan "Extract.flights"))')

    def test_global_aggregate_over_empty_selection(self):
        _agree(
            '(aggregate () ((n (count)) (s (sum distance)))'
            ' (select (> distance 999999) (scan "Extract.flights")))'
        )

    def test_count_of_groups_not_inflated(self):
        """Regression guard: per-shard partial counts must merge by SUM,
        not be recounted."""
        out = CLUSTER.query('(aggregate () ((n (count))) (scan "Extract.flights"))')
        assert out.to_pydict() == {"n": [6000]}

    def test_domain_query(self):
        _agree('(distinct (market_id) (scan "Extract.flights"))')

    def test_join_with_replicated_dimension(self):
        _agree(
            '(aggregate (carrier_name) ((n (count))) (join inner ((carrier_id id))'
            ' (scan "Extract.flights") (scan "Extract.carriers")))'
        )

    def test_topn_over_aggregate(self):
        _agree(
            '(topn 4 ((n desc) (market_id asc)) (aggregate (market_id) ((n (count)))'
            ' (scan "Extract.flights")))',
            ordered=True,
        )

    def test_row_level_select(self):
        _agree('(select (> dep_delay 75) (scan "Extract.flights"))')

    def test_order_merged_at_coordinator(self):
        _agree(
            '(order ((dep_delay desc) (date_ asc) (market_id asc) (distance asc)'
            ' (hour asc)) (select (> dep_delay 70) (scan "Extract.flights")))',
            ordered=True,
        )

    def test_count_distinct_requires_plain_column(self):
        with pytest.raises(ServerError):
            CLUSTER.query(
                '(aggregate () ((u (count_distinct (+ market_id 1))))'
                ' (scan "Extract.flights"))'
            )

    def test_error_propagates_from_shard(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            CLUSTER.query('(scan "Extract.ghost")')


@given(n_nodes=st.integers(min_value=1, max_value=5))
@settings(max_examples=5, deadline=None)
def test_node_count_invariance(n_nodes):
    """Any shard count yields the same aggregate answers."""
    dataset = generate_flights(800, seed=n_nodes)
    cluster = ShardedTdeCluster(n_nodes, dataset.load_into_engine, "Extract.flights")
    single = dataset.load_into_engine()
    q = (
        '(aggregate (carrier_id) ((n (count)) (a (avg dep_delay))'
        ' (u (count_distinct market_id))) (scan "Extract.flights"))'
    )
    assert cluster.query(q).approx_equals(
        single.query_naive(q), ordered=False, rel=1e-7, abs_tol=1e-7
    )
