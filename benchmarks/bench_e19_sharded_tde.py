"""E19 (ablation; §7): data partitioning in a distributed TDE.

"we are considering using data partitioning in a distributed
architecture" — the sharded cluster reuses 4.2.3's local/global
aggregation across shared-nothing nodes. Two shapes to verify:

* aggregation pushdown keeps the shuffle tiny: partial groups travel to
  the coordinator instead of detail rows, independent of node count;
* per-node work drops ~linearly with the shard count (virtual time:
  each node scans 1/N of the fact table).
"""


from repro.server import ShardedTdeCluster
from repro.sim import MachineModel, simulate_plan
from repro.sim.metrics import Recorder
from repro.tde.optimizer.parallel import PlannerOptions
from repro.workloads import generate_flights

from .conftest import record

ROWS = 120_000
DATASET = generate_flights(ROWS, seed=47)

AGG_QUERY = (
    '(aggregate (carrier_id market_id) ((n (count)) (a (avg dep_delay)))'
    ' (scan "Extract.flights"))'
)


def test_e19_sharded_tde(benchmark):
    recorder = Recorder(
        "E19: sharded TDE scatter-gather (120k-row fact)",
        columns=["nodes", "rows_shuffled", "detail_alternative", "per_node_virtual_ms"],
    )
    reference = None
    shuffle_sizes = []
    per_node_times = []
    clusters = {}
    for n_nodes in (1, 2, 4, 8):
        cluster = ShardedTdeCluster(
            n_nodes,
            DATASET.load_into_engine,
            "Extract.flights",
            options=PlannerOptions(max_dop=1),
        )
        clusters[n_nodes] = cluster
        result = cluster.query(AGG_QUERY)
        if reference is None:
            reference = result
        else:
            assert result.approx_equals(reference, ordered=False, rel=1e-7, abs_tol=1e-7)
        # Shuffle volume: partial groups per shard (bounded by group count).
        partials = result.n_rows * n_nodes  # upper bound: every group on every shard
        machine = MachineModel(cores=1)
        node_times = []
        for node in cluster.nodes:
            plan = node.plan(AGG_QUERY)
            node_times.append(simulate_plan(plan, machine).elapsed_s)
        slowest = max(node_times) * 1000
        recorder.add(n_nodes, partials, ROWS, slowest)
        shuffle_sizes.append(partials)
        per_node_times.append(slowest)
    record("e19_sharded_tde", recorder)

    # Pushdown: even at 8 nodes the shuffle is orders of magnitude under
    # shipping the detail rows.
    assert max(shuffle_sizes) < ROWS / 50
    # Per-node virtual work drops ~linearly with the shard count.
    assert per_node_times[0] / per_node_times[-1] > 5.0
    assert per_node_times == sorted(per_node_times, reverse=True)

    cluster = clusters[4]
    result = benchmark.pedantic(lambda: cluster.query(AGG_QUERY), rounds=3, iterations=1)
    assert result.n_rows == reference.n_rows
