"""DataEngine: the public facade of the TDE reproduction.

Usage::

    engine = DataEngine("sales")
    engine.load_pydict("Extract.orders", {"region": [...], "amount": [...]})
    result = engine.query('(aggregate (region) ((total (sum amount))) '
                          '(scan "Extract.orders"))')

The engine owns a :class:`Database`, a :class:`StorageCatalog` with the
declared constraints the optimizer uses, and the planner options that
control parallelism. ``save``/``open`` pack the whole database into a
single file (paper 4.1.1).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from .exec.physical import ExecContext, PhysNode, execute_to_table
from .explain import _node_label, explain_query
from .optimizer.catalog import StorageCatalog
from .optimizer.parallel import PlannerOptions
from .optimizer.planner import plan_query
from .optimizer.rules import rewrite_logical
from .plancache import PlanCache, normalize_tql, options_fingerprint
from .storage.filepack import pack_database, unpack_database
from .storage.schema import Database
from .storage.table import Table
from .tql.parser import parse_tql
from .tql.plan import LogicalPlan


class DataEngine:
    """An embeddable, read-mostly columnar analytics engine."""

    def __init__(
        self,
        name: str = "tde",
        *,
        options: PlannerOptions | None = None,
        batch_size: int = 8192,
    ):
        self.database = Database(name)
        self.catalog = StorageCatalog(self.database)
        self.options = options or PlannerOptions()
        self.batch_size = batch_size
        #: Compiled-plan LRU for the string query path; keyed on
        #: (normalized TQL, catalog version, options fingerprint).
        self.plan_cache = PlanCache(self.options.plan_cache_size)

    # ------------------------------------------------------------------ #
    # Loading and metadata
    # ------------------------------------------------------------------ #
    def create_table(self, name: str, table: Table, *, replace: bool = False) -> None:
        """Register a pre-built storage table under ``schema.table``."""
        self.database.add_table(name, table, replace=replace)
        self.plan_cache.invalidate("catalog_change")

    def load_pydict(
        self,
        name: str,
        data: Mapping[str, Sequence[Any]],
        *,
        sort_keys: Sequence[str] = (),
        replace: bool = False,
        **kwargs: Any,
    ) -> Table:
        """Build a table from Python values and register it."""
        table = Table.from_pydict(data, sort_keys=sort_keys, name=name, **kwargs)
        self.create_table(name, table, replace=replace)
        return table

    def drop_table(self, name: str) -> None:
        self.database.drop_table(name)
        self.plan_cache.invalidate("catalog_change")

    def table(self, name: str) -> Table:
        return self.database.table(name)

    def has_table(self, name: str) -> bool:
        return self.database.has_table(name)

    def declare_unique(self, table: str, columns: Sequence[str]) -> None:
        """Declare a unique key, enabling join-culling rewrites."""
        self.catalog.declare_unique(table, tuple(columns))

    def declare_foreign_key(
        self,
        child: str,
        fk_columns: Sequence[str],
        parent: str,
        key_columns: Sequence[str],
        *,
        total: bool = True,
        onto: bool = False,
    ) -> None:
        """Declare a foreign key (see :class:`ForeignKey` for semantics)."""
        self.catalog.declare_foreign_key(
            child, fk_columns, parent, key_columns, total=total, onto=onto
        )

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #
    def parse(self, tql: str) -> LogicalPlan:
        return parse_tql(tql)

    def plan(
        self, query: str | LogicalPlan, *, options: PlannerOptions | None = None
    ) -> PhysNode:
        """Compile a TQL query to a physical plan without executing it.

        String queries go through the plan cache: repeat dashboard
        queries (modulo whitespace, name quoting and literal position)
        reuse the compiled physical plan and skip rewrite/bind/optimize.
        """
        opts = options or self.options
        logical = self.parse(query) if isinstance(query, str) else query
        if isinstance(query, str) and self.plan_cache.enabled:
            # The key is normalised from the tree just parsed, so a miss
            # compiles that tree instead of parsing the text again.
            key = self._plan_key(logical, opts)
            cached = self.plan_cache.get(key)
            if cached is not None:
                return cached
            generation = self.plan_cache.generation()
            physical = plan_query(logical, self.catalog, opts)
            self.plan_cache.put(key, physical, generation)
            return physical
        return plan_query(logical, self.catalog, opts)

    def _plan_key(self, query: str | LogicalPlan, opts: PlannerOptions) -> tuple:
        return (normalize_tql(query), self.catalog.version, options_fingerprint(opts))

    def invalidate_plans(self, reason: str = "refresh") -> int:
        """Drop every cached plan (extract refresh, external DDL)."""
        return self.plan_cache.invalidate(reason)

    def query(
        self,
        query: str | LogicalPlan,
        *,
        options: PlannerOptions | None = None,
    ) -> Table:
        """Compile, optimize, and execute a query; return the result table.

        Exchange fragments run inline on the calling thread, one after the
        other: a thread per fragment measured no faster under the GIL. The
        4.2 speed-ups are reproduced by replaying the plan in virtual time
        (``repro.sim.machine``).
        """
        physical = self.plan(query, options=options)
        return execute_to_table(physical, ExecContext(batch_size=self.batch_size))

    def query_naive(self, query: str | LogicalPlan) -> Table:
        """Execute with every optimization disabled (testing baseline).

        The logical plan is interpreted operator-by-operator with no
        rewrites, no parallelism, and no encoding-aware scans — the
        reference semantics the optimized paths must match.
        """
        logical = self.parse(query) if isinstance(query, str) else query
        naive_options = PlannerOptions(
            max_dop=1,
            enable_rle_index=False,
            enable_local_global_agg=False,
            enable_range_partition_agg=False,
            enable_streaming_agg=False,
            enable_pipeline_fusion=False,
            enable_code_space=False,
            plan_cache_size=0,
        )
        physical = plan_query(logical, self.catalog, naive_options, rewrite=False)
        return execute_to_table(physical, ExecContext(batch_size=self.batch_size))

    def explain(
        self,
        query: str | LogicalPlan,
        *,
        analyze: bool = False,
        options: PlannerOptions | None = None,
    ) -> str:
        """EXPLAIN: the physical plan plus optimizer provenance.

        Returns an :class:`~repro.tde.explain.ExplainResult` — a ``str``
        (one operator per line, pre-order numbered, with estimated rows
        and the rewrite/culling/parallelization decisions that shaped the
        plan) that also carries the structured form via ``.to_dict()``.
        With ``analyze=True`` the plan is executed once and every
        operator is annotated with actual rows, batches and inclusive
        wall time.
        """
        return explain_query(self, query, analyze=analyze, options=options)

    def rewrite(self, query: str | LogicalPlan) -> LogicalPlan:
        """Expose the logical rewrite pipeline (for tests and tools)."""
        logical = self.parse(query) if isinstance(query, str) else query
        return rewrite_logical(logical, self.catalog)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> None:
        """Pack the whole database into a single file."""
        pack_database(self.database, path)

    @classmethod
    def open(cls, path: str | Path, *, options: PlannerOptions | None = None) -> "DataEngine":
        """Load an engine from a packed single-file database."""
        db = unpack_database(path)
        engine = cls(db.name, options=options)
        engine.database = db
        engine.catalog = StorageCatalog(db)
        return engine


def render_plan(node: PhysNode, indent: int = 0) -> str:
    """Render a physical operator tree, one line per operator."""
    pad = "  " * indent
    label = _node_label(node)
    lines = [f"{pad}{label}"]
    for child in node.children():
        lines.append(render_plan(child, indent + 1))
    return "\n".join(lines)
