"""Data Server: published data sources behind a proxy (paper 5.2–5.4).

"Users publish data sources that can be leveraged, without duplication,
by multiple workbooks ... a complex calculation in a data source can be
defined once and used everywhere. ... Instead of 100 workbooks with
distinct copies of the same extract, a single extract is created."

A :class:`DataServerSession` is the client-facing connection: it serves
metadata, applies the user's row-level filter, resolves in-memory
temporary sets, and funnels queries through the published source's shared
pipeline (the unified optimization path of 5.3). Client→proxy traffic is
accounted in bytes so the temp-table experiments can measure the saving.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from .. import obs
from ..clock import SYSTEM_CLOCK, Clock
from ..core.cache.distributed import DistributedQueryCache
from ..core.pipeline import PipelineOptions, QueryPipeline
from ..errors import ServerError, SourceUnavailableError
from ..obs.window import Telemetry, TelemetryOptions, compose_statz, make_telemetry
from ..queries.model import DataSourceModel
from ..queries.spec import CategoricalFilter, Filter, QuerySpec
from ..tde.storage.table import Table
from .tempstate import TempTableState


@dataclass
class PublishedDataSource:
    """One published source: model + backing source + shared services."""

    name: str
    model: DataSourceModel
    source: Any  # a DataSource
    pipeline: QueryPipeline
    temp_state: TempTableState
    user_filters: dict[str, Filter] = field(default_factory=dict)
    refresh_count: int = 0


class DataServer:
    """Registry of published data sources and session factory."""

    def __init__(
        self,
        *,
        store=None,
        telemetry: TelemetryOptions | bool | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        self._published: dict[str, PublishedDataSource] = {}
        self._lock = threading.Lock()
        self.clock = clock
        #: Optional shared cache tier (a ReplicatedStore): when present,
        #: every published pipeline's literal cache is a client of it
        #: (namespaced per source), so results stay warm across proxy
        #: restarts and server nodes, and an extract refresh fans its
        #: invalidation out across the tier.
        self.store = store
        self.telemetry: Telemetry | None = make_telemetry(telemetry, clock=clock)

    # ------------------------------------------------------------------ #
    def publish(
        self,
        name: str,
        model: DataSourceModel,
        source,
        *,
        user_filters: Mapping[str, Filter] | None = None,
        options: PipelineOptions | None = None,
    ) -> PublishedDataSource:
        """Publish a data source (model + extract/live connection)."""
        with self._lock:
            if name in self._published:
                raise ServerError(f"data source {name!r} already published")
            if self.telemetry is not None:
                # The proxy's telemetry needs per-request ledgers from
                # every published pipeline.
                options = dataclasses.replace(
                    options or PipelineOptions(), enable_ledger=True
                )
            pipeline = QueryPipeline(
                source,
                model,
                options=options,
                literal_cache=(
                    DistributedQueryCache(self.store, name, clock=self.clock)
                    if self.store is not None
                    else None
                ),
                clock=self.clock,
            )
            published = PublishedDataSource(
                name,
                model,
                source,
                pipeline,
                TempTableState(clock=self.clock),
                dict(user_filters or {}),
            )
            self._published[name] = published
            return published

    def published_names(self) -> list[str]:
        return sorted(self._published)

    def get(self, name: str) -> PublishedDataSource:
        if name not in self._published:
            raise ServerError(f"no published data source {name!r}")
        return self._published[name]

    def set_user_filter(self, name: str, user: str, filter_: Filter) -> None:
        """Restrict ``user``'s rows on a published source (paper 5.2)."""
        self.get(name).user_filters[user] = filter_

    def refresh_extract(self, name: str, refresher=None) -> int:
        """Refresh the single shared extract behind a published source.

        ``refresher`` (optional) mutates the backing source in place.
        Caches for the source are purged — the paper's purge-on-refresh
        rule (3.2). Returns the total refresh count, which experiment E14
        compares against the one-copy-per-workbook alternative.
        """
        published = self.get(name)
        if refresher is not None:
            refresher(published.source)
        published.pipeline.invalidate()
        published.refresh_count += 1
        return published.refresh_count

    def connect(self, name: str, user: str) -> "DataServerSession":
        return DataServerSession(self.get(name), user, telemetry=self.telemetry)

    # ------------------------------------------------------------------ #
    def statz(self) -> dict:
        """Windowed latency, SLO burn state and slow queries for the proxy."""
        published: dict[str, Any] = {}
        for name in sorted(self._published):
            entry: dict[str, Any] = {
                "refresh_count": self._published[name].refresh_count,
            }
            backend = self._published[name].pipeline.backend_engine()
            if backend is not None:
                entry["plan_cache"] = backend.plan_cache.stats()
            published[name] = entry
        snap: dict[str, Any] = {"published": published}
        if self.store is not None:
            snap["cache_tier"] = self.store.statz()
        return compose_statz(snap, self.telemetry)


class DataServerSession:
    """One client connection to a published data source."""

    def __init__(
        self,
        published: PublishedDataSource,
        user: str,
        *,
        telemetry: Telemetry | None = None,
    ):
        self.published = published
        self.user = user
        self.telemetry = telemetry
        self.closed = False
        self.bytes_from_client = 0
        self.queries_answered = 0
        #: Whether the most recent :meth:`query` was a degraded (stale)
        #: serve, plus a running count — the proxy-level `stale=True` flag.
        self.last_stale = False
        self.stale_serves = 0
        self._sets: dict[str, tuple[str, str]] = {}  # handle -> (field, shared name)

    # ------------------------------------------------------------------ #
    def metadata(self) -> dict:
        """What the client needs to populate its data window (paper 5.2)."""
        model = self.published.model
        return {
            "datasource": self.published.name,
            "schema": {
                k: t.value for k, t in model.schema(self.published.source).items()
            },
            "calculations": [name for name, _e in model.calculations],
            "supports_temp_tables": self.published.source.dialect.supports_temp_tables,
        }

    # ------------------------------------------------------------------ #
    def create_set(self, handle: str, field_name: str, values) -> str:
        """Create an in-memory temporary set on the proxy (paper 5.3).

        The values travel once; later queries reference the handle.
        """
        self._check_open()
        values = tuple(values)
        obs.counter("dataserver.sets_created").inc()
        self.bytes_from_client += len(repr(values)) + len(handle)
        ltype = self.published.model.schema(self.published.source)[field_name]
        table = Table.from_pydict({field_name: sorted(set(values))}, types={field_name: ltype})
        shared = self.published.temp_state.register(handle, table)
        self._sets[handle] = (field_name, shared)
        return handle

    def drop_set(self, handle: str) -> None:
        entry = self._sets.pop(handle, None)
        if entry is not None:
            self.published.temp_state.release(entry[1])

    # ------------------------------------------------------------------ #
    def query(
        self,
        spec: QuerySpec,
        *,
        use_sets: Mapping[str, str] | None = None,
        trace_parent: Mapping[str, str] | None = None,
    ) -> Table:
        """Answer a spec, applying user filters and resolving set handles.

        ``use_sets`` maps field name → set handle: the named set's values
        are injected as a categorical filter during compilation, without
        re-shipping them from the client.

        ``trace_parent`` is an optional wire-format trace context (from
        :meth:`repro.obs.TraceContext.to_wire` on the calling node): the
        proxy's span tree then joins the caller's trace, so a VizServer
        request that crossed into Data Server stitches into one tree.
        """
        self._check_open()
        if spec.datasource != self.published.name:
            raise ServerError(
                f"spec targets {spec.datasource!r}, session is {self.published.name!r}"
            )
        cursor = obs.get_events().cursor() if self.telemetry is not None else 0
        started = self.published.pipeline.clock.monotonic() if self.telemetry is not None else 0.0
        remote_ctx = obs.TraceContext.from_wire(trace_parent) if trace_parent else None
        sp = effective = batch = None
        # The proxy hop: client spec → published pipeline → result.
        try:
            with obs.activate(remote_ctx):
                with obs.span(
                    "dataserver.query", datasource=self.published.name, user=self.user
                ) as sp:
                    self.bytes_from_client += len(spec.canonical()) + sum(
                        len(h) for h in (use_sets or {}).values()
                    )
                    filters = list(spec.filters)
                    for field_name, handle in (use_sets or {}).items():
                        if handle not in self._sets:
                            raise ServerError(f"unknown set handle {handle!r}")
                        set_field, shared = self._sets[handle]
                        if set_field != field_name:
                            raise ServerError(
                                f"set {handle!r} is over {set_field!r}, not {field_name!r}"
                            )
                        values = self.published.temp_state.get(shared).column(set_field).python_values()
                        filters.append(CategoricalFilter(field_name, tuple(values)))
                    user_filter = self.published.user_filters.get(self.user)
                    if user_filter is not None:
                        filters.append(user_filter)
                    effective = spec.with_filters(tuple(filters))
                    batch = self.published.pipeline.run_batch([effective])
                    # For a single-spec session API, an unanswerable query
                    # raises (SourceUnavailableError out of table_for); a
                    # stale serve succeeds but is flagged on the session.
                    result = batch.table_for(effective)
                    self.last_stale = batch.is_stale(effective)
                    if self.last_stale:
                        self.stale_serves += 1
                        obs.counter("dataserver.stale_serves").inc()
                        sp.set(stale=True)
                    self.queries_answered += 1
                    obs.counter("dataserver.queries").inc()
                    sp.set(rows=result.n_rows)
        except SourceUnavailableError:
            # The span is closed here (the raise unwound it), so the
            # error trace is offered whole to the tail sampler.
            self._observe(sp, effective, batch, started, cursor, failed=True)
            raise
        self._observe(sp, effective, batch, started, cursor, failed=False)
        return result

    # ------------------------------------------------------------------ #
    def _observe(self, sp, effective, batch, started, cursor, *, failed: bool) -> None:
        """Feed one answered (or failed) query into the telemetry plane."""
        if self.telemetry is None or batch is None:
            return
        key = effective.canonical()
        ledger = batch.ledgers.get(key)
        self.telemetry.record(
            sp,
            started=started,
            elapsed=self.published.pipeline.clock.monotonic() - started,
            cursor=cursor,
            key=f"{self.user}/{self.published.name}/query",
            dimensions={
                "source": self.published.name,
                "session": self.user,
                "backend": self.published.source.name,
            },
            ledgers={key: ledger} if ledger is not None else None,
            context=lambda: {
                "spec": key,
                "remote_queries": batch.remote_queries,
                "cache_hits": batch.cache_hits,
            },
            degraded=batch.is_stale(effective),
            failed=failed,
            explain=lambda: self.published.pipeline.explain_cold(effective),
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if not self.closed:
            for handle in list(self._sets):
                self.drop_set(handle)
            self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise ServerError("session is closed")
