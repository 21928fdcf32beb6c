"""Cache persistence for the desktop scenario (paper 3.2).

"In Tableau Desktop query caches get persisted to enable fast response
times across different sessions with the application."

The intelligent cache is saved as a single ZIP: a JSON manifest of query
specs (no pickling — filter values carry explicit type tags) plus one
payload per entry, in the wire format the cache tier uses. Version 1
files held a packed one-table database per entry and are refused.
"""

from __future__ import annotations

import datetime as _dt
import json
import zipfile
from pathlib import Path
from typing import Any

from ...errors import CacheError
from ...expr.sexpr import parse_sexpr, to_sexpr
from ...queries.spec import CategoricalFilter, QuerySpec, RangeFilter, TopNFilter
from .distributed import deserialize_table, serialize_table
from .intelligent import IntelligentCache

FORMAT_VERSION = 2


# ---------------------------------------------------------------------- #
# Spec <-> JSON
# ---------------------------------------------------------------------- #
def _value_to_json(v: Any) -> Any:
    if isinstance(v, _dt.datetime):
        return {"$dt": v.isoformat()}
    if isinstance(v, _dt.date):
        return {"$d": v.isoformat()}
    return v


def _value_from_json(v: Any) -> Any:
    if isinstance(v, dict):
        if "$dt" in v:
            return _dt.datetime.fromisoformat(v["$dt"])
        if "$d" in v:
            return _dt.date.fromisoformat(v["$d"])
    return v


def spec_to_json(spec: QuerySpec) -> dict:
    filters = []
    for f in spec.filters:
        if isinstance(f, CategoricalFilter):
            filters.append(
                {
                    "kind": "cat",
                    "field": f.field,
                    "values": [_value_to_json(v) for v in f.values],
                    "exclude": f.exclude,
                }
            )
        elif isinstance(f, RangeFilter):
            filters.append(
                {
                    "kind": "range",
                    "field": f.field,
                    "low": _value_to_json(f.low),
                    "high": _value_to_json(f.high),
                }
            )
        elif isinstance(f, TopNFilter):
            filters.append(
                {
                    "kind": "topn",
                    "field": f.field,
                    "by": to_sexpr(f.by),
                    "n": f.n,
                    "ascending": f.ascending,
                }
            )
        else:  # pragma: no cover - defensive
            raise CacheError(f"cannot persist filter {f!r}")
    return {
        "datasource": spec.datasource,
        "dimensions": list(spec.dimensions),
        "measures": [[n, to_sexpr(a)] for n, a in spec.measures],
        "filters": filters,
        "order_by": [[k, asc] for k, asc in spec.order_by],
        "limit": spec.limit,
    }


def spec_from_json(doc: dict) -> QuerySpec:
    filters = []
    for f in doc["filters"]:
        if f["kind"] == "cat":
            filters.append(
                CategoricalFilter(
                    f["field"], [_value_from_json(v) for v in f["values"]], f["exclude"]
                )
            )
        elif f["kind"] == "range":
            filters.append(
                RangeFilter(
                    f["field"], _value_from_json(f["low"]), _value_from_json(f["high"])
                )
            )
        elif f["kind"] == "topn":
            filters.append(
                TopNFilter(
                    f["field"],
                    parse_sexpr(f["by"], allow_agg=True),
                    f["n"],
                    f["ascending"],
                )
            )
        else:
            raise CacheError(f"unknown persisted filter kind {f['kind']!r}")
    return QuerySpec(
        doc["datasource"],
        doc["dimensions"],
        [(n, parse_sexpr(a, allow_agg=True)) for n, a in doc["measures"]],
        filters,
        [(k, asc) for k, asc in doc["order_by"]],
        doc["limit"],
    )


# ---------------------------------------------------------------------- #
# Cache <-> file
# ---------------------------------------------------------------------- #
def save_intelligent_cache(cache: IntelligentCache, path: str | Path) -> int:
    """Persist all entries; returns the number written."""
    entries = cache.entries()
    with zipfile.ZipFile(Path(path), "w", compression=zipfile.ZIP_DEFLATED) as zf:
        manifest = {"version": FORMAT_VERSION, "entries": []}
        for i, (spec, table) in enumerate(entries):
            manifest["entries"].append({"spec": spec_to_json(spec), "payload": f"{i}.tde"})
            zf.writestr(f"{i}.tde", serialize_table(table))
        zf.writestr("manifest.json", json.dumps(manifest))
    return len(entries)


def load_intelligent_cache(path: str | Path, cache: IntelligentCache | None = None) -> IntelligentCache:
    """Load persisted entries into a (new or given) cache."""
    cache = cache if cache is not None else IntelligentCache()  # an empty cache is falsy
    path = Path(path)
    if not path.exists():
        raise CacheError(f"no persisted cache at {path}")
    with zipfile.ZipFile(path, "r") as zf:
        try:
            manifest = json.loads(zf.read("manifest.json"))
        except KeyError:
            raise CacheError(f"{path} is not a persisted cache") from None
        if manifest.get("version") != FORMAT_VERSION:
            raise CacheError(f"unsupported cache version {manifest.get('version')}")
        for entry in manifest["entries"]:
            spec = spec_from_json(entry["spec"])
            table = deserialize_table(zf.read(entry["payload"]))
            cache.put(spec, table)
    return cache
