"""Every option has a caller.

A defaulted field or keyword that nothing sets is a configuration no test
or benchmark covers. The walk reads every call in ``src/``, ``tests/``,
``benchmarks/`` and ``examples/`` and counts a value as set when it is

* a positional argument or keyword of a call to the class,
* a keyword of ``dataclasses.replace``, or
* a key of a dict literal or ``dict(...)`` in a module where a call to
  the class ``**``-expands a mapping.

Calls inside the class's own body do not count.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import is_dataclass
from pathlib import Path

from repro.connectors.simdb import ServerProfile, SimDbDataSource, SimulatedDatabase
from repro.core.cache.replicated import ReplicatedStore
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.faults.breaker import CircuitBreaker
from repro.obs.window import SLOMonitor, TelemetryOptions
from repro.server.cluster import TdeCluster
from repro.server.dataserver import DataServer
from repro.server.vizserver import VizServer
from repro.tde.optimizer.parallel import PlannerOptions

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples")

CLASSES = (
    PipelineOptions,
    PlannerOptions,
    TelemetryOptions,
    QueryPipeline,
    VizServer,
    DataServer,
    TdeCluster,
    ReplicatedStore,
    SLOMonitor,
    CircuitBreaker,
    ServerProfile,
    SimulatedDatabase,
    SimDbDataSource,
)

#: The time source every server takes; tests inject a virtual one where
#: they need it, and no single caller covers every class.
ALLOWED = {"clock"}


def _defaulted(cls) -> list[str]:
    return [
        p.name
        for p in inspect.signature(cls).parameters.values()
        if p.default is not inspect.Parameter.empty
        and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]


def _positional(cls) -> list[str]:
    return [
        p.name
        for p in inspect.signature(cls).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]


def _called_name(call: ast.Call, aliases: dict[str, str]) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return aliases.get(func.id, func.id)
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _own_bodies(tree: ast.Module, names: set[str]) -> set[int]:
    """ids of every node inside a target class's own definition."""
    inside: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in names:
            inside.update(id(child) for child in ast.walk(node))
    return inside


def _set_values() -> dict[str, set[str]]:
    """Class name -> the defaulted values some caller sets."""
    by_name = {cls.__name__: cls for cls in CLASSES}
    positional = {name: _positional(cls) for name, cls in by_name.items()}
    dataclass_names = [name for name, cls in by_name.items() if is_dataclass(cls)]
    found: dict[str, set[str]] = {name: set() for name in by_name}
    for folder in SCANNED:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            aliases = {
                alias.asname: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.asname
            }
            own = _own_bodies(tree, set(by_name))
            dict_keys: set[str] = set()
            expanded: set[str] = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Dict):
                    dict_keys.update(
                        k.value
                        for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str)
                    )
                if not isinstance(node, ast.Call):
                    continue
                name = _called_name(node, aliases)
                keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
                if name == "dict":
                    dict_keys.update(keywords)
                if name == "replace" and id(node) not in own:
                    for cls_name in dataclass_names:
                        found[cls_name].update(keywords)
                if name not in by_name or id(node) in own:
                    continue
                found[name].update(keywords)
                n_args = sum(not isinstance(arg, ast.Starred) for arg in node.args)
                found[name].update(positional[name][:n_args])
                if any(kw.arg is None for kw in node.keywords):
                    expanded.add(name)
            for name in expanded:
                found[name].update(dict_keys)
    return found


def test_every_option_is_set_by_a_caller():
    found = _set_values()
    unset = [
        f"{cls.__name__}.{value}"
        for cls in CLASSES
        for value in _defaulted(cls)
        if value not in ALLOWED and value not in found[cls.__name__]
    ]
    assert not unset, (
        "options no caller in src/, tests/, benchmarks/ or examples/ sets; "
        "make each a constant or have a test or benchmark ablate it: "
        + ", ".join(unset)
    )
