"""The package layering, asserted over the source.

Every import is read from the AST, including those inside functions and
under ``if TYPE_CHECKING:``, which a runtime import check would not see.

* The packages form one order (:data:`ORDER`): a module imports only its
  own package or one below it.
* ``repro.obs`` is the instrument every other layer reports into, so it
  may import only the standard library, itself and ``repro.clock``.
* ``repro.clock`` is the one way to tell time: no other module reads the
  ``time`` module, bar the two named in :data:`TIME_READERS`.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: The package order, bottom first. A package may import one on its own
#: level or below; packages sharing a level do not import each other
#: except ``datatypes`` → ``errors``.
ORDER = (
    ("errors", "collation", "datatypes", "clock"),
    ("obs",),
    ("expr",),
    ("tde",),
    ("sql",),
    ("connectors",),
    ("faults",),
    ("queries",),
    ("core",),
    ("dashboard",),
    ("server", "workloads", "sim"),
)

#: Modules that still read ``time`` themselves, and why.
TIME_READERS = {
    # The simulated backend sleeps each query's modeled service time on
    # the wall clock and times its queue; modeled time has no clock yet.
    "connectors/simdb.py",
    # The experiment recorder's wall-clock timer for benchmark repeats.
    "sim/metrics.py",
}


def _imported_modules(path: Path):
    """(line, module) for every import in ``path``, relative ones resolved."""
    package = ".".join(("repro", *path.parent.relative_to(SRC).parts))
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            if module == "repro":
                # ``from repro import obs`` imports the subpackage.
                for alias in node.names:
                    yield node.lineno, f"repro.{alias.name}"
            else:
                yield node.lineno, module


def _level(package: str) -> int:
    return next(i for i, level in enumerate(ORDER) if package in level)


def _package(path: Path) -> str:
    return path.relative_to(SRC).parts[0].removesuffix(".py")


def test_obs_imports_nothing_outside_obs():
    outside = []
    for path in sorted((SRC / "obs").rglob("*.py")):
        for line, module in _imported_modules(path):
            if module == "repro.obs" or module.startswith("repro.obs."):
                continue
            if module == "repro.clock":
                continue
            if module.split(".")[0] in sys.stdlib_module_names:
                continue
            outside.append(f"{path.relative_to(SRC)}:{line} imports {module}")
    assert not outside, "\n".join(outside)


def test_every_package_imports_only_down_the_order():
    named = {package for level in ORDER for package in level}
    found = {_package(path) for path in SRC.glob("*") if path.name != "__init__.py"}
    found.discard("__pycache__")
    assert found == named, "a package is missing from ORDER, or ORDER names a stale one"
    upward = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent == SRC and path.name == "__init__.py":
            continue
        importer = _package(path)
        for line, module in _imported_modules(path):
            parts = module.split(".")
            if parts[0] != "repro" or len(parts) < 2:
                continue
            imported = parts[1]
            if imported == importer:
                continue
            if _level(imported) > _level(importer) or (
                _level(imported) == _level(importer)
                and (importer, imported) != ("datatypes", "errors")
            ):
                upward.append(f"{path.relative_to(SRC)}:{line} ({importer}) imports {module}")
    assert not upward, "\n".join(upward)


def test_only_the_clock_reads_time():
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if name == "clock.py" or name in TIME_READERS:
            continue
        for line, module in _imported_modules(path):
            if module == "time":
                readers.append(f"{name}:{line} imports time; take a repro.clock.Clock")
    assert not readers, "\n".join(readers)
    for name in TIME_READERS:  # an exception whose reason is gone goes too
        modules = {module for _, module in _imported_modules(SRC / name)}
        assert "time" in modules, f"{name} no longer reads time: drop it from TIME_READERS"
