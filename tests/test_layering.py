"""The package layering, asserted over the source.

``repro.obs`` is the instrument every other layer reports into, so it
may import only the standard library and itself. The walk reads every
``import`` in the AST, including those inside functions and under
``if TYPE_CHECKING:``, which a runtime import check would not see.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


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


def test_obs_imports_nothing_outside_obs():
    outside = []
    for path in sorted((SRC / "obs").rglob("*.py")):
        for line, module in _imported_modules(path):
            if module == "repro.obs" or module.startswith("repro.obs."):
                continue
            if module.split(".")[0] in sys.stdlib_module_names:
                continue
            outside.append(f"{path.relative_to(SRC)}:{line} imports {module}")
    assert not outside, "\n".join(outside)
