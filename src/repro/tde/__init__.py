"""Tableau Data Engine (TDE) reproduction.

A read-only column store with:

* a storage layer supporting dictionary compression and lightweight
  encodings (RLE, delta) — ``repro.tde.storage``
* a TQL front end (parser, binder) — ``repro.tde.tql``
* a rule-based optimizer with property derivation, join culling and
  parallel plan generation — ``repro.tde.optimizer``
* a vectorized Volcano-style execution engine with Exchange-based
  parallelism — ``repro.tde.exec``

The top-level entry point is :class:`repro.tde.engine.DataEngine`.
"""

from .engine import DataEngine

__all__ = ["DataEngine"]
