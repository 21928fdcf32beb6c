"""Temporary-table state management on Data Server (paper 5.4).

"Temporary table state is maintained in two different places in Data
Server: in memory and on the underlying database. In both cases, this
state is maintained while the client connection to Data Server remains
active; it is reclaimed when the connection is closed or expired due to
inactivity. To alleviate the in-memory cost of temporary tables, temporary
table definitions are shared across client connections. ... The
definitions are removed when all references to them are removed."
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from ..clock import SYSTEM_CLOCK, Clock
from ..errors import ServerError
from ..tde.storage.table import Table


@dataclass
class _SharedDefinition:
    """One shared in-memory temp table definition with a refcount."""

    name: str
    table: Table
    fingerprint: str
    last_used: float  # the owning state's clock reading
    refs: int = 1


class TempTableState:
    """Shared in-memory temp-table definitions, refcounted per session."""

    def __init__(self, *, idle_ttl_s: float = 600.0, clock: Clock = SYSTEM_CLOCK):
        self.idle_ttl_s = idle_ttl_s
        self.clock = clock
        self._defs: dict[str, _SharedDefinition] = {}
        self._by_fingerprint: dict[str, str] = {}
        self._lock = threading.Lock()
        self.shared_hits = 0
        self.definitions_created = 0

    # ------------------------------------------------------------------ #
    def register(self, name: str, table: Table) -> str:
        """Register (or share) a definition; returns the canonical name.

        Identical contents registered under any name share one definition,
        which is what keeps N clients of the same published source from
        holding N copies.
        """
        fingerprint = _fingerprint(table)
        with self._lock:
            existing = self._by_fingerprint.get(fingerprint)
            if existing is not None:
                shared = self._defs[existing]
                shared.refs += 1
                shared.last_used = self.clock.monotonic()
                self.shared_hits += 1
                return shared.name
            if name in self._defs:
                name = f"{name}_{len(self._defs)}"
            self._defs[name] = _SharedDefinition(
                name, table, fingerprint, self.clock.monotonic()
            )
            self._by_fingerprint[fingerprint] = name
            self.definitions_created += 1
            return name

    def get(self, name: str) -> Table:
        with self._lock:
            if name not in self._defs:
                raise ServerError(f"no temp table {name!r}")
            shared = self._defs[name]
            shared.last_used = self.clock.monotonic()
            return shared.table

    def has(self, name: str) -> bool:
        with self._lock:
            return name in self._defs

    def release(self, name: str) -> None:
        """Drop one reference; the definition dies with the last one."""
        with self._lock:
            shared = self._defs.get(name)
            if shared is None:
                return
            shared.refs -= 1
            if shared.refs <= 0:
                del self._defs[name]
                del self._by_fingerprint[shared.fingerprint]

    def expire_idle(self) -> int:
        """Reclaim definitions idle beyond the TTL (expired sessions)."""
        now = self.clock.monotonic()
        with self._lock:
            doomed = [
                n for n, d in self._defs.items() if now - d.last_used > self.idle_ttl_s
            ]
            for name in doomed:
                shared = self._defs.pop(name)
                self._by_fingerprint.pop(shared.fingerprint, None)
        return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._defs)


def _fingerprint(table: Table) -> str:
    digest = hashlib.sha256()
    digest.update("|".join(table.column_names).encode())
    for row in table.to_rows():
        digest.update(repr(row).encode())
    return digest.hexdigest()
