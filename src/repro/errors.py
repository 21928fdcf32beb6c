"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class. Subsystems raise the more
specific subclasses below; each carries a human-readable message and, where
useful, structured context attributes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TqlError(ReproError):
    """Base class for errors in the TQL front end (lexing/parsing/binding)."""


class TqlParseError(TqlError):
    """Raised when TQL text cannot be tokenized or parsed.

    Attributes:
        position: character offset in the source text, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at offset {position})")
        self.position = position


class BindError(TqlError):
    """Raised when names cannot be resolved or expression types are invalid."""


class TypeMismatchError(BindError):
    """Raised when an expression combines incompatible logical types."""


class StorageError(ReproError):
    """Raised by the TDE storage layer (missing objects, bad files, ...)."""


class ExecutionError(ReproError):
    """Raised when a physical plan fails during execution."""


class OptimizerError(ReproError):
    """Raised when the optimizer produces or receives an invalid plan."""


class SqlError(ReproError):
    """Base class for SQL front-end errors of the simulated databases."""


class SqlParseError(SqlError):
    """Raised when SQL text cannot be parsed by the simulated servers."""


class CapabilityError(ReproError):
    """Raised when a query requires a capability the data source lacks.

    The query compiler uses this to decide which operations must be applied
    locally in the post-processing stage (paper section 3.1).
    """

    def __init__(self, message: str, capability: str | None = None):
        super().__init__(message)
        self.capability = capability


class SourceError(ReproError):
    """Raised by connectors when a data source misbehaves or disappears."""


class TransientSourceError(SourceError):
    """A source failure that is worth retrying (timeout, blip, dead member).

    The executor's retry/backoff machinery retries these; permanent
    :class:`SourceError` subclasses (bad SQL, missing table) are not
    retried because a retry cannot change the outcome.
    """


class SourceTimeoutError(TransientSourceError):
    """Raised when a connector operation exceeds its configured timeout."""

    def __init__(self, message: str, timeout_s: float | None = None):
        super().__init__(message)
        self.timeout_s = timeout_s


class SourceUnavailableError(TransientSourceError):
    """Raised when a data source is (temporarily) unreachable or down."""


class ConnectionDiedError(TransientSourceError):
    """Raised when a pooled connection dies mid-flight (member death)."""


class CircuitOpenError(SourceError):
    """Raised fast when a circuit breaker is open for the data source.

    Deliberately *not* transient: retrying against an open breaker would
    defeat its purpose. Callers degrade (stale serve / per-zone error)
    instead, and the breaker lets probes through once it is half-open.
    """

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ConnectionLimitError(SourceError):
    """Raised when a simulated server rejects a connection (limit reached)."""


class CacheError(ReproError):
    """Raised by the caching layer (corrupt persisted cache, bad key, ...)."""


class ServerError(ReproError):
    """Raised by Tableau Server / Data Server components."""


class WorkloadError(ReproError):
    """Raised by workload generators for invalid parameter combinations."""
