"""The structured exception hierarchy of the engine.

Every error the library raises deliberately derives from
:class:`ReproError`, so operational code can catch one base class and
know it is looking at a diagnosed condition rather than a stray
``ValueError`` escaping from deep inside a parser or a page decoder.
The leaves keep their historical builtin bases (``ValueError``,
``RuntimeError``, ``TimeoutError``) so existing ``except`` clauses and
tests keep working.

The module is deliberately dependency-free: ``repro.storage``,
``repro.rdf`` and ``repro.engine`` all import it, so it must import
none of them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every structured error raised by this library."""


class ParseError(ReproError, ValueError):
    """Query/data text could not be parsed.

    Carries the 1-based source position when the parser knows it, so
    front-ends can print a one-line ``parse error at line:col: ...``
    diagnostic instead of a traceback.
    """

    def __init__(self, message: str, line: "int | None" = None,
                 column: "int | None" = None):
        super().__init__(message)
        self.line = line
        self.column = column

    @property
    def location(self) -> str:
        """``"line:column"`` when known, ``""`` otherwise."""
        if self.line is None:
            return ""
        if self.column is None:
            return str(self.line)
        return f"{self.line}:{self.column}"

    def one_line(self) -> str:
        """The single-line diagnostic front-ends should print."""
        where = self.location
        prefix = f"parse error at {where}: " if where else "parse error: "
        return prefix + str(self.args[0] if self.args else "")


class InvalidQueryError(ReproError, ValueError):
    """The query parsed but cannot be meaningfully evaluated.

    Raised by up-front validation in :meth:`SamaEngine.query` for empty
    patterns, patterns binding no constants at all, and disconnected
    query graphs — conditions that would otherwise surface as confusing
    failures (or empty answers) deep inside clustering and search.
    """


class QueryTimeout(ReproError, TimeoutError):
    """A query's budget tripped and the caller asked for an error.

    Raised only under ``on_budget="raise"``; the default degradation
    mode returns a :class:`~repro.resilience.budget.PartialResult`
    instead.  ``reasons`` holds the machine-readable
    :class:`~repro.resilience.budget.DegradationReason` records and
    ``partial`` whatever answers were found before the trip.
    """

    def __init__(self, message: str, reasons=(), partial=None):
        super().__init__(message)
        self.reasons = tuple(reasons)
        self.partial = partial


class OverloadedError(ReproError, RuntimeError):
    """The serving layer is at capacity and shed this request.

    Raised by :class:`~repro.serving.service.ServingEngine` when every
    worker is busy and the bounded admission queue is full — the
    alternative would be an unbounded queue, which converts overload
    into unbounded latency.  ``in_flight`` and ``capacity`` report the
    admission state at rejection time so clients can implement backoff.
    """

    def __init__(self, message: str, in_flight: "int | None" = None,
                 capacity: "int | None" = None):
        super().__init__(message)
        self.in_flight = in_flight
        self.capacity = capacity


class QuotaExceededError(ReproError, RuntimeError):
    """A tenant exhausted its admission quota and this request was refused.

    Raised ahead of the engine's capacity semaphore by the per-tenant
    token-bucket admission in the asyncio front end (HTTP 429): the
    *service* still has room, but this API key is sending faster than
    its provisioned rate.  ``retry_after_s`` is the earliest moment a
    retry can succeed (the next token), so well-behaved clients back
    off exactly as long as needed and no longer.
    """

    def __init__(self, message: str, tenant: "str | None" = None,
                 retry_after_s: "float | None" = None):
        super().__init__(message)
        self.tenant = tenant
        self.retry_after_s = retry_after_s


class StorageError(ReproError, RuntimeError):
    """Invalid or failed page/record operation in the storage layer."""


class TransientStorageError(StorageError):
    """A page read failed in a way that may succeed on retry.

    The buffer pool retries these with bounded exponential backoff
    (see :class:`~repro.resilience.retry.RetryPolicy`) before letting
    them propagate.
    """


class PageCorruptError(StorageError):
    """A page's content does not match its recorded checksum."""


class ShardUnavailableError(StorageError):
    """A shard of a sharded index cannot serve reads right now.

    Raised when a lookup touches a shard that the recovery scan
    quarantined at open time (damaged manifest, unreadable log) or that
    the health board has taken out of rotation.  Sharded clustering
    treats it like any other per-shard storage failure: the
    shard's partial comes back empty and the query degrades with
    :data:`~repro.resilience.budget.DegradationCause.SHARD_FAILED`
    instead of failing outright.
    """

    def __init__(self, message: str, shard: "int | None" = None):
        super().__init__(message)
        self.shard = shard


class IndexCorruptError(ReproError, RuntimeError):
    """The on-disk index is unreadable or internally inconsistent."""
