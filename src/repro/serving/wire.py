"""The rules of the wire, apart from the socket code that applies them.

What :mod:`repro.serving.aserve` accepts and what it sends: one
``Content-Length`` rule, one ``POST /query`` document validator, one
mapping from a failed request to its status and error document, and
one rendering of a 200 body.
"""

from __future__ import annotations

import json
import math

from ..resilience.errors import (InvalidQueryError, OverloadedError,
                                 ParseError, ReproError)
from .service import ServedResult

#: Hard cap on accepted request bodies (a query, not a dataset).
MAX_BODY_BYTES = 1 << 20


def content_length(values: "list[str] | None") -> int:
    """The declared body length from every ``Content-Length`` value of
    one request (none → 0), or ``ValueError``.

    ASCII digits only: ``int()`` would also take ``+5``, ``1_0``,
    `` 7 `` and non-ASCII digits, and a ``-3`` that reads no body
    leaves it on the wire to be parsed as the next request.  Repeated
    headers must agree — keeping the last (or first) of two different
    lengths is how request smuggling starts.
    """
    if not values:
        return 0
    value = values[0]
    if any(other != value for other in values[1:]):
        raise ValueError("conflicting Content-Length headers")
    if not (value.isascii() and value.isdigit()):
        raise ValueError("malformed Content-Length")
    return int(value)


def parse_query_document(body: bytes
                         ) -> "tuple[str, int | None, float | None]":
    """``(query, k, deadline_ms)`` of a ``POST /query`` body, or
    ``ValueError`` with the message the 400 carries."""
    if not body:
        raise ValueError("empty request body")
    document = json.loads(body.decode("utf-8"))
    if not isinstance(document, dict):
        raise ValueError("request body must be a JSON object")
    query = document.get("query")
    if not isinstance(query, str) or not query.strip():
        raise ValueError("'query' must be non-empty SPARQL text")
    # bool is an int: ``{"k": true}`` must not run (and be cached) as
    # k=1.  json.loads also yields NaN/Infinity, which pass ``< 0``.
    k = document.get("k")
    if k is not None and (isinstance(k, bool) or not isinstance(k, int)
                          or k < 1):
        raise ValueError("'k' must be a positive integer")
    deadline_ms = document.get("deadline_ms")
    if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not math.isfinite(deadline_ms) or deadline_ms < 0):
        raise ValueError("'deadline_ms' must be a number >= 0")
    return query, k, deadline_ms


def failure_response(exc: Exception, draining: bool
                     ) -> "tuple[int, dict | None, bytes]":
    """``(status, extra headers, JSON body)`` for a request that raised
    ``exc``.

    Shed and drained requests are 503 with a ``Retry-After`` hint, bad
    queries 400 with the parser's one-line diagnostic, anything else a
    500 that never leaks a traceback to the wire.
    """
    status, headers = 500, None
    if isinstance(exc, OverloadedError):
        status, headers = 503, {"Retry-After": "5" if draining else "1"}
        document = {"error": "OverloadedError", "message": str(exc),
                    "in_flight": exc.in_flight, "capacity": exc.capacity,
                    "draining": draining}
    elif isinstance(exc, (ParseError, InvalidQueryError)):
        status = 400
        document = {"error": type(exc).__name__,
                    "message": (exc.one_line() if isinstance(exc, ParseError)
                                else str(exc))}
    elif isinstance(exc, ReproError):
        document = {"error": type(exc).__name__, "message": str(exc)}
    else:
        document = {"error": "InternalError", "message": type(exc).__name__}
    return status, headers, json.dumps(document).encode("utf-8")


def response_body(result: ServedResult) -> bytes:
    """The ``POST /query`` 200 body for ``result``.

    Byte-identical to ``json.dumps({**payload, "cached": …,
    "latency_ms": …})``: the payload's own bytes (already rendered for
    hits and cached misses) with the two serving fields spliced in
    before the closing brace, so a hit serialises nothing.
    """
    body = result.body
    if body is None:
        body = json.dumps(result.payload).encode("utf-8")
    return b'%s%s"cached": %s, "latency_ms": %s}' % (
        body[:-1], b", " if len(body) > 2 else b"",
        b"true" if result.cached else b"false",
        repr(round(result.latency_ms, 3)).encode("ascii"))
