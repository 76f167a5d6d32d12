"""JSON-over-HTTP front end for a :class:`ServingEngine` (stdlib only).

Endpoints::

    POST /query    {"query": "SELECT ...", "k": 10, "deadline_ms": 500}
    GET  /healthz  liveness + index epoch
    GET  /stats    cache hit rate, in-flight, p50/p95 latency, shed count
    GET  /metrics  Prometheus text exposition (stage histograms, counters)

Errors map onto HTTP the way the typed hierarchy intends: bad queries
are 400 (with the parser's one-line diagnostic), shed requests are 503
with a ``Retry-After`` hint, deadline trips under ``on_budget=raise``
semantics never happen here (the service degrades to partial results,
reported in the 200 body), and anything unexpected is a 500 that never
leaks a traceback to the client.

The server is a :class:`ThreadingHTTPServer`: one OS thread per
connection doing I/O, while the actual query work is bounded by the
serving engine's worker pool + admission control — slow clients hold
sockets, not workers.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .service import ServingEngine
from .wire import (MAX_BODY_BYTES, content_length, failure_response,
                   parse_query_document, response_body)


class ServingRequestHandler(BaseHTTPRequestHandler):
    """Routes the three endpoints onto the serving engine."""

    server_version = "sama-serve/1.0"
    protocol_version = "HTTP/1.1"

    # The serving engine is attached to the server object by serve().
    @property
    def serving(self) -> ServingEngine:
        return self.server.serving_engine  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- helpers -----------------------------------------------------------

    def _note_disconnect(self) -> None:
        """Count a client that went away mid-write (never a crash)."""
        self.close_connection = True
        self.serving.registry.counter(
            "sama_client_disconnects_total",
            "Responses aborted because the client disconnected mid-write",
        ).inc()

    def _send_json(self, status: int, payload: dict,
                   headers: "dict[str, str] | None" = None) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"),
                        headers=headers)

    def _send_body(self, status: int, body: bytes,
                   content_type: str = "application/json",
                   headers: "dict[str, str] | None" = None) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            if self.close_connection:
                # The framing code decided this connection cannot be
                # reused (oversized/truncated body); tell the client so
                # it does not pipeline into a socket about to close.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up between sending the request and reading
            # the answer.  That is their prerogative, not our crash: the
            # handler thread must survive to serve the next connection.
            self._note_disconnect()

    def _declared_length(self) -> int:
        """The request's ``Content-Length`` (absent → 0).  A malformed
        or self-contradicting one closes the connection — where the
        body ends is unknown — and raises ``ValueError``."""
        try:
            return content_length(self.headers.get_all("Content-Length"))
        except ValueError:
            self.close_connection = True
            raise

    def _read_raw_body(self) -> bytes:
        """The declared request body, read *fully* (or ``ValueError``).

        A single ``rfile.read(length)`` is not enough: a slow or
        chunking client delivers the body in pieces, and a short read
        here would both truncate the JSON *and* desynchronise the
        keep-alive connection (the unread tail would be parsed as the
        next request line).  Loop until ``length`` bytes or EOF; a
        truncated body closes the connection, because the framing can
        no longer be trusted.
        """
        length = self._declared_length()
        if length == 0:
            raise ValueError("empty request body")
        if length > MAX_BODY_BYTES:
            # Never read (or drain) an oversized body — the connection
            # cannot be reused, so mark it for closing.
            self.close_connection = True
            raise ValueError(f"request body over {MAX_BODY_BYTES} bytes")
        chunks = []
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(remaining)
            if not chunk:
                break
            chunks.append(chunk)
            remaining -= len(chunk)
        if remaining > 0:
            self.close_connection = True
            raise ValueError(
                f"truncated request body ({length - remaining}/{length} "
                f"bytes received)")
        return b"".join(chunks)

    def _drain_body(self) -> None:
        """Consume a request body that is not going to be used.

        Error responses sent while the body is still in the socket
        would leave those bytes to be parsed as the *next* request
        under keep-alive (connection desync).  Either the body is
        drained here, or the connection is marked to close.
        """
        try:
            length = self._declared_length()
        except ValueError:
            return
        if length == 0:
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            return
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(remaining)
            if not chunk:
                self.close_connection = True
                return
            remaining -= len(chunk)

    # -- endpoints ---------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            payload = self.serving.health_payload()
            # "draining" is 503 so load balancers stop routing here;
            # "degraded" stays 200 — the surviving shards still answer,
            # and pulling the instance would turn partial loss into
            # total loss.
            status = 503 if payload["status"] == "draining" else 200
            self._send_json(status, payload)
        elif self.path == "/stats":
            self._send_json(200, self.serving.stats_payload())
        elif self.path == "/metrics":
            self._send_body(
                200, self.serving.render_metrics().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        else:
            self._send_json(404, {"error": "NotFound", "message": self.path})

    def do_POST(self):  # noqa: N802 - stdlib naming
        if self.path != "/query":
            # The 404 must still account for the declared body: leftover
            # bytes would desync the next keep-alive request.
            self._drain_body()
            self._send_json(404, {"error": "NotFound", "message": self.path})
            return
        try:
            query, k, deadline_ms = parse_query_document(
                self._read_raw_body())
        except ValueError as exc:  # JSON and UTF-8 errors included
            self._send_json(400, {"error": "BadRequest", "message": str(exc)})
            return

        try:
            result = self.serving.query(query, k=k, deadline_ms=deadline_ms)
        except Exception as exc:
            status, headers, body = failure_response(
                exc, self.serving.draining)
            self._send_body(status, body, headers=headers)
            return
        self._send_body(200, response_body(result))


class ServingServer:
    """A serving engine bound to a listening HTTP socket.

    ``port=0`` picks a free port (tests, benchmarks); the bound port is
    on :attr:`port` after construction.  :meth:`serve_background` runs
    the accept loop on a daemon thread and returns immediately —
    :meth:`shutdown` stops the loop, drains the engine's workers, and
    closes the index.
    """

    def __init__(self, serving: ServingEngine, host: str = "127.0.0.1",
                 port: int = 8080, verbose: bool = False):
        self.serving = serving
        self.httpd = ThreadingHTTPServer((host, port), ServingRequestHandler)
        self.httpd.daemon_threads = True
        self.httpd.serving_engine = serving  # type: ignore[attr-defined]
        self.httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: "threading.Thread | None" = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (the CLI path)."""
        self.httpd.serve_forever()

    def serve_background(self) -> "ServingServer":
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="sama-serve-http", daemon=True)
        self._thread.start()
        return self

    def shutdown(self, close_engine: bool = True) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.serving.close(close_engine=close_engine)

    def graceful_shutdown(self, drain_deadline_s: "float | None" = None,
                          close_engine: bool = True) -> bool:
        """SIGTERM path: drain, then stop the listener and close.

        New requests are refused with 503 + ``Retry-After`` the moment
        the drain starts (the listener stays up so those refusals — and
        ``/healthz`` flipping to 503 — are actually observable by load
        balancers); in-flight requests get ``drain_deadline_s`` to
        finish, and only then does the accept loop stop.  Returns
        whether the drain completed inside the deadline.
        """
        drained = self.serving.drain(drain_deadline_s)
        self.shutdown(close_engine=close_engine)
        return drained

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


def serve(engine_or_serving, host: str = "127.0.0.1", port: int = 8080,
          verbose: bool = False) -> ServingServer:
    """Wrap an engine (or serving engine) in a ready-to-run HTTP server."""
    serving = engine_or_serving
    if not isinstance(serving, ServingEngine):
        serving = ServingEngine(serving)
    return ServingServer(serving, host=host, port=port, verbose=verbose)
