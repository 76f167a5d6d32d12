"""The HTTP/1.1 front end: keep-alive, single-flight, quotas.

Endpoints::

    POST /query    {"query": "SELECT ...", "k": 10, "deadline_ms": 500}
    GET  /healthz  liveness + index epoch
    GET  /stats    cache hit rate, in-flight, p50/p95 latency, shed count
    GET  /metrics  Prometheus text exposition (stage histograms, counters)

Errors map onto HTTP through :func:`repro.serving.wire.failure_response`;
a tripped deadline is not one — the service degrades to a partial
result, reported in the 200 body.

One event loop (stdlib ``asyncio`` only) holds every connection, so a
slow client holds a socket, not a thread; the query work is bounded by
the serving engine's worker pool and admission control.  On top of
that:

- **Correct HTTP/1.1 framing under keep-alive.**  Requests are read
  with explicit ``Content-Length`` framing (bodies via
  ``readexactly``, never a short read), every response carries its own
  ``Content-Length``, and any condition that leaves bytes unaccounted
  for on the wire (oversized body, malformed request line, truncated
  body) answers with ``Connection: close`` and drops the connection —
  a desynchronised connection is never reused.

- **Single-flight deduplication.**  N concurrent requests for the same
  canonical-form × k × epoch key trigger *one* engine computation; the
  other N−1 await the leader's ``asyncio.Future`` and receive the
  byte-identical response body.  Under hot-query traffic this removes
  the cold stampede the cache alone cannot: the cache only helps
  *after* the first computation finishes, single-flight helps *while*
  it runs.
  Requests carrying an explicit per-request ``deadline_ms`` bypass
  coalescing — a degraded result computed under the leader's budget
  must not be shared with callers that asked for a different one.

- **Per-tenant token-bucket quotas.**  Tenants are identified by the
  ``X-API-Key`` header (absent → the ``"anonymous"`` tenant).  Each
  tenant's bucket refills at ``tenant_rate`` tokens/second up to
  ``tenant_burst``; an empty bucket answers ``429`` with a
  ``Retry-After`` computed from the actual refill time.  Admission
  happens *ahead of* the engine semaphore, so one chatty tenant is
  throttled before it can occupy serving capacity that other tenants
  paid for.

A request whose answer is already cached leaves this path early
rather than taking another one: a text the serving engine's request
memo knows is fingerprinted on the loop thread, ``submit`` hands back
a future that is already done, and its pre-rendered body is written
out — no executor hop, no single-flight future, no ``json.dumps``.
Drain check, tenant quota, serving counters and the epoch check still
run on every request.

Connections beyond ``max_connections`` are refused immediately with a
``503`` + ``Connection: close`` (bounded backlog: overload becomes a
fast typed signal, never an unbounded accept queue), and every
connection gets per-read/per-write timeouts so a slow-loris client
holds neither a worker nor the loop.

The loop runs on its own thread behind a synchronous lifecycle
(``serve_background`` / ``serve_forever`` / ``shutdown`` /
``graceful_shutdown``), which is what ``sama serve`` and its SIGTERM
drain path call.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time

from ..obs import Sample
from ..resilience.errors import QuotaExceededError
from .service import ServingEngine
from .wire import (MAX_BODY_BYTES, content_length, failure_response,
                   parse_query_document, response_body)

#: Upper bound on the request head (request line + headers).
MAX_HEAD_BYTES = 16 << 10

_JSON = "application/json"


class TokenBucket:
    """One tenant's admission budget: ``rate`` tokens/s, ``burst`` cap.

    Lazily refilled on each :meth:`acquire` from a monotonic clock —
    no background task per tenant.  Thread-safe via the caller (the
    event loop serialises access; the CLI path never shares buckets
    across loops).
    """

    __slots__ = ("rate", "burst", "tokens", "updated",
                 "requests", "throttled")

    def __init__(self, rate: float, burst: float,
                 now: "float | None" = None):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = time.monotonic() if now is None else now
        self.requests = 0
        self.throttled = 0

    def acquire(self, now: "float | None" = None) -> "float | None":
        """Take one token; ``None`` on success, else seconds-to-retry."""
        if now is None:
            now = time.monotonic()
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        self.requests += 1
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        self.throttled += 1
        return (1.0 - self.tokens) / self.rate


class TenantQuotas:
    """The per-tenant bucket map plus its counters.

    ``rate=None`` disables quotas entirely (every acquire succeeds).
    ``api_keys``, when given, is an allow-list: a request whose key is
    not in it is rejected outright (403), keeping unknown tenants from
    minting themselves fresh buckets.
    """

    #: Hard cap on distinct tenant buckets — beyond it, unknown keys
    #: share one overflow bucket instead of letting a key-minting
    #: client grow the map without bound.
    MAX_TENANTS = 4096

    def __init__(self, rate: "float | None" = None, burst: float = 10.0,
                 api_keys: "set[str] | None" = None):
        self.rate = rate
        self.burst = burst
        self.api_keys = set(api_keys) if api_keys else None
        self._buckets: "dict[str, TokenBucket]" = {}

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            if (len(self._buckets) >= self.MAX_TENANTS
                    and tenant not in self._buckets):
                tenant = "(overflow)"
                bucket = self._buckets.get(tenant)
                if bucket is not None:
                    return bucket
            # rate 1.0 is a placeholder for counting-only buckets
            # (quotas disabled): their acquire() is never called.
            bucket = self._buckets[tenant] = TokenBucket(
                self.rate if self.rate is not None else 1.0, self.burst)
        return bucket

    def admit(self, tenant: str) -> None:
        """Count the request; :class:`QuotaExceededError` when over."""
        if self.api_keys is not None and tenant not in self.api_keys:
            raise QuotaExceededError(
                f"unknown API key {tenant!r}", tenant=tenant,
                retry_after_s=None)
        bucket = self._bucket(tenant)
        if self.rate is None:
            bucket.requests += 1
            return
        retry_after = bucket.acquire()
        if retry_after is not None:
            raise QuotaExceededError(
                f"tenant {tenant!r} over its {self.rate:g} req/s quota",
                tenant=tenant, retry_after_s=retry_after)

    def snapshot(self) -> "dict[str, dict]":
        return {tenant: {"requests": bucket.requests,
                         "throttled": bucket.throttled}
                for tenant, bucket in sorted(self._buckets.items())}


class SingleFlight:
    """The in-flight map: one leader future per request key.

    Followers of a key await the leader's future and share its
    *serialised response bytes* — not a re-rendering — so coalesced
    responses are bit-identical by construction.
    """

    def __init__(self):
        self._inflight: "dict[str, asyncio.Future]" = {}
        self.leaders = 0
        self.coalesced = 0

    def __contains__(self, key: str) -> bool:
        return key in self._inflight

    def lead_or_follow(self, key: str) -> "tuple[bool, asyncio.Future]":
        """(is_leader, future) for ``key``; leaders must later resolve
        the future via :meth:`finish` (success or failure, always)."""
        future = self._inflight.get(key)
        if future is not None:
            self.coalesced += 1
            return False, future
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self.leaders += 1
        return True, future

    def finish(self, key: str, future: "asyncio.Future",
               result=None, error: "BaseException | None" = None) -> None:
        self._inflight.pop(key, None)
        if not future.done():
            if error is not None:
                future.set_exception(error)
                # The followers all retrieve it; silence "exception was
                # never retrieved" if there were none.
                future.exception()
            else:
                future.set_result(result)


class _ConnectionStats:
    """Counters the front end exposes on ``/stats`` and ``/metrics``."""

    def __init__(self):
        self.accepted = 0
        self.rejected = 0
        self.active = 0
        self.requests = 0
        self.framing_close = 0   # connections closed to protect framing
        self.timeouts = 0


class AsyncServingServer:
    """A :class:`ServingEngine` behind an asyncio HTTP/1.1 listener.

    The event loop runs on a dedicated thread so the public lifecycle
    API is synchronous: ``port=0`` picks a free port, on :attr:`port`
    once :meth:`serve_background` has returned; :meth:`shutdown` stops
    the loop, drains the engine's workers and closes the index.
    """

    def __init__(self, serving: ServingEngine, host: str = "127.0.0.1",
                 port: int = 8080, *, max_connections: int = 1024,
                 read_timeout_s: float = 30.0,
                 write_timeout_s: float = 30.0,
                 tenant_rate: "float | None" = None,
                 tenant_burst: float = 10.0,
                 api_keys: "set[str] | None" = None,
                 verbose: bool = False):
        self.serving = serving
        self._host = host
        self._requested_port = port
        self.max_connections = max_connections
        self.read_timeout_s = read_timeout_s
        self.write_timeout_s = write_timeout_s
        self.verbose = verbose
        self.quotas = TenantQuotas(rate=tenant_rate, burst=tenant_burst,
                                   api_keys=api_keys)
        self.flight = SingleFlight()
        self.connections = _ConnectionStats()
        self._writers: "set[asyncio.StreamWriter]" = set()
        self.registry = serving.registry
        self._disconnects = self.registry.counter(
            "sama_client_disconnects_total",
            "Responses aborted because the client disconnected mid-write")
        self._waiters_total = self.registry.counter(
            "sama_singleflight_waiters_total",
            "Requests answered by awaiting another request's computation")
        self._collector = self._collect_samples
        self.registry.register_collector(self._collector, owner=self)

        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._server: "asyncio.base_events.Server | None" = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: "BaseException | None" = None
        self._bound: "tuple[str, int] | None" = None
        self._closed = False

    # -- lifecycle (sync facade over the loop thread) ----------------------

    @property
    def host(self) -> str:
        return self._bound[0] if self._bound else self._host

    @property
    def port(self) -> int:
        return self._bound[1] if self._bound else self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_background(self) -> "AsyncServingServer":
        """Start the loop thread + listener; returns once bound."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._run_loop,
                                        name="sama-aserve", daemon=True)
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5)
            self._thread = None
            raise error
        if self._bound is None:
            raise RuntimeError("asyncio front end failed to bind in time")
        return self

    def serve_forever(self) -> None:
        """CLI path: start in the background, block until shutdown."""
        self.serve_background()
        while not self._stopped.wait(timeout=0.2):
            pass

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                self._server = loop.run_until_complete(
                    asyncio.start_server(self._handle_connection,
                                         self._host, self._requested_port))
                sock = self._server.sockets[0]
                self._bound = sock.getsockname()[:2]
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
            # Cancel whatever survived the stop so the loop can close.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()
            self._loop = None
            self._stopped.set()

    def shutdown(self, close_engine: bool = True) -> None:
        """Stop the listener and the loop; drain the engine's workers."""
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and loop.is_running():
            async def _stop():
                if self._server is not None:
                    self._server.close()
                    await self._server.wait_closed()
                # Close idle keep-alive connections so their handler
                # tasks unwind on EOF instead of being cancelled inside
                # ``readuntil`` (abrupt cancellation makes the stdlib
                # stream protocol log spurious CancelledError
                # tracebacks at loop teardown).
                for writer in list(self._writers):
                    try:
                        writer.close()
                    except Exception:
                        pass
                for _ in range(50):
                    if not self._writers:
                        break
                    await asyncio.sleep(0.02)
                loop.stop()
            asyncio.run_coroutine_threadsafe(_stop(), loop)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.registry.unregister_collector(self._collector)
        self.serving.close(close_engine=close_engine)
        self._stopped.set()

    def graceful_shutdown(self, drain_deadline_s: "float | None" = None,
                          close_engine: bool = True) -> bool:
        """SIGTERM path: drain, then stop the listener and close.

        New requests are refused with 503 + ``Retry-After`` the moment
        the drain starts (the listener stays up so load balancers see
        ``/healthz`` flip); in-flight requests get ``drain_deadline_s``
        to finish before the loop stops.  Returns whether the drain
        completed inside the deadline.
        """
        drained = self.serving.drain(drain_deadline_s)
        self.shutdown(close_engine=close_engine)
        return drained

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        stats = self.connections
        if stats.active >= self.max_connections:
            # Bounded backlog: refuse *now* with a typed signal rather
            # than queueing the accept into unbounded latency.
            stats.rejected += 1
            await self._respond(writer, 503, {
                "error": "OverloadedError",
                "message": f"connection backlog full "
                           f"({self.max_connections} connections)",
            }, headers={"Retry-After": "1"}, close=True)
            await self._close_writer(writer)
            return
        stats.accepted += 1
        stats.active += 1
        self._writers.add(writer)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            self._disconnects.inc()
        except asyncio.CancelledError:
            raise
        except Exception:
            # A handler bug must not take the loop down; the connection
            # is sacrificed, the server keeps serving.
            stats.framing_close += 1
        finally:
            stats.active -= 1
            self._writers.discard(writer)
            await self._close_writer(writer)

    async def _serve_connection(self, reader, writer) -> None:
        """The keep-alive loop: one request per iteration."""
        while True:
            try:
                async with asyncio.timeout(self.read_timeout_s):
                    head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError as exc:
                if exc.partial:
                    # Bytes arrived but the head never completed: the
                    # framing is broken, close without reuse.
                    self.connections.framing_close += 1
                return  # clean EOF between requests: client is done
            except asyncio.LimitOverrunError:
                self.connections.framing_close += 1
                await self._respond(writer, 431, {
                    "error": "BadRequest",
                    "message": f"request head over {MAX_HEAD_BYTES} bytes",
                }, close=True)
                return
            except TimeoutError:
                self.connections.timeouts += 1
                await self._respond(writer, 408, {
                    "error": "RequestTimeout",
                    "message": f"no request within "
                               f"{self.read_timeout_s:g}s",
                }, close=True)
                return
            if len(head) > MAX_HEAD_BYTES:
                self.connections.framing_close += 1
                await self._respond(writer, 431, {
                    "error": "BadRequest",
                    "message": f"request head over {MAX_HEAD_BYTES} bytes",
                }, close=True)
                return
            keep_alive = await self._serve_request(head, reader, writer)
            if not keep_alive:
                return

    async def _serve_request(self, head: bytes, reader, writer) -> bool:
        """Answer one framed request; True to keep the connection."""
        self.connections.requests += 1
        try:
            request_line, headers, lengths = _parse_head(head)
            method, path, version = request_line
        except ValueError as exc:
            self.connections.framing_close += 1
            await self._respond(writer, 400, {
                "error": "BadRequest", "message": str(exc)}, close=True)
            return False
        if self.verbose:
            peer = writer.get_extra_info("peername") or ("-",)
            print(f'{peer[0]} "{method} {path} {version}"', file=sys.stderr)

        # HTTP/1.1 defaults to keep-alive; 1.0 must opt in.
        connection = headers.get("connection", "").lower()
        keep_alive = (connection != "close" if version == "HTTP/1.1"
                      else connection == "keep-alive")

        if "chunked" in headers.get("transfer-encoding", "").lower():
            # Chunked bodies are not framed by Content-Length; refuse
            # rather than guess (and never reuse the connection).
            await self._respond(writer, 411, {
                "error": "BadRequest",
                "message": "chunked bodies are not supported; send "
                           "Content-Length"}, close=True)
            return False

        try:
            length = content_length(lengths)
        except ValueError as exc:
            # Where the body ends is unknown: never reuse the connection.
            self.connections.framing_close += 1
            await self._respond(writer, 400, {
                "error": "BadRequest", "message": str(exc)}, close=True)
            return False
        if length > MAX_BODY_BYTES:
            # Oversized: never read (or skip) the body — close instead.
            await self._respond(writer, 413, {
                "error": "BadRequest",
                "message": f"request body over {MAX_BODY_BYTES} bytes",
            }, close=True)
            return False
        body = b""
        if length > 0:
            try:
                async with asyncio.timeout(self.read_timeout_s):
                    body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                self.connections.framing_close += 1
                return False
            except TimeoutError:
                self.connections.timeouts += 1
                await self._respond(writer, 408, {
                    "error": "RequestTimeout",
                    "message": f"request body not received within "
                               f"{self.read_timeout_s:g}s"}, close=True)
                return False

        if method == "GET":
            return await self._handle_get(path, writer, keep_alive)
        if method == "POST":
            return await self._handle_post(path, headers, body, writer,
                                           keep_alive)
        await self._respond(writer, 405, {
            "error": "MethodNotAllowed", "message": method},
            headers={"Allow": "GET, POST"}, close=not keep_alive)
        return keep_alive

    async def _handle_get(self, path, writer, keep_alive) -> bool:
        if path == "/healthz":
            payload = self.serving.health_payload()
            status = 503 if payload["status"] == "draining" else 200
            await self._respond(writer, status, payload,
                                close=not keep_alive)
        elif path == "/stats":
            await self._respond(writer, 200, self.stats_payload(),
                                close=not keep_alive)
        elif path == "/metrics":
            body = self.serving.render_metrics().encode("utf-8")
            await self._respond_raw(
                writer, 200, body,
                content_type="text/plain; version=0.0.4; charset=utf-8",
                close=not keep_alive)
        else:
            await self._respond(writer, 404, {
                "error": "NotFound", "message": path}, close=not keep_alive)
        return keep_alive

    async def _handle_post(self, path, headers, body, writer,
                           keep_alive) -> bool:
        if path != "/query":
            await self._respond(writer, 404, {
                "error": "NotFound", "message": path}, close=not keep_alive)
            return keep_alive
        try:
            query, k, deadline_ms = parse_query_document(body)
        except ValueError as exc:
            await self._respond(writer, 400, {
                "error": "BadRequest", "message": str(exc)},
                close=not keep_alive)
            return keep_alive

        tenant = headers.get("x-api-key", "").strip() or "anonymous"
        try:
            self.quotas.admit(tenant)
        except QuotaExceededError as exc:
            if exc.retry_after_s is None:
                await self._respond(writer, 403, {
                    "error": "QuotaExceededError", "message": str(exc),
                    "tenant": tenant}, close=not keep_alive)
                return keep_alive
            retry_after = max(1, int(exc.retry_after_s + 0.999))
            await self._respond(writer, 429, {
                "error": "QuotaExceededError", "message": str(exc),
                "tenant": tenant,
                "retry_after_s": round(exc.retry_after_s, 3),
            }, headers={"Retry-After": str(retry_after)},
                close=not keep_alive)
            return keep_alive

        status, extra, raw = await self._answer(query, k, deadline_ms)
        await self._respond_raw(writer, status, raw, headers=extra,
                                close=not keep_alive)
        return keep_alive

    async def _answer(self, query, k, deadline_ms
                      ) -> "tuple[int, dict | None, bytes]":
        """(status, extra headers, serialised body) for one query.

        A text the request memo knows is fingerprinted right here (a
        dictionary lookup); only an unknown one pays the executor hop
        for its parse and canonicalisation.  The leader of a
        single-flight group serialises its 200 response once and every
        follower returns those bytes verbatim — that is what makes
        coalesced responses bit-identical.
        """
        serving = self.serving
        try:
            if query in serving.memo:
                fingerprint = serving.fingerprint(query, k)
            else:
                loop = asyncio.get_running_loop()
                fingerprint = await loop.run_in_executor(
                    None, serving.fingerprint, query, k)
        except Exception as exc:
            return failure_response(exc, serving.draining)

        # Explicit per-request deadlines bypass coalescing: the leader's
        # budget is not the follower's, and a degraded ranking must not
        # be replayed to a caller that asked with a healthier one.
        coalesce = deadline_ms is None
        if coalesce and fingerprint.key in self.flight:
            _, future = self.flight.lead_or_follow(fingerprint.key)
            self._waiters_total.inc()
            try:
                return await asyncio.shield(future)
            except asyncio.CancelledError:
                raise
            except BaseException:
                # The leader failed; followers fall through and try
                # on their own (the failure may have been transient
                # admission, not the query).
                coalesce = False
        return await self._compute(fingerprint, k, deadline_ms, coalesce)

    async def _compute(self, fingerprint, k, deadline_ms, coalesce: bool
                       ) -> "tuple[int, dict | None, bytes]":
        """Submit, and lead a single-flight group only for a computation.

        ``submit`` answers a cached request with a future that is
        already done: that one is read here and now — no single-flight
        future, no hop through the loop's thread-safe callback queue.
        Nothing awaits between :meth:`_answer`'s in-flight check and
        the ``lead_or_follow`` below, so a leader is still unique.
        """
        serving = self.serving
        key, leading = fingerprint.key, None
        try:
            engine_future = serving.submit(
                None, k, deadline_ms=deadline_ms, fingerprint=fingerprint)
            if engine_future.done():
                result = engine_future.result()
            else:
                if coalesce:
                    _, leading = self.flight.lead_or_follow(key)
                result = await asyncio.wrap_future(engine_future)
            response = 200, None, response_body(result)
        except Exception as exc:
            response = failure_response(exc, serving.draining)
        except BaseException as exc:
            if leading is not None:
                self.flight.finish(key, leading, error=exc)
            raise
        if leading is not None:
            self.flight.finish(key, leading, result=response)
        return response

    # -- responses ----------------------------------------------------------

    async def _respond(self, writer, status: int, payload: dict,
                       headers: "dict[str, str] | None" = None,
                       close: bool = False) -> None:
        await self._respond_raw(writer, status,
                                json.dumps(payload).encode("utf-8"),
                                content_type=_JSON, headers=headers,
                                close=close)

    async def _respond_raw(self, writer, status: int, body: bytes,
                           content_type: str = _JSON,
                           headers: "dict[str, str] | None" = None,
                           close: bool = False) -> None:
        reason = _REASONS.get(status, "OK")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}",
                 "Server: sama-aserve/1.0"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if close:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + body)
            transport = writer.transport
            # A response the kernel took whole needs no drain; a closing
            # transport still does, to learn of the reset that closed it.
            if transport.is_closing() or transport.get_write_buffer_size():
                async with asyncio.timeout(self.write_timeout_s):
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            self._disconnects.inc()
        except TimeoutError:
            self.connections.timeouts += 1
            raise ConnectionResetError("write timeout") from None

    async def _close_writer(self, writer) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except BaseException:
            # Best-effort teardown: a reset, a timeout, or cancellation
            # during shutdown — the connection is gone either way.
            pass

    # -- introspection -------------------------------------------------------

    def stats_payload(self) -> dict:
        """``/stats`` = the engine's document + front-end sections."""
        payload = self.serving.stats_payload()
        payload["frontend"] = "asyncio"
        payload["connections"] = {
            "active": self.connections.active,
            "accepted": self.connections.accepted,
            "rejected": self.connections.rejected,
            "max": self.max_connections,
            "framing_close": self.connections.framing_close,
            "timeouts": self.connections.timeouts,
        }
        payload["singleflight"] = {
            "leaders": self.flight.leaders,
            "coalesced": self.flight.coalesced,
            "in_flight_keys": len(self.flight._inflight),
        }
        payload["tenants"] = self.quotas.snapshot()
        return payload

    def _collect_samples(self):
        yield Sample("sama_async_connections", "gauge",
                     "Connections currently held by the asyncio front end",
                     self.connections.active)
        yield Sample("sama_async_connections_total", "counter",
                     "Connections accepted by the asyncio front end",
                     self.connections.accepted)
        yield Sample("sama_async_connections_rejected_total", "counter",
                     "Connections refused by the bounded backlog",
                     self.connections.rejected)
        yield Sample("sama_async_framing_closes_total", "counter",
                     "Connections closed to protect HTTP framing",
                     self.connections.framing_close)
        yield Sample("sama_singleflight_leaders_total", "counter",
                     "Requests that led a single-flight computation",
                     self.flight.leaders)
        for tenant, row in self.quotas.snapshot().items():
            label = (("tenant", tenant),)
            yield Sample("sama_tenant_requests_total", "counter",
                         "Requests received per tenant (API key)",
                         row["requests"], label)
            yield Sample("sama_tenant_throttled_total", "counter",
                         "Requests refused by the tenant's token bucket",
                         row["throttled"], label)

    def __repr__(self):
        return (f"<AsyncServingServer on {self.url}: "
                f"{self.connections.active}/{self.max_connections} "
                f"connections, {self.flight.coalesced} coalesced>")


_REASONS = {
    200: "OK", 400: "Bad Request", 403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    411: "Length Required", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _parse_head(head: bytes
                ) -> "tuple[tuple[str, str, str], dict, list[str]]":
    """(request line, lower-cased header map, every ``Content-Length``
    value in order) or ``ValueError``.

    The map keeps the last of a repeated header, which is harmless for
    every header but the one that frames the body — hence the list.
    """
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:
        raise ValueError("undecodable request head")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, path, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ValueError(f"unsupported protocol {version!r}")
    headers: "dict[str, str]" = {}
    lengths: "list[str]" = []
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        name = name.strip().lower()
        value = value.strip(" \t")   # optional whitespace is SP / HTAB only
        headers[name] = value
        if name == "content-length":
            lengths.append(value)
    return (method, path, version), headers, lengths


def serve_async(engine_or_serving, host: str = "127.0.0.1",
                port: int = 8080, **kwargs) -> AsyncServingServer:
    """Wrap an engine (or serving engine) in an asyncio front end."""
    serving = engine_or_serving
    if not isinstance(serving, ServingEngine):
        serving = ServingEngine(serving)
    return AsyncServingServer(serving, host=host, port=port, **kwargs)
