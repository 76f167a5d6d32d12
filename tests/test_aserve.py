"""The HTTP front end + the HTTP/1.1 framing regression suite.

- **keep-alive framing**: a 400 (bad JSON), a 404 POST with a body,
  and a short-read (chunked-delivery) client must all leave the
  connection correctly framed — the next pipelined request on the same
  socket is answered normally;
- **write-boundary resilience**: a client that disconnects before
  reading its response must not crash the handler — the server keeps
  serving and counts ``sama_client_disconnects_total``;
- **single-flight**: N concurrent identical cold queries trigger
  exactly one engine computation, N−1 coalesced waiters, and
  byte-identical response bodies;
- **tenant quotas**: token-bucket admission per ``X-API-Key``, 429 +
  ``Retry-After`` when empty, per-tenant counters on ``/stats``;
- **bounded backlog** and the drain lifecycle.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.resilience import QuotaExceededError
from repro.serving import (ServingClient, ServingConfig, ServingEngine,
                           SingleFlight, TenantQuotas, TokenBucket,
                           serve_async)

QUERY = ('PREFIX gov: <http://example.org/govtrack/> '
         'SELECT ?v WHERE { ?v gov:gender "Male" . }')

QUERY_BODY = json.dumps({"query": QUERY, "k": 5}).encode()


def _post(body: bytes, path: str = "/query",
          headers: "dict[str, str] | None" = None) -> bytes:
    lines = [f"POST {path} HTTP/1.1", "Host: t",
             "Content-Type: application/json",
             f"Content-Length: {len(body)}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()


def _read_response(handle) -> "tuple[int, dict, bytes]":
    """One framed HTTP response off a socket file (or AssertionError)."""
    status_line = handle.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers: "dict[str, str]" = {}
    while True:
        line = handle.readline()
        if line in (b"\r\n", b"\n"):
            break
        assert line, "connection closed inside response headers"
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = handle.read(length) if length else b""
    assert len(body) == length, "truncated response body"
    return status, headers, body


def _connect(server) -> "tuple[socket.socket, object]":
    sock = socket.create_connection((server.host, server.port), timeout=30)
    return sock, sock.makefile("rb")


# The one param keeps the ``[asyncio]`` ids these tests are known by.
@pytest.fixture(scope="module", params=["asyncio"])
def server(govtrack_engine):
    """One server shared by every framing test."""
    serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
    http = serve_async(serving, port=0).serve_background()
    yield http
    http.shutdown(close_engine=False)


class TestKeepAliveFraming:
    def test_two_pipelined_requests_one_connection(self, server):
        sock, handle = _connect(server)
        try:
            sock.sendall(_post(QUERY_BODY) + _post(QUERY_BODY))
            first = _read_response(handle)
            second = _read_response(handle)
        finally:
            sock.close()
        assert first[0] == 200 and second[0] == 200
        assert (json.loads(first[2])["answers"]
                == json.loads(second[2])["answers"])

    def test_pipelined_requests_after_a_400_still_answered(self, server):
        """The acceptance-criteria regression: two pipelined requests
        after a 400 are answered correctly (the error path must consume
        the request body or the tail would be parsed as a request)."""
        bad = b'{"query": not json at all}'
        sock, handle = _connect(server)
        try:
            sock.sendall(_post(bad) + _post(QUERY_BODY)
                         + _post(QUERY_BODY))
            statuses = [_read_response(handle) for _ in range(3)]
        finally:
            sock.close()
        assert statuses[0][0] == 400
        assert statuses[1][0] == 200 and statuses[2][0] == 200
        assert json.loads(statuses[1][2])["answers"] \
            == json.loads(statuses[2][2])["answers"]

    def test_post_404_with_body_keeps_connection_usable(self, server):
        """A POST to an unknown path must not leave its body unread —
        under keep-alive those bytes would desync the next request."""
        sock, handle = _connect(server)
        try:
            sock.sendall(_post(QUERY_BODY, path="/nope")
                         + _post(QUERY_BODY))
            first = _read_response(handle)
            second = _read_response(handle)
        finally:
            sock.close()
        assert first[0] == 404
        assert second[0] == 200
        assert json.loads(second[2])["complete"] is True

    def test_short_read_client_is_not_truncated(self, server):
        """A slow client delivering the body in pieces must not produce
        a spurious 400 from a short read that truncates the JSON."""
        head = _post(QUERY_BODY)[:-len(QUERY_BODY)]
        sock, handle = _connect(server)
        try:
            sock.sendall(head)
            sock.sendall(QUERY_BODY[:7])
            time.sleep(0.2)  # force two separate TCP segments
            sock.sendall(QUERY_BODY[7:])
            status, _, body = _read_response(handle)
        finally:
            sock.close()
        assert status == 200
        assert json.loads(body)["complete"] is True

    def test_oversized_body_is_rejected_and_connection_closed(self, server):
        sock, handle = _connect(server)
        try:
            declared = (2 << 20)
            lines = (f"POST /query HTTP/1.1\r\nHost: t\r\n"
                     f"Content-Length: {declared}\r\n\r\n")
            sock.sendall(lines.encode())
            status, headers, _ = _read_response(handle)
            assert status in (400, 413)
            assert headers.get("connection") == "close"
            assert handle.read(1) == b""  # server closed: never drained
        finally:
            sock.close()

    def test_empty_and_malformed_content_length_are_400(self, server):
        sock, handle = _connect(server)
        try:
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: 0\r\n\r\n")
            status, _, body = _read_response(handle)
            assert status == 400
            assert b"empty request body" in body
        finally:
            sock.close()

    @pytest.mark.parametrize("declared", ["-3", "+5", "1_0", "٧"])
    def test_non_digit_content_length_is_400_and_closed(self, server,
                                                        declared):
        """``int()`` took all of these; ``-3`` read no body and left it
        on the wire to be parsed as the next request."""
        sock, handle = _connect(server)
        try:
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: " + declared.encode("utf-8")
                         + b"\r\n\r\n" + QUERY_BODY + _post(QUERY_BODY))
            status, headers, body = _read_response(handle)
            assert status == 400
            assert b"malformed Content-Length" in body
            assert headers.get("connection") == "close"
            assert handle.read(1) == b"", \
                "the unframed bytes were served as a request"
        finally:
            sock.close()

    def test_conflicting_content_lengths_are_400_and_closed(self, server):
        """Two different lengths: the last one used to win silently."""
        before = server.connections.framing_close
        sock, handle = _connect(server)
        try:
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: 5\r\n"
                         + f"Content-Length: {len(QUERY_BODY)}".encode()
                         + b"\r\n\r\n" + QUERY_BODY)
            status, headers, body = _read_response(handle)
            assert status == 400
            assert b"conflicting Content-Length" in body
            assert headers.get("connection") == "close"
            assert handle.read(1) == b""
        finally:
            sock.close()
        assert server.connections.framing_close == before + 1

    def test_agreeing_repeated_content_length_is_served(self, server):
        sock, handle = _connect(server)
        try:
            length = f"Content-Length: {len(QUERY_BODY)}\r\n".encode()
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: t\r\n" + length
                         + length + b"\r\n" + QUERY_BODY + _post(QUERY_BODY))
            assert _read_response(handle)[0] == 200
            assert _read_response(handle)[0] == 200
        finally:
            sock.close()


class TestClientDisconnect:
    def test_asyncio_disconnect_mid_response_counts(self, govtrack_engine):
        """The client vanishes while its query runs; the write fails
        with a reset, the handler survives, the counter increments, and
        the server answers the next request normally."""
        serving = ServingEngine(govtrack_engine, ServingConfig(
            workers=1, cache_bytes=0))
        gate = threading.Event()
        inner = govtrack_engine.query

        def gated_query(query, k=None, **kwargs):
            assert gate.wait(timeout=30)
            return inner(query, k=k, **kwargs)

        serving.engine = _EngineProxy(govtrack_engine, gated_query)
        http = serve_async(serving, port=0).serve_background()
        counter = serving.registry.counter("sama_client_disconnects_total")
        before = counter.value
        try:
            sock = socket.create_connection((http.host, http.port),
                                            timeout=30)
            sock.sendall(_post(QUERY_BODY))
            for _ in range(200):  # the worker must hold the request
                if serving.in_flight >= 1:
                    break
                time.sleep(0.01)
            # SO_LINGER(0): close sends RST, so the server's write hits
            # ECONNRESET instead of buffering into a dead socket.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            gate.set()
            deadline = time.monotonic() + 30
            while counter.value < before + 1:
                assert time.monotonic() < deadline, \
                    "disconnect was never counted"
                time.sleep(0.02)
            client = ServingClient(http.url, timeout=30)
            assert client.health()["status"] == "ok"
            assert client.query(QUERY, k=3)["complete"] is True
        finally:
            gate.set()
            http.shutdown(close_engine=False)


class TestSingleFlight:
    WAITERS = 8

    def test_concurrent_identical_queries_coalesce_to_one_computation(
            self, govtrack_engine):
        """N identical cold queries → exactly 1 engine call, N−1
        coalesced waiters, byte-identical payloads (the acceptance
        criterion, verified at the HTTP layer)."""
        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        calls = []
        gate = threading.Event()
        inner = govtrack_engine.query

        def counted_query(query, k=None, **kwargs):
            calls.append(1)
            assert gate.wait(timeout=30)
            return inner(query, k=k, **kwargs)

        serving.engine = _EngineProxy(govtrack_engine, counted_query)
        http = serve_async(serving, port=0).serve_background()
        bodies: "list[bytes]" = []
        errors: "list[Exception]" = []
        lock = threading.Lock()

        def worker():
            try:
                sock, handle = _connect(http)
                try:
                    sock.sendall(_post(QUERY_BODY))
                    status, _, body = _read_response(handle)
                    assert status == 200, body
                    with lock:
                        bodies.append(body)
                finally:
                    sock.close()
            except Exception as exc:
                with lock:
                    errors.append(exc)

        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(self.WAITERS)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            # Wait until the leader is computing and every follower has
            # coalesced onto its future — then release the engine.
            while (http.flight.coalesced < self.WAITERS - 1
                   or not calls):
                assert time.monotonic() < deadline, (
                    f"coalesced={http.flight.coalesced}, "
                    f"calls={len(calls)}")
                time.sleep(0.01)
            gate.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors, errors[:2]
            assert len(calls) == 1, "engine computed more than once"
            assert len(bodies) == self.WAITERS
            assert len(set(bodies)) == 1, \
                "coalesced responses are not bit-identical"
            assert http.flight.coalesced == self.WAITERS - 1
            stats = http.stats_payload()
            assert stats["singleflight"]["coalesced"] == self.WAITERS - 1
            assert stats["singleflight"]["in_flight_keys"] == 0
        finally:
            gate.set()
            http.shutdown(close_engine=False)

    def test_explicit_deadline_bypasses_coalescing(self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(
            workers=2, cache_bytes=0))
        http = serve_async(serving, port=0).serve_background()
        try:
            client = ServingClient(http.url, timeout=30)
            client.query(QUERY, k=5, deadline_ms=60_000)
            client.query(QUERY, k=5, deadline_ms=60_000)
            assert http.flight.leaders == 0
            assert http.flight.coalesced == 0
        finally:
            http.shutdown(close_engine=False)

    def test_singleflight_waiters_metric_is_exported(self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        http = serve_async(serving, port=0).serve_background()
        try:
            client = ServingClient(http.url, timeout=30)
            client.query(QUERY, k=4)
            text = serving.render_metrics()
            assert "sama_singleflight_waiters_total" in text
            assert "sama_singleflight_leaders_total" in text
        finally:
            http.shutdown(close_engine=False)


class TestTenantQuotas:
    def test_over_quota_is_429_with_retry_after(self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        http = serve_async(serving, port=0, tenant_rate=0.001,
                           tenant_burst=2.0).serve_background()
        try:
            client = ServingClient(http.url, timeout=30, api_key="alice")
            client.query(QUERY, k=3)
            client.query(QUERY, k=3)
            with pytest.raises(QuotaExceededError) as excinfo:
                client.query(QUERY, k=3)
            assert excinfo.value.tenant == "alice"
            assert excinfo.value.retry_after_s > 0
            # Another tenant's bucket is untouched.
            other = ServingClient(http.url, timeout=30, api_key="bob")
            assert other.query(QUERY, k=3)["complete"] is True
            stats = http.stats_payload()
            assert stats["tenants"]["alice"]["throttled"] == 1
            assert stats["tenants"]["alice"]["requests"] == 3
            assert stats["tenants"]["bob"]["throttled"] == 0
        finally:
            http.shutdown(close_engine=False)

    def test_retry_after_header_is_set(self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        http = serve_async(serving, port=0, tenant_rate=0.001,
                           tenant_burst=1.0).serve_background()
        try:
            sock, handle = _connect(http)
            try:
                sock.sendall(_post(QUERY_BODY,
                                   headers={"X-API-Key": "carol"}))
                status, _, _ = _read_response(handle)
                assert status == 200
                sock.sendall(_post(QUERY_BODY,
                                   headers={"X-API-Key": "carol"}))
                status, headers, body = _read_response(handle)
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                assert json.loads(body)["error"] == "QuotaExceededError"
            finally:
                sock.close()
        finally:
            http.shutdown(close_engine=False)

    def test_api_key_allowlist_rejects_unknown_tenants(
            self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        http = serve_async(serving, port=0,
                           api_keys={"alice"}).serve_background()
        try:
            good = ServingClient(http.url, timeout=30, api_key="alice")
            assert good.query(QUERY, k=3)["complete"] is True
            sock, handle = _connect(http)
            try:
                sock.sendall(_post(QUERY_BODY,
                                   headers={"X-API-Key": "mallory"}))
                status, _, _ = _read_response(handle)
                assert status == 403
            finally:
                sock.close()
        finally:
            http.shutdown(close_engine=False)

    def test_token_bucket_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        assert bucket.acquire(now=0.0) is None
        assert bucket.acquire(now=0.0) is None
        retry = bucket.acquire(now=0.0)
        assert retry == pytest.approx(0.5)
        # Half a second later one token has refilled.
        assert bucket.acquire(now=0.5) is None
        assert bucket.acquire(now=0.5) == pytest.approx(0.5)
        assert bucket.requests == 5 and bucket.throttled == 2

    def test_quotas_disabled_counts_but_never_throttles(self):
        quotas = TenantQuotas(rate=None)
        for _ in range(100):
            quotas.admit("t")
        snap = quotas.snapshot()
        assert snap["t"] == {"requests": 100, "throttled": 0}


class TestAsyncLifecycle:
    def test_bounded_backlog_refuses_extra_connections(
            self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        http = serve_async(serving, port=0,
                           max_connections=1).serve_background()
        try:
            first, _h = _connect(http)  # parks one connection
            try:
                deadline = time.monotonic() + 10
                while http.connections.active < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                second, handle = _connect(http)
                try:
                    second.sendall(_get("/healthz"))
                    status, headers, _ = _read_response(handle)
                    assert status == 503
                    assert headers.get("connection") == "close"
                finally:
                    second.close()
                assert http.connections.rejected >= 1
            finally:
                first.close()
        finally:
            http.shutdown(close_engine=False)

    def test_drain_flips_healthz_and_refuses_queries(self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        http = serve_async(serving, port=0).serve_background()
        try:
            serving.start_drain()
            sock, handle = _connect(http)
            try:
                sock.sendall(_get("/healthz"))
                status, _, body = _read_response(handle)
                assert status == 503
                assert json.loads(body)["status"] == "draining"
                sock.sendall(_post(QUERY_BODY))
                status, headers, _ = _read_response(handle)
                assert status == 503
                assert "retry-after" in headers
            finally:
                sock.close()
        finally:
            http.shutdown(close_engine=False)

    def test_graceful_shutdown_reports_drained(self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        http = serve_async(serving, port=0).serve_background()
        client = ServingClient(http.url, timeout=30)
        assert client.query(QUERY, k=3)["complete"] is True
        assert http.graceful_shutdown(drain_deadline_s=5.0,
                                      close_engine=False) is True

    def test_stats_and_metrics_roundtrip(self, govtrack_engine):
        from repro.obs import parse_prometheus

        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        http = serve_async(serving, port=0).serve_background()
        try:
            client = ServingClient(http.url, timeout=30)
            client.query(QUERY, k=3)
            stats = client.stats()
            assert stats["frontend"] == "asyncio"
            assert stats["connections"]["accepted"] >= 1
            samples = parse_prometheus(serving.render_metrics())
            assert any(name.startswith("sama_async_connections")
                       for name in samples)
        finally:
            http.shutdown(close_engine=False)

    def test_verbose_logs_each_request_line(self, govtrack_engine, capsys):
        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        http = serve_async(serving, port=0, verbose=True).serve_background()
        try:
            ServingClient(http.url, timeout=30).health()
        finally:
            http.shutdown(close_engine=False)
        assert '"GET /healthz HTTP/1.1"' in capsys.readouterr().err

    def test_get_unknown_path_404_keeps_connection(self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        http = serve_async(serving, port=0).serve_background()
        try:
            sock, handle = _connect(http)
            try:
                sock.sendall(_get("/nope") + _get("/healthz"))
                first = _read_response(handle)
                second = _read_response(handle)
                assert first[0] == 404 and second[0] == 200
            finally:
                sock.close()
        finally:
            http.shutdown(close_engine=False)

    def test_malformed_request_line_is_400_and_closed(self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
        http = serve_async(serving, port=0).serve_background()
        try:
            sock, handle = _connect(http)
            try:
                sock.sendall(b"NONSENSE\r\n\r\n")
                status, headers, _ = _read_response(handle)
                assert status == 400
                assert headers.get("connection") == "close"
            finally:
                sock.close()
        finally:
            http.shutdown(close_engine=False)


class TestSingleFlightUnit:
    def test_lead_then_follow_then_finish(self):
        import asyncio

        async def scenario():
            flight = SingleFlight()
            is_leader, future = flight.lead_or_follow("k")
            assert is_leader
            follower, same = flight.lead_or_follow("k")
            assert not follower and same is future
            flight.finish("k", future, result=("ok",))
            assert await same == ("ok",)
            assert flight.leaders == 1 and flight.coalesced == 1
            # The key is free again: the next request leads anew.
            again, _ = flight.lead_or_follow("k")
            assert again

        asyncio.run(scenario())


class _EngineProxy:
    """The wrapped engine with only ``query`` replaced."""

    def __init__(self, engine, query):
        self._engine = engine
        self.query = query

    def __getattr__(self, name):
        return getattr(self._engine, name)
