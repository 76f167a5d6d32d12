"""End-to-end tests for the JSON-over-HTTP serving front end.

A real :class:`AsyncServingServer` on an ephemeral port, exercised
through :class:`ServingClient`; the framing, single-flight and quota
tests of the same server are in ``test_aserve.py``.
"""

import json
import threading
import urllib.request

import pytest

from repro.resilience import OverloadedError
from repro.serving import (ServingClient, ServingClientError, ServingConfig,
                           ServingEngine, serve_async)

QUERY = ('PREFIX gov: <http://example.org/govtrack/> '
         'SELECT ?v WHERE { ?v gov:gender "Male" . }')


@pytest.fixture
def server(govtrack_engine):
    """A background HTTP server on an ephemeral port."""
    serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
    http = serve_async(serving, port=0).serve_background()
    yield http
    http.shutdown(close_engine=False)


@pytest.fixture
def client(server):
    return ServingClient(server.url, timeout=30)


class TestEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["paths"] > 0

    def test_query_roundtrip_then_cache_hit(self, client):
        first = client.query(QUERY, k=5)
        assert first["complete"] is True and first["cached"] is False
        assert first["answers"][0]["rank"] == 1
        assert "?v" in first["answers"][0]["bindings"]

        second = client.query(QUERY, k=5)
        assert second["cached"] is True
        assert second["answers"] == first["answers"]

        stats = client.stats()
        assert stats["cache"]["hits"] >= 1
        assert stats["served"] >= 2 and stats["errors"] == 0
        assert stats["latency_p50_ms"] is not None

    def test_deadline_is_honoured_per_request(self, client):
        starved = client.query(QUERY, k=5, deadline_ms=0)
        assert starved["complete"] is False
        assert starved["reasons"], "degradation must carry reasons"

    def test_parse_error_maps_to_400(self, client):
        with pytest.raises(ServingClientError) as excinfo:
            client.query("SELECT ?x WHERE { broken", k=5)
        assert excinfo.value.status == 400
        assert "Error" in excinfo.value.body["error"]  # typed parse error
        assert "1:19" in excinfo.value.body["message"]  # line:col diagnostic

    def test_bad_request_shapes_map_to_400(self, server, client):
        for payload in [{"k": 5}, {"query": ""}, {"query": QUERY, "k": 0},
                        {"query": QUERY, "deadline_ms": -1}]:
            with pytest.raises(ServingClientError) as excinfo:
                client._request("POST", "/query", payload)
            assert excinfo.value.status == 400
            assert excinfo.value.body["error"] == "BadRequest"
        # Non-JSON body.
        request = urllib.request.Request(
            server.url + "/query", data=b"not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as http_error:
            urllib.request.urlopen(request, timeout=10)
        assert http_error.value.code == 400

    def test_unknown_paths_are_404(self, client):
        with pytest.raises(ServingClientError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_concurrent_clients_agree(self, server, client):
        results, errors = [], []

        def worker():
            try:
                results.append(client.query(QUERY, k=5)["answers"])
            except Exception as exc:  # surfaced via the errors list
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 8
        canonical = json.dumps(results[0], sort_keys=True)
        assert all(json.dumps(r, sort_keys=True) == canonical
                   for r in results)


class TestOverloadOverHTTP:
    def test_503_with_retry_after(self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(
            workers=1, max_queue=0, cache_bytes=0))
        gate = threading.Event()
        inner = serving.engine.query

        def gated_query(query, k=None, **kwargs):
            assert gate.wait(timeout=30)
            return inner(query, k=k, **kwargs)

        serving.engine = _EngineProxy(govtrack_engine, gated_query)
        http = serve_async(serving, port=0).serve_background()
        client = ServingClient(http.url, timeout=30)
        try:
            blocker = threading.Thread(
                target=lambda: client.query(QUERY, k=2))
            blocker.start()
            deadline = threading.Event()
            for _ in range(200):  # wait until the worker holds the slot
                if serving.in_flight >= 1:
                    break
                deadline.wait(0.01)
            # Another k: the identical request would coalesce onto the
            # blocked one instead of asking for a slot of its own.
            with pytest.raises(OverloadedError) as excinfo:
                client.query(QUERY, k=3)
            assert excinfo.value.capacity == 1
            assert excinfo.value.__cause__.headers["Retry-After"] == "1"
            gate.set()
            blocker.join(timeout=30)
        finally:
            gate.set()
            http.shutdown(close_engine=False)
            serving_stats = serving.stats
            assert serving_stats.shed >= 1


class _EngineProxy:
    """The wrapped engine with only ``query`` replaced."""

    def __init__(self, engine, query):
        self._engine = engine
        self.query = query

    def __getattr__(self, name):
        return getattr(self._engine, name)
