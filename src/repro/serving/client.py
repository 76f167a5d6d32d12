"""A tiny stdlib client for the serving HTTP API.

Used by the tests; also a reasonable starting point for
applications::

    from repro.serving import ServingClient

    client = ServingClient("http://127.0.0.1:8080")
    result = client.query("SELECT ?x WHERE { ?x <http://...> ?y . }", k=5)
    for row in result["answers"]:
        print(row["score"], row["bindings"])
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from ..resilience.errors import (OverloadedError, QuotaExceededError,
                                 ReproError)


class ServingClientError(ReproError, RuntimeError):
    """A non-2xx response from the serving API (other than overload
    or quota exhaustion, which raise their typed errors)."""

    def __init__(self, message: str, status: int,
                 body: "dict | None" = None):
        super().__init__(message)
        self.status = status
        self.body = body or {}


class ServingClient:
    """Blocking JSON client for one serving endpoint.

    Fig. 1(b)'s Q1 against a server indexing the GovTrack graph (the
    examples are ``+SKIP`` because they need a running server; see
    docs/OPERATIONS.md for starting one with ``sama serve``):

    >>> client = ServingClient("http://127.0.0.1:8080")
    >>> result = client.query(
    ...     "SELECT ?v3 WHERE {"
    ...     " <http://example.org/govtrack/CarlaBunes>"
    ...     " <http://example.org/govtrack/sponsor> ?v1 ."
    ...     " ?v1 <http://example.org/govtrack/aTo> ?v2 ."
    ...     " ?v2 <http://example.org/govtrack/subject> 'Health Care' ."
    ...     " ?v3 <http://example.org/govtrack/sponsor> ?v2 ."
    ...     " ?v3 <http://example.org/govtrack/gender> 'Male' . }",
    ...     k=3)                                     # doctest: +SKIP
    >>> round(result["answers"][0]["score"], 3)      # doctest: +SKIP
    2.0
    >>> client.stats()["shards"]                     # doctest: +SKIP
    4
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 api_key: "str | None" = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.api_key = api_key

    # -- wire helpers -------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: "dict | None" = None) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if self.api_key:
            # Tenant identity for the front end's quotas.
            headers["X-API-Key"] = self.api_key
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(self.base_url + path, data=data,
                                         headers=headers, method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read().decode("utf-8"))
            except Exception:
                body = {}
            if exc.code == 503:
                raise OverloadedError(
                    body.get("message", "server overloaded"),
                    in_flight=body.get("in_flight"),
                    capacity=body.get("capacity")) from exc
            if exc.code == 429:
                raise QuotaExceededError(
                    body.get("message", "tenant quota exceeded"),
                    tenant=body.get("tenant"),
                    retry_after_s=body.get("retry_after_s")) from exc
            raise ServingClientError(
                body.get("message", f"HTTP {exc.code} from {path}"),
                status=exc.code, body=body) from exc

    # -- API ---------------------------------------------------------------

    def query(self, sparql: str, k: "int | None" = None,
              deadline_ms: "float | None" = None) -> dict:
        """POST /query; the ranked-answers document."""
        payload: dict = {"query": sparql}
        if k is not None:
            payload["k"] = k
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return self._request("POST", "/query", payload)

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")
