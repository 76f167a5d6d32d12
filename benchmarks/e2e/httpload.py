"""A closed-loop HTTP/1.1 keep-alive client for ``sama serve``."""

from __future__ import annotations

import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor


class Connection:
    """One keep-alive connection; a caller waits for each reply."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=120)
        self._conn.connect()

    def post_query(self, text: str, k: int) -> "tuple[int, dict, float]":
        """``(status, document, milliseconds)`` of one ``POST /query``."""
        body = json.dumps({"query": text, "k": k})
        started = time.perf_counter()
        self._conn.request("POST", "/query", body=body,
                           headers={"Content-Type": "application/json"})
        response = self._conn.getresponse()
        document = json.loads(response.read())
        return (response.status, document,
                (time.perf_counter() - started) * 1000.0)

    def get_stats(self) -> dict:
        self._conn.request("GET", "/stats")
        return json.loads(self._conn.getresponse().read())

    def close(self) -> None:
        self._conn.close()


class Clients:
    """Connections driven side by side, one thread each."""

    def __init__(self, host: str, port: int, count: int):
        self.connections = [Connection(host, port) for _ in range(count)]
        self._pool = ThreadPoolExecutor(max_workers=count)

    def run(self, per_connection) -> list:
        """Run one callable per connection; their results in order.

        Each callable gets its connection and runs to completion before
        ``run`` returns, so nothing is in flight between steps.
        """
        futures = [self._pool.submit(work, connection) for work, connection
                   in zip(per_connection, self.connections)]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        for connection in self.connections:
            connection.close()
