"""The serving layer: a long-lived, concurrent query service.

The paper's §5 splits Sama into an offline index build and an online
query phase; this package is the online phase grown into a service:

- :class:`ServingEngine` — one resident :class:`~repro.engine.sama.
  SamaEngine` behind a bounded worker pool with admission control
  (typed :class:`~repro.resilience.errors.OverloadedError` on
  overload, deadline-tightening under queue pressure);
- :class:`ResultCache` — an LRU with a byte budget, keyed by the
  canonical query form + ``k`` + the index *epoch*, so incremental
  index updates invalidate exactly the affected entries;
- :mod:`repro.serving.canonical` — alpha-renaming + pattern-order
  normalisation behind those keys;
- :mod:`repro.serving.wire` — the rules of the wire:
  ``Content-Length`` and request-document validation, the error
  mapping, the 200 body;
- :mod:`repro.serving.aserve` — the HTTP front end (``POST /query``,
  ``GET /healthz``, ``GET /stats``, ``GET /metrics`` in Prometheus
  text format; stdlib ``asyncio`` only): HTTP/1.1 keep-alive with
  strict framing, bounded connection backlog, single-flight coalescing
  of identical in-flight queries, and per-tenant token-bucket quotas;
- :mod:`repro.serving.client` — its stdlib client helper.

CLI: ``sama serve INDEX_DIR``.
"""

from .aserve import (AsyncServingServer, SingleFlight, TenantQuotas,
                     TokenBucket, serve_async)
from .cache import CachedResult, ResultCache, ResultCacheStats
from .canonical import cache_key, canonical_form
from .client import ServingClient, ServingClientError
from .service import (RequestFingerprint, ServedResult, ServingConfig,
                      ServingEngine, ServingStats, StatsSnapshot,
                      answers_payload)

__all__ = [
    "AsyncServingServer", "CachedResult", "RequestFingerprint",
    "ResultCache", "ResultCacheStats", "ServedResult", "ServingClient",
    "ServingClientError", "ServingConfig", "ServingEngine", "ServingStats",
    "SingleFlight", "StatsSnapshot", "TenantQuotas", "TokenBucket",
    "answers_payload", "cache_key", "canonical_form", "serve_async",
]
