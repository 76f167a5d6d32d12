"""The long-lived concurrent query service around one ``SamaEngine``.

The CLI evaluates one query per process: open the index, answer, exit.
A :class:`ServingEngine` instead keeps one hot engine resident — open
``PathIndex`` (or ``IncrementalIndex``), warm buffer pool, interned
label dictionary — and dispatches queries across a bounded worker
pool, the shape the paper's §5 online/offline split implies for a
production deployment.

A request the service has seen before is cheap before it gets that
far: a bounded :class:`RequestMemo` maps raw query text to canonical
form, so a repeated text is fingerprinted without being parsed, and a
cache entry keeps its rendered JSON from its first hit on.

Three mechanisms make it safe under load:

- **Admission control.**  At most ``workers + max_queue`` requests are
  in flight; anything beyond that is rejected *immediately* with a
  typed :class:`~repro.resilience.errors.OverloadedError`.  There is
  deliberately no unbounded queue — overload turns into a fast, typed
  error the client can back off from, never into unbounded latency.
- **Load-shedding by degradation.**  Admitted requests that must wait
  for a worker (the pool is saturated) have their deadline tightened
  to ``queue_deadline_ms``, reusing the resilience layer's
  :class:`~repro.resilience.budget.Budget` machinery: under pressure
  the service degrades to partial results instead of falling behind.
- **Epoch-keyed result caching.**  Results are cached under the
  canonical query form + ``k`` + the index epoch
  (:mod:`repro.serving.canonical`); an ``IncrementalIndex`` update
  bumps the epoch, so every affected entry is unreachable from the
  next request onwards.  Only *complete* results are cached — a
  deadline-degraded ranking must not be replayed to clients that
  asked with a healthier budget.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from ..engine.sama import SamaEngine
from ..obs import Sample, SlowQueryLog, get_registry, start_trace
from ..resilience.budget import PartialResult
from ..resilience.errors import OverloadedError
from .cache import CachedResult, ResultCache
from .canonical import canonical_form, key_of_form

#: Latency samples kept for the p50/p95 estimates on ``/stats``.
LATENCY_WINDOW = 4096


@dataclass
class ServingConfig:
    """Tunables of a :class:`ServingEngine`."""

    #: Worker threads evaluating queries concurrently.
    workers: int = 4
    #: Admitted requests allowed to wait beyond the busy workers.
    #: ``workers + max_queue`` is the hard in-flight cap.
    max_queue: int = 8
    #: Result-cache byte budget; 0 disables caching.
    cache_bytes: int = 64 << 20
    #: Default top-k when a request does not specify one.
    default_k: int = 10
    #: Default per-request deadline (None = unlimited).
    default_deadline_ms: "float | None" = None
    #: Deadline forced onto requests admitted while all workers are
    #: busy (load-shedding by degradation); None leaves them untouched.
    queue_deadline_ms: "float | None" = None
    #: Requests slower than this (ms) are written to the structured
    #: slow-query log as JSON lines; None disables the log.
    slow_query_ms: "float | None" = None
    #: Destination of the slow-query log; None logs to stderr.
    slow_query_log: "str | None" = None


#: Byte bound of a :class:`RequestMemo`.  Every entry is charged the
#: exact ``sys.getsizeof`` of its two strings plus
#: :data:`MEMO_ENTRY_OVERHEAD` for its ``OrderedDict`` slot, so the
#: memo's worst case is this constant — 1 MiB — whatever the texts
#: look like (≈ 1300 entries at the 300-character texts of the LUBM
#: workload).  A text that alone would take more than 1/64 of it
#: (16 KiB) is not memoised.
MEMO_MAX_BYTES = 1 << 20
MEMO_ENTRY_OVERHEAD = 128


class RequestMemo:
    """Bounded LRU from raw query text to its canonical form.

    The canonical form is a pure function of the text, so an entry is
    never stale: epoch, ``k`` and retrieval mode are appended per
    request (:func:`~repro.serving.canonical.key_of_form`).  Strings
    only — no parsed graph is kept — and a text that fails to parse is
    never stored, so it gets its diagnostic every time.
    """

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._forms: "OrderedDict[str, str]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    @staticmethod
    def _cost(text: str, form: str) -> int:
        return sys.getsizeof(text) + sys.getsizeof(form) + MEMO_ENTRY_OVERHEAD

    def __contains__(self, text: str) -> bool:
        # Uncounted and unlocked (dict membership is atomic): the
        # asyncio front end asks this to decide where to fingerprint.
        return text in self._forms

    def __len__(self) -> int:
        return len(self._forms)

    @property
    def current_bytes(self) -> int:
        return self._bytes

    def get(self, text: str) -> "str | None":
        with self._lock:
            form = self._forms.get(text)
            if form is None:
                self.misses += 1
                return None
            self._forms.move_to_end(text)
            self.hits += 1
            return form

    def put(self, text: str, form: str) -> None:
        cost = self._cost(text, form)
        if cost > MEMO_MAX_BYTES // 64:
            return
        with self._lock:
            if text in self._forms:
                return
            self._forms[text] = form
            self._bytes += cost
            while self._bytes > MEMO_MAX_BYTES:
                self._bytes -= self._cost(*self._forms.popitem(last=False))


class RequestFingerprint:
    """The canonical identity of one request, computed once.

    ``key`` is the canonical-form × k × epoch (× retrieval-mode) string
    that both the result cache and the asyncio front end's single-flight
    map key by.  Front ends compute the fingerprint to decide whether a
    request can coalesce onto an in-flight computation, then hand it
    back to :meth:`ServingEngine.submit` so the query is only
    canonicalised once per request.

    ``graph`` is the coerced :class:`QueryGraph`.  When the request
    memo already knew the text nothing was parsed to build the
    fingerprint, and the graph is parsed on first access — which for a
    served request happens inside the worker task and only when the
    result cache missed.
    """

    __slots__ = ("k", "key", "form", "epoch_key", "epoch", "_graph",
                 "_parse")

    def __init__(self, k: int, key: str, form: str,
                 epoch_key: "int | tuple", epoch: int, graph=None,
                 parse=None):
        self.k = k
        self.key = key
        self.form = form            # canonical text, epoch/k/mode-free
        self.epoch_key = epoch_key  # scalar epoch or per-shard vector
        self.epoch = epoch          # monotone scalar (vector sum if sharded)
        self._graph = graph
        self._parse = parse         # () -> QueryGraph, when graph is None

    @property
    def graph(self):
        graph = self._graph
        if graph is None:
            graph = self._graph = self._parse()
        return graph


@dataclass
class ServedResult:
    """One answered request: the ranked answers plus serving metadata."""

    answers: PartialResult
    payload: dict
    cached: bool
    latency_ms: float
    epoch: int
    k: int
    #: ``payload`` as JSON bytes when the serving engine already has
    #: them (a cache hit, or a miss it rendered to size its entry).
    body: "bytes | None" = None

    @property
    def complete(self) -> bool:
        return self.answers.complete


def answers_payload(answers: PartialResult, k: int, epoch: int) -> dict:
    """The JSON-ready wire form of a ranked result."""
    rows = []
    for rank, answer in enumerate(answers, start=1):
        bindings = answer.substitution()
        rows.append({
            "rank": rank,
            "score": round(answer.score, 9),
            "quality": round(answer.quality, 9),
            "conformity": round(answer.conformity, 9),
            "exact": answer.is_exact,
            "complete": answer.is_complete,
            "bindings": {f"?{variable.value}": bindings[variable].n3()
                         for variable in sorted(bindings,
                                                key=lambda v: v.value)},
        })
    return {
        "k": k,
        "epoch": epoch,
        "complete": answers.complete,
        "reasons": [str(reason) for reason in answers.reasons],
        "answers": rows,
    }


@dataclass(frozen=True)
class StatsSnapshot:
    """All serving counters plus the latency window, captured atomically.

    Consumers (``/stats``, the registry collector, percentile reads)
    take one snapshot and derive everything from it, so no reader can
    observe half-updated counters (``served > requests``) or a latency
    window from a different moment than the counts.
    """

    requests: int
    served: int
    errors: int
    shed: int
    degraded: int
    drain_rejected: int
    latencies: "tuple[float, ...]"

    def percentile(self, fraction: float) -> "float | None":
        if not self.latencies:
            return None
        ordered = sorted(self.latencies)
        position = min(len(ordered) - 1,
                       max(0, round(fraction * (len(ordered) - 1))))
        return ordered[position]


class ServingStats:
    """Thread-safe serving counters + a latency reservoir.

    Every mutation happens under one lock, and :meth:`snapshot` reads
    all of it under that same lock — readers never mix counters from
    different instants.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.served = 0
        self.errors = 0
        self.shed = 0
        self.degraded = 0
        self.drain_rejected = 0
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)

    def note_request(self) -> None:
        with self._lock:
            self.requests += 1

    def note_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def note_drain_rejected(self) -> None:
        with self._lock:
            self.drain_rejected += 1

    def record(self, latency_ms: float, *, error: bool = False,
               degraded: bool = False) -> None:
        with self._lock:
            self.served += 1
            if error:
                self.errors += 1
            if degraded:
                self.degraded += 1
            self._latencies.append(latency_ms)

    def snapshot(self) -> StatsSnapshot:
        with self._lock:
            return StatsSnapshot(
                requests=self.requests, served=self.served,
                errors=self.errors, shed=self.shed, degraded=self.degraded,
                drain_rejected=self.drain_rejected,
                latencies=tuple(self._latencies))

    def percentile(self, fraction: float) -> "float | None":
        return self.snapshot().percentile(fraction)


class ServingEngine:
    """A concurrent, caching query service over one resident engine.

    The wrapped :class:`SamaEngine` is shared by every worker thread:
    per-query state (budgets, memos, prepared queries) is already
    request-local, and the storage layer's buffer pool is lock-
    protected.  Close the service, not the engine — :meth:`close`
    drains the pool before closing the index underneath it.
    """

    def __init__(self, engine: SamaEngine,
                 config: "ServingConfig | None" = None):
        self.engine = engine
        self.config = config or ServingConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.config.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.capacity = self.config.workers + self.config.max_queue
        self.cache = ResultCache(self.config.cache_bytes)
        self.memo = RequestMemo()
        self.stats = ServingStats()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="sama-serve")
        self._admission = threading.Semaphore(self.capacity)
        self._in_flight = 0
        self._flight_lock = threading.Lock()
        # _seen_epoch is check-and-set under its own lock: two racing
        # submits must not both observe one epoch bump (double
        # drop_stale_epochs), and a thread holding an older epoch must
        # never overwrite a newer one it lost the race to.
        self._epoch_lock = threading.Lock()
        self._seen_epoch = self.epoch
        self._closed = False
        self._draining = False
        self.registry = get_registry()
        self._latency_hist = self.registry.histogram(
            "sama_request_seconds",
            "End-to-end served request latency (cache hits included)")
        self.slow_log: "SlowQueryLog | None" = None
        if self.config.slow_query_ms is not None:
            self.slow_log = SlowQueryLog(self.config.slow_query_ms,
                                         path=self.config.slow_query_log)
        self._collector = self._collect_samples
        self.registry.register_collector(self._collector, owner=self)

    # -- data version ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The index's current data epoch (0 for static indexes).

        Over a sharded index this is the *sum* of the per-shard epochs
        — still monotone, which is all the check-and-set in
        :meth:`submit` needs.
        """
        return getattr(self.engine.index, "epoch", 0)

    @property
    def epoch_vector(self) -> "tuple[int, ...]":
        """Per-shard data epochs; a one-tuple for unsharded indexes."""
        vector = getattr(self.engine.index, "epoch_vector", None)
        if vector is None:
            return (self.epoch,)
        return tuple(vector)

    @property
    def epoch_key(self) -> "int | tuple":
        """The epoch component of cache keys.

        A plain integer for unsharded indexes (keys stay byte-identical
        to pre-sharding deployments); the full per-shard epoch vector
        when the index has more than one shard, so an update
        invalidates exactly the entries whose shards moved (see
        :mod:`repro.serving.cache`).
        """
        vector = self.epoch_vector
        if len(vector) <= 1:
            return self.epoch
        return vector

    @property
    def in_flight(self) -> int:
        return self._in_flight

    # -- request path -------------------------------------------------------

    def _retrieval_mode(self) -> str:
        """The retrieval-mode component of cache keys (two-stage
        rankings are not interchangeable with exact ones).

        Quotient-compressed scoring is appended when active: it is
        proven rank-preserving for unbudgeted queries, but served
        queries run under deadlines, where a class representative lost
        to a trip loses its members too — so quotiented and
        exhaustive results never alias in the cache.
        """
        mode = getattr(getattr(self.engine, "config", None),
                       "two_stage", "off")
        resolver = getattr(self.engine, "quotient_resolver", None)
        if resolver is not None and resolver() is not None:
            return f"{mode}+quotient"
        return mode

    def fingerprint(self, query,
                    k: "int | None" = None) -> RequestFingerprint:
        """Canonicalise one request into a :class:`RequestFingerprint`.

        Front ends that deduplicate (the asyncio single-flight layer)
        call this first, key their in-flight map by ``.key``, and pass
        the fingerprint to :meth:`submit` so canonicalisation happens
        once per request, not twice.  For a text the request memo
        knows this is a dictionary lookup and a string format —
        nothing is lexed, parsed or canonicalised.
        """
        k = self.config.default_k if k is None else k
        return self._fingerprint(query, k, self.epoch_key)

    def _fingerprint(self, query, k: int,
                     epoch_key: "int | tuple") -> RequestFingerprint:
        """Fingerprint ``query`` — or re-key a stale fingerprint, whose
        canonical form and graph carry over — at ``epoch_key``."""
        if isinstance(query, RequestFingerprint):
            form, graph, parse = query.form, query._graph, query._parse
        elif (isinstance(query, str)
              and (form := self.memo.get(query)) is not None):
            graph, parse = None, partial(self.engine._coerce_query, query)
        else:
            graph, parse = self.engine._coerce_query(query), None
            form = canonical_form(graph)
            if isinstance(query, str):
                self.memo.put(query, form)
        epoch = epoch_key if isinstance(epoch_key, int) else sum(epoch_key)
        key = key_of_form(form, k, epoch_key, self._retrieval_mode())
        return RequestFingerprint(k, key, form, epoch_key, epoch,
                                  graph=graph, parse=parse)

    def submit(self, query, k: "int | None" = None, *,
               deadline_ms: "float | None" = None,
               fingerprint: "RequestFingerprint | None" = None,
               ) -> "Future[ServedResult]":
        """Admit one request; a future for its :class:`ServedResult`.

        Raises :class:`OverloadedError` synchronously when the service
        is at capacity (the request is *shed*, nothing was queued).
        Cache hits are answered inline on the caller's thread — they
        cost a dictionary lookup and are never shed.  ``fingerprint``
        (from :meth:`fingerprint`) is reused when it still matches the
        requested ``k`` and the current epoch, a stale one is re-keyed;
        either way ``query`` is not looked at.
        """
        if self._closed:
            raise RuntimeError("serving engine is closed")
        if self._draining:
            # Draining refuses *before* the cache: a drain exists to
            # move traffic elsewhere, and answering hits here would
            # keep load-balancer health checks believing we serve.
            self.stats.note_drain_rejected()
            raise OverloadedError(
                "service is draining (restart or shutdown in progress)",
                in_flight=self._in_flight, capacity=self.capacity)
        started = time.perf_counter()
        self.stats.note_request()
        k = self.config.default_k if k is None else k
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms

        epoch_key = self.epoch_key
        epoch = epoch_key if isinstance(epoch_key, int) else sum(epoch_key)
        with self._epoch_lock:
            # Monotone check-and-set: only the single thread that
            # advances _seen_epoch drops stale entries, and a reader
            # that raced in with an older epoch cannot regress it.
            # Sharded epochs reduce to their (monotone) sum here.
            advanced = epoch > self._seen_epoch
            if advanced:
                self._seen_epoch = epoch
        if advanced:
            # The data moved under us: eagerly release the bytes held
            # by entries no future request can reach.
            self.cache.drop_stale_epochs(epoch_key)

        if self.cache.max_bytes:
            if (fingerprint is None or fingerprint.k != k
                    or fingerprint.epoch_key != epoch_key):
                # No fingerprint, or a stale one: the epoch moved since
                # the front end computed it, and the fresh key keeps
                # the entry from being filed (or looked up) under the
                # dead epoch.
                fingerprint = self._fingerprint(fingerprint or query, k,
                                                epoch_key)
            key = fingerprint.key
            entry = self.cache.get(key)
            if entry is not None:
                latency = (time.perf_counter() - started) * 1000.0
                self.stats.record(latency)
                self._latency_hist.observe(latency / 1000.0)
                future: "Future[ServedResult]" = Future()
                future.set_result(ServedResult(
                    answers=entry.answers, payload=entry.payload,
                    cached=True, latency_ms=latency, epoch=epoch, k=k,
                    body=entry.rendered()))
                return future
        else:
            # Without a cache there is nothing to key, so the canonical
            # form is never built.
            key = ""
        # A memo-known text has not been parsed yet: the worker does it
        # (fingerprint.graph), off the caller's thread.
        source = (fingerprint if fingerprint is not None
                  else self.engine._coerce_query(query))

        if not self._admission.acquire(blocking=False):
            self.stats.note_shed()
            raise OverloadedError(
                f"serving capacity exhausted "
                f"({self._in_flight}/{self.capacity} in flight)",
                in_flight=self._in_flight, capacity=self.capacity)
        with self._flight_lock:
            self._in_flight += 1
            queued = self._in_flight > self.config.workers
        if queued and self.config.queue_deadline_ms is not None:
            if deadline_ms is None:
                deadline_ms = self.config.queue_deadline_ms
            else:
                deadline_ms = min(deadline_ms, self.config.queue_deadline_ms)
        try:
            return self._pool.submit(self._serve, source, k, deadline_ms,
                                     key, epoch, epoch_key, started)
        except BaseException:
            with self._flight_lock:
                self._in_flight -= 1
            self._admission.release()
            raise

    def query(self, query, k: "int | None" = None, *,
              deadline_ms: "float | None" = None) -> ServedResult:
        """Answer one request synchronously (submit + wait)."""
        return self.submit(query, k, deadline_ms=deadline_ms).result()

    def _serve(self, source, k: int, deadline_ms: "float | None",
               key: str, epoch: int, epoch_key: "int | tuple",
               started: float) -> ServedResult:
        try:
            graph = (source.graph if isinstance(source, RequestFingerprint)
                     else source)
            if self.slow_log is not None:
                # Capture the per-stage breakdown so a slow line says
                # where the time went, not just that it went.
                with start_trace() as trace:
                    answers = self.engine.query(graph, k=k,
                                                deadline_ms=deadline_ms)
                stages_ms = trace.stage_ms()
            else:
                answers = self.engine.query(graph, k=k,
                                            deadline_ms=deadline_ms)
                stages_ms = None
            payload = answers_payload(answers, k, epoch)
            body = None
            if key and answers.complete and self.epoch_key == epoch_key:
                # Complete results only: a degraded ranking must not be
                # replayed to callers with healthier budgets.  The
                # epoch re-check keeps a result computed during an
                # update from being filed under the pre-update key.
                # The bytes that size the entry go out with this
                # response; the entry renders its own on a first hit.
                body = json.dumps(payload).encode("utf-8")
                self.cache.put(CachedResult(
                    answers=answers, payload=payload, size_bytes=len(body),
                    epoch=epoch_key, key=key))
            latency = (time.perf_counter() - started) * 1000.0
            self.stats.record(latency, degraded=answers.degraded)
            self._latency_hist.observe(latency / 1000.0)
            if self.slow_log is not None:
                self.slow_log.note(
                    latency_ms=latency,
                    query=key or getattr(graph, "name", "") or "<query>",
                    k=k, epoch=epoch, cached=False,
                    degraded=answers.degraded, answers=len(answers),
                    stages_ms=stages_ms)
            return ServedResult(answers=answers, payload=payload,
                                cached=False, latency_ms=latency,
                                epoch=epoch, k=k, body=body)
        except Exception:
            self.stats.record((time.perf_counter() - started) * 1000.0,
                              error=True)
            raise
        finally:
            with self._flight_lock:
                self._in_flight -= 1
            self._admission.release()

    # -- introspection ------------------------------------------------------

    def stats_payload(self) -> dict:
        """The ``/stats`` document (all counters, JSON-ready).

        Serving counters come from one :meth:`ServingStats.snapshot`
        and cache counters from one locked copy, so the document is
        internally consistent — it can never report ``served >
        requests`` mid-update.  The registry's scalar series ride
        along under ``"obs"``.
        """
        snap = self.stats.snapshot()
        cache = self.cache.stats_snapshot()
        health = getattr(self.engine.index, "health", None)
        resolver = getattr(self.engine, "quotient_resolver", None)
        resolver = resolver() if resolver is not None else None
        quotients = resolver.quotients if resolver is not None else None
        return {
            "epoch": self.epoch,
            "shards": getattr(self.engine.index, "shard_count", 1),
            "epochs": list(self.epoch_vector),
            "in_flight": self._in_flight,
            "capacity": self.capacity,
            "workers": self.config.workers,
            "draining": self._draining,
            "requests": snap.requests,
            "served": snap.served,
            "errors": snap.errors,
            "shed": snap.shed,
            "degraded": snap.degraded,
            "drain_rejected": snap.drain_rejected,
            "shard_health": (health.snapshot()
                             if health is not None else None),
            "quotient": (None if quotients is None else {
                "classes": quotients.class_count,
                "paths": quotients.path_count,
                "compression_ratio": round(quotients.compression_ratio, 2),
            }),
            "latency_p50_ms": snap.percentile(0.50),
            "latency_p95_ms": snap.percentile(0.95),
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": round(cache.hit_rate, 4),
                "evictions": cache.evictions,
                "entries": len(self.cache),
                "bytes": self.cache.current_bytes,
                "max_bytes": self.cache.max_bytes,
            },
            "request_memo": {
                "entries": len(self.memo),
                "bytes": self.memo.current_bytes,
                "hits": self.memo.hits,
                "misses": self.memo.misses,
            },
            "obs": self.registry.snapshot(),
        }

    def _collect_samples(self):
        """Project serving/cache/storage stats into registry samples.

        Runs at scrape time only (``/metrics``), reading the same stats
        objects the hot paths already maintain — one source of truth,
        zero additional cost per request or page read.
        """
        snap = self.stats.snapshot()
        for name, value in (("requests", snap.requests),
                            ("served", snap.served),
                            ("errors", snap.errors),
                            ("shed", snap.shed),
                            ("degraded", snap.degraded)):
            yield Sample(f"sama_serving_{name}_total", "counter",
                         f"Requests {name} by the serving engine", value)
        yield Sample("sama_serving_in_flight", "gauge",
                     "Requests admitted and not yet answered",
                     self._in_flight)
        yield Sample("sama_serving_capacity", "gauge",
                     "Hard in-flight cap (workers + max_queue)",
                     self.capacity)
        yield Sample("sama_index_epoch", "gauge",
                     "Data epoch of the served index", self.epoch)
        vector = self.epoch_vector
        if len(vector) > 1:
            for shard_no, shard_epoch in enumerate(vector):
                yield Sample("sama_index_shard_epoch", "gauge",
                             "Data epoch of one index shard", shard_epoch,
                             (("shard", str(shard_no)),))

        cache = self.cache.stats_snapshot()
        for result, value in (("hit", cache.hits), ("miss", cache.misses)):
            yield Sample("sama_result_cache_lookups_total", "counter",
                         "Result-cache lookups by outcome", value,
                         (("result", result),))
        yield Sample("sama_result_cache_insertions_total", "counter",
                     "Results admitted to the cache", cache.insertions)
        yield Sample("sama_result_cache_evictions_total", "counter",
                     "Results evicted by the byte budget", cache.evictions)
        yield Sample("sama_result_cache_stale_dropped_total", "counter",
                     "Entries dropped by epoch invalidation",
                     cache.stale_dropped)
        yield Sample("sama_result_cache_bytes", "gauge",
                     "Bytes of wire payload currently cached",
                     self.cache.current_bytes)
        yield Sample("sama_result_cache_entries", "gauge",
                     "Entries currently cached", len(self.cache))
        yield Sample("sama_request_memo_entries", "gauge",
                     "Query texts whose canonical form is memoised",
                     len(self.memo))
        yield Sample("sama_request_memo_bytes", "gauge",
                     "Bytes charged to the request memo",
                     self.memo.current_bytes)
        yield Sample("sama_request_memo_hits_total", "counter",
                     "Requests fingerprinted without parsing their text",
                     self.memo.hits)
        yield Sample("sama_request_memo_misses_total", "counter",
                     "Requests whose text had to be parsed and canonicalised",
                     self.memo.misses)

        index = self.engine.index
        pool = getattr(index, "cache_stats", None)
        if pool is not None:
            for result, value in (("hit", pool.hits), ("miss", pool.misses)):
                yield Sample("sama_buffer_pool_accesses_total", "counter",
                             "Buffer-pool page accesses by outcome", value,
                             (("result", result),))
            yield Sample("sama_buffer_pool_prefetches_total", "counter",
                         "Pages faulted in by sequential read-ahead",
                         pool.prefetches)
            yield Sample("sama_buffer_pool_retries_total", "counter",
                         "Physical reads retried after transient failure",
                         pool.retries)
        io = getattr(index, "io_stats", None)
        if io is not None:
            yield Sample("sama_page_reads_total", "counter",
                         "Physical page reads", io.page_reads)
            yield Sample("sama_page_writes_total", "counter",
                         "Physical page writes", io.page_writes)
            yield Sample("sama_page_read_seconds_total", "counter",
                         "Seconds spent in physical page reads",
                         io.read_seconds)
        decodes = getattr(index, "decode_count", None)
        if decodes is not None:
            yield Sample("sama_record_decodes_total", "counter",
                         "Path records decoded from storage", decodes)

        # Per-shard breakdowns when the served index is a ShardedIndex:
        # same series shapes as the aggregates above, with a ``shard``
        # label, so a hot or slow partition is visible at a glance.
        shards = getattr(index, "shards", None)
        if getattr(index, "is_sharded", False) and shards:
            for shard_no, shard in enumerate(shards):
                label = (("shard", str(shard_no)),)
                shard_io = getattr(shard, "io_stats", None)
                if shard_io is not None:
                    yield Sample("sama_shard_page_reads_total", "counter",
                                 "Physical page reads per shard",
                                 shard_io.page_reads, label)
                    yield Sample("sama_shard_page_read_seconds_total",
                                 "counter",
                                 "Seconds in physical page reads per shard",
                                 shard_io.read_seconds, label)
                shard_pool = getattr(shard, "cache_stats", None)
                if shard_pool is not None:
                    for result, value in (("hit", shard_pool.hits),
                                          ("miss", shard_pool.misses)):
                        yield Sample(
                            "sama_shard_buffer_pool_accesses_total",
                            "counter",
                            "Buffer-pool accesses per shard by outcome",
                            value, label + (("result", result),))
                yield Sample("sama_shard_record_decodes_total", "counter",
                             "Path records decoded per shard",
                             shard.decode_count, label)
            health = getattr(index, "health", None)
            if health is not None:
                for row in health.snapshot():
                    label = (("shard", str(row["shard"])),)
                    yield Sample("sama_shard_healthy", "gauge",
                                 "1 when the shard's circuit breaker is "
                                 "closed, 0 otherwise",
                                 1.0 if row["state"] == "closed" else 0.0,
                                 label)
                    yield Sample("sama_shard_failures_total", "counter",
                                 "Dispatch failures recorded against the "
                                 "shard", row["failures"], label)
                    yield Sample("sama_shard_breaker_trips_total", "counter",
                                 "Times the shard's circuit opened",
                                 row["trips"], label)
                    yield Sample("sama_shard_probes_total", "counter",
                                 "Half-open probe dispatches admitted",
                                 row["probes"], label)
                    yield Sample("sama_shard_hedges_total", "counter",
                                 "Hedged (duplicated) dispatches sent to "
                                 "the shard", row["hedges"], label)

    def render_metrics(self) -> str:
        """The Prometheus text exposition (``GET /metrics``)."""
        return self.registry.render()

    def health_payload(self) -> dict:
        """The ``/healthz`` document.

        ``status`` is ``"draining"`` while a graceful shutdown is in
        progress (the HTTP layer maps it to 503 so load balancers pull
        this instance), ``"degraded"`` when any shard of a sharded
        index is quarantined or circuit-open (still 200: the surviving
        shards answer, degraded beats dead), and ``"ok"`` otherwise.
        """
        status = "ok"
        health = getattr(self.engine.index, "health", None)
        failed: "list[int]" = []
        if health is not None:
            failed = health.failed_shards()
            if health.degraded:
                status = "degraded"
        if self._draining:
            status = "draining"
        payload = {"status": status, "epoch": self.epoch,
                   "paths": self.engine.index.path_count}
        if health is not None:
            payload["shards"] = health.shard_count
            payload["failed_shards"] = failed
        return payload

    # -- lifecycle ----------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def start_drain(self) -> None:
        """Stop admitting requests; in-flight work keeps running."""
        self._draining = True

    def drain(self, deadline_s: "float | None" = None,
              poll_s: float = 0.02) -> bool:
        """Gracefully quiesce: refuse new work, wait out the in-flight.

        Returns True when the last in-flight request finished inside
        ``deadline_s`` (``None`` waits indefinitely); False when the
        deadline expired with requests still running — the caller
        decides whether to close anyway (``close()`` then still waits
        for the pool, but every admitted request got its chance).
        """
        self.start_drain()
        deadline = (None if deadline_s is None
                    else time.monotonic() + deadline_s)
        while self._in_flight > 0:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(poll_s)
        return True

    def close(self, close_engine: bool = True) -> None:
        """Drain the worker pool; optionally close the engine under it."""
        if self._closed:
            return
        self._closed = True
        self._draining = True
        self._pool.shutdown(wait=True)
        self.registry.unregister_collector(self._collector)
        if self.slow_log is not None:
            self.slow_log.close()
        if close_engine:
            self.engine.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        return (f"<ServingEngine: {self.config.workers} workers, "
                f"{self._in_flight}/{self.capacity} in flight, "
                f"epoch {self.epoch}>")
