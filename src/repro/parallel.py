"""Execution resources for the engine's parallel stages.

Two kinds of parallelism live here:

- the process-wide **thread pool** (:func:`shared_executor`) used by
  thread-mode scatter-gather dispatch over shards.  Threads are the
  right tool when the work overlaps I/O (page reads, simulated storage
  latency) — the GIL only serializes the pure-Python parts;

- the **per-shard process pool** (:class:`ProcessShardPool`) behind
  ``EngineConfig(worker_mode="procs")``: long-lived, spawn-safe worker
  processes, one per shard, each holding its shard's
  :class:`~repro.index.columnar.ColumnarView` so the CPU-bound λ scan
  (:func:`~repro.index.columnar.score_rows`, the same loop the
  coordinator runs) happens outside the coordinator's GIL, over rows
  that need no decode.  A worker scans every candidate it is sent:
  refine-key class sharing (:mod:`repro.quotient.resolve`) is the
  coordinator's, where it saves decodes.  See DESIGN.md §11 for the
  threads-vs-procs decision table.

Setting ``SAMA_WORKERS=1`` (or 0) disables thread parallelism
entirely: :func:`shared_executor` then returns ``None`` and callers
take their serial paths.  Callers may also pass their own executor
explicitly, which always wins over the shared one.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as queue_mod
import threading
import time
import warnings
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

_lock = threading.Lock()
_executor: "ThreadPoolExecutor | None" = None
_executor_workers = 0
#: Pools replaced by a regrow, kept alive until interpreter exit:
#: callers from before the regrow may still hold them and submit
#: follow-up work mid-query (see ``shared_executor``).
_retired_executors: "list[ThreadPoolExecutor]" = []

#: Invalid ``SAMA_WORKERS`` values already warned about (warn once per
#: distinct bad value, not once per query).
_warned_worker_values: "set[str]" = set()

#: Recognised ``worker_mode`` / ``SAMA_WORKER_MODE`` values.
WORKER_MODES = ("threads", "procs")
_warned_mode_values: "set[str]" = set()


def worker_count(explicit: "int | None" = None) -> int:
    """The effective worker count for thread-parallel stages.

    Precedence: an ``explicit`` argument (what
    ``EngineConfig(workers=...)`` passes through) always wins; next the
    ``SAMA_WORKERS`` environment variable; finally ``os.cpu_count()``.
    A value of 1 (or less) means "serial": the shared executor is not
    created and parallel stages fall back to their single-threaded code
    paths.

    A non-integer ``SAMA_WORKERS`` is ignored with a one-time
    :class:`RuntimeWarning` naming the bad value — silently treating it
    as unset hid typos like ``SAMA_WORKERS=four`` behind cpu-count
    behaviour.
    """
    if explicit is not None:
        return max(0, explicit)
    raw = os.environ.get("SAMA_WORKERS", "").strip()
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            if raw not in _warned_worker_values:
                _warned_worker_values.add(raw)
                warnings.warn(
                    f"ignoring invalid SAMA_WORKERS={raw!r} (not an "
                    f"integer); falling back to cpu count",
                    RuntimeWarning, stacklevel=2)
    return os.cpu_count() or 1


def worker_mode(explicit: "str | None" = None) -> str:
    """Resolve the shard execution mode: ``"threads"`` or ``"procs"``.

    Precedence mirrors :func:`worker_count`: an explicit
    ``EngineConfig(worker_mode=...)`` wins, then ``SAMA_WORKER_MODE``,
    then the ``"threads"`` default.  An invalid explicit value raises;
    an invalid environment value warns once and falls back to threads
    (a typo in a deployment environment should degrade, not take the
    server down).
    """
    if explicit is not None:
        mode = explicit.strip().lower()
        if mode not in WORKER_MODES:
            raise ValueError(f"worker_mode must be one of {WORKER_MODES}, "
                             f"got {explicit!r}")
        return mode
    raw = os.environ.get("SAMA_WORKER_MODE", "").strip()
    if raw:
        mode = raw.lower()
        if mode in WORKER_MODES:
            return mode
        if raw not in _warned_mode_values:
            _warned_mode_values.add(raw)
            warnings.warn(
                f"ignoring invalid SAMA_WORKER_MODE={raw!r} "
                f"(expected one of {WORKER_MODES}); using threads",
                RuntimeWarning, stacklevel=2)
    return "threads"


def shared_executor(workers: "int | None" = None) -> "ThreadPoolExecutor | None":
    """The process-wide executor, or ``None`` when running serially.

    ``workers`` overrides the environment-derived count for this call;
    the pool is (re)created when the effective count grows beyond what
    the current pool was sized for.  The pool's threads are daemonic
    idle workers — there is no per-query creation cost.

    A regrow *retires* the old pool instead of shutting it down: a
    caller that grabbed the executor before the regrow may still hold
    futures from it and submit follow-up work (hedge dispatches)
    mid-query, and ``shutdown()`` would turn
    those submits into ``RuntimeError``.  Retired pools idle at zero
    cost once drained and are reaped at interpreter exit.
    """
    global _executor, _executor_workers
    count = worker_count(workers)
    if count <= 1:
        return None
    with _lock:
        if _executor is None or _executor_workers < count:
            if _executor is not None:
                _retired_executors.append(_executor)
            _executor = ThreadPoolExecutor(
                max_workers=count, thread_name_prefix="sama-worker")
            _executor_workers = count
        return _executor


def _shutdown() -> None:  # pragma: no cover - interpreter teardown
    global _executor
    with _lock:
        pools = list(_retired_executors)
        _retired_executors.clear()
        if _executor is not None:
            pools.append(_executor)
            _executor = None
    for pool in pools:
        pool.shutdown(wait=False)


atexit.register(_shutdown)


# -- process-pool execution mode ------------------------------------------------

#: Seconds granted beyond a task's budget slice before the worker's
#: response is declared overdue (mirrors the scatter layer's
#: ``_SHARD_DEADLINE_GRACE_S``).
_RESPONSE_GRACE_S = 0.25

#: Poll interval while waiting on a worker's result queue — short
#: enough that a SIGKILLed worker is noticed promptly, long enough not
#: to burn the dispatch thread.
_LIVENESS_POLL_S = 0.1


@dataclass(frozen=True)
class ShardTask:
    """The pickle-friendly work envelope sent to one shard worker.

    Everything in here crosses the process boundary: flat arrays,
    plain ints/floats, and the Term/Path value objects (which pickle
    through their constructors — see ``Term.__reduce__``).  ``gids``
    and ``offsets`` are the shard's candidates in ascending gid order,
    exactly what the coordinator's ``group_by_shard`` produced — two
    ``array`` columns rather than a tuple of pairs, because pickling
    an array is one buffer copy while a 40k-pair tuple costs a Python
    object walk on both sides of the queue.
    """

    task_id: int
    gids: object                 # array('q'): global path ids
    offsets: object              # array('q'): shard-local offsets
    query_path: object           # repro.paths.model.Path
    anchor: object               # trim anchor Term, or None
    weights: object              # repro.scoring.weights.ScoringWeights
    remaining_ms: "float | None"  # budget slice; None = no deadline

    @property
    def pairs(self):
        """The ``(gid, offset)`` pairs the coordinator grouped."""
        return zip(self.gids, self.offsets)


def _shard_worker_main(shard_directory, thesaurus, matcher_level,
                       tasks, results):  # pragma: no cover - child process
    """Entry point of one shard worker process (top-level: spawn-safe).

    Opens the shard read-only, projects it into a
    :class:`~repro.index.columnar.ColumnarView` once, signals
    readiness, then serves :class:`ShardTask` envelopes until the
    ``None`` sentinel arrives.  Every shard persists the same global
    label dictionary, so the ids this worker scores in agree with every
    other worker's and with the coordinator.
    """
    from .index.columnar import (ColumnarView, encode_query, make_id_matcher,
                                 score_rows)
    from .index.labels import SemanticMatcher
    from .index.pathindex import PathIndex
    from .paths.alignment import exact_match
    from .resilience.budget import Budget

    index = PathIndex.open(shard_directory, thesaurus=thesaurus)
    view = ColumnarView.build(index)
    index.clear_cache()          # the columns hold the working set now
    if matcher_level == "exact":
        matcher = exact_match
    else:
        matcher = SemanticMatcher(thesaurus, level=matcher_level)
    ids_match = make_id_matcher(index.interner, matcher)
    results.put(("ready", os.getpid(), None))
    while True:
        task = tasks.get()
        if task is None:
            break
        try:
            query = encode_query(task.query_path, ids_match, task.anchor)
            offset_of = dict(task.pairs)
            # The worker's clock against its budget slice.
            expired = (None if task.remaining_ms is None
                       else Budget(deadline_ms=task.remaining_ms).expired)
            scored, tripped = score_rows(
                task.gids, lambda gid: view.ids_at(offset_of[gid]), query,
                task.weights, expired=expired)
            # Ship each kept candidate's trimmed node ids along with
            # its row: the coordinator's search joins clusters on these
            # ids (χ operands, candidate buckets) without ever decoding
            # the paths.  Flat array + per-row lengths in ``plens`` —
            # one compact buffer instead of many tuples.
            flat_ids = array("i")
            for row in scored:
                flat_ids.extend(row[3])
            payload = (array("d", (row[0] for row in scored)),
                       array("q", (row[1] for row in scored)),
                       array("i", (row[2] for row in scored)),
                       flat_ids,
                       tripped)
            results.put((task.task_id, payload, None))
        except Exception as exc:
            results.put((task.task_id, None,
                         f"{type(exc).__name__}: {exc}"))
    index.close()


class _ShardWorker:
    """Coordinator-side handle of one worker process and its queues."""

    __slots__ = ("shard_no", "process", "tasks", "results", "ready",
                 "next_task_id", "lock")

    def __init__(self, shard_no, process, tasks, results):
        self.shard_no = shard_no
        self.process = process
        self.tasks = tasks
        self.results = results
        self.ready = False
        self.next_task_id = 0
        #: Serialises request/response per worker: the process handles
        #: one task at a time anyway, and exclusive queue access means
        #: no dispatch thread can steal another's response.
        self.lock = threading.Lock()


class ProcessShardPool:
    """Long-lived per-shard worker processes for scatter-gather scoring.

    Created once per engine (``worker_mode="procs"`` over a sharded
    index) and reused across queries.  Workers are spawned — never
    forked — so they are safe under any coordinator threading, and each
    opens its shard's index itself rather than inheriting open file
    handles.

    Fault contract: a worker that dies (crash, SIGKILL, OOM) or whose
    response overruns its budget slice surfaces as
    :class:`~repro.resilience.errors.ShardUnavailableError` — a storage
    -level fault the scatter layer already maps to ``SHARD_FAILED``
    degradation plus breaker accounting — never as a hang.  The dead
    worker is respawned lazily on the shard's next dispatch (counted in
    ``sama_worker_restarts_total``), so one crash costs one degraded
    query while the breaker's cooldown, not a permanent hole in the
    fleet.
    """

    def __init__(self, directory, shard_count: int, thesaurus=None,
                 matcher_level: str = "semantic",
                 ready_timeout_s: float = 60.0):
        from .obs import get_registry
        self.directory = directory
        self.shard_count = shard_count
        self.thesaurus = thesaurus
        self.matcher_level = matcher_level
        self.ready_timeout_s = ready_timeout_s
        self.restarts = 0
        self._context = multiprocessing.get_context("spawn")
        self._workers: "list[_ShardWorker | None]" = [None] * shard_count
        self._lock = threading.Lock()
        self._closed = False
        #: Dispatch threads wrap worker round-trips in futures so the
        #: scatter layer's hedging, deadlines, and breaker logic work
        #: identically for both execution modes.  Sized above the shard
        #: count so hedge fallbacks never queue behind blocked waits.
        self._dispatch = ThreadPoolExecutor(
            max_workers=shard_count + 2, thread_name_prefix="sama-shard-io")
        registry = get_registry()
        self._dispatch_hist = registry.histogram(
            "sama_worker_dispatch_seconds",
            "Time to enqueue one shard task to its worker process")
        self._result_hist = registry.histogram(
            "sama_worker_result_seconds",
            "Dispatch-to-gathered-result time per shard task")
        self._merge_hist = registry.histogram(
            "sama_worker_merge_seconds",
            "Coordinator-side k-way merge time per procs-mode scatter")
        self._restart_counter = registry.counter(
            "sama_worker_restarts_total",
            "Shard worker processes respawned after death or overrun")

    # -- lifecycle ---------------------------------------------------------

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The dispatch-thread executor scatter-gather submits to."""
        return self._dispatch

    def warm(self) -> None:
        """Spawn every worker now and wait until all are ready.

        Concentrates the spawn + column-build cost at engine open (or
        server startup) instead of the first query.
        """
        with self._lock:
            workers = [self._spawn_locked(shard) for shard
                       in range(self.shard_count)]
        for worker in workers:
            self._await_ready(worker)

    def close(self) -> None:
        """Stop every worker and release the dispatch threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = [w for w in self._workers if w is not None]
            self._workers = [None] * self.shard_count
        for worker in workers:
            try:
                worker.tasks.put_nowait(None)
            except (ValueError, OSError, queue_mod.Full):
                pass
        for worker in workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            for pipe in (worker.tasks, worker.results):
                pipe.cancel_join_thread()
                pipe.close()
        self._dispatch.shutdown(wait=False)

    def worker_pids(self) -> "dict[int, int]":
        """Live worker pids by shard (diagnostics and chaos tests)."""
        with self._lock:
            return {worker.shard_no: worker.process.pid
                    for worker in self._workers
                    if worker is not None and worker.process.is_alive()}

    # -- scoring -----------------------------------------------------------

    def run_shard(self, shard_no: int, pairs, query_path, anchor,
                  weights, remaining_ms: "float | None"):
        """Score one shard's candidate slice in its worker process.

        Returns the same ``(rows, tripped)`` pair as the in-process
        shard task: ``(score, gid, prefix_length, node label ids)``
        rows in candidate order.  Runs on a dispatch thread; worker
        death or an overdue response raises
        :class:`~repro.resilience.errors.ShardUnavailableError`.
        """
        from .resilience.errors import ShardUnavailableError
        with self._lock:
            if self._closed:
                raise ShardUnavailableError(
                    f"shard {shard_no}: worker pool closed", shard=shard_no)
            previous = self._workers[shard_no]
            if previous is not None and not previous.process.is_alive():
                # Died between queries (crash, OOM kill, operator).
                # Respawn for the *next* dispatch but fail this one:
                # the shard's candidates are lost right now, and the
                # failure must reach the breaker — a silent heal would
                # hide flapping workers from the health board.
                exitcode = previous.process.exitcode
                self._spawn_locked(shard_no)
                raise ShardUnavailableError(
                    f"shard {shard_no}: worker died (exit {exitcode})",
                    shard=shard_no)
            worker = self._spawn_locked(shard_no)
        gid_column = array("q")
        offset_column = array("q")
        for gid, offset in pairs:
            gid_column.append(gid)
            offset_column.append(offset)
        with worker.lock:
            self._await_ready(worker)
            task = ShardTask(
                task_id=worker.next_task_id, gids=gid_column,
                offsets=offset_column, query_path=query_path, anchor=anchor,
                weights=weights, remaining_ms=remaining_ms)
            worker.next_task_id += 1
            started = time.monotonic()
            worker.tasks.put(task)
            self._dispatch_hist.observe(time.monotonic() - started)
            cap = (None if remaining_ms is None
                   else remaining_ms / 1000.0 + _RESPONSE_GRACE_S)
            payload = self._gather(worker, task.task_id, cap)
            self._result_hist.observe(time.monotonic() - started)
        scores, gids, plens, flat_ids, tripped = payload
        rows = []
        position = 0
        for score, gid, plen in zip(scores, gids, plens):
            bound = position + plen
            # Array slices, not tuples: a C-level copy per row, and
            # everything downstream (frozenset, iteration) takes any
            # sequence.  The merge key is (score, gid), so the slice
            # is never compared.
            rows.append((score, gid, plen, flat_ids[position:bound]))
            position = bound
        return rows, tripped

    def observe_merge(self, seconds: float) -> None:
        """Record one scatter's coordinator-side merge time."""
        self._merge_hist.observe(seconds)

    # -- internals ---------------------------------------------------------

    def _spawn_locked(self, shard_no: int) -> _ShardWorker:
        worker = self._workers[shard_no]
        if worker is not None and worker.process.is_alive():
            return worker
        if worker is not None:
            self.restarts += 1
            self._restart_counter.inc()
        from .index.sharded import shard_dir
        tasks = self._context.Queue()
        results = self._context.Queue()
        process = self._context.Process(
            target=_shard_worker_main,
            args=(shard_dir(self.directory, shard_no), self.thesaurus,
                  self.matcher_level, tasks, results),
            name=f"sama-shard-{shard_no}", daemon=True)
        process.start()
        worker = _ShardWorker(shard_no, process, tasks, results)
        self._workers[shard_no] = worker
        return worker

    def _await_ready(self, worker: _ShardWorker) -> None:
        from .resilience.errors import ShardUnavailableError
        if worker.ready:
            return
        deadline = time.monotonic() + self.ready_timeout_s
        while True:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                self._retire(worker, kill=True)
                raise ShardUnavailableError(
                    f"shard {worker.shard_no}: worker not ready after "
                    f"{self.ready_timeout_s:g}s", shard=worker.shard_no)
            try:
                kind, _pid, _err = worker.results.get(
                    timeout=min(timeout, _LIVENESS_POLL_S))
            except queue_mod.Empty:
                if not worker.process.is_alive():
                    self._retire(worker, kill=False)
                    raise ShardUnavailableError(
                        f"shard {worker.shard_no}: worker died during "
                        f"startup (exit {worker.process.exitcode})",
                        shard=worker.shard_no)
                continue
            if kind == "ready":
                worker.ready = True
                return

    def _gather(self, worker: _ShardWorker, task_id: int,
                cap: "float | None"):
        from .resilience.errors import ShardUnavailableError
        deadline = None if cap is None else time.monotonic() + cap
        while True:
            timeout = _LIVENESS_POLL_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Wedged or far beyond its slice: kill it so the
                    # stale response can never mix into a later query,
                    # and let the next dispatch respawn.
                    self._retire(worker, kill=True)
                    raise ShardUnavailableError(
                        f"shard {worker.shard_no}: worker response "
                        f"overdue", shard=worker.shard_no)
                timeout = min(timeout, remaining)
            try:
                got_id, payload, error = worker.results.get(timeout=timeout)
            except queue_mod.Empty:
                if not worker.process.is_alive():
                    self._retire(worker, kill=False)
                    raise ShardUnavailableError(
                        f"shard {worker.shard_no}: worker died (exit "
                        f"{worker.process.exitcode})", shard=worker.shard_no)
                continue
            if got_id != task_id:
                continue         # response from an abandoned prior task
            if error is not None:
                raise ShardUnavailableError(
                    f"shard {worker.shard_no}: worker error: {error}",
                    shard=worker.shard_no)
            return payload

    def _retire(self, worker: _ShardWorker, kill: bool) -> None:
        """Drop a dead or wedged worker; the next dispatch respawns."""
        worker.ready = False
        if kill and worker.process.is_alive():
            worker.process.terminate()
        with self._lock:
            if self._workers[worker.shard_no] is worker:
                self._workers[worker.shard_no] = None
                self.restarts += 1
                self._restart_counter.inc()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        live = len(self.worker_pids())
        return (f"<ProcessShardPool {self.directory!r}: "
                f"{live}/{self.shard_count} workers live>")
