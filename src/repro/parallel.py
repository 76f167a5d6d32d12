"""The per-shard process pool behind ``EngineConfig(worker_mode="procs")``.

Sharded clustering scores in-process, on the calling thread, unless
the engine is configured with ``worker_mode="procs"``: then
:class:`ProcessShardPool` keeps long-lived, spawn-safe worker
processes, one per shard, each holding its shard's
:class:`~repro.index.columnar.ColumnarView`, so the CPU-bound λ scan
(:func:`~repro.index.columnar.score_rows`, the same loop the
coordinator runs) happens outside the coordinator's GIL, over rows that
need no decode.  A worker scans every candidate it is sent: refine-key
class sharing (:mod:`repro.quotient.resolve`) is the coordinator's,
where it saves decodes.  See DESIGN.md §11 for the in-process-vs-procs
decision table.

The pool starts no threads of its own: the coordinator sends every
shard's task, scores what stays in-process while the workers run, then
gathers each reply (:meth:`ProcessShardPool.score`).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import queue as queue_mod
import threading
import time
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from multiprocessing.resource_tracker import _resource_tracker as _TRACKER

#: Open pools that have spawned workers; the last one to close stops
#: the ``multiprocessing`` resource tracker their spawns started — but
#: not one that was already running for someone else when the first
#: of them spawned (stopping it would unlink that owner's semaphores).
_open_pools = 0
_tracker_is_ours = False
_open_pools_lock = threading.Lock()


def worker_mode(explicit: "str | None") -> "str | None":
    """Validate a shard execution mode: ``None`` (in-process, on the
    calling thread) or ``"procs"``; anything else raises
    :class:`ValueError`, and ``"threads"`` names its removal."""
    if explicit is None:
        return None
    mode = explicit.strip().lower()
    if mode == "procs":
        return mode
    if mode == "threads":
        raise ValueError(
            "worker_mode 'threads' was removed: sharded clustering scores "
            "in-process (worker_mode=None) or in worker processes "
            "(worker_mode='procs')")
    raise ValueError(f"worker_mode must be None or 'procs', "
                     f"got {explicit!r}")


# -- process-pool execution mode ------------------------------------------------

#: Seconds granted beyond a task's budget slice before the worker's
#: response is declared overdue and its shard lost.
_RESPONSE_GRACE_S = 0.25

#: Poll interval while waiting on a worker's result queue — short
#: enough that a SIGKILLed worker is noticed promptly, long enough not
#: to burn the coordinator.
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
                 "retired", "next_task_id", "lock")

    def __init__(self, shard_no, process, tasks, results):
        self.shard_no = shard_no
        self.process = process
        self.tasks = tasks
        self.results = results
        self.ready = False
        #: Set once the worker is stopped and its queues closed: a
        #: coordinator that checked it out earlier must not touch it.
        self.retired = False
        self.next_task_id = 0
        #: Serialises request/response per worker: the process handles
        #: one task at a time anyway, and exclusive queue access means
        #: no coordinator can steal another's response.
        self.lock = threading.Lock()

    def stop(self, grace_s: float = 0.0) -> None:
        """End the process (after ``grace_s`` to exit on its own), reap
        it, and close both queues, so their feeder threads exit and
        nothing holds the queue semaphores.  Called with :attr:`lock`
        held, once the worker is out of the pool's table."""
        if self.retired:
            return
        self.retired = True
        self.ready = False
        process = self.process
        process.join(timeout=grace_s)
        for signal_it in (process.terminate, process.kill):
            if not process.is_alive():
                break
            signal_it()
            process.join(timeout=1.0)
        for pipe in (self.tasks, self.results):
            pipe.close()
            pipe.join_thread()


class ProcessShardPool:
    """Long-lived per-shard worker processes for sharded scoring.

    Created once per engine (``worker_mode="procs"`` over a sharded
    index) and reused across queries.  Workers are spawned — never
    forked — so they are safe under any coordinator threading, and each
    opens its shard's index itself rather than inheriting open file
    handles.

    Fault contract: a worker that dies (crash, SIGKILL, OOM) or whose
    response overruns its budget slice surfaces as
    :class:`~repro.resilience.errors.ShardUnavailableError` — which
    clustering maps to ``SHARD_FAILED`` plus a breaker failure — never
    as a hang.  The next dispatch respawns it (counted in
    ``sama_worker_restarts_total``): one crash costs one degraded
    query, not a permanent hole in the fleet.

    Closing the last open pool of the process also stops the
    ``multiprocessing`` resource tracker that the spawns started, once
    every worker is reaped and every queue closed: nothing the pool
    started outlives it.
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
        self._counted = False     # whether this pool is in _open_pools
        registry = get_registry()
        self._dispatch_hist = registry.histogram(
            "sama_worker_dispatch_seconds",
            "Time to enqueue one shard task to its worker process")
        self._result_hist = registry.histogram(
            "sama_worker_result_seconds",
            "Dispatch-to-gathered-result time per shard task")
        self._restart_counter = registry.counter(
            "sama_worker_restarts_total",
            "Shard worker processes respawned after death or overrun")

    # -- lifecycle ---------------------------------------------------------

    def warm(self) -> None:
        """Spawn every worker now and wait until all are ready.

        Concentrates the spawn + column-build cost at engine open (or
        server startup) instead of the first query.
        """
        with self._lock:
            workers = [self._spawn_locked(shard) for shard
                       in range(self.shard_count)]
        for worker in workers:
            with worker.lock:
                self._await_ready(worker)

    def close(self) -> None:
        """Stop every worker; the last pool to close also stops the
        resource tracker."""
        global _open_pools
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = [w for w in self._workers if w is not None]
            self._workers = [None] * self.shard_count
        _stop_all(workers)
        # The last references to the queues: their semaphores must be
        # released before the tracker that counts them stops.
        workers.clear()
        if not self._counted:
            return
        with _open_pools_lock:
            _open_pools -= 1
            if _open_pools == 0 and _tracker_is_ours:
                _stop_resource_tracker()

    def worker_pids(self) -> "dict[int, int]":
        """Live worker pids by shard (diagnostics and chaos tests)."""
        with self._lock:
            return {worker.shard_no: worker.process.pid
                    for worker in self._workers
                    if worker is not None and worker.process.is_alive()}

    # -- scoring -----------------------------------------------------------

    def score(self, slices, query_path, anchor, weights,
              remaining_ms: "float | None", local):
        """Score each ``(shard number, (gid, offset) pairs)`` slice in
        its worker while ``local()`` runs on the calling thread.

        Takes the workers' locks in ascending shard order (two
        concurrent queries never hold each other's), sends every task,
        calls ``local()``, then gathers each reply within its budget
        slice plus a grace.  Returns ``(local(), replies)``: each shard
        maps to the in-process scan's ``(rows, tripped)`` pair, or to
        the :class:`~repro.resilience.errors.ShardUnavailableError`
        that lost it.
        """
        from .resilience.errors import ShardUnavailableError
        replies: dict = {}
        checked_out = []
        for shard_no, pairs in slices:
            try:
                checked_out.append((self._checkout(shard_no), pairs))
            except ShardUnavailableError as exc:
                replies[shard_no] = exc
        sent = []
        with ExitStack() as held:
            for worker, pairs in checked_out:
                held.enter_context(worker.lock)
                try:
                    if worker.retired:
                        raise ShardUnavailableError(
                            f"shard {worker.shard_no}: worker retired",
                            shard=worker.shard_no)
                    self._await_ready(worker)
                except ShardUnavailableError as exc:
                    replies[worker.shard_no] = exc
                    continue
                task = ShardTask(
                    task_id=worker.next_task_id,
                    gids=array("q", [gid for gid, _offset in pairs]),
                    offsets=array("q", [offset for _gid, offset in pairs]),
                    query_path=query_path, anchor=anchor, weights=weights,
                    remaining_ms=remaining_ms)
                worker.next_task_id += 1
                started = time.monotonic()
                worker.tasks.put(task)
                self._dispatch_hist.observe(time.monotonic() - started)
                sent.append((worker, task.task_id, started))
            result = local()
            for worker, task_id, started in sent:
                deadline = (None if remaining_ms is None else started
                            + remaining_ms / 1000.0 + _RESPONSE_GRACE_S)
                try:
                    payload = self._receive(worker, task_id, deadline,
                                            "worker response overdue")
                except ShardUnavailableError as exc:
                    replies[worker.shard_no] = exc
                    continue
                self._result_hist.observe(time.monotonic() - started)
                replies[worker.shard_no] = _unpack(payload)
        return result, replies

    # -- internals ---------------------------------------------------------

    def _checkout(self, shard_no: int) -> _ShardWorker:
        """The shard's live worker, spawning it if there is none.

        A worker found dead between queries is replaced for the *next*
        dispatch, but this one fails: the failure must reach the
        breaker — a silent heal would hide flapping workers.
        """
        from .resilience.errors import ShardUnavailableError
        with self._lock:
            if self._closed:
                raise ShardUnavailableError(
                    f"shard {shard_no}: worker pool closed", shard=shard_no)
            previous = self._workers[shard_no]
            if previous is None or previous.process.is_alive():
                return self._spawn_locked(shard_no)
            exitcode = previous.process.exitcode
            self._spawn_locked(shard_no)
        with previous.lock:
            previous.stop()
        raise ShardUnavailableError(
            f"shard {shard_no}: worker died (exit {exitcode})",
            shard=shard_no)

    def _spawn_locked(self, shard_no: int) -> _ShardWorker:
        global _open_pools, _tracker_is_ours
        worker = self._workers[shard_no]
        if worker is not None and worker.process.is_alive():
            return worker
        if worker is not None:
            self.restarts += 1
            self._restart_counter.inc()
        if not self._counted:
            self._counted = True
            with _open_pools_lock:
                if _open_pools == 0:
                    _tracker_is_ours = _TRACKER._fd is None
                _open_pools += 1
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
        if not worker.ready:
            self._receive(worker, "ready",
                          time.monotonic() + self.ready_timeout_s,
                          f"worker not ready after {self.ready_timeout_s:g}s")
            worker.ready = True

    def _receive(self, worker: _ShardWorker, key, deadline: "float | None",
                 overdue: str):
        """The payload of the worker's next message keyed ``key`` (a
        task id, or ``"ready"``), skipping replies to abandoned tasks.

        A worker found dead, or silent until ``deadline``, is retired —
        killed if wedged, so a stale reply can never mix into a later
        query; the next dispatch respawns it — and the wait raises
        :class:`~repro.resilience.errors.ShardUnavailableError`.
        """
        from .resilience.errors import ShardUnavailableError
        shard_no = worker.shard_no
        while True:
            timeout = _LIVENESS_POLL_S
            if deadline is not None:
                timeout = min(timeout, deadline - time.monotonic())
                if timeout <= 0:
                    self._retire(worker)
                    raise ShardUnavailableError(
                        f"shard {shard_no}: {overdue}", shard=shard_no)
            try:
                got, payload, error = worker.results.get(timeout=timeout)
            except queue_mod.Empty:
                if worker.process.is_alive():
                    continue
                exitcode = worker.process.exitcode
                self._retire(worker)
                raise ShardUnavailableError(
                    f"shard {shard_no}: worker died (exit {exitcode})",
                    shard=shard_no) from None
            if got != key:
                continue
            if error is not None:
                raise ShardUnavailableError(
                    f"shard {shard_no}: worker error: {error}",
                    shard=shard_no)
            return payload

    def _retire(self, worker: _ShardWorker) -> None:
        """Stop a dead or wedged worker (its lock held); the next
        dispatch respawns."""
        with self._lock:
            if self._workers[worker.shard_no] is worker:
                self._workers[worker.shard_no] = None
                self.restarts += 1
                self._restart_counter.inc()
        worker.stop()


def _stop_all(workers: "list[_ShardWorker]") -> None:
    """Ask every worker to exit, then stop and reap each."""
    for worker in workers:
        try:
            worker.tasks.put_nowait(None)
        except (ValueError, OSError, queue_mod.Full):
            pass
    for worker in workers:
        with worker.lock:
            worker.stop(grace_s=2.0)


def _unpack(payload) -> "tuple[list[tuple], bool]":
    """A worker's flat reply as ``(rows, tripped)``."""
    scores, gids, plens, flat_ids, tripped = payload
    rows = []
    position = 0
    for score, gid, plen in zip(scores, gids, plens):
        bound = position + plen
        # Array slices, not tuples: a C-level copy per row, and
        # everything downstream (frozenset, iteration) takes any
        # sequence.  The merge key is (score, gid), so the slice is
        # never compared.
        rows.append((score, gid, plen, flat_ids[position:bound]))
        position = bound
    return rows, tripped


def _stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker the spawns
    started, once every worker is reaped and every queue closed.  The
    collection first frees queue semaphores held by reference cycles,
    so none unregisters later and starts a new tracker."""
    gc.collect()
    _TRACKER._stop()
