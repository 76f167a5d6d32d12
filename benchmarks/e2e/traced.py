"""The traced run: each workload's first block replayed in this process,
the benchmark stepping the layers' public calls itself.

End-to-end metrics are measured with tracing off (``run.py --trace
0``); this separate run yields the per-layer numbers.  Every replay
runs its block twice — whole calls first, then stepped under spans — so
``bench.trace_overhead_ratio`` is the stepped wall over the whole wall
and ``bench.stepped_coverage`` says how much of a whole call the
stepped stages account for.  Times here are raw clock readings;
``bench.spin_factor`` says how contended the machine was.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import adapter
import spec
import traffic
from calibrate import slowdown, spin
from stats import percentile
from tracing import Tracer, durations_by_name, self_time_by_name

#: Sweeps in the replayed block.
BLOCK_SWEEPS = 3
SIDE_CARS = ("quotient.bin", "sketch.bin")


class GcWatch:
    """Time this process spends in the cyclic collector."""

    def __init__(self):
        self.seconds = 0.0
        self.gen2 = 0
        self._started = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.gen2 += info["generation"] == 2

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False


def timed(function, *args):
    started = time.perf_counter()
    result = function(*args)
    return result, time.perf_counter() - started


def file_bytes(directory: Path, only=None, skip=()) -> int:
    return sum(path.stat().st_size for path in Path(directory).rglob("*")
               if path.is_file() and path.name not in skip
               and (only is None or path.name in only))


class Replay:
    """State one traced run accumulates."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = Tracer()
        self.metrics = {row[0]: 0.0 for row in spec.PER_LAYER}
        self.ops = 0
        self.failed = 0
        self.work: "dict[str, float]" = {}
        self.whole_ms: "dict[str, list[float]]" = {}
        self.whole_wall = self.stepped_wall = 0.0
        self.spins = [spin()]

    def tick(self) -> None:
        self.spins.append(spin())

    @contextmanager
    def op(self, op_class: str, is_read: bool = True):
        """The root span of one stepped operation.  Per-op means and
        shares are over reads (``bench.op:<class>``); a write round is
        traced as ``bench.write`` and left out of them."""
        name = f"bench.op:{op_class}" if is_read else "bench.write"
        with self.tracer.span(name) as root:
            yield self.tracer.span
        self.ops += is_read
        # What the stepped stages add up to, without the glue between.
        self.last_parts_ms = sum(
            record.end - record.start
            for record in self.tracer.spans[root.span_id + 1:]
            if record.parent == root.span_id) * 1000.0

    def add_work(self, counts: dict) -> None:
        for name, value in counts.items():
            self.work[name] = self.work.get(name, 0) + value

    # -- shared pieces -------------------------------------------------

    def stepped_build(self):
        """Build the on-disk index in this process, stage by stage."""
        workload, metrics = self.workload, self.metrics
        workload.generate(self.tick)
        graph, seconds = timed(adapter.load_graph, workload.data)
        metrics["rdf.ntriples_parse_s"] = seconds
        (index, paths), seconds = timed(adapter.build_index, graph,
                                        workload.index_dir)
        metrics["index.build_s"] = seconds
        metrics["index.paths"] = paths
        _, metrics["quotient.build_s"] = timed(adapter.build_quotients, index)
        adapter.close(index)
        self.sizes(workload.index_dir)
        engine, seconds = timed(adapter.open_engine, workload.index_dir)
        metrics["index.open_ms"] = seconds * 1000.0
        metrics["quotient.loaded"] = float(adapter.quotient_loaded(engine))
        self.tick()
        return engine

    def sizes(self, index_dir) -> None:
        metrics = self.metrics
        metrics["index.bytes"] = file_bytes(index_dir, skip=SIDE_CARS)
        metrics["quotient.bytes"] = file_bytes(index_dir,
                                               only=("quotient.bin",))
        with open(self.workload.data, encoding="utf-8") as handle:
            triples = sum(1 for line in handle if line.strip())
        metrics["index_bytes_per_triple"] = (
            metrics["index.bytes"] + metrics["quotient.bytes"]) / triples

    def engine_counters(self, engine, before: dict) -> None:
        after = adapter.counters(engine)
        delta = {name: after[name] - before[name] for name in after}
        metrics, ops = self.metrics, max(self.ops, 1)
        metrics["index.record_decodes"] = delta["record_decodes"] / ops
        metrics["storage.page_reads"] = delta["page_reads"] / ops
        lookups = delta["pool_hits"] + delta["pool_misses"]
        metrics["storage.pool_hit_rate"] = (
            delta["pool_hits"] / lookups if lookups else 0.0)
        metrics["quotient.reps"] = delta["quotient_reps"] / ops
        metrics["quotient.members"] = delta["quotient_members"] / ops
        if delta["quotient_members"]:
            metrics["quotient.share_rate"] = (
                1.0 - delta["quotient_reps"] / delta["quotient_members"])

    def finish(self, gc_watch: GcWatch, gc_wall: float) -> None:
        """Reduce the spans and accumulators to per-layer metrics."""
        metrics, ops = self.metrics, max(self.ops, 1)
        spans = self.tracer.spans
        durations = durations_by_name(spans)
        op_ms = sum(sum(values) for name, values in durations.items()
                    if name.startswith("bench.op:"))
        mean = {name: sum(values) / ops for name, values in durations.items()}
        for stage in ("prepare", "cluster", "search"):
            metrics[f"engine.{stage}_ms"] = mean.get(f"engine.{stage}", 0.0)
        metrics["rdf.sparql_parse_ms"] = mean.get("rdf.sparql_parse", 0.0)
        metrics["serving.canonical_ms"] = mean.get("serving.canonical", 0.0)
        metrics["serving.cache_get_us"] = (
            mean.get("serving.cache_get", 0.0) * 1000.0)
        metrics["serving.serialise_ms"] = mean.get("serving.serialise", 0.0)
        if op_ms:
            metrics["engine.cluster_share"] = (
                sum(durations.get("engine.cluster", ())) / op_ms)
            metrics["engine.search_share"] = (
                sum(durations.get("engine.search", ())) / op_ms)
            own = self_time_by_name(spans)
            metrics["bench.engine_self_share"] = sum(
                seconds for name, seconds in own.items()
                if name.startswith("engine.")) * 1000.0 / op_ms
            metrics["bench.serving_self_share"] = sum(
                seconds for name, seconds in own.items()
                if name.startswith(("serving.", "rdf.sparql"))
            ) * 1000.0 / op_ms
        for name in ("cluster_entries", "search_expansions",
                     "search_generated"):
            metrics[f"engine.{name}"] = self.work.get(name, 0) / ops
        if self.whole_wall:
            metrics["bench.trace_overhead_ratio"] = (
                self.stepped_wall / self.whole_wall)
        metrics["bench.stepped_coverage"] = self.coverage(durations)
        if gc_wall:
            metrics["runtime.gc_ms_share"] = gc_watch.seconds / gc_wall
        metrics["runtime.gc_gen2_collections"] = gc_watch.gen2
        metrics["bench.spin_factor"] = slowdown(*self.spins)

    def coverage(self, durations) -> float:
        """Stepped stages over the whole call, for the op class whose
        whole-call median is the middle one (the p50 class)."""
        if not self.whole_ms:
            return 0.0
        ranked = sorted((statistics.median(values), name)
                        for name, values in self.whole_ms.items())
        whole, name = ranked[len(ranked) // 2]
        stepped = statistics.median(durations[f"bench.op:{name}"])
        return stepped / whole if whole else 0.0


# -- the four replays ----------------------------------------------------


def replay_direct_mix(replay: Replay) -> None:
    workload = replay.workload
    engine = workload.engine = replay.stepped_build()
    texts = [(qid, workload.templates[qid]) for qid in workload.order]
    for _ in range(2):
        for _, text in texts:
            adapter.query(engine, text, workload.k)
    with GcWatch() as gc_watch:
        started = time.perf_counter()
        whole = {}
        for _ in range(BLOCK_SWEEPS):
            for qid, text in texts:
                answers, seconds = timed(adapter.query, engine, text,
                                         workload.k)
                replay.whole_ms.setdefault(qid, []).append(seconds * 1000.0)
                whole[qid] = adapter.ranking(answers)
        replay.whole_wall = gc_wall = time.perf_counter() - started
    replay.tick()
    before = adapter.counters(engine)
    started = time.perf_counter()
    for _ in range(BLOCK_SWEEPS):
        for qid, text in texts:
            with replay.op(qid) as span:
                answers, counts = adapter.stepped_query(engine, text,
                                                        workload.k, span)
            replay.add_work(counts)
            replay.failed += adapter.ranking(answers) != whole[qid]
    replay.stepped_wall = time.perf_counter() - started
    replay.tick()
    replay.engine_counters(engine, before)
    replay.finish(gc_watch, gc_wall)


def _http_block(replay: Replay, sweep, sweeps: int) -> "list[float]":
    """Drive ``sweeps`` sweeps through the server child: the read
    latencies, and the ``/stats`` counters they moved as metrics."""
    metrics = replay.metrics
    stats = replay.workload.clients.connections[0].get_stats
    before = adapter.server_counters(stats())
    latencies = []
    for _ in range(sweeps):
        for _, ms, ok, _ in sweep():
            latencies.append(ms)
            replay.failed += not ok
    after = adapter.server_counters(stats())
    moved = {name: after[name] - before[name] for name in after}
    replay.tick()
    replay.ops += len(latencies)
    lookups = moved["cache_hits"] + moved["cache_misses"]
    metrics["serving.cache_hit_rate"] = moved["cache_hits"] / lookups
    metrics["serving.cache_insertions"] = moved["cache_insertions"]
    metrics["serving.cache_evictions"] = moved["cache_evictions"]
    metrics["serving.shed"] = moved["shed"]
    metrics["serving.singleflight_waiters"] = moved["singleflight_waiters"]
    metrics["serving.aserve.framing_closes"] = moved["framing_closes"]
    return latencies


def replay_served_hot(replay: Replay) -> None:
    workload, metrics = replay.workload, replay.metrics
    engine = replay.stepped_build()
    service = adapter.serving(engine)
    try:
        workload.build_pool()
        ranks = [rank for ranks in workload.ranks_per_connection
                 for rank in ranks]
        wire = {}
        for rank, (_, text) in enumerate(workload.pool):
            answers, _ = adapter.serve_query(service, text, workload.k)
            wire[rank] = adapter.wire_rows(answers, workload.k)
        with GcWatch() as gc_watch:
            started = time.perf_counter()
            for _ in range(BLOCK_SWEEPS):
                for rank in ranks:
                    qid, text = workload.pool[rank]
                    _, seconds = timed(adapter.serve_request, service, text,
                                       workload.k)
                    replay.whole_ms.setdefault(qid, []).append(
                        seconds * 1000.0)
            replay.whole_wall = gc_wall = time.perf_counter() - started
        replay.tick()
        started = time.perf_counter()
        for _ in range(BLOCK_SWEEPS):
            for rank in ranks:
                qid, text = workload.pool[rank]
                with replay.op(qid) as span:
                    body, cached, _ = adapter.stepped_request(
                        service, text, workload.k, span)
                replay.failed += (not cached
                                  or json.loads(body)["answers"] != wire[rank])
        replay.stepped_wall = time.perf_counter() - started
        replay.tick()
        in_process_hit_ms = statistics.median(
            ms for values in replay.whole_ms.values() for ms in values)
        replay.finish(gc_watch, gc_wall)
    finally:
        adapter.close(service)

    # The same traffic over HTTP, for what the front end adds.
    workload.expected = wire
    workload.start_server(replay.tick)
    everything = list(range(len(workload.pool)))
    workload.sweep([everything[0::2], everything[1::2]])
    latencies = _http_block(replay, workload.sweep, 10)
    metrics["query_p99_ms"] = percentile(latencies, 0.99)
    metrics["serving.aserve.http_overhead_ms"] = (
        statistics.median(latencies) - in_process_hit_ms)


def _mode_arms(replay: Replay) -> None:
    """One sweep of the 12 templates through ``SamaEngine.clusters()``
    per mode, on the workload's LUBM 3000 index."""
    workload, metrics = replay.workload, replay.metrics
    texts = list(adapter.templates().values())

    def sweep(engine) -> float:
        for text in texts:                      # warm, untimed
            adapter.stepped_clusters(engine, text)
        return statistics.fmean(adapter.stepped_clusters(engine, text)
                                for text in texts)

    def arm(metric: str, index_dir, **config):
        engine = adapter.open_engine(index_dir, **config)
        try:
            if config.get("worker_mode") == "procs":
                _, metrics["parallel.warm_workers_s"] = timed(
                    adapter.warm_workers, engine)
            before = adapter.counters(engine)
            metrics[metric] = sweep(engine)
            after = adapter.counters(engine)
        finally:
            adapter.close(engine)
        replay.tick()
        return {name: after[name] - before[name] for name in after}

    arm("quotient.auto_cluster_ms", workload.index_dir)
    arm("quotient.off_cluster_ms", workload.index_dir, quotient="off")
    _, metrics["sketch.build_s"] = timed(adapter.build_sketches,
                                         workload.index_dir)
    metrics["sketch.bytes"] = file_bytes(workload.index_dir,
                                         only=("sketch.bin",))
    moved = arm("sketch.safe_cluster_ms", workload.index_dir,
                two_stage="safe")
    if moved["sketch_candidates"]:
        metrics["sketch.pruned_ratio"] = (
            moved["sketch_pruned"] / moved["sketch_candidates"])
    sharded = workload.work_dir / "index-4-shards"
    adapter.sama("index", "reshard", workload.index_dir, "--shards", 4,
                 "--output", sharded)
    arm("parallel.procs_cluster_ms", sharded, worker_mode="procs",
        workers=2)


def replay_served_miss(replay: Replay) -> None:
    workload, metrics = replay.workload, replay.metrics
    engine = replay.stepped_build()
    service = adapter.serving(engine)
    try:
        fresh = workload.fresh_requests()
        for qid in workload.order:               # warm, untimed
            adapter.serve_query(service, *next(fresh[qid]))
        overheads = []
        before = adapter.counters(engine)

        def whole(qid, text, k) -> float:
            _, seconds = timed(adapter.serve_request, service, text, k)
            replay.whole_ms.setdefault(qid, []).append(seconds * 1000.0)
            replay.whole_wall += seconds
            return seconds * 1000.0

        def stepped(qid, text, k) -> float:
            started = time.perf_counter()
            with replay.op(qid) as span:
                body, cached, counts = adapter.stepped_request(
                    service, text, k, span)
            replay.stepped_wall += time.perf_counter() - started
            replay.add_work(counts)
            replay.failed += cached or not json.loads(body)["answers"]
            return replay.last_parts_ms

        with GcWatch() as gc_watch:
            gc_started = time.perf_counter()
            for sweep_no in range(BLOCK_SWEEPS):
                for position, qid in enumerate(workload.order):
                    # The same request both ways, the cache emptied in
                    # between so both are misses.  Which goes first
                    # alternates, so what the first call warms inside
                    # the engine for the second cancels over the block.
                    request = next(fresh[qid])
                    pair = [whole, stepped]
                    if (sweep_no + position) % 2:
                        pair.reverse()
                    took = {}
                    for call in pair:
                        took[call] = call(qid, *request)
                        adapter.clear_cache(service)
                    overheads.append(took[whole] - took[stepped])
            gc_wall = time.perf_counter() - gc_started
        replay.tick()
        replay.engine_counters(engine, before)
        metrics["serving.service.overhead_ms"] = statistics.median(overheads)
        replay.finish(gc_watch, gc_wall)
    finally:
        adapter.close(service)

    _mode_arms(replay)

    workload.fresh = fresh
    workload.sampler = random.Random(f"verify:{workload.seed}")
    workload.sampled = []
    workload.start_server(replay.tick)
    workload.sweep(workload.batches())
    _http_block(replay, lambda: workload.sweep(workload.batches()),
                BLOCK_SWEEPS)


def replay_live_update(replay: Replay) -> None:
    workload, metrics = replay.workload, replay.metrics
    workload.generate(replay.tick)
    graph, metrics["rdf.ntriples_parse_s"] = timed(adapter.load_graph,
                                                   workload.data)
    service, metrics["index.build_s"] = timed(adapter.live_service, graph,
                                              workload.index_dir)
    workload.service = service
    engine = adapter.engine_of(service)
    metrics["index.paths"] = len(adapter.live_path_texts(service))
    metrics["quotient.loaded"] = float(adapter.quotient_loaded(engine))
    schedule = iter(traffic.write_schedule(
        workload.facts()["Department"], 400, workload.seed))
    texts = [(qid, workload.templates[qid]) for qid in workload.order]
    for _, text in texts:
        adapter.serve_query(service, text, workload.k)
    writes: "dict[str, list[float]]" = {"add": [], "remove": []}

    def write(span=None):
        kind, payload = next(schedule)
        started = time.perf_counter()
        if span is None:
            adapter.write_round(service, kind, payload)
        else:
            with span(f"index.{kind}"):
                adapter.write_round(service, kind, payload)
        writes[kind].append((time.perf_counter() - started) * 1000.0)

    cycles = BLOCK_SWEEPS * 2
    cache_before = adapter.cache_counters(service)
    with GcWatch() as gc_watch:
        started = time.perf_counter()
        for _ in range(cycles):
            write()
            for qid, text in texts:
                _, seconds = timed(adapter.serve_request, service, text,
                                   workload.k)
                replay.whole_ms.setdefault(qid, []).append(seconds * 1000.0)
        replay.whole_wall = gc_wall = time.perf_counter() - started
    replay.tick()
    before = adapter.counters(engine)
    started = time.perf_counter()
    for _ in range(cycles):
        with replay.op("write", is_read=False) as span:
            write(span)
        for qid, text in texts:
            with replay.op(qid) as span:
                body, cached, counts = adapter.stepped_request(
                    service, text, workload.k, span)
            replay.add_work(counts)
            replay.failed += cached or not json.loads(body)["answers"]
    replay.stepped_wall = time.perf_counter() - started
    replay.tick()
    replay.engine_counters(engine, before)
    # Write rounds alone, until the sample supports a p90.
    while len(writes["add"]) + len(writes["remove"]) < 100:
        write()
    replay.tick()
    rounds = writes["add"] + writes["remove"]
    metrics["update_p50_ms"] = percentile(rounds, 0.5)
    metrics["update_p90_ms"] = percentile(rounds, 0.9)
    metrics["index.update_add_ms"] = statistics.median(writes["add"])
    metrics["index.update_remove_ms"] = statistics.median(writes["remove"])
    moved = adapter.update_stats(service)
    metrics["index.full_rebuilds"] = moved["full_rebuilds"]
    metrics["index.paths_invalidated"] = moved["paths_invalidated"]
    metrics["index.dead_bytes"] = moved["dead_bytes"]
    metrics["index.bytes"] = file_bytes(workload.index_dir)
    cache_after = adapter.cache_counters(service)
    metrics["serving.cache_stale_dropped"] = (
        cache_after["stale_dropped"] - cache_before["stale_dropped"])
    metrics["serving.cache_insertions"] = (
        cache_after["insertions"] - cache_before["insertions"])
    replay.finish(gc_watch, gc_wall)
    workload.checkpoint()
    replay.failed += workload.checks_failed
    replay.ops += workload.checks_attempted


REPLAYS = {"direct_mix": replay_direct_mix, "served_hot": replay_served_hot,
           "served_miss": replay_served_miss,
           "live_update": replay_live_update}


def run(workload, out_dir: Path) -> dict:
    replay = Replay(workload)
    try:
        REPLAYS[workload.name](replay)
    finally:
        workload.tear_down()
        replay.tracer.write(out_dir / f"trace-{workload.name}.jsonl")
    units = {row[0]: row[1] for row in spec.PER_LAYER}
    print(f"{workload.name}: traced replay, seed {workload.seed}, "
          f"LUBM {workload.triples}, {replay.ops} ops, "
          f"{len(replay.tracer.spans)} spans in "
          f"{out_dir.name}/trace-{workload.name}.jsonl")
    for name, value in replay.metrics.items():
        print(f"  {name:<34} {value:>14.4f} {units[name]}")
    print(f"  failed_ops_ratio {replay.failed}/{replay.ops}")
    return {"correct": replay.failed == 0, "attempted": max(replay.ops, 1),
            "failed": replay.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in replay.metrics.items()}}
