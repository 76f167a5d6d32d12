"""The only file of the benchmark that imports ``repro`` or spawns ``sama``.

``SURFACE`` lists exactly what the benchmark uses of the program under
test: Python names, CLI command lines, HTTP endpoints.  ``check()``
resolves every one of them before anything is measured and reports the
missing names, so a change that deletes a layer learns what it must
keep (or what to update here) in a second, not after three minutes of
benchmark.  Everything else in this directory talks to the program
through the functions below and never touches a ``repro`` object's
attributes itself.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: module -> dotted names used from it.
SURFACE = {
    "repro.cli": ["build_parser", "main"],
    "repro.datasets": ["lubm_queries"],
    "repro.engine": [
        "EngineConfig", "SamaEngine.open", "SamaEngine.query",
        "SamaEngine.prepare", "SamaEngine.clusters",
        "SamaEngine.quotient_resolver", "SamaEngine.warm_workers",
        "SamaEngine.close"],
    "repro.engine.search": ["top_k"],
    "repro.index.builder": ["build_index"],
    "repro.index.incremental": [
        "IncrementalIndex.add_triples", "IncrementalIndex.remove_triple",
        "IncrementalIndex.all_paths", "IncrementalIndex.close"],
    "repro.obs": ["get_registry"],
    "repro.quotient": ["build_quotients"],
    "repro.rdf.graph": ["DataGraph.from_triples", "DataGraph.copy"],
    "repro.rdf.ntriples": ["parse_file"],
    "repro.rdf.sparql": ["parse_select"],
    "repro.resilience.budget": ["Budget", "PartialResult"],
    "repro.serving": [
        "CachedResult", "ServingConfig", "ServingEngine.fingerprint",
        "ServingEngine.query", "ServingEngine.close", "ResultCache.get",
        "ResultCache.put", "ResultCache.clear", "ResultCache.stats_snapshot",
        "answers_payload", "canonical_form"],
    "repro.sketch": ["build_sketches"],
}
#: ``sama`` command lines, as the benchmark types them.
CLI_SURFACE = [
    ["generate", "lubm", "DATA", "--triples", "3000", "--seed", "1"],
    ["index", "build", "DATA", "DIR"],
    ["index", "sketch", "DIR"],
    ["index", "reshard", "DIR", "--shards", "4", "--output", "DIR2"],
    ["serve", "DIR", "--port", "0", "--frontend", "asyncio",
     "--workers", "2", "--cache-mb", "64"],
]
#: Endpoints of ``sama serve`` (``server_counters`` below names the
#: ``/stats`` fields read).
HTTP_SURFACE = ["POST /query", "GET /stats"]
#: Registry series read by name, under the names ``counters`` gives them.
REGISTRY_SURFACE = {
    "quotient_reps": "sama_quotient_reps_total",
    "quotient_members": "sama_quotient_members_total",
    "sketch_candidates": "sama_sketch_candidates_total",
    "sketch_pruned": "sama_sketch_pruned_total",
}


class MissingSurface(RuntimeError):
    """Part of the program the benchmark drives is not there."""


def check() -> None:
    """Resolve every name in the surface; raise naming what is missing."""
    if not (SRC / "repro").is_dir():
        raise MissingSurface(f"no program to measure: {SRC}/repro not found")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    missing = []
    for module_name, names in SURFACE.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            missing.append(f"{module_name} ({exc})")
            continue
        for dotted in names:
            target = module
            try:
                for part in dotted.split("."):
                    target = getattr(target, part)
            except AttributeError:
                missing.append(f"{module_name}.{dotted}")
    if not missing:
        parser = importlib.import_module("repro.cli").build_parser()
        for line in CLI_SURFACE:
            try:
                with open(os.devnull, "w") as sink:
                    stderr, sys.stderr = sys.stderr, sink
                    try:
                        parser.parse_args(line)
                    finally:
                        sys.stderr = stderr
            except SystemExit:
                missing.append("sama " + " ".join(line))
    if missing:
        raise MissingSurface("missing from the program under test: "
                             + "; ".join(missing))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


# -- the operator's path: CLI children ---------------------------------


def sama(*args) -> str:
    """Run one ``sama`` command to completion; its standard output."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *map(str, args)], env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"sama {' '.join(map(str, args))} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return done.stdout


class Server:
    """A ``sama serve`` child process on an OS-chosen port."""

    def __init__(self, index_dir, log_path):
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             str(index_dir), "--port", "0", "--frontend", "asyncio",
             "--workers", "2", "--cache-mb", "64"],
            env=_env(), stdout=subprocess.PIPE, stderr=self._log, text=True)
        try:
            banner = self.process.stdout.readline()
            if " on http://" not in banner:
                raise RuntimeError(f"sama serve did not start: {banner!r} "
                                   f"(see {log_path})")
            address = banner.split(" on http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGTERM, then kill; always waits until the child has ended."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        self._log.close()


def server_counters(stats: dict) -> dict:
    """The fields of a ``GET /stats`` document the benchmark reads."""
    obs = stats.get("obs", {})
    return {
        "shed": stats["shed"],
        "cache_hits": stats["cache"]["hits"],
        "cache_misses": stats["cache"]["misses"],
        "cache_evictions": stats["cache"]["evictions"],
        "cache_insertions": obs.get(
            "sama_result_cache_insertions_total", 0),
        "singleflight_waiters": obs.get(
            "sama_singleflight_waiters_total", 0),
        "framing_closes": stats["connections"]["framing_close"],
    }


# -- the analyst's path: the engine in this process --------------------


def templates() -> "dict[str, str]":
    """The LUBM query templates, id -> SPARQL text."""
    from repro.datasets import lubm_queries
    return {spec.qid: spec.sparql for spec in lubm_queries()}


def canonical(text: str) -> str:
    from repro.rdf.sparql import parse_select
    from repro.serving import canonical_form
    return canonical_form(parse_select(text).graph())


def open_engine(index_dir, **config):
    """``SamaEngine.open`` with one query worker unless told otherwise."""
    from repro.engine import EngineConfig, SamaEngine
    config.setdefault("workers", 1)
    return SamaEngine.open(str(index_dir), EngineConfig(**config))


def open_reference(index_dir):
    """The engine every measured answer is checked against: no quotient
    classes, no sketches, one worker."""
    return open_engine(index_dir, quotient="off", two_stage="off")


def query(engine, text: str, k: int):
    return engine.query(text, k=k)


def ranking(answers) -> list:
    """What two answer lists must agree on to count as the same."""
    return [(round(answer.score, 9), str(answer)) for answer in answers]


def wire_rows(answers, k: int) -> list:
    """The ``answers`` array ``POST /query`` would send for ``answers``."""
    from repro.serving import answers_payload
    return json.loads(json.dumps(answers_payload(answers, k, 0)["answers"]))


def load_graph(ntriples_path):
    from repro.rdf import ntriples
    from repro.rdf.graph import DataGraph
    return DataGraph.from_triples(ntriples.parse_file(str(ntriples_path)),
                                  name="lubm")


def build_index(graph, index_dir):
    """``(index, path count)`` of a fresh single-shard index."""
    from repro.index.builder import build_index as build
    index, stats = build(graph, str(index_dir))
    return index, stats.path_count


def build_quotients(index) -> None:
    from repro.quotient import build_quotients as build
    build(index)


def build_sketches(index_dir) -> None:
    from repro.sketch import build_sketches as build
    engine = open_engine(index_dir)
    try:
        build(engine.index)
    finally:
        engine.close()


def serving(engine, workers: int = 2, cache_mb: int = 64):
    from repro.serving import ServingConfig, ServingEngine
    return ServingEngine(engine, ServingConfig(
        workers=workers, cache_bytes=cache_mb << 20))


def serve_query(service, text: str, k: int):
    """``(answers, cached)`` through ``ServingEngine.query``."""
    served = service.query(text, k)
    return served.answers, served.cached


def serve_request(service, text: str, k: int) -> "tuple[str, bool]":
    """``(response body, cached)``: what the HTTP front end does with one
    request, without the HTTP — ``ServingEngine.query``, then the JSON."""
    served = service.query(text, k)
    payload = dict(served.payload)
    payload["cached"] = served.cached
    payload["latency_ms"] = round(served.latency_ms, 3)
    return json.dumps(payload), served.cached


def live_service(graph, index_dir):
    """``ServingEngine(SamaEngine(IncrementalIndex(graph, dir)))``."""
    from repro.engine import EngineConfig, SamaEngine
    from repro.index.incremental import IncrementalIndex
    index = IncrementalIndex(graph, str(index_dir))
    return serving(SamaEngine(index, EngineConfig(workers=1)))


def write_round(service, kind: str, payload) -> None:
    index = service.engine.index
    if kind == "add":
        index.add_triples(payload)
    elif not index.remove_triple(*payload):
        raise RuntimeError(f"remove_triple found nothing to remove: {payload}")


def live_path_texts(service) -> "list[str]":
    return sorted(str(path) for path in service.engine.index.all_paths())


def rebuilt_path_texts(service, index_dir) -> "list[str]":
    """The paths a from-scratch index of the live graph holds."""
    from repro.index.incremental import IncrementalIndex
    fresh = IncrementalIndex(service.engine.index.graph.copy(),
                             str(index_dir))
    try:
        return sorted(str(path) for path in fresh.all_paths())
    finally:
        fresh.close()


def uncached_ranking(service, text: str, k: int) -> list:
    """The live engine's own answer, bypassing the result cache."""
    return ranking(service.engine.query(text, k=k))


def update_stats(service) -> dict:
    stats = service.engine.index.stats
    return {"full_rebuilds": stats.full_rebuilds,
            "paths_invalidated": stats.paths_invalidated,
            "dead_bytes": stats.dead_bytes}


def quotient_loaded(engine) -> bool:
    return engine.quotient_resolver() is not None


def engine_of(service):
    return service.engine


def warm_workers(engine) -> None:
    engine.warm_workers()


def close(thing) -> None:
    thing.close()


# -- stepping the layers from outside, for the traced run ---------------


def stepped_query(engine, query_or_graph, k: int, span):
    """``SamaEngine.query`` taken apart into its three public stages.

    ``span(name)`` is a context manager factory.  Returns the answers
    and the work counts of the stages.
    """
    from repro.engine.search import top_k
    from repro.resilience.budget import Budget, PartialResult
    budget = Budget()
    with span("engine.prepare"):
        prepared = engine.prepare(query_or_graph, budget=budget)
    with span("engine.cluster"):
        clusters = engine.clusters(prepared, budget=budget)
    with span("engine.search"):
        result = top_k(prepared, clusters, weights=engine.config.weights,
                       config=replace(engine.config.search, k=k),
                       budget=budget)
    counts = {"cluster_entries": sum(len(cluster) for cluster in clusters),
              "search_expansions": result.expansions,
              "search_generated": result.generated}
    return PartialResult(result.answers, reasons=budget.reasons), counts


def stepped_request(service, text: str, k: int, span):
    """One served request taken apart: parse, canonicalise, cache, then
    on a miss the engine stages, serialise and insert.

    Returns ``(response body, cached, work counts)``.
    """
    from repro.rdf.sparql import parse_select
    from repro.serving import CachedResult, answers_payload
    with span("rdf.sparql_parse"):
        select = parse_select(text)
    with span("serving.canonical"):
        fingerprint = service.fingerprint(select, k)
    with span("serving.cache_get"):
        entry = service.cache.get(fingerprint.key)
    counts: dict = {}
    if entry is None:
        answers, counts = stepped_query(service.engine, fingerprint.graph,
                                        k, span)
        with span("serving.serialise"):
            payload = answers_payload(answers, k, fingerprint.epoch)
            raw = json.dumps(payload)
        with span("serving.cache_put"):
            service.cache.put(CachedResult(
                answers=answers, payload=payload, size_bytes=len(raw),
                epoch=fingerprint.epoch_key, key=fingerprint.key))
    else:
        with span("serving.serialise"):
            payload = dict(entry.payload)
            payload["cached"] = True
            raw = json.dumps(payload)
    return raw, entry is not None, counts


def stepped_clusters(engine, text: str) -> float:
    """Milliseconds of ``SamaEngine.clusters`` for one query."""
    prepared = engine.prepare(text)
    started = time.perf_counter()
    engine.clusters(prepared)
    return (time.perf_counter() - started) * 1000.0


def counters(engine) -> dict:
    """Work counters the program keeps, read where the program keeps them."""
    from repro.obs import get_registry
    series = get_registry().snapshot()
    index = engine.index
    return {
        **{name: series.get(series_name, 0)
           for name, series_name in REGISTRY_SURFACE.items()},
        "page_reads": index.io_stats.page_reads,
        "pool_hits": index.cache_stats.hits,
        "pool_misses": index.cache_stats.misses,
        "record_decodes": getattr(index, "decode_count", 0),
    }


def clear_cache(service) -> None:
    service.cache.clear()


def cache_counters(service) -> dict:
    stats = service.cache.stats_snapshot()
    return {"hits": stats.hits, "misses": stats.misses,
            "insertions": stats.insertions, "evictions": stats.evictions,
            "stale_dropped": stats.stale_dropped}
