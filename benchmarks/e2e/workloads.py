"""The four workloads: set-up, the measured sweep, and verification.

Each workload builds its data through the operator's path (``sama
generate lubm`` then ``sama index build``, or the live index for
``live_update``), yields sweeps of timed steps for ``harness.measure``,
and checks every answer it measured.  The traced replays live in
``traced.py``.
"""

from __future__ import annotations

import itertools
import random
import shutil
import time
from functools import partial
from pathlib import Path

import adapter
import httpload
import spec
import traffic

#: live_update compares the live index with a from-scratch one every
#: this many cycles (and once more after the last).
CHECKPOINT_EVERY = 12
#: served_hot: distinct queries in the cache, requests per sweep.
POOL_SIZE = 32
REQUESTS_PER_SWEEP = 128
#: served_miss verifies a seeded one in this many requests.
VERIFY_ONE_IN = 6
MISS_KS = (10, 11, 12)


def peak_rss_mib(pid="self") -> float:
    """``VmHWM`` of a process, this one by default."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM not reported for process {pid}")


class Workload:
    """What the four workloads share: the corpus and the template mix."""

    name = ""

    def __init__(self, seed: int, work_dir: Path, smoke: bool = False):
        self.seed = seed
        self.triples = (1500 if smoke
                        else spec.WORKLOADS[self.name]["triples"])
        self.k = spec.TOP_K
        self.work_dir = work_dir
        self.data = work_dir / "data.nt"
        self.index_dir = work_dir / "index"
        texts = adapter.templates()
        self.templates = {qid: texts[qid] for qid in spec.TEMPLATE_IDS}
        self.order = list(spec.TEMPLATE_IDS)
        random.Random(f"order:{seed}").shuffle(self.order)
        #: op classes whose first answer disagreed with the reference.
        self.bad_classes: "set[str]" = set()
        self.checks_attempted = 0
        self.checks_failed = 0

    # -- set-up stages -------------------------------------------------

    def generate(self, tick) -> None:
        adapter.sama("generate", "lubm", self.data, "--triples",
                     self.triples, "--seed", spec.DATA_SEED)
        tick()

    def build_index(self, tick) -> None:
        adapter.sama("index", "build", self.data, self.index_dir)
        tick()

    def facts(self) -> dict:
        return traffic.graph_facts(self.data.read_text(encoding="utf-8"))

    def variants(self) -> "dict[str, list[str]]":
        facts = self.facts()
        return {qid: traffic.variants(text, facts, self.seed)
                for qid, text in self.templates.items()}

    # -- hooks ---------------------------------------------------------

    def set_up(self, tick) -> None:
        raise NotImplementedError

    def before_measure(self) -> None:
        """Untimed work between set-up and the measured phase."""

    def sweeps(self):
        raise NotImplementedError

    def peak_rss_mib(self) -> float:
        return peak_rss_mib()

    def verify(self) -> None:
        """Untimed checks after the measured phase (and after the
        process's memory high-water mark has been read)."""

    def tear_down(self) -> None:
        raise NotImplementedError


class DirectMix(Workload):
    name = "direct_mix"
    engine = None

    def set_up(self, tick) -> None:
        self.generate(tick)
        self.build_index(tick)
        self.engine = adapter.open_engine(self.index_dir)
        tick()
        self.first: "dict[str, list]" = {}
        for _ in range(2):
            for qid in self.order:
                adapter.query(self.engine, self.templates[qid], self.k)

    def _read(self, qid: str):
        started = time.perf_counter()
        answers = adapter.query(self.engine, self.templates[qid], self.k)
        ms = (time.perf_counter() - started) * 1000.0
        got = adapter.ranking(answers)
        return [(qid, ms, got == self.first.setdefault(qid, got), True)]

    def sweeps(self):
        while True:
            yield [partial(self._read, qid) for qid in self.order]

    def verify(self) -> None:
        reference = adapter.open_reference(self.index_dir)
        try:
            for qid, first in self.first.items():
                expected = adapter.ranking(adapter.query(
                    reference, self.templates[qid], self.k))
                if first != expected:
                    self.bad_classes.add(qid)
        finally:
            adapter.close(reference)

    def tear_down(self) -> None:
        if self.engine is not None:
            adapter.close(self.engine)


class Served(Workload):
    """Shared by the two workloads that go through ``sama serve``."""

    server = None
    clients = None

    def start_server(self, tick) -> None:
        self.server = adapter.Server(self.index_dir,
                                     self.work_dir / "server.log")
        tick()
        self.clients = httpload.Clients(self.server.host, self.server.port,
                                        spec.WORKLOADS[self.name]["clients"])

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.server.pid)

    def tear_down(self) -> None:
        if self.clients is not None:
            self.clients.close()
        if self.server is not None:
            self.server.stop()


class ServedHot(Served):
    name = "served_hot"

    def build_pool(self) -> None:
        """``POOL_SIZE`` distinct queries.  Popularity rank r is a variant
        of template r mod 5 whatever the seed, so every seed's traffic
        has the same make-up; the seed picks the variants and the order
        of the requests."""
        variants = self.variants()
        self.pool = [(qid, variants[qid][turn])
                     for turn in range(-(-POOL_SIZE // len(self.templates)))
                     for qid in self.templates][:POOL_SIZE]
        ranks = traffic.zipf_ranks(POOL_SIZE, REQUESTS_PER_SWEEP, self.seed)
        self.ranks_per_connection = [ranks[0::2], ranks[1::2]]
        self.expected: "dict[int, list]" = {}

    def set_up(self, tick) -> None:
        self.generate(tick)
        self.build_index(tick)
        self.build_pool()
        self.start_server(tick)
        # Touch every pool entry once: the measured phase is all hits.
        everything = list(range(POOL_SIZE))
        self.sweep([everything[0::2], everything[1::2]])

    def before_measure(self) -> None:
        reference = adapter.open_reference(self.index_dir)
        try:
            for rank, (_, text) in enumerate(self.pool):
                self.expected[rank] = adapter.wire_rows(
                    adapter.query(reference, text, self.k), self.k)
        finally:
            adapter.close(reference)

    def _burst(self, ranks, connection):
        observed = []
        for rank in ranks:
            qid, text = self.pool[rank]
            status, document, ms = connection.post_query(text, self.k)
            expected = self.expected.get(rank)
            # A miss here is a failed op: the workload is defined as hits.
            ok = status == 200 and (expected is None or (
                document["cached"] and document["answers"] == expected))
            observed.append((qid, ms, ok, True))
        return observed

    def sweep(self, per_connection=None):
        return list(itertools.chain.from_iterable(self.clients.run(
            [partial(self._burst, ranks) for ranks
             in per_connection or self.ranks_per_connection])))

    def sweeps(self):
        while True:
            yield [self.sweep]


class ServedMiss(Served):
    name = "served_miss"

    def set_up(self, tick) -> None:
        self.generate(tick)
        self.build_index(tick)
        self.fresh = self.fresh_requests()
        self.sampler = random.Random(f"verify:{self.seed}")
        self.sampled: "list[tuple[str, int, list]]" = []
        self.start_server(tick)
        self.sweep(self.batches())
        self.sampled.clear()

    def fresh_requests(self) -> dict:
        """Per template, an iterator over never-repeating ``(text, k)``
        requests: every constant-variant at k = 10, then again at 11
        and 12 (k is part of the cache key and barely moves the cost),
        so a faster engine does not run out of distinct requests."""
        return {qid: ((text, k) for k, text
                      in itertools.product(MISS_KS, texts))
                for qid, texts in self.variants().items()}

    def batches(self) -> "list[list[tuple]]":
        """Per connection, one never-sent request per template as
        ``(template, text, k, check its answer?)``, the second
        connection starting two templates further on.  Raises
        ``StopIteration`` when a template has no request left."""
        return [[(qid, *next(self.fresh[qid]),
                  self.sampler.randrange(VERIFY_ONE_IN) == 0)
                 for qid in self.order[rotation:] + self.order[:rotation]]
                for rotation in (0, 2)]

    def _burst(self, requests, connection):
        observed, sampled = [], []
        for qid, text, k, check in requests:
            status, document, ms = connection.post_query(text, k)
            # A hit here is a failed op: the workload is defined as misses.
            ok = (status == 200 and document.get("complete") is True
                  and not document["cached"])
            if ok and check:
                sampled.append((text, k, document["answers"]))
            observed.append((qid, ms, ok, True))
        return observed, sampled

    def sweep(self, batches):
        observed = []
        for samples, sampled in self.clients.run(
                [partial(self._burst, batch) for batch in batches]):
            observed += samples
            self.sampled += sampled
        return observed

    def sweeps(self):
        while True:
            try:
                batches = self.batches()
            except StopIteration:
                return          # a template ran out of distinct requests
            yield [partial(self.sweep, batches)]

    def verify(self) -> None:
        reference = adapter.open_reference(self.index_dir)
        try:
            for text, k, rows in self.sampled:
                self.checks_attempted += 1
                expected = adapter.wire_rows(
                    adapter.query(reference, text, k), k)
                self.checks_failed += rows != expected
        finally:
            adapter.close(reference)


class LiveUpdate(Workload):
    name = "live_update"
    service = None

    def set_up(self, tick) -> None:
        self.generate(tick)
        graph = adapter.load_graph(self.data)
        tick()
        self.service = adapter.live_service(graph, self.index_dir)
        tick()
        self.schedule = iter(traffic.write_schedule(
            self.facts()["Department"], 4000, self.seed))
        # The first removal renumbers the parsed graph's nodes and so
        # rebuilds the whole index; later ones are incremental.  One
        # group of write rounds here keeps that one-off out of the
        # measured phase.
        for _ in range(4):
            self._write()
        for qid in self.order:
            adapter.serve_query(self.service, self.templates[qid], self.k)

    def _write(self):
        kind, payload = next(self.schedule)
        started = time.perf_counter()
        adapter.write_round(self.service, kind, payload)
        ms = (time.perf_counter() - started) * 1000.0
        return [(kind, ms, True, False)]

    def _read(self, qid: str):
        started = time.perf_counter()
        _, cached = adapter.serve_query(self.service, self.templates[qid],
                                        self.k)
        ms = (time.perf_counter() - started) * 1000.0
        # The epoch moved since the last read of this template, so a hit
        # here would be a stale answer.
        return [(qid, ms, not cached, True)]

    def checkpoint(self) -> None:
        """The live index against a from-scratch one, and the served
        answers against the live engine's own, at the current epoch."""
        scratch = self.work_dir / "rebuilt"
        try:
            self.checks_attempted += 1
            self.checks_failed += (
                adapter.live_path_texts(self.service)
                != adapter.rebuilt_path_texts(self.service, scratch))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        for qid in self.order:
            text = self.templates[qid]
            answers, _ = adapter.serve_query(self.service, text, self.k)
            self.checks_attempted += 1
            self.checks_failed += (
                adapter.ranking(answers)
                != adapter.uncached_ranking(self.service, text, self.k))

    def sweeps(self):
        for cycle in itertools.count(1):
            steps = [self._write]
            steps += [partial(self._read, qid) for qid in self.order]
            if cycle % CHECKPOINT_EVERY == 0:
                steps.append(self.checkpoint)
            yield steps

    def verify(self) -> None:
        self.checkpoint()

    def tear_down(self) -> None:
        if self.service is not None:
            adapter.close(self.service)


WORKLOADS = {cls.name: cls
             for cls in (DirectMix, ServedHot, ServedMiss, LiveUpdate)}
