"""Process-pool execution mode: spawn safety, the id-space scan, faults.

``TestColumnarScoring`` is the oracle of the production scorer: the one
λ scan (``repro.index.columnar.score_rows``) against the label-space
reference (``align`` + ``prefix_at_anchor``), over both of its row
sources.  The execution-mode contract under test: ``worker_mode="procs"``
moves each shard's λ scoring into a long-lived worker process scanning a
columnar view of its shard, and **nothing observable changes except wall-clock**
— rankings are bit-identical to in-process scoring at every shard
count, fault plans keep their exact chaos semantics, a killed worker
degrades the query (``SHARD_FAILED`` + breaker accounting) instead of
hanging it, and closing the engines leaves no process behind.
Alongside ride pickle round-trips for everything that crosses the
process boundary and ``worker_mode`` validation.
"""

from __future__ import annotations

import os
import pickle
import random
from array import array
import signal
import time

import pytest

from repro.engine import EngineConfig, SamaEngine
from repro.engine.clustering import _path_ids
from repro.index import build_index, build_sharded_index
from repro.index.columnar import (ColumnarView, encode_query, make_id_matcher,
                                  score_rows)
from repro.index.labels import SemanticMatcher
from repro.index.thesaurus import default_thesaurus
from repro.parallel import ShardTask, worker_mode
from repro.paths.alignment import align, exact_match, prefix_at_anchor
from repro.paths.model import Path
from repro.rdf.terms import BlankNode, Literal, URI, Variable
from repro.resilience import FaultPlan, install
from repro.resilience.budget import DegradationCause
from repro.resilience.health import OPEN
from repro.scoring.quality import lambda_cost
from repro.scoring.weights import PAPER_WEIGHTS

SHARDS = 3


def ranking(result) -> list:
    return [(round(answer.score, 9), str(answer)) for answer in result]


def shard_failed_reasons(result):
    return [reason for reason in result.reasons
            if reason.cause is DegradationCause.SHARD_FAILED]


def wait_for(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def open_engine(directory, **overrides) -> SamaEngine:
    return SamaEngine.open(directory, config=EngineConfig(**overrides))


# -- pickle round-trips (everything that crosses the spawn boundary) -----------


class TestSpawnEnvelope:

    TERMS = [
        URI("http://example.org/gov/CarlaBunes"),
        BlankNode("b7"),
        Variable("?v1"),
        Literal("Health Care"),
        Literal("Gesundheit", language="de"),
        Literal("5", datatype=URI("http://www.w3.org/2001/XMLSchema#int")),
    ]

    @pytest.mark.parametrize("term", TERMS, ids=lambda t: type(t).__name__
                             + "-" + t.value[:12])
    def test_term_roundtrip(self, term):
        clone = pickle.loads(pickle.dumps(term))
        assert clone == term
        assert type(clone) is type(term)

    def test_path_roundtrip(self):
        path = Path.from_terms(
            (URI("http://x/a"), Variable("v"), Literal("leaf")),
            (URI("http://x/p"), URI("http://x/q")),
            (3, 1, 4))
        clone = pickle.loads(pickle.dumps(path))
        assert clone == path
        assert clone.node_ids == path.node_ids
        # Interner-specific id caches are deliberately not shipped.
        assert clone.label_ids is None

    def test_task_envelope_roundtrip(self):
        task = ShardTask(
            task_id=17,
            gids=array("q", [5, 9]),
            offsets=array("q", [120, 384]),
            query_path=Path.from_terms(
                (Variable("v"), URI("http://x/sink")),
                (URI("http://x/edge"),), None),
            anchor=URI("http://x/anchor"),
            weights=PAPER_WEIGHTS,
            remaining_ms=87.5)
        clone = pickle.loads(pickle.dumps(task))
        assert clone.task_id == task.task_id
        assert list(clone.pairs) == [(5, 120), (9, 384)]
        assert clone.query_path == task.query_path
        assert clone.anchor == task.anchor
        assert clone.weights == task.weights
        assert clone.remaining_ms == task.remaining_ms

    def test_thesaurus_roundtrip(self):
        thesaurus = default_thesaurus()
        clone = pickle.loads(pickle.dumps(thesaurus))
        assert clone.synonyms("male") == thesaurus.synonyms("male")


# -- columnar scoring: bit-equality against align() ----------------------------


@pytest.fixture(scope="module")
def flat_index(tmp_path_factory, govtrack):
    directory = str(tmp_path_factory.mktemp("columnar-index"))
    index, _stats = build_index(govtrack, directory,
                                thesaurus=default_thesaurus())
    yield index
    index.close()


@pytest.fixture(scope="module")
def row_sources(flat_index):
    """Both row sources of the one scan: a procs worker's columnar view
    and the coordinator's decoded paths."""
    return {"view": ColumnarView.build(flat_index).ids_at,
            "decoded": _path_ids(flat_index)}


def reference_rows(index, offsets, query_path, matcher, anchor=None):
    """The label-space reference: trim, align, weighted λ."""
    rows = []
    for offset in offsets:
        path = index.path_at(offset)
        if anchor is not None:
            path = prefix_at_anchor(path, anchor, matcher)
            if path is None:
                continue
        alignment = align(path, query_path, matcher, transcript=False)
        rows.append((lambda_cost(alignment, PAPER_WEIGHTS), offset,
                     path.length, list(path.label_ids)))
    return rows


def scanned_rows(ids_of, offsets, query, **options):
    rows, tripped = score_rows(offsets, ids_of, query, PAPER_WEIGHTS,
                               **options)
    return [(score, offset, plen, list(node_ids))
            for score, offset, plen, node_ids in rows], tripped


def query_variants(index, offsets, seed: int = 7, count: int = 24):
    """Deterministic query paths derived from stored ones: variables
    substituted (including a repeated variable, to exercise binding
    conflicts), prefixes shortened, paths crossed with one another."""
    rng = random.Random(seed)
    stored = [index.path_at(offset) for offset in offsets]
    variants = []
    for _ in range(count):
        base = rng.choice(stored)
        nodes = list(base.nodes)
        edges = list(base.edges)
        shared = Variable("x")      # may bind twice -> conflict path
        for position in range(len(nodes)):
            roll = rng.random()
            if roll < 0.25:
                nodes[position] = shared
            elif roll < 0.4:
                nodes[position] = Variable(f"n{position}")
            elif roll < 0.5:
                donor = rng.choice(stored)
                nodes[position] = donor.nodes[rng.randrange(donor.length)]
        for position in range(len(edges)):
            roll = rng.random()
            if roll < 0.2:
                edges[position] = shared
            elif roll < 0.3:
                donor = rng.choice(stored)
                if donor.edges:
                    edges[position] = donor.edges[
                        rng.randrange(len(donor.edges))]
        if len(nodes) > 2 and rng.random() < 0.3:
            cut = rng.randrange(2, len(nodes))
            nodes, edges = nodes[:cut], edges[:cut - 1]
        variants.append(Path.from_terms(tuple(nodes), tuple(edges), None))
    return variants


class TestColumnarScoring:

    @pytest.mark.parametrize("level", ["exact", "semantic"])
    def test_scores_bit_equal_to_align(self, flat_index, row_sources, level):
        matcher = (exact_match if level == "exact"
                   else SemanticMatcher(default_thesaurus(), level=level))
        ids_match = make_id_matcher(flat_index.interner, matcher)
        offsets = flat_index.all_offsets()
        for query_path in query_variants(flat_index, offsets):
            expected = reference_rows(flat_index, offsets, query_path,
                                      matcher)
            query = encode_query(query_path, ids_match)
            for source, ids_of in row_sources.items():
                got, tripped = scanned_rows(ids_of, offsets, query)
                assert not tripped
                assert got == expected, f"{source} diverged on {query_path}"

    def test_trimmed_scores_bit_equal(self, flat_index, row_sources):
        matcher = SemanticMatcher(default_thesaurus(), level="semantic")
        ids_match = make_id_matcher(flat_index.interner, matcher)
        offsets = flat_index.all_offsets()
        # Anchors drawn from mid-path data nodes: some candidates trim,
        # some drop entirely — both outcomes must agree with
        # prefix_at_anchor.
        anchors = []
        for offset in offsets:
            path = flat_index.path_at(offset)
            if path.length >= 3:
                anchors.append(path.nodes[path.length - 2])
            if len(anchors) == 5:
                break
        assert anchors, "need at least one mid-path anchor"
        trimmed_any = False
        for anchor in anchors:
            for query_path in query_variants(flat_index, offsets, seed=11,
                                             count=6):
                expected = reference_rows(flat_index, offsets, query_path,
                                          matcher, anchor=anchor)
                query = encode_query(query_path, ids_match, anchor)
                for source, ids_of in row_sources.items():
                    got, _tripped = scanned_rows(ids_of, offsets, query)
                    assert got == expected, source
                if len(expected) != len(offsets):
                    trimmed_any = True
        assert trimmed_any, "anchors never dropped a candidate"

    def test_deadline_trips_mid_scan(self, flat_index, row_sources):
        ids_match = make_id_matcher(flat_index.interner, exact_match)
        # Repeat candidates past the check stride so the deadline check
        # is consulted — and kept rows are the ones before it.
        offsets = flat_index.all_offsets() * 40
        assert len(offsets) > 64
        query = encode_query(flat_index.path_at(offsets[0]), ids_match)
        for ids_of in row_sources.values():
            got, tripped = scanned_rows(ids_of, offsets, query,
                                        expired=lambda: True)
            assert tripped
            assert len(got) == 64


# -- worker_mode validation ----------------------------------------------------


class TestWorkerMode:

    def test_invalid_explicit_raises(self):
        with pytest.raises(ValueError, match="worker_mode"):
            worker_mode("fibers")

    def test_threads_names_its_removal(self, procs_dir):
        with pytest.raises(ValueError, match="'threads' was removed"):
            worker_mode("threads")
        with pytest.raises(ValueError, match="'threads' was removed"):
            open_engine(procs_dir, worker_mode="threads")

    def test_serve_workers_threads_names_its_removal(self, procs_dir):
        from repro.cli import main
        with pytest.raises(SystemExit, match="'threads' was removed"):
            main(["serve", procs_dir, "--workers", "threads"])


# -- procs mode end to end: equivalence, kills, fault plans -------------------


@pytest.fixture(scope="module")
def procs_dir(tmp_path_factory, govtrack):
    directory = str(tmp_path_factory.mktemp("procs-index"))
    index, _report = build_sharded_index(govtrack, directory, SHARDS,
                                         thesaurus=default_thesaurus())
    index.close()
    return directory


class TestProcsMode:

    def test_rankings_identical_across_modes(self, procs_dir, q1):
        with open_engine(procs_dir) as engine:
            in_process = ranking(engine.query(q1, k=10))
        with open_engine(procs_dir, worker_mode="procs") as engine:
            procs = ranking(engine.query(q1, k=10))
            # Same engine again: workers are reused, not respawned.
            pool = engine.shard_pool()
            again = ranking(engine.query(q1, k=10))
            assert pool.restarts == 0
        assert in_process == procs == again

    def test_sigkilled_worker_degrades_then_heals(self, procs_dir, q1):
        with open_engine(procs_dir, worker_mode="procs") as engine:
            baseline = ranking(engine.query(q1, k=10))
            pool = engine.shard_pool()
            pids = pool.worker_pids()
            assert pids, "no shard workers were spawned"
            victim = sorted(pids)[0]
            os.kill(pids[victim], signal.SIGKILL)
            assert wait_for(
                lambda: pool.worker_pids().get(victim) != pids[victim])
            # The next query degrades — never hangs — naming the shard.
            degraded = engine.query(q1, k=10)
            failed = shard_failed_reasons(degraded)
            assert failed, "SIGKILLed worker did not surface as SHARD_FAILED"
            assert str(victim) in failed[0].detail
            assert pool.restarts >= 1
            # The respawned worker serves the query after that, and the
            # healed ranking is bit-identical to the baseline.
            healed = engine.query(q1, k=10)
            assert not shard_failed_reasons(healed)
            assert ranking(healed) == baseline

    def test_repeated_kills_trip_the_breaker(self, procs_dir, q1):
        with open_engine(procs_dir, worker_mode="procs") as engine:
            engine.query(q1, k=10)
            pool = engine.shard_pool()
            health = engine.index.health
            victim = sorted(pool.worker_pids())[0]
            threshold = health.config.failure_threshold
            for _ in range(threshold):
                assert wait_for(lambda: victim in pool.worker_pids())
                pid = pool.worker_pids()[victim]
                os.kill(pid, signal.SIGKILL)
                assert wait_for(
                    lambda: pool.worker_pids().get(victim) != pid)
                result = engine.query(q1, k=10)
                assert shard_failed_reasons(result)
            assert health.state(victim) == OPEN
            assert pool.restarts >= threshold

    def test_fault_plan_semantics_match_threads_mode(self, procs_dir, q1):
        plan = FaultPlan(fail_shards=(1,), seed=7)
        with open_engine(procs_dir) as engine:
            install(engine, plan)
            expected = engine.query(q1, k=10)
        with open_engine(procs_dir, worker_mode="procs") as engine:
            install(engine, plan)
            got = engine.query(q1, k=10)
            assert shard_failed_reasons(got)
        assert ranking(got) == ranking(expected)

    def test_close_stops_every_worker(self, procs_dir, q1):
        engine = open_engine(procs_dir, worker_mode="procs")
        engine.query(q1, k=10)
        pids = engine.shard_pool().worker_pids()
        assert pids
        engine.close()

        def all_gone():
            for pid in pids.values():
                try:
                    os.kill(pid, 0)
                    return False
                except ProcessLookupError:
                    continue
            return True

        assert wait_for(all_gone)

    def test_interleaved_engines_leave_no_process(self, procs_dir, q1):
        """Two procs engines closed in interleaved order, then a third:
        its answers are bit-identical, and once it is closed nothing the
        pools started — workers or the resource tracker their spawns
        started — is left running."""
        with open_engine(procs_dir) as engine:
            want = ranking(engine.query(q1, k=10))
        first = open_engine(procs_dir, worker_mode="procs")
        first.query(q1, k=10)
        second = open_engine(procs_dir, worker_mode="procs")
        second.query(q1, k=10)
        first.close()
        assert second.shard_pool().worker_pids()
        second.close()
        with open_engine(procs_dir, worker_mode="procs") as third:
            assert ranking(third.query(q1, k=10)) == want
            assert third.shard_pool().worker_pids()
        assert wait_for(lambda: not live_children()), live_children()


def live_children() -> "dict[int, str]":
    """``pid -> command line`` of this process's running children."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, parent = handle.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(
                    errors="replace")
        except (OSError, ValueError, IndexError):
            continue            # gone while we looked
        if int(parent) == os.getpid() and state != "Z":
            found[int(entry)] = command
    return found
