"""Two-stage retrieval (``repro.sketch``): signatures, store, filter.

The load-bearing claims, in test order:

- minhash signatures are a pure function of (seed, id set) — in this
  process and in a freshly spawned one — and the band/bucket machinery
  agrees with a brute-force Jaccard on the obvious cases;
- **safe mode never changes a ranking**: for random path corpora and
  random queries, the candidates it prunes are provably outside the
  kept cluster, so rescoring the survivors reproduces the exhaustive
  top-``limit`` bit for bit (the hypothesis property at the heart of
  this file);
- the persisted ``sketch.bin`` round-trips exactly, and a stale epoch,
  corrupt bytes, or a missing file all degrade to exhaustive recall
  instead of wrong candidates;
- compaction invalidates persisted sketches; quarantined shards are
  skipped at build and pass through at query time;
- the serving cache key separates retrieval modes;
- the ``sama index sketch`` CLI verb builds real files.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine.sama import EngineConfig, SamaEngine
from repro.index.columnar import encode_query, make_id_matcher
from repro.index.incremental import IncrementalIndex, compact_directory
from repro.index.labels import LabelInterner
from repro.paths.alignment import align, exact_match, prefix_at_anchor
from repro.paths.model import Path
from repro.rdf.graph import DataGraph
from repro.rdf.terms import URI, Variable
from repro.scoring.quality import lambda_cost
from repro.scoring.weights import PAPER_WEIGHTS
from repro.serving.canonical import cache_key
from repro.sketch import (APPROX_MIN_KEEP, SketchIndex, SketchParams,
                          TwoStageFilter, build_sketches, coefficients,
                          estimate_jaccard, invalidate_sketches,
                          load_shard_sketch, load_sketches, signature,
                          sketch_path)
from repro.sketch.store import ShardSketch

PARAMS = SketchParams()


def uri(name):
    return URI(f"http://x/{name}")


# ---------------------------------------------------------------------------
# minhash: seeded determinism, cross-process consistency, estimation


class TestMinhash:
    def test_signature_deterministic_for_seed(self):
        ids = {3, 17, 4242, 9}
        coeffs = coefficients(PARAMS)
        again = coefficients(SketchParams())
        assert signature(ids, coeffs) == signature(ids, again)
        other = coefficients(SketchParams(seed=7))
        assert signature(ids, coeffs) != signature(ids, other)

    def test_identical_sets_estimate_one(self):
        coeffs = coefficients(PARAMS)
        sig = signature({1, 2, 3}, coeffs)
        assert estimate_jaccard(sig, sig) == 1.0

    def test_empty_set_collides_only_with_empty(self):
        coeffs = coefficients(PARAMS)
        empty = signature((), coeffs)
        assert estimate_jaccard(empty, empty) == 1.0
        assert estimate_jaccard(empty, signature({5}, coeffs)) == 0.0

    @given(st.sets(st.integers(min_value=0, max_value=10_000),
                   min_size=1, max_size=30),
           st.sets(st.integers(min_value=0, max_value=10_000),
                   min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_estimator_is_seeded_and_sane(self, set_a, set_b):
        """Same seed ⇒ same estimate on every run; equal sets estimate
        1.0 and the estimate always lands in [0, 1]."""
        coeffs = coefficients(PARAMS)
        sig_a = signature(set_a, coeffs)
        sig_b = signature(set_b, coeffs)
        estimate = estimate_jaccard(sig_a, sig_b)
        assert 0.0 <= estimate <= 1.0
        assert estimate == estimate_jaccard(signature(set_a, coeffs),
                                            signature(set_b, coeffs))
        if set_a == set_b:
            assert estimate == 1.0

    def test_signature_consistent_across_processes(self):
        """A fresh interpreter (spawned, no shared state) computes the
        byte-identical signature for the same seed and id set — the
        property that lets procs-mode workers and the coordinator
        agree on persisted sketches."""
        ids = sorted({12, 99, 406, 777, 13_031})
        coeffs = coefficients(PARAMS)
        local = signature(ids, coeffs)
        script = textwrap.dedent("""
            import json, sys
            from repro.sketch import SketchParams, coefficients, signature
            ids = json.loads(sys.argv[1])
            sig = signature(ids, coefficients(SketchParams()))
            print(json.dumps(list(sig)))
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(ids)],
            capture_output=True, text=True, env=env, check=True)
        assert tuple(json.loads(out.stdout)) == local

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SketchParams(num_perm=10, bands=3)
        with pytest.raises(ValueError):
            SketchParams(bands=0)


# ---------------------------------------------------------------------------
# safe mode: the bit-identity property


class _MemoryIndex:
    """The minimal surface ShardSketch.from_index / TwoStageFilter need."""

    epoch = 0

    def __init__(self, paths):
        self.interner = LabelInterner()
        self._paths = [self.interner.intern_path(path) for path in paths]

    def all_offsets(self):
        return list(range(len(self._paths)))

    def path_at(self, offset):
        return self._paths[offset]


_labels = st.sampled_from("abcdefgh")


@st.composite
def _ground_paths(draw, max_len=5):
    length = draw(st.integers(min_value=1, max_value=max_len))
    nodes = [uri(draw(_labels)) for _ in range(length)]
    edges = [uri("e" + draw(_labels)) for _ in range(length - 1)]
    return Path(nodes, edges)


@st.composite
def _query_paths(draw, max_len=5):
    length = draw(st.integers(min_value=1, max_value=max_len))
    nodes = [Variable(f"v{i}") if draw(st.booleans())
             else uri(draw(_labels)) for i in range(length)]
    edges = [uri("e" + draw(_labels)) for _ in range(length - 1)]
    return Path(nodes, edges)


def _exhaustive(paths, query, trim, anchor):
    """Brute force: trim (optionally), score, sort by the engine's
    deterministic ``(λ, gid)`` key."""
    scored = []
    for gid, path in enumerate(paths):
        candidate = (prefix_at_anchor(path, anchor, exact_match)
                     if trim else path)
        if candidate is None:
            continue
        cost = lambda_cost(align(candidate, query, transcript=False),
                           PAPER_WEIGHTS)
        scored.append((cost, gid))
    scored.sort()
    return scored


def _filter(index, mode, limit, **options):
    """A :class:`TwoStageFilter` over ``index``, called with the query
    path the way ``build_clusters`` calls it with the encoding."""
    sketch = ShardSketch.from_index(index, PARAMS, 0)
    sketches = SketchIndex([sketch], lambda gid: (0, gid))
    ids_match = make_id_matcher(index.interner, exact_match)
    judge = TwoStageFilter(index, sketches, ids_match, PAPER_WEIGHTS,
                           mode, limit, **options)

    def call(query_path, offsets, trim=False, anchor=None):
        return judge(encode_query(query_path, ids_match,
                                  anchor if trim else None), offsets)

    call.judge = judge
    return call


def _safe_filter(index, limit):
    return _filter(index, "safe", limit)


class TestSafeModeProperty:
    @given(st.lists(_ground_paths(), min_size=1, max_size=18),
           _query_paths(),
           st.integers(min_value=1, max_value=4),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_safe_pruning_preserves_topk_bit_identical(
            self, paths, query, limit, trim):
        """The exhaustive top-``limit`` (by the engine's (λ, gid) sort
        key) survives safe-mode filtering untouched: rescoring only
        the survivors yields the identical truncated list."""
        anchor = query.sink if trim and not isinstance(
            query.sink, Variable) else None
        trim = anchor is not None
        index = _MemoryIndex(paths)
        kept = set(_safe_filter(index, limit)(
            query, index.all_offsets(), trim, anchor))
        exhaustive = _exhaustive(paths, query, trim, anchor)
        survivors = [item for item in exhaustive if item[1] in kept]
        assert survivors[:limit] == exhaustive[:limit]

    @given(st.lists(_ground_paths(), min_size=1, max_size=12),
           _query_paths())
    @settings(max_examples=60, deadline=None)
    def test_unlimited_safe_mode_keeps_every_trim_survivor(
            self, paths, query):
        """With no cluster cap there is no truncation, so safe mode may
        drop only candidates the anchor trim would drop anyway."""
        index = _MemoryIndex(paths)
        kept = _safe_filter(index, None)(
            query, index.all_offsets(), False, None)
        assert kept == index.all_offsets()


class TestSafeModeEngine:
    """End-to-end: a real engine over a real index, safe vs exhaustive."""

    QUERY = """
        PREFIX gov: <http://example.org/govtrack/>
        SELECT ?v1 ?v2 ?v3 WHERE {
            gov:CarlaBunes gov:sponsor ?v1 .
            ?v1 gov:aTo ?v2 .
            ?v2 gov:subject "Health Care" .
            ?v3 gov:sponsor ?v2 .
            ?v3 gov:gender "Male" .
        }"""

    @staticmethod
    def _ranking(engine, query, k=6):
        return [(round(answer.score, 9), str(answer))
                for answer in engine.query(query, k=k)]

    @pytest.fixture(scope="class")
    def indexed(self, tmp_path_factory):
        from repro.datasets.govtrack import govtrack_graph

        directory = str(tmp_path_factory.mktemp("sketch") / "idx")
        engine = SamaEngine.from_graph(govtrack_graph(),
                                       directory=directory)
        build_sketches(engine.index)
        engine.close()
        return directory

    @pytest.mark.parametrize("max_cluster_size", [1, 2, 3, 4000])
    def test_rankings_bit_identical(self, indexed, max_cluster_size):
        exhaustive = SamaEngine.open(indexed, config=EngineConfig(
            max_cluster_size=max_cluster_size))
        staged = SamaEngine.open(indexed, config=EngineConfig(
            two_stage="safe", max_cluster_size=max_cluster_size))
        try:
            assert staged.sketch_filter() is not None
            assert (self._ranking(staged, self.QUERY)
                    == self._ranking(exhaustive, self.QUERY))
        finally:
            exhaustive.close()
            staged.close()

    def test_counters_and_span_flow_to_registry(self, indexed):
        from repro.obs import get_registry

        registry = get_registry()
        before = registry.snapshot().get("sama_sketch_candidates_total", 0.0)
        engine = SamaEngine.open(indexed,
                                 config=EngineConfig(two_stage="safe"))
        try:
            engine.query(self.QUERY, k=3)
        finally:
            engine.close()
        snapshot = registry.snapshot()
        assert snapshot.get("sama_sketch_candidates_total", 0.0) > before
        assert "sama_sketch_pruned_total" in snapshot

    def test_invalid_mode_rejected(self, indexed):
        with pytest.raises(ValueError):
            SamaEngine.open(indexed,
                            config=EngineConfig(two_stage="banana"))


class TestSafeModeSharded:
    """Safe mode over a sharded index, including a quarantined shard."""

    def _workload(self):
        triples = []
        for i in range(40):
            triples.append((f"http://x/s{i}", "http://x/likes",
                            f"http://x/m{i % 7}"))
            triples.append((f"http://x/m{i % 7}", "http://x/type",
                            "http://x/Movie"))
        return DataGraph.from_triples(triples)

    QUERY = """
        SELECT ?s WHERE {
            ?s <http://x/likes> ?m .
            ?m <http://x/type> <http://x/Movie> .
        }"""

    @pytest.fixture()
    def sharded_dir(self, tmp_path):
        from repro.index import build_index

        directory = str(tmp_path / "shards")
        index, _ = build_index(self._workload(), directory, shards=2)
        build_sketches(index)
        index.close()
        return directory

    def test_sharded_safe_identical(self, sharded_dir):
        exhaustive = SamaEngine.open(sharded_dir, config=EngineConfig(
            max_cluster_size=5))
        staged = SamaEngine.open(sharded_dir, config=EngineConfig(
            two_stage="safe", max_cluster_size=5))
        try:
            assert staged.sketch_filter() is not None
            want = [(round(a.score, 9), str(a))
                    for a in exhaustive.query(self.QUERY, k=8)]
            got = [(round(a.score, 9), str(a))
                   for a in staged.query(self.QUERY, k=8)]
            assert got == want
        finally:
            exhaustive.close()
            staged.close()

    def test_quarantined_shard_skipped_and_passed_through(self, tmp_path):
        from repro.index import build_index
        from repro.index.sharded import shard_dir

        directory = str(tmp_path / "shards")
        index, _ = build_index(self._workload(), directory, shards=2)
        index.close()
        # Damage shard 1, reopen with quarantine, then sketch: only the
        # healthy shard gets a file and queries still answer (degraded)
        # identically with and without the filter.
        log = os.path.join(shard_dir(directory, 1), "paths.log")
        with open(log, "r+b") as handle:
            handle.write(b"\x00" * 64)
        exhaustive = SamaEngine.open(directory, recover=True)
        build_sketches(exhaustive.index)
        assert not os.path.exists(
            sketch_path(shard_dir(directory, 1)))
        staged = SamaEngine.open(directory, recover=True, config=EngineConfig(
            two_stage="safe"))
        try:
            assert staged.sketch_filter() is not None
            want = [(round(a.score, 9), str(a))
                    for a in exhaustive.query(self.QUERY, k=8)]
            got = [(round(a.score, 9), str(a))
                   for a in staged.query(self.QUERY, k=8)]
            assert got == want
        finally:
            exhaustive.close()
            staged.close()


# ---------------------------------------------------------------------------
# the store: round-trip, stale epoch, corruption, invalidation


class TestStore:
    def _index(self):
        return _MemoryIndex([
            Path([uri("a"), uri("b"), uri("c")],
                 [uri("p"), uri("q")]),
            Path([uri("b"), uri("c")], [uri("q")]),
            Path([uri("z")], []),
        ])

    def test_round_trip(self, tmp_path):
        sketch = ShardSketch.from_index(self._index(), PARAMS, epoch=3)
        target = str(tmp_path / "sketch.bin")
        sketch.save(target)
        loaded = ShardSketch.load(target)
        assert loaded.params == sketch.params
        assert loaded.epoch == 3
        assert loaded.offsets == sketch.offsets
        assert list(loaded.lengths) == list(sketch.lengths)
        assert loaded.node_sets == sketch.node_sets
        assert loaded.edge_sets == sketch.edge_sets
        assert loaded.signatures == sketch.signatures

    def test_stale_epoch_loads_as_none(self, tmp_path):
        sketch = ShardSketch.from_index(self._index(), PARAMS, epoch=3)
        target = str(tmp_path / "sketch.bin")
        sketch.save(target)
        assert load_shard_sketch(str(tmp_path), expected_epoch=3) is not None
        assert load_shard_sketch(str(tmp_path), expected_epoch=4) is None

    def test_corrupt_and_missing_load_as_none(self, tmp_path):
        assert load_shard_sketch(str(tmp_path), expected_epoch=0) is None
        target = str(tmp_path / "sketch.bin")
        with open(target, "wb") as handle:
            handle.write(b"not a sketch at all")
        assert load_shard_sketch(str(tmp_path), expected_epoch=0) is None

    def test_stale_engine_falls_back_to_exhaustive(self, tmp_path):
        """A sketch built against the wrong epoch is ignored wholesale:
        the engine reports no filter and answers exhaustively."""
        from repro.datasets.govtrack import govtrack_graph

        directory = str(tmp_path / "idx")
        engine = SamaEngine.from_graph(govtrack_graph(),
                                       directory=directory)
        stale = ShardSketch.from_index(engine.index, PARAMS, epoch=99)
        stale.save(sketch_path(directory))
        engine.close()
        staged = SamaEngine.open(directory,
                                 config=EngineConfig(two_stage="safe"))
        try:
            assert load_sketches(staged.index) is None
            assert staged.sketch_filter() is None
            assert staged.query(TestSafeModeEngine.QUERY, k=3)
        finally:
            staged.close()

    def test_compaction_invalidates_sketches(self, tmp_path):
        graph = DataGraph.from_triples([
            ("http://x/a", "http://x/p", "http://x/b"),
            ("http://x/b", "http://x/p", "http://x/c"),
        ])
        directory = str(tmp_path / "inc")
        index = IncrementalIndex(graph, directory)
        index.remove_triple("http://x/b", "http://x/p", "http://x/c")
        index.save_manifest()
        index.close()
        with open(sketch_path(directory), "wb") as handle:
            handle.write(b"doomed")
        report = compact_directory(directory)
        assert report.sketches_invalidated == 1
        assert not os.path.exists(sketch_path(directory))

    def test_incremental_update_orphans_quotients(self, tmp_path):
        """An incremental round that merely *adds a member to an
        existing equivalence class* still bumps the epoch, so a
        quotient keyed to the old epoch loads as ``None`` (exhaustive
        fallback) until rebuilt against the new one — same contract as
        the stale-sketch tests above."""
        from repro.quotient import load_shard_quotient, quotient_path
        from repro.quotient.store import ShardQuotient

        graph = DataGraph.from_triples([
            ("http://x/s1", "http://x/memberOf", "http://x/d1"),
            ("http://x/s2", "http://x/memberOf", "http://x/d2"),
        ])
        directory = str(tmp_path / "inc")
        index = IncrementalIndex(graph, directory)

        def snapshot():
            return _MemoryIndex([index.path_at(offset)
                                 for offset in index.all_offsets()])

        before = ShardQuotient.from_index(snapshot(), index.epoch)
        before.save(quotient_path(directory))
        assert load_shard_quotient(directory, index.epoch) is not None

        old_epoch = index.epoch
        index.add_triple("http://x/s3", "http://x/memberOf", "http://x/d3")
        assert index.epoch > old_epoch
        assert load_shard_quotient(directory, index.epoch) is None

        rebuilt = ShardQuotient.from_index(snapshot(), index.epoch)
        rebuilt.save(quotient_path(directory))
        loaded = load_shard_quotient(directory, index.epoch)
        assert loaded is not None
        assert len(loaded) > len(before)
        assert loaded.class_count == before.class_count
        index.close()

    def test_invalidate_sweeps_shard_dirs(self, tmp_path):
        os.makedirs(tmp_path / "shard-00")
        for target in (tmp_path / "sketch.bin",
                       tmp_path / "shard-00" / "sketch.bin"):
            with open(target, "wb") as handle:
                handle.write(b"x")
        assert invalidate_sketches(str(tmp_path)) == 2


# ---------------------------------------------------------------------------
# serving + CLI surface


class TestSurface:
    def test_cache_key_varies_with_mode(self):
        query = "SELECT ?s WHERE { ?s <http://x/p> <http://x/o> . }"
        keys = {cache_key(query, 5, 1, mode)
                for mode in ("off", "safe", "approx")}
        assert len(keys) == 3
        # The default keeps the historical positional call working.
        assert cache_key(query, 5, 1) == cache_key(query, 5, 1, "off")

    def test_cli_index_sketch_builds_files(self, tmp_path, capsys):
        data = tmp_path / "data.nt"
        data.write_text(
            "<http://x/a> <http://x/p> <http://x/b> .\n"
            "<http://x/b> <http://x/p> <http://x/c> .\n")
        directory = str(tmp_path / "idx")
        assert main(["index", "build", str(data), directory]) == 0
        assert main(["index", "sketch", directory]) == 0
        assert os.path.exists(sketch_path(directory))
        out = capsys.readouterr().out
        assert "sketched" in out
        loaded = load_shard_sketch(directory, expected_epoch=0)
        assert loaded is not None and len(loaded) > 0

    def test_cli_query_two_stage(self, tmp_path):
        data = tmp_path / "data.nt"
        data.write_text(
            "<http://x/a> <http://x/p> <http://x/b> .\n"
            "<http://x/b> <http://x/p> <http://x/c> .\n")
        directory = str(tmp_path / "idx")
        assert main(["index", "build", str(data), directory]) == 0
        assert main(["index", "sketch", directory]) == 0
        code = main(["query", directory, "--two-stage", "safe", "-e",
                     "SELECT ?s WHERE { ?s <http://x/p> <http://x/b> . }"])
        assert code == 0


# ---------------------------------------------------------------------------
# approximate mode: sanity (the recall *number* is gated by
# benchmarks/bench_twostage.py; here we pin the deterministic contracts)


class TestApproxMode:
    @given(st.lists(_ground_paths(), min_size=1, max_size=15),
           _query_paths())
    @settings(max_examples=60, deadline=None)
    def test_approx_keeps_are_deterministic_and_bounded(self, paths, query):
        index = _MemoryIndex(paths)
        judge = _filter(index, "approx", 4000, recall_target=0.95)
        offsets = index.all_offsets()
        kept = judge(query, offsets, False, None)
        assert kept == judge(query, offsets, False, None)
        assert set(kept) <= set(offsets)
        assert kept == sorted(kept)

    def test_keep_budget_scales_with_recall_target(self):
        index = _MemoryIndex([Path([uri("a")], [])])
        judge = _filter(index, "approx", None, recall_target=0.95).judge
        assert judge.keep_budget() == 160
        judge.recall_target = 0.99
        assert judge.keep_budget() == 800    # half the miss rate ≈ 2x… x5
        judge.recall_target = 0.5
        assert judge.keep_budget() == APPROX_MIN_KEEP
        judge.recall_target = 1.0
        assert judge.keep_budget() is None   # degenerates to keep-all

    def test_approx_budget_cuts_in_gid_order_within_ties(self):
        """Candidates tied on LB survive in ascending-gid order — the
        exact scorer's own cost tie-break — so the survivors are the
        candidates exhaustive truncation would promote anyway."""
        paths = [Path([uri(f"n{i}")], []) for i in range(80)]
        index = _MemoryIndex(paths)
        judge = _filter(index, "approx", None, recall_target=0.5)
        query = Path([uri("zzz")], [])
        kept = judge(query, index.all_offsets(), False, None)
        assert kept == list(range(APPROX_MIN_KEEP))

    def test_approx_floor_keeps_best_lower_bounds(self):
        """Small corpora are never starved: everything below the floor
        size survives regardless of how alien it looks."""
        paths = [Path([uri(f"n{i}")], []) for i in range(10)]
        index = _MemoryIndex(paths)
        judge = _filter(index, "approx", 4000, recall_target=1.0)
        query = Path([uri("zzz")], [])
        kept = judge(query, index.all_offsets(), False, None)
        assert kept == index.all_offsets()
