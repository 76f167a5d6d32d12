"""Tests for the dense-ID hot path: interned records, the id-set /
Term-set equivalence of the search, the worker pool, read-ahead, and
the pair-cache fix.

The load-bearing invariant throughout: every hot-path feature is an
*optimisation*, so rankings, scores, bindings, and budget semantics must
be indistinguishable from the plain engine.
"""

import copy

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets import dataset, lubm_queries
from repro.engine import EngineConfig, SamaEngine
from repro.engine.clustering import Cluster, ClusterEntry
from repro.engine.search import SearchConfig, _JoinSpace, top_k
from repro.index.builder import build_index
from repro.index.labels import LabelInterner
from repro.index.pathindex import PathIndex
from repro.index.thesaurus import default_thesaurus
from repro.parallel import shared_executor, worker_count
from repro.paths.alignment import align
from repro.paths.model import Path
from repro.resilience.errors import IndexCorruptError
from repro.rdf.terms import Literal, URI
from repro.scoring.weights import PAPER_WEIGHTS
from repro.storage.serializer import CodecError


def _uri_path(*names, node_ids=None):
    nodes = [URI(f"http://x/{name}") for name in names]
    edges = [URI(f"http://x/e{i}") for i in range(len(names) - 1)]
    return Path(nodes, edges, node_ids=node_ids)


# -- label interner ----------------------------------------------------------


class TestLabelInterner:
    def test_dense_first_use_ids(self):
        interner = LabelInterner()
        a, b = URI("http://x/a"), URI("http://x/b")
        assert interner.intern(a) == 0
        assert interner.intern(b) == 1
        assert interner.intern(a) == 0
        assert interner.lookup(1) is b
        assert len(interner) == 2

    def test_intern_path_attaches_ids(self):
        interner = LabelInterner()
        path = _uri_path("a", "b", "a")
        interner.intern_path(path)
        assert list(path.label_ids) == [0, 1, 0]
        assert path.node_label_id_set() == frozenset({0, 1})

    def test_save_load_preserves_ids(self, tmp_path):
        interner = LabelInterner()
        terms = [URI("http://x/a"), Literal("two words"),
                 Literal("fr", language="fr"),
                 Literal("7", datatype=URI("http://x/int"))]
        ids = [interner.intern(term) for term in terms]
        target = tmp_path / "labels.dict"
        interner.save(target)
        reloaded = LabelInterner.load(target)
        assert len(reloaded) == len(interner)
        assert [reloaded.intern(term) for term in terms] == ids

    def test_load_rejects_bad_magic(self, tmp_path):
        target = tmp_path / "bogus.dict"
        target.write_bytes(b"NOPE....")
        with pytest.raises(CodecError):
            LabelInterner.load(target)

    def test_record_roundtrip(self):
        interner = LabelInterner()
        path = _uri_path("a", "b", "c", node_ids=(4, 9, 300))
        blob = interner.encode_path(path)
        decoded = interner.decode_path(blob)
        assert decoded == path
        assert decoded.node_ids == (4, 9, 300)
        assert list(decoded.label_ids) == [interner.intern(n)
                                           for n in path.nodes]
        # Decoded labels are the interner's shared Term objects.
        for node, label_id in zip(decoded.nodes, decoded.label_ids):
            assert node is interner.lookup(label_id)

    def test_record_roundtrip_without_node_ids(self):
        interner = LabelInterner()
        path = _uri_path("x", "y")
        decoded = interner.decode_path(interner.encode_path(path))
        assert decoded == path
        assert decoded.node_ids is None

    def test_decode_rejects_unknown_id(self):
        interner = LabelInterner()
        blob = interner.encode_path(_uri_path("a", "b"))
        fresh = LabelInterner()  # empty dictionary: ids out of range
        with pytest.raises(CodecError):
            fresh.decode_path(blob)


class TestInternedIndex:
    def test_reopened_index_decodes_identically(self, govtrack, tmp_path):
        directory = str(tmp_path / "interned")
        built, _stats = build_index(govtrack, directory)
        original = sorted(p.text() for p in built.all_paths())
        with_ids = [p.label_ids is not None for p in built.all_paths()]
        assert all(with_ids)
        built.close()
        reopened = PathIndex.open(directory)
        assert sorted(p.text() for p in reopened.all_paths()) == original
        assert all(p.label_ids is not None for p in reopened.all_paths())
        reopened.close()

    def test_interned_matches_inline_format(self, govtrack, tmp_path):
        interned, _ = build_index(govtrack, str(tmp_path / "i"))
        inline, _ = build_index(govtrack, str(tmp_path / "p"),
                                intern_records=False)
        assert sorted(p.text() for p in interned.all_paths()) == \
            sorted(p.text() for p in inline.all_paths())
        interned.close()
        inline.close()

    def test_missing_label_dictionary_is_corruption(self, govtrack, tmp_path):
        directory = str(tmp_path / "broken")
        built, _stats = build_index(govtrack, directory)
        built.close()
        (tmp_path / "broken" / "labels.dict").unlink()
        with pytest.raises(IndexCorruptError):
            PathIndex.open(directory)


# -- pair-cache key regression ----------------------------------------------


class _StubIG:
    def edges(self):
        return []

    def neighbors(self, index):
        return []

    def has_edge(self, i, j):
        return False


class _StubPrepared:
    ig = _StubIG()


def test_pair_cache_keys_do_not_collide_past_2_20():
    """Regression: the ψ pair cache used a fixed 2^20 packing stride, so
    uid pairs (1, 2) and (0, 2^20 + 2) collided and the second pair
    read the first pair's cached |χ|."""
    def entry(uid, *names):
        path = _uri_path(*names)
        return ClusterEntry(None, uid, path.length, 0.0, (uid, None),
                            path, align(path, path))

    entry_a = entry(1, "x", "y")                  # |χ| with entry_b: 1
    entry_b = entry(2, "y", "z")
    entry_c = entry(0, "u", "v", "w")             # |χ| with entry_d: 2
    entry_d = entry(2 ** 20 + 2, "u", "v", "q")
    clusters = [
        Cluster(query_path=_uri_path("q"), entries=[entry_a, entry_c],
                missing_penalty=1.0),
        Cluster(query_path=_uri_path("r"), entries=[entry_b, entry_d],
                missing_penalty=1.0),
    ]
    space = _JoinSpace(_StubPrepared(), clusters, PAPER_WEIGHTS)
    assert space._uid_stride == 2 ** 20 + 3
    # Prime the cache with the small-uid pair, then probe the pair that
    # collided under the old stride.
    assert space.common_nodes(entry_a, entry_b) == 1
    assert space.common_nodes(entry_c, entry_d) == 2
    # Symmetry and cache stability.
    assert space.common_nodes(entry_d, entry_c) == 2
    assert space.common_nodes(entry_b, entry_a) == 1


# -- id-set space vs Term-set space -------------------------------------------


def _without_id_sets(clusters):
    """The same clusters as an index without interned ids (the live
    ``IncrementalIndex``) hands them to the search: no id sets, so
    χ/ψ, buckets and the tie-break all run on Term sets."""
    stripped = []
    for cluster in clusters:
        entries = [copy.copy(entry) for entry in cluster.entries]
        for entry in entries:
            entry.id_set = None
        stripped.append(Cluster(cluster.query_path, entries,
                                cluster.missing_penalty))
    return stripped


def _assert_term_set_ranking_identical(engine, query, k):
    prepared = engine.prepare(query)
    clusters = engine.clusters(prepared)
    assert all(entry.id_set is not None
               for cluster in clusters for entry in cluster.entries)
    config = SearchConfig(k=k)
    by_ids = top_k(prepared, clusters, engine.config.weights, config)
    by_terms = top_k(prepared, _without_id_sets(clusters),
                     engine.config.weights, config)
    assert by_ids.answers
    assert [(a.score, str(a)) for a in by_ids] == \
        [(a.score, str(a)) for a in by_terms]
    # Same trajectory, not just the same answers: the rarest-label
    # tie-break is lexical in both spaces, so even patience-forced
    # emissions (Q2, Q4; Q1's order is fully proven) agree.
    assert (by_ids.expansions, by_ids.forced_emissions) == \
        (by_terms.expansions, by_terms.forced_emissions)
    return by_ids


@pytest.mark.parametrize("qid", ["Q1", "Q2", "Q4"])
def test_term_set_rankings_identical(lubm_engine, qid):
    spec = next(s for s in lubm_queries() if s.qid == qid)
    result = _assert_term_set_ranking_identical(lubm_engine, spec.graph, k=10)
    if qid == "Q1":     # the fully proven case must stay one
        assert result.forced_emissions == 0


def test_term_set_rankings_identical_govtrack(govtrack_engine, q1):
    _assert_term_set_ranking_identical(govtrack_engine, q1, k=8)


# -- engine worker pool ------------------------------------------------------


class TestParallelClustering:
    def test_engine_workers_config_end_to_end(self, lubm_small, tmp_path):
        engine = SamaEngine.from_graph(
            lubm_small, directory=str(tmp_path / "workers"),
            config=EngineConfig(workers=2))
        try:
            spec = next(s for s in lubm_queries() if s.qid == "Q1")
            answers = engine.query(spec.graph, k=5)
            assert list(answers)
        finally:
            engine.close()


# -- worker pool plumbing ----------------------------------------------------


class TestWorkerPool:
    def test_worker_count_env_override(self, monkeypatch):
        monkeypatch.setenv("SAMA_WORKERS", "3")
        assert worker_count() == 3

    def test_single_worker_means_no_pool(self, monkeypatch):
        monkeypatch.setenv("SAMA_WORKERS", "1")
        assert shared_executor() is None

    def test_explicit_workers_beat_env(self, monkeypatch):
        monkeypatch.setenv("SAMA_WORKERS", "1")
        pool = shared_executor(2)
        assert pool is not None

    def test_small_extraction_skips_pool(self, monkeypatch, govtrack):
        import repro.paths.extraction as extraction

        calls = []
        monkeypatch.setattr(extraction, "shared_executor",
                            lambda *a, **k: calls.append(1) or None)
        assert len(govtrack.path_roots()) < extraction.PARALLEL_MIN_ROOTS
        serial = [p.text() for p in extraction.extract_paths(govtrack)]
        small = [p.text() for p in
                 extraction.extract_paths(govtrack, parallel=True)]
        assert small == serial
        assert calls == []  # below the threshold the pool is never asked

    def test_parallel_extraction_matches_serial(self, monkeypatch):
        import repro.paths.extraction as extraction

        graph = dataset("lubm").build(900, seed=5)
        assert len(graph.path_roots()) >= extraction.PARALLEL_MIN_ROOTS
        serial = [p.text() for p in extraction.extract_paths(graph)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            monkeypatch.setattr(extraction, "shared_executor",
                                lambda *a, **k: pool)
            parallel = [p.text() for p in
                        extraction.extract_paths(graph, parallel=True)]
        assert parallel == serial


# -- buffer pool read-ahead --------------------------------------------------


@pytest.fixture(scope="module")
def scan_index_dir(tmp_path_factory):
    """An on-disk index big enough to span many pages."""
    graph = dataset("lubm").build(2000, seed=11)
    directory = tmp_path_factory.mktemp("readahead") / "idx"
    index, _stats = build_index(graph, str(directory))
    index.close()
    return str(directory)


class TestReadAhead:
    def _scan_stats(self, directory, read_ahead):
        index = PathIndex.open(directory, read_ahead=read_ahead)
        index.clear_cache()
        for offset in index.all_offsets():
            index.path_at(offset)
        stats = index.cache_stats
        index.close()
        return stats

    def test_sequential_scan_prefetches(self, scan_index_dir):
        stats = self._scan_stats(scan_index_dir, read_ahead=4)
        assert stats.prefetches > 0

    def test_read_ahead_cuts_demand_misses(self, scan_index_dir):
        without = self._scan_stats(scan_index_dir, read_ahead=0)
        with_ra = self._scan_stats(scan_index_dir, read_ahead=8)
        assert with_ra.misses < without.misses

    def test_read_ahead_preserves_content(self, scan_index_dir):
        plain = PathIndex.open(scan_index_dir, read_ahead=0)
        ahead = PathIndex.open(scan_index_dir, read_ahead=8)
        assert [p.text() for p in plain.all_paths()] == \
            [p.text() for p in ahead.all_paths()]
        plain.close()
        ahead.close()
