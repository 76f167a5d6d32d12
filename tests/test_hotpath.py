"""Tests for the dense-ID hot path: interned records, the one key space
every index class hands the search, the worker pool, read-ahead, and
the pair-cache fix.

The load-bearing invariant throughout: every hot-path feature is an
*optimisation*, so rankings, scores, bindings, and budget semantics must
be indistinguishable from the plain engine.
"""

import pathlib
import re

import pytest

from repro.datasets import dataset, lubm_queries
from repro.engine import EngineConfig, SamaEngine
from repro.engine.clustering import Cluster, _EntryContext
from repro.engine.search import SearchConfig, _JoinSpace, top_k
from repro.index.builder import build_index
from repro.index.columns import PathColumns
from repro.index.incremental import IncrementalIndex
from repro.index.labels import LabelInterner
from repro.index.pathindex import PathIndex
from repro.index.thesaurus import default_thesaurus
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
    uid pairs (a, b) and (c, d) with ``a - c = 1024`` (gids one apart)
    and ``d - b = 2^30`` (gids 2^20 apart) collided, and the second pair
    read the first pair's cached |χ|.  The stride now follows the
    largest gid."""
    interner = LabelInterner()

    def row(gid, *names):
        path = interner.intern_path(_uri_path(*names))
        return (0.0, gid, path.length, tuple(path.label_ids))

    def cluster(name, *rows):
        return Cluster(_uri_path(name), 1.0, rows, _EntryContext(
            None, None, None, PathColumns(None)))

    clusters = [
        cluster("q", row(1, "x", "y"), row(0, "u", "v")),       # a, c
        cluster("r", row(2, "y", "z"), row(2 ** 20 + 2, "v", "u")),  # b, d
    ]
    entry_a, entry_c = clusters[0].entries
    entry_b, entry_d = clusters[1].entries
    assert (entry_a.uid * 2 ** 20 + entry_b.uid
            == entry_c.uid * 2 ** 20 + entry_d.uid)   # the old collision
    space = _JoinSpace(_StubPrepared(), clusters, PAPER_WEIGHTS)
    assert space._uid_stride == (2 ** 20 + 3) << 10
    # Prime the cache with the small-uid pair, then probe the pair that
    # collided under the old stride.
    assert space.common_nodes(entry_a, entry_b) == 1
    assert space.common_nodes(entry_c, entry_d) == 2
    # Symmetry and cache stability.
    assert space.common_nodes(entry_d, entry_c) == 2
    assert space.common_nodes(entry_b, entry_a) == 1


# -- one key space: built and live indexes --------------------------------------


def _search(engine, query, k):
    prepared = engine.prepare(query)
    return top_k(prepared, engine.clusters(prepared), engine.config.weights,
                 SearchConfig(k=k))


def _assert_live_ranking_identical(engine, graph, directory, query, k):
    """A live index of the fixture's graph interns its own dictionary
    in its own order (node labels only, where the builder interns edge
    labels too), yet the search ranks — and walks — as over the built
    index: χ/ψ depend on ids only through set sizes, and the pool
    tie-break on label spellings.

    The live index reads ``graph`` itself (nothing here writes to it):
    ``graph.copy()`` re-adds edges in set order, so under some hash
    seeds the copy stores its paths in another order, and forced
    emissions follow storage order (ROADMAP item 1) — not this test's
    subject."""
    built = _search(engine, query, k)
    live_engine = SamaEngine(IncrementalIndex(graph, str(directory)),
                             engine.config)
    try:
        live = _search(live_engine, query, k)
    finally:
        live_engine.close()
    assert built.answers
    assert [(a.score, str(a)) for a in built] == \
        [(a.score, str(a)) for a in live]
    # Same trajectory, not just the same answers: even patience-forced
    # emissions (Q2, Q4; Q1's order is fully proven) agree.
    assert (built.expansions, built.forced_emissions) == \
        (live.expansions, live.forced_emissions)
    return built


@pytest.mark.parametrize("qid", ["Q1", "Q2", "Q4"])
def test_term_set_rankings_identical(lubm_engine, lubm_small, tmp_path, qid):
    spec = next(s for s in lubm_queries() if s.qid == qid)
    result = _assert_live_ranking_identical(lubm_engine, lubm_small, tmp_path,
                                            spec.graph, k=10)
    if qid == "Q1":     # the fully proven case must stay one
        assert result.forced_emissions == 0


def test_term_set_rankings_identical_govtrack(govtrack_engine, govtrack,
                                              tmp_path, q1):
    _assert_live_ranking_identical(govtrack_engine, govtrack, tmp_path,
                                   q1, k=8)


def _index_of(kind, graph, directory):
    if kind == "live":
        return IncrementalIndex(graph.copy(), directory)
    if kind == "sharded":
        return build_index(graph, directory, shards=2)[0]
    return build_index(graph, directory)[0]


@pytest.mark.parametrize("kind", ["built", "sharded", "live"])
def test_every_index_class_hands_out_id_sets(kind, govtrack, tmp_path):
    """The contract the engine relies on instead of probing: an index
    has ``interner``, ``epoch`` and ``path_at``, every path carries
    ``label_ids`` and ``edge_ids`` of that interner (one per node, one
    per edge, sliced by ``prefix()``), and no column row is ``None``."""
    index = _index_of(kind, govtrack, str(tmp_path / kind))
    try:
        assert isinstance(index.epoch, int)
        columns = PathColumns(index)
        intern = index.interner.intern
        for gid in index.all_offsets():
            path = index.path_at(gid)
            assert [index.interner.lookup(i) for i in path.label_ids] == \
                list(path.nodes)
            assert list(path.edge_ids) == [intern(e) for e in path.edges]
            for plen in range(1, path.length + 1):
                assert list(path.prefix(plen).edge_ids) == \
                    list(path.edge_ids[:plen - 1])
                _uid, id_set = columns.row(gid, plen)
                assert id_set == frozenset(path.label_ids[:plen])
                assert {columns.name(i) for i in id_set} == \
                    {str(node) for node in path.nodes[:plen]}
    finally:
        index.close()


_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _lines_matching(pattern, files):
    spelling = re.compile(pattern)
    return [f"{path.name}:{number}"
            for path in files
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if spelling.search(line)]


def test_term_set_fork_stays_deleted():
    """The engine has one key space for χ/ψ; these spellings are how a
    second one would come back."""
    assert _lines_matching(
        r'id_set is None|node_label_set\(|getattr\(index, "interner"',
        sorted((_SRC / "engine").glob("*.py"))
        + [_SRC / "index" / "columns.py"]) == []


def test_second_scorer_stays_deleted():
    """Candidates are scored by one id-space scan
    (``columnar.score_rows``); these spellings are how the object-space
    scorer, its alignment hand-off and the workers' refine-key engine
    would come back."""
    files = (sorted((_SRC / "engine").glob("*.py"))
             + [_SRC / "parallel.py"])
    assert _lines_matching(
        r'_score_quotient|_prefix_at_anchor|\bseeds\b', files) == []
    # The one label-space alignment under engine/ is the lazy
    # materialisation of an entry that became an answer.
    assert _lines_matching(r'\balign\(', files) == _lines_matching(
        r'alignment = self\._alignment = align\(',
        [_SRC / "engine" / "clustering.py"])


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
