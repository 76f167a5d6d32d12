"""Tests for incremental index maintenance (§7 extension).

The correctness criterion throughout: after any sequence of triple
insertions and removals, the incremental index's live paths equal those
of an index rebuilt from scratch over the final graph.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dataset
from repro.engine import SamaEngine
from repro.index.columns import PathColumns
from repro.index.incremental import IncrementalIndex
from repro.paths.extraction import ExtractionLimits, extract_paths
from repro.rdf import ntriples
from repro.rdf.graph import DataGraph
from repro.rdf.terms import Literal


def uri(name):
    return f"http://x/{name}"


def live_texts(index) -> list[str]:
    return sorted(p.text() for p in index.all_paths())


def rebuilt_texts(graph) -> list[str]:
    limits = ExtractionLimits(max_length=32, max_paths=200_000,
                              on_limit="truncate")
    return sorted(p.text() for p in extract_paths(graph, limits=limits))


class TestSingleUpdates:
    @pytest.fixture
    def chain(self, tmp_path):
        graph = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("b"), uri("p"), uri("c")),
        ])
        return IncrementalIndex(graph, str(tmp_path / "inc"))

    def test_initial_state_matches_extraction(self, chain):
        assert live_texts(chain) == rebuilt_texts(chain.graph)

    def test_extend_at_sink(self, chain):
        chain.add_triple(uri("c"), uri("q"), uri("d"))
        assert live_texts(chain) == rebuilt_texts(chain.graph)
        assert any(text.endswith("d") for text in live_texts(chain))

    def test_new_source_prepended(self, chain):
        chain.add_triple(uri("z"), uri("q"), uri("a"))
        # a is no longer a source; z is.
        assert live_texts(chain) == rebuilt_texts(chain.graph)
        assert all(text.startswith("z") for text in live_texts(chain))

    def test_branch_mid_chain(self, chain):
        chain.add_triple(uri("b"), uri("r"), uri("x")),
        assert live_texts(chain) == rebuilt_texts(chain.graph)
        assert len(chain.all_paths()) == 2

    def test_duplicate_triple_is_noop(self, chain):
        before = live_texts(chain)
        stats_before = chain.stats.paths_invalidated
        chain.add_triple(uri("a"), uri("p"), uri("b"))
        assert live_texts(chain) == before
        assert chain.stats.paths_invalidated == stats_before

    def test_disconnected_component(self, chain):
        chain.add_triple(uri("m"), uri("p"), uri("n"))
        assert live_texts(chain) == rebuilt_texts(chain.graph)

    def test_literal_objects(self, chain):
        chain.add_triple(uri("c"), uri("gender"), Literal("Male"))
        assert live_texts(chain) == rebuilt_texts(chain.graph)

    def test_stats_accumulate(self, chain):
        chain.add_triple(uri("c"), uri("q"), uri("d"))
        chain.add_triple(uri("d"), uri("q"), uri("e"))
        assert chain.stats.triples_added == 2
        assert chain.stats.paths_invalidated >= 2
        assert chain.stats.dead_bytes > 0
        assert chain.stats.live_efficiency == 1.0


    def test_epoch_counts_effective_rounds(self, chain, tmp_path):
        """One scalar epoch: +1 per effective update round and per
        compaction; a duplicate insert or a missing removal is no
        round."""
        assert chain.epoch == 0
        chain.add_triple(uri("c"), uri("q"), uri("d"))
        chain.add_triple(uri("a"), uri("p"), uri("b"))        # duplicate
        assert chain.epoch == 1
        assert not chain.remove_triple(uri("x"), uri("p"), uri("y"))
        assert chain.remove_triple(uri("c"), uri("q"), uri("d"))
        assert chain.epoch == 2
        compacted = chain.compact(str(tmp_path / "vacuumed"))
        assert compacted.epoch == 3
        assert compacted.metadata["epoch"] == 3

class TestCycleFallback:
    def test_cycle_creation_triggers_rebuild(self, tmp_path):
        graph = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
        ])
        index = IncrementalIndex(graph, str(tmp_path / "inc"))
        index.add_triple(uri("b"), uri("p"), uri("a"))  # graph now sourceless
        assert index.stats.full_rebuilds == 1
        assert live_texts(index) == rebuilt_texts(index.graph)

    def test_recovery_from_hub_mode(self, tmp_path):
        graph = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("b"), uri("p"), uri("a")),
        ])
        index = IncrementalIndex(graph, str(tmp_path / "inc"))
        assert index._hub_mode
        # A new source-ful component; updates keep correctness either way.
        index.add_triple(uri("x"), uri("p"), uri("y"))
        assert live_texts(index) == rebuilt_texts(index.graph)


class TestLookupSurface:
    def test_sink_lookup_respects_tombstones(self, tmp_path):
        graph = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
        ])
        index = IncrementalIndex(graph, str(tmp_path / "inc"))
        from repro.rdf.terms import URI
        assert len(index.offsets_with_sink(URI(uri("b")))) == 1
        index.add_triple(uri("b"), uri("p"), uri("c"))
        # The a-...-b path is gone; b is not a sink anymore.
        assert index.offsets_with_sink(URI(uri("b"))) == []
        assert len(index.offsets_with_sink(URI(uri("c")))) == 1

    def test_dead_exact_tier_falls_through_like_a_fresh_build(self,
                                                              tmp_path):
        """Tombstoned paths stay in the label maps; a tier that only
        they match must not hide the next tier's live matches."""
        from repro.rdf.terms import URI
        graph = DataGraph.from_triples([
            (uri("a"), uri("healthCare"), uri("b")),
            (uri("c"), uri("healthCarePolicy"), uri("d")),
        ])
        index = IncrementalIndex(graph, str(tmp_path / "inc"))
        assert index.remove_triple(uri("a"), uri("healthCare"), uri("b"))
        fresh = IncrementalIndex(graph.copy(), str(tmp_path / "fresh"))
        try:
            label = URI(uri("healthCare"))
            for lookup in ("offsets_with_sink", "offsets_containing"):
                assert ([index.path_at(o).text()
                         for o in getattr(index, lookup)(label)]
                        == [fresh.path_at(o).text()
                            for o in getattr(fresh, lookup)(label)])
            assert [index.path_at(o).text()
                    for o in index.offsets_containing(label)] == \
                ["c-healthCarePolicy-d"]
        finally:
            index.close()
            fresh.close()

    def test_engine_runs_on_incremental_index(self, tmp_path, govtrack,
                                              q1):
        index = IncrementalIndex(govtrack.copy(), str(tmp_path / "inc"))
        engine = SamaEngine(index)
        first = engine.query(q1, k=1)[0]
        assert first.score == 2.0  # the GovTrack regression value
        # Live update: a new male sponsor of B1432 adds answers.
        index.add_triples([
            (uri("NewPerson"), "http://example.org/govtrack/sponsor",
             "http://example.org/govtrack/B1432"),
            (uri("NewPerson"), "http://example.org/govtrack/gender",
             Literal("Male")),
        ])
        answers = engine.query(q1, k=10)
        bound = {a.substitution().get(v).value
                 for a in answers
                 for v in a.substitution() if v.value == "v3"}
        assert any("NewPerson" in value for value in bound)

    def test_compact_preserves_content(self, tmp_path):
        graph = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("b"), uri("p"), uri("c")),
        ])
        index = IncrementalIndex(graph, str(tmp_path / "inc"))
        index.add_triple(uri("c"), uri("p"), uri("d"))
        index.add_triple(uri("x"), uri("p"), uri("a"))
        compacted = index.compact(str(tmp_path / "vacuumed"))
        assert live_texts(compacted) == live_texts(index)
        assert compacted.stats.dead_bytes == 0


class TestRandomisedEquivalence:
    """The strongest check: random insertion orders equal rebuilds."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_dag_insertions(self, seed, tmp_path):
        rng = random.Random(seed)
        nodes = [uri(f"n{i}") for i in range(10)]
        # Random DAG edges (src index < dst index keeps it acyclic, so
        # the incremental fast path stays active).
        candidates = [(nodes[i], uri(f"e{rng.randint(0, 2)}"), nodes[j])
                      for i in range(len(nodes))
                      for j in range(i + 1, len(nodes))]
        rng.shuffle(candidates)
        chosen = candidates[:18]
        start, rest = chosen[:4], chosen[4:]
        index = IncrementalIndex(DataGraph.from_triples(start),
                                 str(tmp_path / f"inc{seed}"))
        for triple in rest:
            index.add_triple(*triple)
            assert live_texts(index) == rebuilt_texts(index.graph)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_insertions_with_cycles(self, seed, tmp_path):
        rng = random.Random(seed)
        nodes = [uri(f"n{i}") for i in range(6)]
        index = IncrementalIndex(
            DataGraph.from_triples([(nodes[0], uri("e"), nodes[1])]),
            str(tmp_path / f"cyc{seed}"))
        for _ in range(12):
            src = rng.choice(nodes)
            dst = rng.choice(nodes)
            if src == dst:
                continue
            index.add_triple(src, uri("e"), dst)
            assert live_texts(index) == rebuilt_texts(index.graph)


class TestRemoveTriple:
    @pytest.fixture
    def indexed(self, tmp_path):
        graph = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("b"), uri("p"), uri("c")),
            (uri("b"), uri("q"), uri("d")),
        ])
        return IncrementalIndex(graph, str(tmp_path / "del"))

    def test_remove_mid_edge(self, indexed):
        assert indexed.remove_triple(uri("b"), uri("q"), uri("d"))
        assert live_texts(indexed) == rebuilt_texts(indexed.graph)
        # No surviving path traverses the removed edge (the isolated
        # node d itself legitimately remains as a single-node path).
        assert all("b-q-d" not in text for text in live_texts(indexed))

    def test_remove_missing_triple_noop(self, indexed):
        before = live_texts(indexed)
        assert not indexed.remove_triple(uri("x"), uri("p"), uri("y"))
        assert live_texts(indexed) == before

    def test_remove_then_rebuild_equivalence(self, indexed):
        indexed.remove_triple(uri("a"), uri("p"), uri("b"))
        assert live_texts(indexed) == rebuilt_texts(indexed.graph)

    def test_add_then_remove_roundtrip(self, indexed):
        before = live_texts(indexed)
        indexed.add_triple(uri("c"), uri("r"), uri("e"))
        assert live_texts(indexed) != before
        assert indexed.remove_triple(uri("c"), uri("r"), uri("e"))
        assert live_texts(indexed) == rebuilt_texts(indexed.graph)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_random_mixed_updates(self, seed, tmp_path):
        rng = random.Random(seed)
        nodes = [uri(f"n{i}") for i in range(8)]
        start = [(nodes[0], uri("e"), nodes[1]),
                 (nodes[1], uri("e"), nodes[2])]
        index = IncrementalIndex(DataGraph.from_triples(start),
                                 str(tmp_path / f"mix{seed}"))
        present = set(start)
        for _ in range(14):
            if present and rng.random() < 0.35:
                victim = rng.choice(sorted(present))
                index.remove_triple(*victim)
                present.discard(victim)
            else:
                i, j = rng.randrange(8), rng.randrange(8)
                if i == j:
                    continue
                triple = (nodes[i], uri("e"), nodes[j])
                index.add_triple(*triple)
                present.add(triple)
            assert live_texts(index) == rebuilt_texts(index.graph)

    def test_remove_on_parsed_graph_stays_incremental(self, tmp_path):
        """A graph parsed from N-Triples numbers its nodes in file
        order; removal edits it in place, so no node is renumbered and
        nothing forces a full rebuild."""
        text = ntriples.serialize(dataset("lubm").build(600, seed=3).triples())
        graph = DataGraph.from_triples(ntriples.parse(text), name="lubm")
        index = IncrementalIndex(graph, str(tmp_path / "parsed"))
        src, label, dst = next(
            edge for edge in graph.edges()
            if graph.in_degree(edge.src) and graph.out_degree(edge.dst))
        through = sum(1 for path in index.all_paths()
                      if (src, dst) in zip(path.node_ids, path.node_ids[1:]))
        assert through                      # the edge is mid-path
        assert index.remove_triple(graph.label_of(src), label,
                                   graph.label_of(dst))
        assert index.stats.full_rebuilds == 0
        assert 0 < index.stats.paths_invalidated < index.path_count
        scratch = IncrementalIndex(index.graph.copy(),
                                   str(tmp_path / "scratch"))
        assert live_texts(index) == live_texts(scratch)
        assert live_texts(index) == rebuilt_texts(index.graph)


class TestInternedLabels:
    """The live index is an interned index like any other: every path it
    hands out carries ``label_ids`` and ``edge_ids`` of
    ``index.interner`` — the rows the λ scan reads."""

    @staticmethod
    def assert_interned(index):
        lookup, intern = index.interner.lookup, index.interner.intern
        paths = index.all_paths()
        assert paths
        for path in paths:
            assert path.label_ids is not None
            assert [lookup(i) for i in path.label_ids] == list(path.nodes)
            assert list(path.edge_ids) == [intern(e) for e in path.edges]
            clipped = path.prefix(max(1, path.length - 1))
            assert list(clipped.edge_ids) == \
                list(path.edge_ids[:clipped.length - 1])

    def test_every_path_carries_label_ids(self, tmp_path):
        graph = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("b"), uri("p"), uri("c")),
        ])
        index = IncrementalIndex(graph, str(tmp_path / "inc"))
        self.assert_interned(index)
        index.add_triples([(uri("c"), uri("q"), uri("d")),
                           (uri("z"), uri("q"), Literal("new label"))])
        self.assert_interned(index)
        assert index.remove_triple(uri("b"), uri("p"), uri("c"))
        self.assert_interned(index)
        index.clear_cache()                 # paths re-decode from the log
        self.assert_interned(index)
        compacted = index.compact(str(tmp_path / "vacuumed"))
        assert compacted.interner is index.interner
        self.assert_interned(compacted)
        compacted.clear_cache()
        self.assert_interned(compacted)

    def test_compact_keeps_names_and_ranking(self, tmp_path, govtrack, q1):
        index = IncrementalIndex(govtrack.copy(), str(tmp_path / "inc"))
        index.add_triples([
            (uri("NewPerson"), "http://example.org/govtrack/sponsor",
             "http://example.org/govtrack/B1432"),
            (uri("NewPerson"), "http://example.org/govtrack/gender",
             Literal("Male")),
        ])

        def ranking(engine):
            return [(a.score, str(a)) for a in engine.query(q1, k=10)]

        before = ranking(SamaEngine(index))
        compacted = index.compact(str(tmp_path / "vacuumed"))
        columns = PathColumns(compacted)
        for path in compacted.all_paths():
            for label_id, node in zip(path.label_ids, path.nodes):
                assert columns.name(label_id) == str(node)
        assert before and ranking(SamaEngine(compacted)) == before
