"""Unit tests for the hypergraph, the path index and the builder (§6.1)."""

import json
import os

import pytest

from repro.index.builder import build_index
from repro.index.hypergraph import Hypergraph, hypergraph_of
from repro.index.pathindex import IndexCorruptError, PathIndex
from repro.paths.extraction import ExtractionLimits, extract_paths
from repro.paths.model import path_of
from repro.rdf.graph import DataGraph
from repro.rdf.terms import Literal, URI


class TestHypergraph:
    def test_counts(self):
        h = Hypergraph()
        h.add_vertex(1)
        h.add_hyperedge([1, 2, 3])
        assert h.vertex_count == 3
        assert h.hyperedge_count == 1

    def test_incidence(self):
        h = Hypergraph()
        e1 = h.add_hyperedge([1, 2])
        e2 = h.add_hyperedge([2, 3])
        assert h.incident_edges(2) == {e1, e2}
        assert h.degree(2) == 2
        assert h.degree(99) == 0

    def test_empty_hyperedge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph().add_hyperedge([])

    def test_hyperedge_lookup(self):
        h = Hypergraph()
        edge_id = h.add_hyperedge([5, 6])
        assert h.hyperedge(edge_id) == frozenset({5, 6})

    def test_fig5_mapping(self, govtrack):
        """Every stored path becomes one hyperedge (Fig. 5)."""
        paths = extract_paths(govtrack)
        h = hypergraph_of(govtrack, paths)
        assert h.vertex_count == govtrack.node_count()
        assert h.hyperedge_count == len(paths)

    def test_requires_node_ids(self, govtrack):
        with pytest.raises(ValueError):
            hypergraph_of(govtrack, [path_of("A", "p", "B")])


class TestBuilder:
    def test_stats_match_graph(self, govtrack, index_dir):
        index, stats = build_index(govtrack, index_dir)
        assert stats.triple_count == govtrack.edge_count()
        assert stats.hv_count == govtrack.node_count()
        assert stats.he_count == 14
        assert stats.path_count == 14
        assert stats.source_count == 7
        assert stats.sink_count == 2
        assert not stats.truncated
        assert stats.size_bytes > 0
        assert stats.build_seconds > 0
        index.close()

    def test_step_timings_recorded(self, govtrack, index_dir):
        index, stats = build_index(govtrack, index_dir)
        assert set(stats.step_seconds) == {
            "hash_labels", "find_sources_sinks", "compute_paths"}
        index.close()

    def test_table1_row_shape(self, govtrack, index_dir):
        _index, stats = build_index(govtrack, index_dir)
        row = stats.table1_row()
        assert row[0] == "govtrack"
        assert row[1] == 22

    def test_truncation_reported(self, index_dir):
        g = DataGraph()
        triples = []
        for level in range(4):
            for node in range(2 ** level):
                parent = f"http://x/n{level}_{node}"
                triples.append((parent, "http://x/p",
                                f"http://x/n{level+1}_{node*2}"))
                triples.append((parent, "http://x/p",
                                f"http://x/n{level+1}_{node*2+1}"))
        g.add_triples(triples)
        limits = ExtractionLimits(max_paths=5, on_limit="truncate")
        index, stats = build_index(g, index_dir, limits=limits)
        assert stats.truncated
        assert index.path_count == 5
        index.close()


class TestPathIndex:
    def test_lookup_by_sink(self, tiny_index):
        offsets = tiny_index.offsets_with_sink(Literal("Male"))
        assert offsets == sorted(offsets) and len(offsets) == 4
        assert all(tiny_index.path_at(o).sink == Literal("Male")
                   for o in offsets)

    def test_lookup_by_containment(self, tiny_index):
        label = URI("http://example.org/govtrack/B1432")
        offsets = tiny_index.offsets_containing(label)
        assert len(offsets) == 3  # p1, p9, p10
        assert all(label in tiny_index.path_at(o).nodes for o in offsets)

    def test_containment_covers_edge_labels(self, tiny_index):
        label = URI("http://example.org/govtrack/gender")
        offsets = tiny_index.offsets_containing(label)
        assert len(offsets) == 4
        assert all(label in tiny_index.path_at(o).edges for o in offsets)

    def test_semantic_lookup_via_thesaurus(self, tiny_index):
        # "Man" is a synonym of "Male" in the default lexicon.
        assert tiny_index.offsets_with_sink(Literal("Man")) == \
            tiny_index.offsets_with_sink(Literal("Male"))

    def test_semantic_lookup_disabled(self, tiny_index):
        assert tiny_index.offsets_with_sink(Literal("Man"),
                                            semantic=False) == []

    def test_path_at_caches(self, tiny_index):
        offset = tiny_index.all_offsets()[0]
        assert tiny_index.path_at(offset) is tiny_index.path_at(offset)

    def test_all_paths(self, tiny_index):
        assert len(tiny_index.all_paths()) == tiny_index.path_count == 14

    def test_cold_cache_forces_physical_reads(self, tiny_index):
        tiny_index.warm_up()
        tiny_index.clear_cache()
        before = tiny_index.io_stats.page_reads
        tiny_index.path_at(tiny_index.all_offsets()[0])
        assert tiny_index.io_stats.page_reads > before

    def test_warm_cache_avoids_physical_reads(self, tiny_index):
        tiny_index.clear_cache()
        tiny_index.warm_up()
        before = tiny_index.io_stats.page_reads
        for offset in tiny_index.all_offsets():
            tiny_index.path_at(offset)
        assert tiny_index.io_stats.page_reads == before


class TestPersistence:
    def test_reopen_roundtrip(self, govtrack, index_dir):
        built, _stats = build_index(govtrack, index_dir)
        original = {p.text() for p in built.all_paths()}
        built.close()

        reopened = PathIndex.open(index_dir)
        assert {p.text() for p in reopened.all_paths()} == original
        assert reopened.metadata["dataset"] == "govtrack"
        reopened.close()

    def test_reopened_lookups_work(self, govtrack, index_dir):
        built, _stats = build_index(govtrack, index_dir)
        built.close()
        reopened = PathIndex.open(index_dir)
        offsets = reopened.offsets_with_sink(Literal("Health Care"))
        assert len(offsets) == 10
        assert all(reopened.path_at(o).sink == Literal("Health Care")
                   for o in offsets)
        reopened.close()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(IndexCorruptError):
            PathIndex.open(tmp_path / "nope")

    @pytest.mark.parametrize("retired", [
        {"interned_records": None},  # no marker at all
        {"interned_records": False},
        {"interned_records": False, "compressed": True},
        {"compressed": True},
    ])
    def test_retired_record_format_is_refused(self, govtrack, index_dir,
                                              retired):
        built, _stats = build_index(govtrack, index_dir)
        built.close()
        maps_path = os.path.join(index_dir, "maps.json")
        with open(maps_path, encoding="utf-8") as handle:
            maps = json.load(handle)
        maps.update(retired)
        if maps["interned_records"] is None:
            del maps["interned_records"]
        with open(maps_path, "w", encoding="utf-8") as handle:
            json.dump(maps, handle)
        with pytest.raises(IndexCorruptError, match="sama index build"):
            PathIndex.open(index_dir)

    def test_corrupt_maps_raises(self, govtrack, index_dir):
        built, _stats = build_index(govtrack, index_dir)
        built.close()
        maps_path = os.path.join(index_dir, "maps.json")
        with open(maps_path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        with pytest.raises(IndexCorruptError):
            PathIndex.open(index_dir)

    def test_version_mismatch_raises(self, govtrack, index_dir):
        built, _stats = build_index(govtrack, index_dir)
        built.close()
        maps_path = os.path.join(index_dir, "maps.json")
        with open(maps_path, encoding="utf-8") as handle:
            maps = json.load(handle)
        maps["version"] = 99
        with open(maps_path, "w", encoding="utf-8") as handle:
            json.dump(maps, handle)
        with pytest.raises(IndexCorruptError):
            PathIndex.open(index_dir)

    def test_read_latency_plumbs_through(self, govtrack, index_dir):
        built, _stats = build_index(govtrack, index_dir)
        built.close()
        slow = PathIndex.open(index_dir, read_latency=0.001)
        slow.clear_cache()
        slow.path_at(slow.all_offsets()[0])
        assert slow.io_stats.read_seconds >= 0.001
        slow.close()
