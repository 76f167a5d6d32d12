"""Unit tests for path extraction (§3.2, §5)."""

import pytest

from repro.paths.extraction import (ExtractionLimits, PathExplosionError,
                                    extract_paths, iter_paths, query_paths)
from repro.rdf.graph import DataGraph, QueryGraph


def uri(name):
    return f"http://x/{name}"


class TestGovTrackDecomposition:
    """The paper's worked decomposition (Fig. 3's path universe)."""

    def test_fourteen_paths(self, govtrack):
        assert len(extract_paths(govtrack)) == 14

    def test_paths_start_at_sources_end_at_sinks(self, govtrack):
        source_labels = {govtrack.label_of(n) for n in govtrack.sources()}
        sink_labels = {govtrack.label_of(n) for n in govtrack.sinks()}
        for path in extract_paths(govtrack):
            assert path.source in source_labels
            assert path.sink in sink_labels

    def test_known_paths_present(self, govtrack):
        texts = {p.text() for p in extract_paths(govtrack)}
        assert "CarlaBunes-sponsor-A0056-aTo-B1432-subject-Health Care" in texts
        assert "PierceDickes-gender-Male" in texts
        assert "PierceDickes-sponsor-B1432-subject-Health Care" in texts

    def test_query_decomposition(self, q1):
        texts = {p.text() for p in query_paths(q1)}
        assert texts == {
            "CarlaBunes-sponsor-?v1-aTo-?v2-subject-Health Care",
            "?v3-sponsor-?v2-subject-Health Care",
            "?v3-gender-Male",
        }


class TestCyclesAndHubs:
    def test_cycle_terminates(self):
        g = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("b"), uri("p"), uri("c")),
            (uri("c"), uri("p"), uri("a")),
        ])
        paths = extract_paths(g)
        # Hub promotion picks roots; walks cut at the revisit.
        assert paths
        for path in paths:
            assert len(set(path.nodes)) == path.length  # no revisits

    def test_self_loop(self):
        g = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("a")),
            (uri("a"), uri("q"), uri("b")),
        ])
        paths = extract_paths(g)
        assert any(p.sink.value.endswith("b") for p in paths)

    def test_isolated_node_single_path(self):
        g = DataGraph()
        g.add_node(uri("lonely"))
        paths = extract_paths(g)
        assert len(paths) == 1
        assert paths[0].length == 1

    def test_empty_graph(self):
        assert extract_paths(DataGraph()) == []

    def test_diamond_two_paths(self):
        g = DataGraph.from_triples([
            (uri("s"), uri("p"), uri("l")),
            (uri("s"), uri("p"), uri("r")),
            (uri("l"), uri("q"), uri("t")),
            (uri("r"), uri("q"), uri("t")),
        ])
        assert len(extract_paths(g)) == 2


class TestLimits:
    @pytest.fixture
    def wide(self):
        # 3 binary levels -> 8 paths of 4 nodes.
        g = DataGraph()
        triples = []
        for level in range(3):
            for node in range(2 ** level):
                parent = f"n{level}_{node}"
                triples.append((uri(parent), uri("p"),
                                uri(f"n{level + 1}_{node * 2}")))
                triples.append((uri(parent), uri("p"),
                                uri(f"n{level + 1}_{node * 2 + 1}")))
        g.add_triples(triples)
        return g

    def test_max_paths_raises(self, wide):
        with pytest.raises(PathExplosionError):
            extract_paths(wide, ExtractionLimits(max_paths=3))

    def test_max_paths_truncates(self, wide):
        limits = ExtractionLimits(max_paths=3, on_limit="truncate")
        assert len(extract_paths(wide, limits)) == 3

    def test_max_length_raises(self, wide):
        with pytest.raises(PathExplosionError):
            extract_paths(wide, ExtractionLimits(max_length=2))

    def test_max_length_truncates(self, wide):
        limits = ExtractionLimits(max_length=2, on_limit="truncate")
        for path in extract_paths(wide, limits):
            assert path.length <= 2

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            ExtractionLimits(max_length=0)
        with pytest.raises(ValueError):
            ExtractionLimits(max_paths=0)
        with pytest.raises(ValueError):
            ExtractionLimits(on_limit="explode")


class TestVariants:
    def test_iter_paths_lazy_equivalent(self, govtrack):
        assert sorted(p.text() for p in iter_paths(govtrack)) == \
            sorted(p.text() for p in extract_paths(govtrack))

    def test_node_ids_attached(self, govtrack):
        for path in extract_paths(govtrack):
            assert path.node_ids is not None
            assert len(path.node_ids) == path.length
            for position, node_id in enumerate(path.node_ids):
                assert govtrack.label_of(node_id) == path.nodes[position]

    def test_query_graph_paths_keep_variables(self, q2):
        paths = query_paths(QueryGraph() if False else q2)
        assert any(not p.is_ground for p in paths)
