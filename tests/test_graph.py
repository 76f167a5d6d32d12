"""Unit tests for DataGraph / QueryGraph (Definitions 1-2)."""

import pytest

from repro.rdf.graph import DataGraph, Edge, QueryGraph
from repro.rdf.terms import Literal, URI, Variable
from repro.rdf.triples import Triple


def uri(name):
    return URI(f"http://x/{name}")


class TestConstruction:
    def test_add_triple_merges_nodes_by_label(self):
        g = DataGraph()
        g.add_triple(uri("a"), uri("p"), uri("b"))
        g.add_triple(uri("a"), uri("q"), uri("c"))
        assert g.node_count() == 3
        assert g.edge_count() == 2

    def test_duplicate_triple_ignored(self):
        g = DataGraph()
        g.add_triple(uri("a"), uri("p"), uri("b"))
        g.add_triple(uri("a"), uri("p"), uri("b"))
        assert g.edge_count() == 1

    def test_parallel_edges_with_distinct_labels(self):
        g = DataGraph()
        g.add_triple(uri("a"), uri("p"), uri("b"))
        g.add_triple(uri("a"), uri("q"), uri("b"))
        assert g.edge_count() == 2

    def test_add_node_always_mints_fresh(self):
        g = DataGraph()
        first = g.add_node(Literal("Term"))
        second = g.add_node(Literal("Term"))
        assert first != second
        assert g.node_count() == 2

    def test_node_for_reuses(self):
        g = DataGraph()
        assert g.node_for(uri("a")) == g.node_for(uri("a"))

    def test_variables_rejected_in_data_graph(self):
        g = DataGraph()
        with pytest.raises(ValueError):
            g.add_triple("?v", uri("p"), uri("b"))

    def test_literal_edge_label_rejected(self):
        g = DataGraph()
        a = g.add_node(uri("a"))
        b = g.add_node(uri("b"))
        with pytest.raises(ValueError):
            g.add_edge(a, Literal("p"), b)

    def test_edge_to_unknown_node_rejected(self):
        g = DataGraph()
        a = g.add_node(uri("a"))
        with pytest.raises(KeyError):
            g.add_edge(a, uri("p"), 999)

    def test_from_triples(self):
        g = DataGraph.from_triples(
            [(uri("a"), uri("p"), uri("b"))], name="tiny")
        assert g.name == "tiny"
        assert g.edge_count() == 1


class TestRemoveEdge:
    @pytest.fixture
    def parallel(self):
        return DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("a"), uri("q"), uri("b")),
            (uri("b"), uri("p"), uri("c")),
        ])

    def test_absent_edge_is_false_and_changes_nothing(self, parallel):
        a, b, c = (parallel.node_for(uri(n)) for n in "abc")
        before = set(parallel.triples())
        assert not parallel.remove_edge(a, uri("r"), b)     # no such label
        assert not parallel.remove_edge(b, uri("p"), a)     # wrong direction
        assert not parallel.remove_edge(a, uri("p"), c)     # no such pair
        assert set(parallel.triples()) == before

    def test_parallel_edges_with_other_labels_survive(self, parallel):
        a, b = parallel.node_for(uri("a")), parallel.node_for(uri("b"))
        assert parallel.remove_edge(a, uri("p"), b)
        assert Edge(a, uri("p"), b) not in parallel
        assert Edge(a, uri("q"), b) in parallel
        assert parallel.out_edges(a) == [(uri("q"), b)]
        assert parallel.in_edges(b) == [(uri("q"), a)]
        assert parallel.edge_count() == 2
        assert not parallel.remove_edge(a, uri("p"), b)     # already gone

    def test_endpoints_stay_and_topology_follows(self, parallel):
        b, c = parallel.node_for(uri("b")), parallel.node_for(uri("c"))
        nodes = list(parallel.nodes())
        assert parallel.remove_edge(b, uri("p"), c)
        assert list(parallel.nodes()) == nodes              # ids are stable
        assert parallel.in_edges(c) == [] and parallel.out_edges(b) == []
        assert c in parallel.sources() and b in parallel.sinks()
        assert Triple(uri("b"), uri("p"), uri("c")) not in parallel


class TestInspection:
    @pytest.fixture
    def diamond(self):
        g = DataGraph()
        g.add_triples([
            (uri("s"), uri("p"), uri("l")),
            (uri("s"), uri("p"), uri("r")),
            (uri("l"), uri("q"), uri("t")),
            (uri("r"), uri("q"), uri("t")),
        ])
        return g

    def test_triples_roundtrip(self, diamond):
        assert set(diamond.triples()) == {
            Triple(uri("s"), uri("p"), uri("l")),
            Triple(uri("s"), uri("p"), uri("r")),
            Triple(uri("l"), uri("q"), uri("t")),
            Triple(uri("r"), uri("q"), uri("t")),
        }

    def test_degrees(self, diamond):
        s = diamond.node_for(uri("s"))
        t = diamond.node_for(uri("t"))
        assert diamond.out_degree(s) == 2
        assert diamond.in_degree(s) == 0
        assert diamond.in_degree(t) == 2

    def test_contains_node_edge_triple_label(self, diamond):
        s = diamond.node_for(uri("s"))
        l = diamond.node_for(uri("l"))
        assert s in diamond
        assert Edge(s, uri("p"), l) in diamond
        assert Triple(uri("s"), uri("p"), uri("l")) in diamond
        assert uri("s") in diamond
        assert uri("nope") not in diamond

    def test_label_sets(self, diamond):
        assert uri("p") in diamond.edge_labels()
        assert uri("s") in diamond.node_labels()

    def test_nodes_labelled(self):
        g = DataGraph()
        g.add_node(Literal("Term"))
        g.add_node(Literal("Term"))
        assert len(g.nodes_labelled(Literal("Term"))) == 2

    def test_len_is_edge_count(self, diamond):
        assert len(diamond) == 4


class TestTopology:
    def test_sources_sinks(self):
        g = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("b"), uri("p"), uri("c")),
        ])
        assert [g.label_of(n) for n in g.sources()] == [uri("a")]
        assert [g.label_of(n) for n in g.sinks()] == [uri("c")]

    def test_cycle_has_no_sources_hubs_promoted(self):
        g = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("b"), uri("p"), uri("a")),
            (uri("a"), uri("p"), uri("c")),
        ])
        assert g.sources() == []
        hubs = g.hubs()
        # a has out 2 / in 1 = +1, the maximum.
        assert [g.label_of(n) for n in hubs] == [uri("a")]
        assert g.path_roots() == hubs

    def test_path_roots_prefers_sources(self, govtrack):
        assert govtrack.path_roots() == govtrack.sources()

    def test_govtrack_shape(self, govtrack):
        assert len(govtrack.sources()) == 7
        assert len(govtrack.sinks()) == 2

    def test_hubs_exclude_pure_sinks(self):
        g = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("b"), uri("p"), uri("a")),
        ])
        hubs = g.hubs()
        assert hubs  # ties allowed, but never empty for a cyclic graph


class TestSubgraphAndCopy:
    def test_subgraph_induces_edges(self):
        g = DataGraph.from_triples([
            (uri("a"), uri("p"), uri("b")),
            (uri("b"), uri("p"), uri("c")),
        ])
        keep = [g.node_for(uri("a")), g.node_for(uri("b"))]
        sub = g.subgraph(keep)
        assert sub.node_count() == 2
        assert sub.edge_count() == 1

    def test_copy_is_deep_for_structure(self):
        g = DataGraph.from_triples([(uri("a"), uri("p"), uri("b"))])
        clone = g.copy()
        clone.add_triple(uri("b"), uri("p"), uri("c"))
        assert g.edge_count() == 1
        assert clone.edge_count() == 2

    def test_copy_preserves_labels(self, govtrack):
        clone = govtrack.copy()
        assert set(clone.triples()) == set(govtrack.triples())


class TestQueryGraph:
    def test_variables_allowed(self):
        q = QueryGraph()
        q.add_triple("?s", uri("p"), "?o")
        assert q.variables() == {Variable("s"), Variable("o")}

    def test_variable_edge_labels_allowed(self):
        q = QueryGraph()
        q.add_triple(uri("a"), "?e", uri("b"))
        assert Variable("e") in q.variables()

    def test_constants(self):
        q = QueryGraph()
        q.add_triple("?s", uri("p"), Literal("Male"))
        assert q.constants() == {Literal("Male")}

    def test_is_query_flag(self):
        assert QueryGraph().is_query
        assert not DataGraph().is_query

    def test_subgraph_of_query_is_query(self):
        q = QueryGraph()
        q.add_triple("?s", uri("p"), "?o")
        assert isinstance(q.subgraph(list(q.nodes())), QueryGraph)


class TestAccessAccountedGraph:
    def _view(self, govtrack):
        from repro.rdf.latency import AccessAccountedGraph
        return AccessAccountedGraph(govtrack)

    def test_traversal_charged(self, govtrack):
        view = self._view(govtrack)
        node = next(iter(view.nodes()))
        view.out_edges(node)
        view.in_edges(node)
        assert view.accesses == 2

    def test_metadata_free(self, govtrack):
        view = self._view(govtrack)
        list(view.nodes())
        view.node_count()
        view.label_of(0)
        view.sources()
        assert view.accesses == 0

    def test_offline_suspends(self, govtrack):
        view = self._view(govtrack)
        with view.offline():
            view.out_edges(0)
        assert view.accesses == 0
        view.out_edges(0)
        assert view.accesses == 1

    def test_reset(self, govtrack):
        view = self._view(govtrack)
        view.out_edges(0)
        view.reset()
        assert view.accesses == 0

    def test_results_identical_to_plain_graph(self, govtrack):
        view = self._view(govtrack)
        assert view.out_edges(3) == govtrack.out_edges(3)
        assert view.path_roots() == govtrack.path_roots()

    def test_baselines_run_on_view(self, govtrack, q1):
        from repro.baselines import DogmaMatcher
        view = self._view(govtrack)
        with view.offline():
            matcher = DogmaMatcher(view)
        matches = matcher.search(q1)
        assert len(matches) == 1
        assert view.accesses > 0

    def test_latency_sleeps(self, govtrack):
        import time
        from repro.rdf.latency import AccessAccountedGraph
        view = AccessAccountedGraph(govtrack, access_latency=0.002)
        started = time.perf_counter()
        view.out_edges(0)
        assert time.perf_counter() - started >= 0.002
