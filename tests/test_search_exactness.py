"""Exactness of the top-k search against brute-force enumeration.

In exact mode (no sibling limit, no patience) the A* join must return
exactly the best-scoring combinations that brute force finds.  These
tests enumerate every combination on small instances and compare.
"""

import itertools
import random

import pytest

from repro.engine.clustering import build_clusters
from repro.engine.preprocess import prepare_query
from repro.engine.search import SearchConfig, top_k
from repro.paths.intersection import chi
from repro.rdf.graph import DataGraph, QueryGraph
from repro.rdf.terms import Literal
from repro.scoring.weights import PAPER_WEIGHTS


def uri(name):
    return f"http://x/{name}"


def brute_force_best(prepared, clusters, weights=PAPER_WEIGHTS) -> float:
    """The minimum score over every combination (missing only when a
    cluster is empty), mirroring the search's combination space."""
    domains = []
    for cluster in clusters:
        if cluster.entries:
            domains.append(list(cluster.entries))
        else:
            domains.append([None])
    best = float("inf")
    for combination in itertools.product(*domains):
        quality = 0.0
        covered = 0
        for cluster, entry in zip(clusters, combination):
            if entry is None:
                quality += cluster.missing_penalty
            else:
                quality += entry.score
                covered += 1
        if covered == 0:
            continue
        conformity = 0.0
        for i, j, shared in prepared.ig.edges():
            entry_i, entry_j = combination[i], combination[j]
            if entry_i is None or entry_j is None:
                conformity += weights.conformity * len(shared)
                continue
            common = len(chi(entry_i.path, entry_j.path))
            if common == 0:
                conformity += weights.conformity * len(shared)
            else:
                conformity += weights.conformity * len(shared) / common
        best = min(best, quality + conformity)
    return best


EXACT = SearchConfig(k=3, sibling_limit=None, patience=None)


def _check(engine, query):
    prepared = engine.prepare(query)
    clusters = engine.clusters(prepared)
    # Keep brute force tractable.
    total = 1
    for cluster in clusters:
        total *= max(len(cluster.entries), 1)
    assert total <= 50_000, "instance too large for brute force"
    result = top_k(prepared, clusters, config=EXACT)
    assert result.answers, "search found nothing"
    expected = brute_force_best(prepared, clusters)
    assert result.answers[0].score == pytest.approx(expected)


class TestGovTrackExactness:
    def test_q1(self, govtrack_engine, q1):
        _check(govtrack_engine, q1)

    def test_q2(self, govtrack_engine, q2):
        _check(govtrack_engine, q2)

    def test_single_path(self, govtrack_engine):
        q = QueryGraph()
        q.add_triple("?v", "http://example.org/govtrack/gender",
                     Literal("Male"))
        _check(govtrack_engine, q)


class TestRandomGraphExactness:
    @pytest.mark.parametrize("seed", [3, 7, 13, 21])
    def test_random_instances(self, seed):
        from repro.engine import SamaEngine

        rng = random.Random(seed)
        labels = ["p", "q", "r"]
        entities = [uri(f"n{i}") for i in range(12)]
        triples = set()
        for _ in range(18):
            i = rng.randrange(len(entities))
            j = rng.randrange(len(entities))
            if i < j:  # DAG keeps path extraction small
                triples.add((entities[i], uri(rng.choice(labels)),
                             entities[j]))
        graph = DataGraph.from_triples(sorted(triples))
        engine = SamaEngine.from_graph(graph)
        # A two-path query over the generated vocabulary.
        query = QueryGraph()
        query.add_triple("?a", uri("p"), "?b")
        query.add_triple("?c", uri("q"), "?b")
        prepared = engine.prepare(query)
        clusters = engine.clusters(prepared)
        if not any(cluster.entries for cluster in clusters):
            pytest.skip("degenerate instance: no candidates at all")
        result = top_k(prepared, clusters, config=EXACT)
        expected = brute_force_best(prepared, clusters)
        assert result.answers[0].score == pytest.approx(expected)
        engine.close()

    def test_every_entry_shares_a_label(self):
        """Every path ends in the one department, so every entry of
        every cluster carries its label: entries meeting an anchor only
        there share one base price, and the rest are priced pair by
        pair."""
        from repro.engine import SamaEngine

        department = uri("D0")
        triples = []
        for student in range(6):
            triples.append((uri(f"s{student}"), uri("memberOf"), department))
            for course in (student % 3, (student + 1) % 4):
                triples.append((uri(f"s{student}"), uri("takes"),
                                uri(f"c{course}")))
        for course in range(4):
            triples.append((uri(f"c{course}"), uri("offeredBy"), department))
        engine = SamaEngine.from_graph(DataGraph.from_triples(triples))
        query = QueryGraph()
        query.add_triple("?s", uri("memberOf"), department)
        query.add_triple("?s", uri("takes"), "?c")
        query.add_triple("?c", uri("offeredBy"), department)
        prepared = engine.prepare(query)
        clusters = engine.clusters(prepared)
        assert all(len(cluster.entries) > 1 and frozenset.intersection(
            *(entry.id_set for entry in cluster.entries))
            for cluster in clusters)
        result = top_k(prepared, clusters, config=EXACT)
        assert result.answers[0].score == pytest.approx(
            brute_force_best(prepared, clusters))
        assert result.psi_evaluations > 0
        engine.close()

    def test_default_config_matches_exact_top1_on_govtrack(
            self, govtrack_engine, q1):
        """The production config may truncate, but on the small running
        example its best answer equals the exact optimum."""
        prepared = govtrack_engine.prepare(q1)
        clusters = govtrack_engine.clusters(prepared)
        default = top_k(prepared, clusters, config=SearchConfig(k=1))
        exact = top_k(prepared, clusters, config=EXACT)
        assert default.answers[0].score == exact.answers[0].score


class TestNaiveReference:
    def test_naive_matches_exact_search(self, govtrack_engine, q1):
        from repro.engine.naive import naive_top_k
        prepared = govtrack_engine.prepare(q1)
        clusters = govtrack_engine.clusters(prepared)
        naive = naive_top_k(prepared, clusters, k=5)
        exact = top_k(prepared, clusters,
                      config=SearchConfig(k=5, sibling_limit=None,
                                          patience=None))
        assert [a.score for a in naive.answers] == \
            [a.score for a in exact.answers]

    def test_naive_refuses_explosions(self, govtrack_engine, q1):
        from repro.engine.naive import naive_top_k
        prepared = govtrack_engine.prepare(q1)
        clusters = govtrack_engine.clusters(prepared)
        with pytest.raises(ValueError):
            naive_top_k(prepared, clusters, max_combinations=10)

    def test_per_cluster_truncation(self, govtrack_engine, q1):
        from repro.engine.naive import naive_top_k
        prepared = govtrack_engine.prepare(q1)
        clusters = govtrack_engine.clusters(prepared)
        result = naive_top_k(prepared, clusters, k=3, per_cluster=2)
        assert result.expansions <= 2 ** len(clusters)
        assert result.answers
