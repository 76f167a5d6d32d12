"""Unit tests for clustering (§5 step 2) — the Fig. 3 regression."""

import pytest

from repro.datasets import lubm_queries
from repro.engine.clustering import build_clusters, missing_path_penalty
from repro.engine.preprocess import prepare_query
from repro.paths.model import path_of
from repro.rdf.graph import QueryGraph
from repro.quotient import QuotientIndex, QuotientResolver
from repro.rdf.terms import Literal
from repro.resilience.budget import Budget, DegradationCause
from repro.scoring.quality import lambda_cost


@pytest.fixture
def q1_clusters(govtrack_engine, q1):
    prepared = govtrack_engine.prepare(q1)
    clusters = govtrack_engine.clusters(prepared)
    by_query_text = {c.query_path.text(): c for c in clusters}
    return by_query_text


class TestFig3:
    def test_cl1_scores(self, q1_clusters):
        """cl1: p1 at 0, p2-p6 at 1 (Fig. 3)."""
        cl1 = q1_clusters[
            "CarlaBunes-sponsor-?v1-aTo-?v2-subject-Health Care"]
        scores = {entry.path.text(): entry.score for entry in cl1.entries}
        assert scores[
            "CarlaBunes-sponsor-A0056-aTo-B1432-subject-Health Care"] == 0
        assert scores[
            "JeffRyser-sponsor-A1589-aTo-B0532-subject-Health Care"] == 1
        assert scores[
            "PierceDickes-sponsor-A0467-aTo-B0532-subject-Health Care"] == 1

    def test_cl2_scores(self, q1_clusters):
        """cl2: the short paths at 0, the aTo paths at 1.5 (Fig. 3)."""
        cl2 = q1_clusters["?v3-sponsor-?v2-subject-Health Care"]
        scores = {entry.path.text(): entry.score for entry in cl2.entries}
        assert scores["PierceDickes-sponsor-B1432-subject-Health Care"] == 0
        assert scores["JeffRyser-sponsor-B0045-subject-Health Care"] == 0
        assert scores[
            "CarlaBunes-sponsor-A0056-aTo-B1432-subject-Health Care"] == 1.5

    def test_cl3_scores(self, q1_clusters):
        """cl3: the four gender paths, all at 0 (Fig. 3)."""
        cl3 = q1_clusters["?v3-gender-Male"]
        assert len(cl3.entries) == 4
        assert all(entry.score == 0 for entry in cl3.entries)

    def test_same_path_in_two_clusters_with_different_scores(self,
                                                             q1_clusters):
        """p1 appears in cl1 at 0 and in cl2 at 1.5 (the paper's note)."""
        p1 = "CarlaBunes-sponsor-A0056-aTo-B1432-subject-Health Care"
        cl1 = q1_clusters["CarlaBunes-sponsor-?v1-aTo-?v2-subject-Health Care"]
        cl2 = q1_clusters["?v3-sponsor-?v2-subject-Health Care"]
        score_in_cl1 = next(e.score for e in cl1.entries
                            if e.path.text() == p1)
        score_in_cl2 = next(e.score for e in cl2.entries
                            if e.path.text() == p1)
        assert (score_in_cl1, score_in_cl2) == (0, 1.5)

    def test_entries_sorted_best_first(self, q1_clusters):
        for cluster in q1_clusters.values():
            scores = [entry.score for entry in cluster.entries]
            assert scores == sorted(scores)


class TestClusterMechanics:
    def test_variable_sink_uses_containment(self, govtrack_engine):
        q = QueryGraph()
        q.add_triple("http://example.org/govtrack/CarlaBunes",
                     "http://example.org/govtrack/sponsor", "?v")
        prepared = govtrack_engine.prepare(q)
        clusters = govtrack_engine.clusters(prepared)
        assert clusters[0].entries  # anchored through the sponsor edge

    def test_empty_cluster_when_nothing_matches(self, govtrack_engine):
        q = QueryGraph()
        q.add_triple("?a", "http://example.org/nowhere/unknownPredicate",
                     Literal("Nothing Like This"))
        prepared = govtrack_engine.prepare(q)
        clusters = govtrack_engine.clusters(prepared)
        assert clusters[0].is_empty
        assert clusters[0].scores == () and not clusters[0].entries

    def test_max_cluster_size_truncates(self, govtrack_engine, q1):
        prepared = govtrack_engine.prepare(q1)
        clusters = build_clusters(prepared, govtrack_engine.index,
                                  govtrack_engine.ids_match,
                                  max_cluster_size=2)
        assert all(len(c) <= 2 for c in clusters)

    def test_columns_are_the_entries(self, govtrack_engine, q1):
        """The merge's sorted rows stay columns; an entry is made for a
        rank on first read, once, and reads its row back."""
        prepared = govtrack_engine.prepare(q1)
        cluster = govtrack_engine.clusters(prepared)[0]
        assert len(cluster) == len(cluster.scores) > 1
        assert cluster._entries == {}
        head = cluster.entries[0]
        assert cluster.entries[0] is head and len(cluster._entries) == 1
        assert [(entry.score, entry.offset, entry.path_length)
                for entry in cluster.entries] == list(
            zip(cluster.scores, cluster.gids, cluster.plens))
        assert all(entry.id_set == frozenset(node_ids) for entry, node_ids
                   in zip(cluster.entries, cluster.node_ids))
        assert cluster.entries[-1] is cluster.entry(len(cluster) - 1)
        with pytest.raises(IndexError):
            cluster.entries[len(cluster)]

    def test_missing_penalty_prices_every_element(self):
        q = path_of("?a", "http://x/p", "?b", "http://x/q", "Male")
        # 3 nodes * a + 2 edges * c = 3 + 4.
        assert missing_path_penalty(q) == 7.0

    def test_missing_penalty_dominates_any_alignment(self, govtrack_engine,
                                                     q1):
        """A terrible path still beats having no path at all."""
        prepared = govtrack_engine.prepare(q1)
        for cluster in govtrack_engine.clusters(prepared):
            for entry in cluster.entries:
                assert entry.score <= cluster.missing_penalty


class TestLazyAlignment:
    """Candidates are scored in id space; the label-space alignment of
    an entry is built on first use and agrees with the scan exactly."""

    def test_entry_alignment_rederives_its_lambda(self, govtrack_engine, q1,
                                                   lubm_engine):
        cases = [(govtrack_engine, q1)] + [
            (lubm_engine, spec.graph) for spec in lubm_queries()
            if spec.qid in ("Q2", "Q5")]
        trimmed = 0
        for engine, query in cases:
            for cluster in engine.clusters(engine.prepare(query)):
                assert cluster.entries
                for entry in cluster.entries[:50]:
                    assert entry._alignment is None and entry._path is None
                    alignment = entry.alignment
                    assert alignment.data_path is entry.path
                    assert lambda_cost(alignment.counts,
                                       engine.config.weights) == entry.score
                    trimmed += entry.path_length != engine.index.path_at(
                        entry.offset).length
        assert trimmed, "no anchor-trimmed entry was checked"


class TestClassOfOne:
    """A candidate without a refine key is a class of one: the quotient
    path over an index with no ``quotient.bin`` *is* the plain path."""

    @pytest.mark.parametrize("max_candidates", [None, 65, 200, 1000])
    def test_keyless_quotient_rows_and_charges_match_plain(
            self, lubm_engine, max_candidates):
        index = lubm_engine.index
        assert lubm_engine.quotient_resolver() is None  # no quotient.bin
        keyless = QuotientResolver(
            QuotientIndex([None], lambda gid: (0, gid)))
        spec = next(s for s in lubm_queries() if s.qid == "Q5")
        prepared = lubm_engine.prepare(spec.graph)

        def run(quotient):
            budget = Budget(max_candidates=max_candidates)
            clusters = build_clusters(
                prepared, index, lubm_engine.ids_match, budget=budget,
                quotient=quotient)
            rows = [[(entry.score, entry.offset, entry.path_length)
                     for entry in cluster.entries] for cluster in clusters]
            return rows, budget.candidates, budget.reasons

        plain_rows, plain_charged, plain_reasons = run(None)
        assert (plain_rows, plain_charged, plain_reasons) == run(keyless)
        assert any(plain_rows)
        tripped = DegradationCause.CLUSTER_TRUNCATION in {
            reason.cause for reason in plain_reasons}
        assert tripped == (max_candidates is not None)
