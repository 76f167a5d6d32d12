"""Unit tests for the SamaEngine facade."""

import pytest

from repro.engine import EngineConfig, SamaEngine
from repro.rdf.graph import QueryGraph
from repro.rdf.sparql import parse_select
from repro.rdf.terms import Literal, Variable
from repro.scoring import ScoringWeights


GOV = "http://example.org/govtrack/"

SPARQL_Q1 = """
    PREFIX gov: <http://example.org/govtrack/>
    SELECT ?v1 ?v2 ?v3 WHERE {
        gov:CarlaBunes gov:sponsor ?v1 .
        ?v1 gov:aTo ?v2 .
        ?v2 gov:subject "Health Care" .
        ?v3 gov:sponsor ?v2 .
        ?v3 gov:gender "Male" .
    }"""


class TestQueryInputs:
    def test_sparql_text(self, govtrack_engine):
        answers = govtrack_engine.query(SPARQL_Q1, k=1)
        assert answers[0].substitution()[Variable("v2")].value.endswith(
            "B1432")

    def test_select_query_object(self, govtrack_engine):
        answers = govtrack_engine.query(parse_select(SPARQL_Q1), k=1)
        assert answers

    def test_query_graph(self, govtrack_engine, q1):
        assert govtrack_engine.query(q1, k=1)

    def test_data_graph_as_ground_query(self, govtrack_engine, govtrack):
        sub = govtrack.subgraph([govtrack.node_for(GOV + "PierceDickes"),
                                 govtrack.node_for(Literal("Male"))])
        answers = govtrack_engine.query(sub, k=1)
        assert answers[0].is_exact

    def test_sparql_equivalent_to_graph(self, govtrack_engine, q1):
        from_text = govtrack_engine.query(SPARQL_Q1, k=1)[0]
        from_graph = govtrack_engine.query(q1, k=1)[0]
        assert from_text.score == from_graph.score

    def test_unsupported_type_rejected(self, govtrack_engine):
        with pytest.raises(TypeError):
            govtrack_engine.query(42)


class TestLifecycle:
    def test_from_graph_records_stats(self, govtrack):
        engine = SamaEngine.from_graph(govtrack)
        assert engine.index_stats.path_count == 14
        engine.close()

    def test_open_existing_directory(self, govtrack, tmp_path):
        directory = str(tmp_path / "idx")
        SamaEngine.from_graph(govtrack, directory=directory).close()
        with SamaEngine.open(directory) as engine:
            assert engine.query(SPARQL_Q1, k=1)

    def test_context_manager(self, govtrack):
        with SamaEngine.from_graph(govtrack) as engine:
            assert engine.query(SPARQL_Q1, k=1)


class TestConfiguration:
    def test_matcher_levels_change_results(self, govtrack):
        q = QueryGraph()
        q.add_triple("?v", GOV + "gender", Literal("Man"))  # synonym of Male
        semantic = SamaEngine.from_graph(
            govtrack, config=EngineConfig(matcher_level="semantic"))
        exact = SamaEngine.from_graph(
            govtrack, config=EngineConfig(matcher_level="exact",
                                          semantic_lookup=False))
        sem_answers = semantic.query(q, k=1)
        exact_answers = exact.query(q, k=1)
        # The thesaurus makes "Man" an exact hit for "Male"; without it
        # the engine still answers through the anchor fallback, but
        # only approximately (the sink label mismatches).
        assert sem_answers and sem_answers[0].is_exact
        assert exact_answers and not exact_answers[0].is_exact
        assert exact_answers[0].score > sem_answers[0].score
        semantic.close()
        exact.close()

    def test_invalid_worker_mode_rejected_at_construction(self,
                                                          govtrack_engine):
        """Regression: ``worker_mode="proc"`` used to construct fine and
        then raise from ``shard_pool()`` on every query."""
        with pytest.raises(ValueError, match="worker_mode"):
            SamaEngine(govtrack_engine.index,
                       EngineConfig(worker_mode="proc"))

    def test_custom_weights_change_scores(self, govtrack, q2):
        heavy = SamaEngine.from_graph(govtrack, config=EngineConfig(
            weights=ScoringWeights(node_mismatch=10.0)))
        light = SamaEngine.from_graph(govtrack)
        heavy_best = heavy.query(q2, k=1)[0]
        light_best = light.query(q2, k=1)[0]
        assert heavy_best.score != light_best.score
        heavy.close()
        light.close()

    def test_cold_and_warm_cache(self, govtrack_engine, q1):
        govtrack_engine.warm_cache()
        govtrack_engine.query(q1, k=1)
        before = govtrack_engine.index.io_stats.page_reads
        govtrack_engine.query(q1, k=1)
        warm_reads = govtrack_engine.index.io_stats.page_reads - before
        assert warm_reads == 0

        govtrack_engine.cold_cache()
        before = govtrack_engine.index.io_stats.page_reads
        govtrack_engine.query(q1, k=1)
        cold_reads = govtrack_engine.index.io_stats.page_reads - before
        assert cold_reads > 0

    def test_last_result_exposed(self, govtrack_engine, q1):
        govtrack_engine.query(q1, k=2)
        assert govtrack_engine.last_result is not None
        assert len(govtrack_engine.last_result.answers) == 2

    def test_repr(self, govtrack_engine):
        assert "SamaEngine" in repr(govtrack_engine)


class TestSelectResultSets:
    def test_projection_applied(self, govtrack_engine):
        results = govtrack_engine.select(SPARQL_Q1, k=3)
        assert [v.value for v in results.variables] == ["v1", "v2", "v3"]
        assert len(results) == 3
        assert results[0]["v2"].value.endswith("B1432")

    def test_select_star_projects_all(self, govtrack_engine):
        results = govtrack_engine.select(
            'PREFIX gov: <http://example.org/govtrack/> '
            'SELECT * WHERE { ?who gov:gender "Male" . }', k=4)
        assert [v.value for v in results.variables] == ["who"]
        assert len(results) == 4

    def test_distinct_deduplicates(self, govtrack_engine):
        query = ('PREFIX gov: <http://example.org/govtrack/> '
                 'SELECT DISTINCT ?bill WHERE { '
                 '?who gov:sponsor ?bill . ?bill gov:subject "Health Care" . }')
        distinct = govtrack_engine.select(query, k=10)
        values = [row["bill"] for row in distinct]
        assert len(values) == len(set(values))

    def test_rows_ordered_by_score(self, govtrack_engine):
        results = govtrack_engine.select(SPARQL_Q1, k=10)
        scores = [row.score for row in results]
        assert scores == sorted(scores)

    def test_column_access(self, govtrack_engine):
        results = govtrack_engine.select(SPARQL_Q1, k=3)
        column = results.column("v3")
        assert len(column) == 3

    def test_missing_variable_raises(self, govtrack_engine):
        results = govtrack_engine.select(SPARQL_Q1, k=1)
        with pytest.raises(KeyError):
            results[0]["nope"]
        assert results[0].get("nope") is None

    def test_to_table_renders(self, govtrack_engine):
        table = govtrack_engine.select(SPARQL_Q1, k=2).to_table()
        assert "?v1" in table
        assert "score" in table

    def test_query_graph_rejected(self, govtrack_engine, q1):
        with pytest.raises(TypeError):
            govtrack_engine.select(q1)

    def test_row_str(self, govtrack_engine):
        row = govtrack_engine.select(SPARQL_Q1, k=1)[0]
        assert "?v1=" in str(row)


class TestJsonResults:
    def test_w3c_structure(self, govtrack_engine):
        payload = govtrack_engine.select(SPARQL_Q1, k=2).to_json()
        assert payload["head"]["vars"] == ["v1", "v2", "v3"]
        bindings = payload["results"]["bindings"]
        assert len(bindings) == 2
        first = bindings[0]
        assert first["v2"]["type"] == "uri"
        assert "sama:score" in first

    def test_literal_rendering(self, govtrack_engine):
        payload = govtrack_engine.select(
            'PREFIX gov: <http://example.org/govtrack/> '
            'SELECT ?g WHERE { gov:PierceDickes gov:gender ?g . }',
            k=1).to_json()
        cell = payload["results"]["bindings"][0]["g"]
        assert cell == {"type": "literal", "value": "Male"}

    def test_json_serialisable(self, govtrack_engine):
        import json
        payload = govtrack_engine.select(SPARQL_Q1, k=3).to_json()
        assert json.loads(json.dumps(payload)) == payload
