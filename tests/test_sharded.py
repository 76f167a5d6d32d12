"""Sharded path index: layout, determinism, lookups, serving surface.

The load-bearing claim is *bit-identical rankings*: a ShardedIndex at
any shard count must produce exactly the answers, scores and order of
the plain single-file index, including under candidate budgets.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dataset, lubm_queries
from repro.engine import SamaEngine
from repro.engine.clustering import build_clusters
from repro.index import (IndexCorruptError, PathIndex, ShardedIndex,
                         build_index, build_sharded_index, is_sharded_dir,
                         reshard, shard_of, signature_hash)
from repro.resilience.budget import Budget
from repro.serving import ServingConfig, ServingEngine


def ranking(result) -> list:
    return [(round(answer.score, 9), str(answer)) for answer in result]


# -- the stable signature hash ------------------------------------------------


class TestSignatureHash:
    def test_deterministic_and_order_insensitive(self):
        assert signature_hash([3, 1, 2]) == signature_hash([2, 3, 1])
        assert signature_hash([1, 1, 2]) == signature_hash([2, 1])

    def test_seed_changes_assignment(self):
        values = {signature_hash([5, 9, 14], seed=seed) for seed in range(8)}
        assert len(values) > 1

    def test_shard_of_respects_count(self, govtrack):
        from repro.index.labels import LabelInterner
        from repro.paths.extraction import extract_paths

        interner = LabelInterner()
        for path in extract_paths(govtrack):
            assert shard_of(path, interner, 1) == 0
            assert 0 <= shard_of(path, interner, 4) < 4


# -- build / open / layout ----------------------------------------------------


@pytest.fixture(scope="module")
def sharded_dir(tmp_path_factory):
    from repro.datasets.govtrack import govtrack_graph

    directory = str(tmp_path_factory.mktemp("shards") / "gov3")
    index, _ = build_sharded_index(govtrack_graph(), directory, 3)
    index.close()
    return directory


class TestLayout:
    def test_manifest_and_shard_dirs(self, sharded_dir):
        assert is_sharded_dir(sharded_dir)
        with open(os.path.join(sharded_dir, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["kind"] == "sharded"
        assert manifest["shards"] == 3
        assert len(manifest["gids"]) == 3
        for shard_no in range(3):
            shard = PathIndex.open(
                os.path.join(sharded_dir, f"shard-{shard_no:02d}"))
            try:
                assert shard.path_count == len(manifest["gids"][shard_no])
            finally:
                shard.close()

    def test_plain_dir_is_not_sharded(self, tmp_path, govtrack):
        plain = str(tmp_path / "plain")
        index, _ = build_index(govtrack, plain)
        index.close()
        assert not is_sharded_dir(plain)

    def test_gid_surface_matches_unsharded(self, tmp_path, govtrack,
                                           sharded_dir):
        plain_dir = str(tmp_path / "plain")
        plain, _ = build_index(govtrack, plain_dir)
        sharded = ShardedIndex.open(sharded_dir)
        try:
            assert sharded.path_count == plain.path_count
            plain_paths = [plain.path_at(offset).text()
                           for offset in plain.all_offsets()]
            sharded_paths = [sharded.path_at(gid).text()
                             for gid in sharded.all_offsets()]
            assert sharded_paths == plain_paths
            for label in list(plain._sink_index._exact)[:20]:
                want = [plain.path_at(o).text()
                        for o in plain.offsets_with_sink(label)]
                got = [sharded.path_at(g).text()
                       for g in sharded.offsets_with_sink(label)]
                assert got == want
        finally:
            plain.close()
            sharded.close()

    def test_gid_count_mismatch_raises(self, tmp_path, govtrack):
        directory = str(tmp_path / "broken")
        index, _ = build_sharded_index(govtrack, directory, 2)
        index.close()
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["gids"][0] = manifest["gids"][0][:-1]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(IndexCorruptError):
            ShardedIndex.open(directory)

    def test_truncated_manifest_raises(self, tmp_path, govtrack):
        directory = str(tmp_path / "torn")
        index, _ = build_sharded_index(govtrack, directory, 2)
        index.close()
        with open(os.path.join(directory, "manifest.json"), "w") as handle:
            handle.write('{"version": 1, "kind": "sh')
        with pytest.raises(IndexCorruptError):
            ShardedIndex.open(directory)


# -- lookups: one match tier over all shards ---------------------------------


#: Five ``subject`` literals: "Health Care" has one exact hit, and three
#: others contain both of its words — the token-conjunction tier.
HEALTH_SUBJECTS = ["Health Care", "Health Care Policy", "Care of Health",
                   "Taxes", "Health Care Reform"]


@pytest.fixture(scope="module")
def health_layouts(tmp_path_factory):
    """The five-literal graph stored unsharded and at 2/3/4 shards."""
    from repro.rdf.graph import DataGraph
    from repro.rdf.terms import URI, Literal

    graph = DataGraph.from_triples([
        (URI(f"http://x/bill{i}"), URI("http://x/subject"), Literal(text))
        for i, text in enumerate(HEALTH_SUBJECTS)])
    base = tmp_path_factory.mktemp("health")
    layouts = {0: build_index(graph, str(base / "plain"))[0]}
    for shards in (2, 3, 4):
        layouts[shards] = build_sharded_index(
            graph, str(base / f"s{shards}"), shards)[0]
    yield layouts
    for index in layouts.values():
        index.close()


class TestLookupTiers:
    """A lookup tries exact, then token conjunction, then thesaurus
    matches — and decides that tier once for the whole index, so a
    shard without the exact hit adds no fallback matches."""

    @pytest.mark.parametrize("shards", [2, 3, 4])
    @pytest.mark.parametrize("lookup", ["offsets_with_sink",
                                        "offsets_containing"])
    @pytest.mark.parametrize("text", ["Health Care", "Health", "Taxes",
                                      "Medical Care", "Absent"])
    def test_same_paths_as_unsharded(self, health_layouts, shards, lookup,
                                     text):
        from repro.rdf.terms import Literal

        def texts(index):
            return [index.path_at(entry).text()
                    for entry in getattr(index, lookup)(Literal(text))]

        assert texts(health_layouts[shards]) == texts(health_layouts[0])

    def test_exact_hit_suppresses_every_shards_fallback(self,
                                                        health_layouts):
        from repro.rdf.terms import Literal

        for index in health_layouts.values():
            hits = index.offsets_with_sink(Literal("Health Care"))
            assert [index.path_at(gid).sink.value for gid in hits] == \
                ["Health Care"]

    def test_q12_matches_unsharded_at_four_shards(self, tmp_path):
        """LUBM 2000 seed 0: Q12's top-10 over 4 shards used to differ
        from the unsharded one (its anchors fell back per shard)."""
        graph = dataset("lubm").build(2000, seed=0)
        build_index(graph, str(tmp_path / "plain"))[0].close()
        build_sharded_index(graph, str(tmp_path / "s4"), 4)[0].close()
        query = next(spec.graph for spec in lubm_queries()
                     if spec.qid == "Q12")
        plain = SamaEngine.open(str(tmp_path / "plain"))
        sharded = SamaEngine.open(str(tmp_path / "s4"))
        try:
            assert (ranking(sharded.query(query, k=10))
                    == ranking(plain.query(query, k=10)))
        finally:
            plain.close()
            sharded.close()


# -- ranking determinism ------------------------------------------------------


@pytest.fixture(scope="module")
def lubm_layouts(tmp_path_factory):
    """LUBM 800 stored unsharded and at 2/4 shards, plus the graph."""
    graph = dataset("lubm").build(800, seed=0)
    base = tmp_path_factory.mktemp("lubm-layouts")
    plain_dir = str(base / "plain")
    index, _ = build_index(graph, plain_dir)
    index.close()
    dirs = {0: plain_dir}
    for shards in (2, 4):
        directory = str(base / f"s{shards}")
        sharded, _ = build_sharded_index(graph, directory, shards)
        sharded.close()
        dirs[shards] = directory
    return dirs


@pytest.fixture(scope="module")
def lubm_query_graphs():
    return [spec.graph for spec in lubm_queries()
            if spec.qid in ("Q1", "Q2", "Q7")]


class TestRankingDeterminism:
    def test_bit_identical_rankings(self, lubm_layouts, lubm_query_graphs):
        engines = {shards: SamaEngine.open(path)
                   for shards, path in lubm_layouts.items()}
        try:
            for query in lubm_query_graphs:
                want = ranking(engines[0].query(query, k=10))
                for shards in (2, 4):
                    assert ranking(engines[shards].query(query, k=10)) == want
        finally:
            for engine in engines.values():
                engine.close()

    def test_bit_identical_under_candidate_budget(self, lubm_layouts,
                                                  lubm_query_graphs):
        engines = {shards: SamaEngine.open(path)
                   for shards, path in lubm_layouts.items()}
        try:
            for query in lubm_query_graphs:
                for cap in (64, 300):
                    want = ranking(engines[0].query(
                        query, k=10, budget=Budget(max_candidates=cap)))
                    for shards in (2, 4):
                        got = ranking(engines[shards].query(
                            query, k=10, budget=Budget(max_candidates=cap)))
                        assert got == want, (cap, shards)
        finally:
            for engine in engines.values():
                engine.close()

    def test_scatter_path_matches_serial_clusters(self, lubm_layouts,
                                                  lubm_query_graphs):
        """Compare every cluster's entry sequence (score + path text)
        over 4 shards with the unsharded engine's."""
        plain = SamaEngine.open(lubm_layouts[0])
        sharded = SamaEngine.open(lubm_layouts[4])
        try:
            for query in lubm_query_graphs:
                prepared_plain = plain.prepare(query)
                prepared_sharded = sharded.prepare(query)
                serial = build_clusters(
                    prepared_plain, plain.index, plain.ids_match)
                scattered = build_clusters(
                    prepared_sharded, sharded.index, sharded.ids_match)
                assert len(serial) == len(scattered)
                for want, got in zip(serial, scattered):
                    assert ([(e.score, e.path.text())
                             for e in got.entries]
                            == [(e.score, e.path.text())
                                for e in want.entries])
        finally:
            plain.close()
            sharded.close()

    def test_deadline_corner_cases_stay_identical(self, lubm_layouts,
                                                  lubm_query_graphs):
        """Deadline trips mid-flight are timing-dependent, but the two
        deterministic corners — an already-expired deadline and one
        that can never trip — must agree at every shard count."""
        engines = {shards: SamaEngine.open(path)
                   for shards, path in lubm_layouts.items()}
        try:
            for query in lubm_query_graphs:
                for deadline_ms in (0.0, 3_600_000.0):
                    want = engines[0].query(query, k=10,
                                            deadline_ms=deadline_ms,
                                            on_budget="partial")
                    for shards in (2, 4):
                        got = engines[shards].query(query, k=10,
                                                    deadline_ms=deadline_ms,
                                                    on_budget="partial")
                        assert ranking(got) == ranking(want)
                        assert got.complete == want.complete
        finally:
            for engine in engines.values():
                engine.close()


# -- hypothesis: arbitrary graphs, arbitrary shard counts ---------------------


_labels = st.sampled_from(["p", "q", "r", "s"])


@st.composite
def small_graphs(draw):
    from repro.rdf.graph import DataGraph

    node_count = draw(st.integers(min_value=2, max_value=7))
    nodes = [f"http://x/n{i}" for i in range(node_count)]
    edge_count = draw(st.integers(min_value=1, max_value=10))
    triples = []
    for _ in range(edge_count):
        src = draw(st.integers(0, node_count - 1))
        dst = draw(st.integers(0, node_count - 1))
        if src == dst:
            continue
        triples.append((nodes[src], "http://x/e" + draw(_labels),
                        nodes[dst]))
    graph = DataGraph()
    graph.add_triples(triples)
    return graph


@given(small_graphs(), st.sampled_from([1, 2, 4, 7]))
@settings(max_examples=20, deadline=None)
def test_property_sharding_preserves_rankings(tmp_path_factory, graph,
                                              shards):
    """At N ∈ {1, 2, 4, 7} shards: same stored paths in the same global
    order, and byte-identical top-k answers for a query over the graph's
    own labels."""
    if graph.edge_count() == 0:
        return
    base = tmp_path_factory.mktemp("prop")
    plain, _ = build_index(graph, str(base / "plain"))
    sharded, _ = build_sharded_index(graph, str(base / "sharded"), shards)
    try:
        assert ([sharded.path_at(g).text() for g in sharded.all_offsets()]
                == [plain.path_at(o).text() for o in plain.all_offsets()])
        subject, predicate, obj = next(iter(graph.triples()))
        query = (f"SELECT ?x WHERE {{ ?x <{predicate}> <{obj}> . }}")
        plain_engine = SamaEngine(plain)
        sharded_engine = SamaEngine(sharded)
        assert (ranking(sharded_engine.query(query, k=5))
                == ranking(plain_engine.query(query, k=5)))
        # The already-expired-deadline corner degrades identically.
        assert (ranking(sharded_engine.query(query, k=5, deadline_ms=0.0,
                                             on_budget="partial"))
                == ranking(plain_engine.query(query, k=5, deadline_ms=0.0,
                                              on_budget="partial")))
    finally:
        plain.close()
        sharded.close()


# -- reshard ------------------------------------------------------------------


class TestReshard:
    def test_in_place_preserves_order_and_rankings(self, tmp_path, govtrack,
                                                   q1):
        directory = str(tmp_path / "idx")
        index, _ = build_sharded_index(govtrack, directory, 3)
        before_paths = [index.path_at(g).text()
                        for g in index.all_offsets()]
        before = ranking(SamaEngine(index).query(q1, k=5))
        index.close()

        resharded = reshard(directory, 2)
        try:
            assert resharded.shard_count == 2
            assert ([resharded.path_at(g).text()
                     for g in resharded.all_offsets()] == before_paths)
            assert ranking(SamaEngine(resharded).query(q1, k=5)) == before
        finally:
            resharded.close()
        assert is_sharded_dir(directory)

    def test_plain_to_sharded_via_output(self, tmp_path, govtrack, q1):
        plain_dir = str(tmp_path / "plain")
        index, _ = build_index(govtrack, plain_dir)
        before = ranking(SamaEngine(index).query(q1, k=5))
        index.close()

        out = str(tmp_path / "out")
        resharded = reshard(plain_dir, 4, output=out)
        try:
            assert resharded.shard_count == 4
            assert ranking(SamaEngine(resharded).query(q1, k=5)) == before
        finally:
            resharded.close()
        assert not is_sharded_dir(plain_dir)  # source untouched


# -- serving a sharded index --------------------------------------------------


class TestServingShardedEpochs:
    def test_sharded_epoch_key_is_int_zero(self, tmp_path, govtrack, q1):
        """A sharded index is immutable: served, it keys the cache at
        the plain integer epoch 0, like an unsharded one."""
        directory = str(tmp_path / "gov2")
        build_sharded_index(govtrack, directory, 2)[0].close()
        service = ServingEngine(SamaEngine.open(directory),
                                ServingConfig(workers=1))
        try:
            assert service.epoch == 0
            fingerprint = service.fingerprint(q1, 5)
            assert fingerprint.epoch == 0
            assert fingerprint.key.startswith("epoch=0|")
            service.query(q1, k=5)
            assert [entry.epoch
                    for entry in service.cache._entries.values()] == [0]
            payload = service.stats_payload()
            assert payload["shards"] == 2 and payload["epoch"] == 0
            assert "epochs" not in payload
        finally:
            service.close()

    def test_sharded_index_metrics_have_shard_labels(self, tmp_path,
                                                     govtrack, q1):
        directory = str(tmp_path / "gov2")
        index, _ = build_sharded_index(govtrack, directory, 2)
        index.close()
        engine = SamaEngine.open(directory)
        service = ServingEngine(engine, ServingConfig(workers=1))
        try:
            service.query(q1, k=3)
            metrics = service.render_metrics()
            assert "sama_shard_record_decodes_total" in metrics
            assert 'shard="1"' in metrics
        finally:
            service.close()
