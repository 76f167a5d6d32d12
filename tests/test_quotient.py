"""Quotient-compressed scoring (``repro.quotient``): classes, store, engine.

The load-bearing claims, in test order:

- the equality-pattern quotient separates what λ can distinguish
  (``X knows X`` vs ``X knows Y``) and merges what it cannot (the same
  shape under renamed labels), with nodes and edges numbered in one
  shared slot namespace;
- the persisted ``quotient.bin`` round-trips exactly, and a stale
  epoch, corrupt bytes, or a missing file all degrade to exhaustive
  per-path scoring instead of wrong answers;
- **quotiented rankings are bit-identical** to unquotiented ones — on
  the GovTrack example, under anchor trims, and over sharded indexes
  across worker modes and two-stage modes (the wider matrix is gated
  by ``benchmarks/bench_quotient.py``);
- compaction invalidates quotients in place but leaves a copy-out
  source untouched; tmp debris from a crashed quotient write is swept
  at index open;
- the sidecar is opt-in: ``sama index build`` writes none, ``sama index
  quotient`` builds it without changing a ranking, and the serving
  stats surface reports compression;
- the per-epoch column store (``repro.index.columns``) answers exactly
  what a decoded path would, with and without a loaded quotient, holds
  only rows queries touched, belongs to one engine, and is dropped —
  with answers still right — the moment the index epoch moves.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine.sama import EngineConfig, SamaEngine
from repro.index import build_index
from repro.index.incremental import IncrementalIndex, compact_directory
from repro.index.labels import LabelInterner
from repro.index.pathindex import PathIndex
from repro.paths.model import Path
from repro.rdf.graph import DataGraph
from repro.rdf.terms import URI
from repro.quotient import (QuotientFormatError, QuotientIndex,
                            build_quotients, invalidate_quotients,
                            load_shard_quotient, quotient_path)
from repro.quotient.store import ShardQuotient
from repro.sketch import build_sketches


def uri(name):
    return URI(f"http://x/{name}")


class _MemoryIndex:
    """The minimal surface ShardQuotient.from_index needs."""

    epoch = 0

    def __init__(self, paths):
        self.interner = LabelInterner()
        self._paths = [self.interner.intern_path(path) for path in paths]

    def all_offsets(self):
        return list(range(len(self._paths)))

    def path_at(self, offset):
        return self._paths[offset]


# ---------------------------------------------------------------------------
# the quotient itself: what collapses, what stays apart


class TestPattern:
    def test_renamed_labels_share_a_class(self):
        """Student17-memberOf-Dept3 and Student42-memberOf-Dept9 have
        the same equality pattern; a path of another shape does not."""
        quotient = ShardQuotient.from_index(_MemoryIndex([
            Path([uri("s17"), uri("d3")], [uri("memberOf")]),
            Path([uri("s42"), uri("d9")], [uri("memberOf")]),
            Path([uri("s17")], []),
        ]), epoch=0)
        assert len(quotient) == 3
        assert quotient.class_count == 2
        assert quotient.class_ids[0] == quotient.class_ids[1]
        assert quotient.class_ids[2] != quotient.class_ids[0]

    def test_repeated_labels_split_classes(self):
        """``X knows X`` and ``X knows Y`` are distinguishable by a
        repeated-variable query, so they must not share a class."""
        quotient = ShardQuotient.from_index(_MemoryIndex([
            Path([uri("a"), uri("a")], [uri("knows")]),
            Path([uri("a"), uri("b")], [uri("knows")]),
        ]), epoch=0)
        assert quotient.class_count == 2

    def test_nodes_and_edges_share_one_slot_namespace(self):
        """A label recurring as node *and* edge repeats its slot — a
        query variable can bind at both positions, so the pattern must
        record the coincidence."""
        quotient = ShardQuotient.from_index(_MemoryIndex([
            Path([uri("p"), uri("q")], [uri("p")]),
            Path([uri("p"), uri("q")], [uri("r")]),
        ]), epoch=0)
        assert quotient.class_count == 2
        assert list(quotient.patterns[quotient.class_ids[0]]) == [0, 0, 1]

    def test_member_node_ids_recover_concrete_labels(self):
        index = _MemoryIndex([
            Path([uri("a"), uri("b"), uri("c")], [uri("p"), uri("q")]),
        ])
        quotient = ShardQuotient.from_index(index, epoch=0)
        intern = index.interner.intern
        want = [intern(uri("a")), intern(uri("b")), intern(uri("c"))]
        assert list(quotient.member_node_ids(0, 3)) == want
        assert list(quotient.member_node_ids(0, 2)) == want[:2]


# ---------------------------------------------------------------------------
# the store: round-trip, stale epoch, corruption, invalidation


class TestStore:
    def _quotient(self, epoch=3):
        return ShardQuotient.from_index(_MemoryIndex([
            Path([uri("a"), uri("b"), uri("c")], [uri("p"), uri("q")]),
            Path([uri("d"), uri("e"), uri("f")], [uri("p"), uri("q")]),
            Path([uri("z")], []),
        ]), epoch=epoch)

    def test_round_trip(self, tmp_path):
        quotient = self._quotient()
        target = str(tmp_path / "quotient.bin")
        quotient.save(target)
        loaded = ShardQuotient.load(target)
        assert loaded.epoch == 3
        assert loaded.offsets == quotient.offsets
        assert list(loaded.class_ids) == list(quotient.class_ids)
        assert [list(p) for p in loaded.patterns] == \
            [list(p) for p in quotient.patterns]
        assert [list(p) for p in loaded.params] == \
            [list(p) for p in quotient.params]
        assert loaded.row_of == quotient.row_of

    def test_stale_epoch_loads_as_none(self, tmp_path):
        self._quotient(epoch=3).save(str(tmp_path / "quotient.bin"))
        assert load_shard_quotient(str(tmp_path), expected_epoch=3) \
            is not None
        assert load_shard_quotient(str(tmp_path), expected_epoch=4) is None

    def test_corrupt_and_missing_load_as_none(self, tmp_path):
        assert load_shard_quotient(str(tmp_path), expected_epoch=0) is None
        target = str(tmp_path / "quotient.bin")
        with open(target, "wb") as handle:
            handle.write(b"not a quotient at all")
        assert load_shard_quotient(str(tmp_path), expected_epoch=0) is None

    def test_truncation_anywhere_raises_format_error(self, tmp_path):
        target = str(tmp_path / "quotient.bin")
        self._quotient().save(target)
        with open(target, "rb") as handle:
            blob = handle.read()
        for cut in (4, 20, len(blob) // 2, len(blob) - 1):
            with open(target, "wb") as handle:
                handle.write(blob[:cut])
            with pytest.raises(QuotientFormatError):
                ShardQuotient.load(target)
        with open(target, "wb") as handle:
            handle.write(blob + b"\x00")
        with pytest.raises(QuotientFormatError):
            ShardQuotient.load(target)

    def test_invalidate_sweeps_shard_dirs(self, tmp_path):
        os.makedirs(tmp_path / "shard-00")
        for target in (tmp_path / "quotient.bin",
                       tmp_path / "shard-00" / "quotient.bin"):
            with open(target, "wb") as handle:
                handle.write(b"x")
        assert invalidate_quotients(str(tmp_path)) == 2
        assert invalidate_quotients(str(tmp_path)) == 0

    def test_compaction_invalidates_quotients_in_place(self, tmp_path):
        graph = DataGraph.from_triples([
            ("http://x/a", "http://x/p", "http://x/b"),
            ("http://x/b", "http://x/p", "http://x/c"),
        ])
        directory = str(tmp_path / "inc")
        index = IncrementalIndex(graph, directory)
        index.remove_triple("http://x/b", "http://x/p", "http://x/c")
        index.save_manifest()
        index.close()
        with open(quotient_path(directory), "wb") as handle:
            handle.write(b"doomed")
        report = compact_directory(directory)
        assert report.quotients_invalidated == 1
        assert not os.path.exists(quotient_path(directory))

    def test_compaction_to_output_keeps_source_sidecars(self, tmp_path):
        """Copy-out compaction must not delete the still-valid sidecars
        of the source directory (regression: they were invalidated
        before the in-place check)."""
        from repro.sketch import sketch_path

        graph = DataGraph.from_triples([
            ("http://x/a", "http://x/p", "http://x/b"),
        ])
        directory = str(tmp_path / "inc")
        index = IncrementalIndex(graph, directory)
        index.save_manifest()
        index.close()
        for sidecar in (quotient_path(directory), sketch_path(directory)):
            with open(sidecar, "wb") as handle:
                handle.write(b"still valid")
        report = compact_directory(directory, output=str(tmp_path / "out"))
        assert report.quotients_invalidated == 0
        assert report.sketches_invalidated == 0
        assert os.path.exists(quotient_path(directory))
        assert os.path.exists(sketch_path(directory))
        assert not os.path.exists(quotient_path(str(tmp_path / "out")))

    def test_open_sweeps_quotient_tmp_debris(self, tmp_path, govtrack):
        """A crash between mkstemp and os.replace strands
        ``quotient.bin.*.tmp``; reopening the index sweeps it and the
        real file (if any) stays authoritative."""
        directory = str(tmp_path / "idx")
        index, _ = build_index(govtrack, directory)
        build_quotients(index)
        index.close()
        debris = os.path.join(directory, "quotient.bin.abc123.tmp")
        with open(debris, "wb") as handle:
            handle.write(b"half-written")
        reopened = PathIndex.open(directory)
        try:
            assert not os.path.exists(debris)
            assert load_shard_quotient(directory, reopened.epoch) is not None
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# bit-identity: a real engine, quotient on vs off


class TestEngine:
    QUERY = """
        PREFIX gov: <http://example.org/govtrack/>
        SELECT ?v1 ?v2 ?v3 WHERE {
            gov:CarlaBunes gov:sponsor ?v1 .
            ?v1 gov:aTo ?v2 .
            ?v2 gov:subject "Health Care" .
            ?v3 gov:sponsor ?v2 .
            ?v3 gov:gender "Male" .
        }"""

    @staticmethod
    def _ranking(engine, query, k=6):
        return [(round(answer.score, 12), str(answer))
                for answer in engine.query(query, k=k)]

    @pytest.fixture(scope="class")
    def indexed(self, tmp_path_factory):
        from repro.datasets.govtrack import govtrack_graph

        directory = str(tmp_path_factory.mktemp("quotient") / "idx")
        engine = SamaEngine.from_graph(govtrack_graph(),
                                       directory=directory)
        build_quotients(engine.index)
        engine.close()
        return directory

    @pytest.mark.parametrize("max_cluster_size", [1, 2, 3, 4000])
    def test_rankings_bit_identical(self, indexed, max_cluster_size):
        plain = SamaEngine.open(indexed, config=EngineConfig(
            quotient="off", max_cluster_size=max_cluster_size))
        quotiented = SamaEngine.open(indexed, config=EngineConfig(
            quotient="auto", max_cluster_size=max_cluster_size))
        try:
            assert quotiented.quotient_resolver() is not None
            assert (self._ranking(quotiented, self.QUERY)
                    == self._ranking(plain, self.QUERY))
        finally:
            plain.close()
            quotiented.close()

    def test_classes_actually_compress(self, indexed):
        engine = SamaEngine.open(indexed)
        try:
            quotients = QuotientIndex.for_index(engine.index)
            assert quotients is not None
            assert quotients.class_count < quotients.path_count
            assert quotients.compression_ratio > 1.0
        finally:
            engine.close()

    def test_counters_flow_to_registry(self, indexed):
        from repro.obs import get_registry

        registry = get_registry()
        before = registry.snapshot().get("sama_quotient_members_total", 0.0)
        engine = SamaEngine.open(indexed,
                                 config=EngineConfig(quotient="auto"))
        try:
            engine.query(self.QUERY, k=3)
        finally:
            engine.close()
        snapshot = registry.snapshot()
        assert snapshot.get("sama_quotient_members_total", 0.0) > before
        assert snapshot.get("sama_quotient_reps_total", 0.0) > 0
        assert snapshot.get("sama_quotient_compression_ratio", 0.0) > 1.0

    @pytest.mark.parametrize("quotient", ["auto", "off"])
    def test_unseen_constants_leave_no_state_behind(self, tmp_path,
                                                    quotient):
        """A read never grows the label dictionary or the id-matcher
        memo: a constant the data does not mention gets an id of the
        query's own, and its verdicts go when the query does."""
        from repro.datasets import dataset, lubm_queries

        directory = str(tmp_path / "idx")
        index, _stats = build_index(dataset("lubm").build(600, seed=5),
                                    directory)
        build_quotients(index)
        build_sketches(index)
        index.close()
        q1 = next(spec for spec in lubm_queries() if spec.qid == "Q1").sparql
        assert '"Databases"' in q1
        engine = SamaEngine.open(directory, config=EngineConfig(
            quotient=quotient, two_stage="safe"))
        reference = SamaEngine.open(directory, config=EngineConfig(
            quotient="off", two_stage="off"))
        try:
            assert engine.sketch_filter() is not None
            assert (engine.quotient_resolver() is not None) \
                == (quotient == "auto")
            sizes = None
            for number in range(200):
                query = q1.replace('"Databases"', f'"Databases {number}"')
                got = self._ranking(engine, query)
                if number % 40 == 0:
                    assert got and got == self._ranking(reference, query)
                seen = (len(engine.index.interner),
                        len(engine.ids_match.memo))
                sizes = sizes or seen
                assert seen == sizes, f"grew on unseen constant #{number}"
        finally:
            engine.close()
            reference.close()

    def test_stale_quotient_falls_back_to_exhaustive(self, tmp_path):
        from repro.datasets.govtrack import govtrack_graph

        directory = str(tmp_path / "idx")
        engine = SamaEngine.from_graph(govtrack_graph(),
                                       directory=directory)
        stale = ShardQuotient.from_index(engine.index, epoch=99)
        stale.save(quotient_path(directory))
        engine.close()
        reopened = SamaEngine.open(directory)
        try:
            assert reopened.quotient_resolver() is None
            assert reopened.query(self.QUERY, k=3)
        finally:
            reopened.close()

    def test_invalid_mode_rejected(self, tmp_path, govtrack):
        directory = str(tmp_path / "idx")
        SamaEngine.from_graph(govtrack, directory=directory).close()
        with pytest.raises(ValueError):
            SamaEngine.open(directory,
                            config=EngineConfig(quotient="banana"))


class TestSharded:
    """Bit-identity over sharded indexes: in-process and procs scoring,
    with and without the two-stage filter in front."""

    def _workload(self):
        triples = []
        for i in range(40):
            triples.append((f"http://x/s{i}", "http://x/likes",
                            f"http://x/m{i % 7}"))
            triples.append((f"http://x/m{i % 7}", "http://x/type",
                            "http://x/Movie"))
        return DataGraph.from_triples(triples)

    QUERY = """
        SELECT ?s WHERE {
            ?s <http://x/likes> ?m .
            ?m <http://x/type> <http://x/Movie> .
        }"""

    @pytest.fixture(scope="class")
    def sharded_dir(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("qshards") / "idx")
        index, _ = build_index(self._workload(), directory, shards=4)
        build_sketches(index)
        build_quotients(index)
        index.close()
        return directory

    @pytest.mark.parametrize("worker_mode,two_stage", [
        pytest.param(None, "off", id="inprocess-off"),
        pytest.param(None, "safe", id="inprocess-safe"),
        ("procs", "off"),
        ("procs", "safe"),
    ])
    def test_scatter_gather_identical(self, sharded_dir, worker_mode,
                                      two_stage):
        plain = SamaEngine.open(sharded_dir, config=EngineConfig(
            quotient="off"))
        quotiented = SamaEngine.open(sharded_dir, config=EngineConfig(
            quotient="auto", worker_mode=worker_mode, two_stage=two_stage))
        try:
            assert quotiented.quotient_resolver() is not None
            want = [(round(a.score, 12), str(a))
                    for a in plain.query(self.QUERY, k=8)]
            got = [(round(a.score, 12), str(a))
                   for a in quotiented.query(self.QUERY, k=8)]
            assert got == want
        finally:
            plain.close()
            quotiented.close()


# ---------------------------------------------------------------------------
# serving + CLI surface


class TestSurface:
    def _build(self, tmp_path):
        data = tmp_path / "data.nt"
        data.write_text(
            "<http://x/a> <http://x/p> <http://x/b> .\n"
            "<http://x/b> <http://x/p> <http://x/c> .\n"
            "<http://x/d> <http://x/p> <http://x/e> .\n")
        directory = str(tmp_path / "idx")
        assert main(["index", "build", str(data), directory]) == 0
        return directory

    def test_index_build_writes_no_quotient(self, tmp_path, capsys):
        """The quotient is opt-in: a build writes no ``quotient.bin``
        and says nothing about one."""
        directory = self._build(tmp_path)
        assert not os.path.exists(quotient_path(directory))
        assert "equivalence class" not in capsys.readouterr().out

    def test_cli_index_quotient_builds_files(self, tmp_path, capsys):
        directory = self._build(tmp_path)
        assert main(["index", "quotient", directory]) == 0
        assert os.path.exists(quotient_path(directory))
        out = capsys.readouterr().out
        assert "quotiented" in out and "compression" in out
        loaded = load_shard_quotient(directory, expected_epoch=0)
        assert loaded is not None and len(loaded) > 0

    def test_opt_in_quotient_loads_and_keeps_lubm_rankings(
            self, tmp_path, lubm_small):
        """``sama index quotient`` over a built index: the next engine
        loads the sidecar, and all 12 LUBM templates rank as they did
        without it."""
        from repro.datasets import lubm_queries

        directory = str(tmp_path / "lubm")
        build_index(lubm_small, directory)[0].close()

        def rankings():
            engine = SamaEngine.open(directory)
            try:
                loaded = engine.quotient_resolver() is not None
                return loaded, [TestEngine._ranking(engine, spec.sparql, k=10)
                                for spec in lubm_queries()]
            finally:
                engine.close()

        loaded, without = rankings()
        assert not loaded and len(without) == 12
        assert main(["index", "quotient", directory]) == 0
        loaded, with_sidecar = rankings()
        assert loaded
        assert with_sidecar == without

    def test_cli_query_quotient_modes_agree(self, tmp_path):
        directory = self._build(tmp_path)
        for mode in ("auto", "off"):
            assert main(["query", directory, "--quotient", mode, "-e",
                         "SELECT ?s WHERE "
                         "{ ?s <http://x/p> <http://x/b> . }"]) == 0

    def test_stats_payload_reports_compression(self, tmp_path):
        from repro.serving import ServingConfig, ServingEngine

        directory = self._build(tmp_path)
        assert main(["index", "quotient", directory]) == 0
        engine = SamaEngine.open(directory)
        service = ServingEngine(engine, ServingConfig(workers=1))
        try:
            stats = service.stats_payload()
            assert stats["quotient"] is not None
            assert stats["quotient"]["classes"] >= 1
            assert stats["quotient"]["paths"] >= stats["quotient"]["classes"]
            assert stats["quotient"]["compression_ratio"] >= 1.0
        finally:
            service.close()

    def test_stats_payload_none_without_quotients(self, tmp_path):
        from repro.serving import ServingConfig, ServingEngine

        directory = self._build(tmp_path)
        engine = SamaEngine.open(directory)
        service = ServingEngine(engine, ServingConfig(workers=1))
        try:
            assert service.stats_payload()["quotient"] is None
        finally:
            service.close()


# ---------------------------------------------------------------------------
# the per-epoch column store: same facts as a decoded path, engine-owned,
# gone when the epoch moves


class TestPathColumns:
    @pytest.fixture(scope="class")
    def lubm_dir(self, tmp_path_factory):
        from repro.datasets import dataset

        directory = str(tmp_path_factory.mktemp("columns") / "idx")
        index, _stats = build_index(dataset("lubm").build(600, seed=5),
                                    directory)
        build_quotients(index)
        index.close()
        return directory

    @pytest.fixture(scope="class")
    def engines(self, lubm_dir):
        """One engine deriving rows from quotient classes, one from
        decoded paths."""
        with_quotient = SamaEngine.open(lubm_dir)
        without = SamaEngine.open(lubm_dir,
                                  config=EngineConfig(quotient="off"))
        assert with_quotient.quotient_resolver() is not None
        assert without.quotient_resolver() is None
        yield with_quotient, without
        with_quotient.close()
        without.close()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pick=st.integers(min_value=0), cut=st.integers(min_value=0))
    def test_rows_equal_the_decoded_prefix(self, engines, pick, cut):
        for engine in engines:
            index = engine.index
            offsets = index.all_offsets()
            gid = offsets[pick % len(offsets)]
            path = index.path_at(gid)
            plen = 1 + cut % path.length
            want = tuple(path.prefix(plen).label_ids)
            columns = engine.path_columns()
            assert columns.node_ids(gid, plen) == want
            uid, id_set = columns.row(gid, plen)
            assert id_set == frozenset(want)
            # Shared, not rebuilt: the same object on every read, and a
            # uid no other row of the path has.
            assert columns.row(gid, plen) == (uid, id_set)
            assert columns.row(gid, plen)[1] is id_set
            if plen > 1:
                assert columns.row(gid, plen - 1)[0] != uid
            for label_id, node in zip(want, path.nodes):
                assert columns.name(label_id) == str(node)

    def test_store_holds_only_touched_rows(self, lubm_dir):
        from repro.datasets import lubm_queries

        engine = SamaEngine.open(lubm_dir)
        try:
            assert len(engine.path_columns()) == 0     # fills lazily
            touched = set()
            for spec in lubm_queries()[:6]:
                clusters = engine.clusters(engine.prepare(spec.sparql))
                touched.update((entry.offset, entry.path_length)
                               for cluster in clusters
                               for entry in cluster.entries)
            assert 0 < len(engine.path_columns()) <= len(touched)
            # Entries hold the store's objects, never copies.
            columns = engine.path_columns()
            for cluster in clusters:
                for entry in cluster.entries[:20]:
                    uid, id_set = columns.row(entry.offset,
                                              entry.path_length)
                    assert entry.id_set is id_set and entry.uid == uid
        finally:
            engine.close()

    def test_two_engines_share_no_rows(self, lubm_dir):
        from repro.datasets import lubm_queries

        first = SamaEngine.open(lubm_dir)
        second = SamaEngine.open(lubm_dir)
        try:
            first.query(lubm_queries()[1].sparql, k=5)
            assert len(first.path_columns()) > 0
            assert first.path_columns() is not second.path_columns()
            assert len(second.path_columns()) == 0
        finally:
            first.close()
            second.close()

    def test_static_epoch_bump_drops_the_store(self, lubm_dir):
        from repro.datasets import lubm_queries

        engine = SamaEngine.open(lubm_dir)
        try:
            text = lubm_queries()[1].sparql
            before = TestEngine._ranking(engine, text)
            stale = engine.path_columns()
            assert len(stale) > 0
            engine.index.epoch += 1     # what an update round does
            assert engine.path_columns() is not stale
            assert len(engine.path_columns()) == 0
            # The quotient file is now a stale epoch: per-path scoring,
            # rows derived from decoded paths, same answers.
            assert engine.quotient_resolver() is None
            assert TestEngine._ranking(engine, text) == before
        finally:
            engine.close()

    def test_live_updates_drop_the_store_and_answers_stay_right(
            self, tmp_path):
        from repro.datasets import dataset, lubm_queries
        from repro.datasets.lubm import MEMBER_OF, UB

        graph = dataset("lubm").build(400, seed=2)
        index = IncrementalIndex(graph, str(tmp_path / "live"))
        engine = SamaEngine(index)
        text = lubm_queries()[1].sparql
        try:
            engine.query(text, k=5)
            member = next(triple for triple in graph.triples()
                          if triple.predicate == MEMBER_OF)
            rounds = [
                lambda: index.add_triples(
                    [(UB.NewStudent, MEMBER_OF, member.object)]),
                lambda: index.remove_triple(*member),
            ]
            for write in rounds:
                stale = engine.path_columns()
                assert len(stale) > 0
                epoch = index.epoch
                write()
                assert index.epoch > epoch
                assert engine.path_columns() is not stale
                assert len(engine.path_columns()) == 0
                fresh = SamaEngine(index)      # its own, empty store
                assert (TestEngine._ranking(engine, text)
                        == TestEngine._ranking(fresh, text))
        finally:
            engine.close()
