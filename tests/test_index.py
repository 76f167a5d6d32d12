"""Unit tests for the hypergraph, the path index and the builder (§6.1)."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("shards", [1, 3])
    def test_size_bytes_counts_every_file(self, govtrack, index_dir, shards):
        """Table 1's space column is the whole index: log, dictionary,
        maps and (sharded) the manifest."""
        index, stats = build_index(govtrack, index_dir, shards=shards)
        index.close()
        names = []
        total = 0
        for root, _dirs, files in os.walk(index_dir):
            names.extend(files)
            total += sum(os.path.getsize(os.path.join(root, name))
                         for name in files)
        assert "maps.json" in names
        assert ("manifest.json" in names) == (shards > 1)
        assert stats.size_bytes == total

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
        {"version": 1},  # label keys spelled out in N-Triples
    ])
    def test_retired_record_format_is_refused(self, govtrack, index_dir,
                                              retired):
        built, _stats = build_index(govtrack, index_dir)
        spell = built.interner.lookup
        built.close()
        maps_path = os.path.join(index_dir, "maps.json")
        with open(maps_path, encoding="utf-8") as handle:
            maps = json.load(handle)
        maps.update(retired)
        if maps["interned_records"] is None:
            del maps["interned_records"]
        if maps["version"] == 1:
            for name in ("sink", "contains"):
                maps[name] = {spell(int(key)).n3(): offsets
                              for key, offsets in maps[name].items()}
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


# -- a damaged maps.json or labels.dict is a typed error ----------------------


def _rewrite_maps(directory, mutate) -> None:
    maps_path = os.path.join(directory, "maps.json")
    with open(maps_path, encoding="utf-8") as handle:
        maps = json.load(handle)
    mutate(maps)
    with open(maps_path, "w", encoding="utf-8") as handle:
        json.dump(maps, handle)


def _first_key(name):
    return lambda maps: next(iter(maps[name]))


class TestMalformedMaps:
    """Each way a ``maps.json`` can lose its shape raises
    :class:`IndexCorruptError`, never a bare exception out of the
    loader."""

    @pytest.mark.parametrize("mutate", [
        lambda maps: maps.pop("sink"),
        lambda maps: maps.pop("offsets"),
        lambda maps: maps.update(offsets="[0, 1]"),
        lambda maps: maps.update(sink=[]),
        lambda maps: maps.update(page_size="4096"),
        lambda maps: maps.update(page_size=8192),
        lambda maps: maps.update(metadata=[]),
        lambda maps: maps["contains"].update(
            {_first_key("contains")(maps): "0"}),
        lambda maps: maps["sink"].update(
            {_first_key("sink")(maps): [False]}),
        lambda maps: maps["sink"].update(
            {_first_key("sink")(maps): [10 ** 9]}),
        lambda maps: maps["sink"].update({"<http://x/a>": [0]}),
        lambda maps: maps["sink"].update({"99999": [0]}),
        lambda maps: maps["sink"].update({"-1": [0]}),
    ], ids=["no-sink", "no-offsets", "offsets-string", "sink-list",
            "page-size-string", "page-size-wrong", "metadata-list",
            "posting-string", "posting-bool", "posting-unknown-offset",
            "spelled-label-key", "label-id-out-of-range",
            "negative-label-id"])
    def test_typed_error(self, govtrack, index_dir, mutate):
        build_index(govtrack, index_dir)[0].close()
        _rewrite_maps(index_dir, mutate)
        with pytest.raises(IndexCorruptError):
            PathIndex.open(index_dir)

    def test_missing_paths_log(self, govtrack, index_dir):
        build_index(govtrack, index_dir)[0].close()
        os.unlink(os.path.join(index_dir, "paths.log"))
        with pytest.raises(IndexCorruptError, match="paths.log"):
            PathIndex.open(index_dir)


#: Values a damaged document can hold where it should not.
_JUNK = [None, "x", "7", 1.5, True, False, -1, 2 ** 70, [], {}, [None],
         ["1"], {"0": [0]}]
#: Entries that cannot be the offset of a stored path.
_JUNK_ENTRIES = ["x", None, 1.5, True, False, -1, 2 ** 70, 10 ** 9, [0]]
#: Keys that are not the decimal id of a dictionary label.
_JUNK_KEYS = ["x", "-1", "01", " 1", "1.0", "", "99999", "1e2", "٣",
              '"Health Care"', "9" * 5000]

_maps_mutation = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(
        ["version", "page_size", "interned_records", "offsets", "sink",
         "contains", "metadata"])),
    st.tuples(st.just("set"), st.sampled_from(
        ["version", "page_size", "interned_records", "offsets", "sink",
         "contains", "metadata"]), st.sampled_from(_JUNK)),
    st.tuples(st.just("posting"), st.sampled_from(["sink", "contains"]),
              st.integers(0, 10 ** 6), st.sampled_from(_JUNK)),
    st.tuples(st.just("entry"), st.sampled_from(["sink", "contains",
                                                 "offsets"]),
              st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
              st.sampled_from(_JUNK_ENTRIES)),
    st.tuples(st.just("key"), st.sampled_from(["sink", "contains"]),
              st.integers(0, 10 ** 6), st.sampled_from(_JUNK_KEYS)),
)

_labels_mutation = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("flip"), st.integers(0, 10 ** 6),
              st.integers(1, 255)),
    st.tuples(st.just("replace"), st.binary(max_size=64)),
)


def _mutate_maps(maps: dict, mutation) -> None:
    """Apply one mutation; one aimed inside a part an earlier mutation
    already took away does nothing."""
    kind, name, *rest = mutation
    if kind == "drop":
        maps.pop(name, None)
        return
    if kind == "set":
        maps[name] = rest[0]
        return
    part = maps.get(name)
    if not part or not isinstance(part, (dict, list)):
        return
    if kind == "entry":
        lists = [part] if isinstance(part, list) else [
            entries for entries in part.values()
            if isinstance(entries, list) and entries]
        if lists:
            entries = lists[rest[0] % len(lists)]
            entries[rest[1] % len(entries)] = rest[2]
    elif isinstance(part, dict):
        key = list(part)[rest[0] % len(part)]
        if kind == "posting":
            part[key] = rest[1]
        else:
            part[rest[1]] = part.pop(key)


def _mutate_labels(data: bytes, mutation) -> bytes:
    kind, *rest = mutation
    if kind == "truncate":
        return data[:rest[0] % len(data)]
    if kind == "flip":
        position = rest[0] % len(data)
        return (data[:position] + bytes([data[position] ^ rest[1]])
                + data[position + 1:])
    return rest[0]


def _lookups(index, probes) -> list:
    return [(index.offsets_with_sink(label), index.offsets_containing(label))
            for label in probes]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A GovTrack index, its two metadata files, and the lookups every
    label of its dictionary (plus a few it lacks) gets."""
    from repro.datasets.govtrack import govtrack_graph

    directory = str(tmp_path_factory.mktemp("fuzz") / "index")
    index, _stats = build_index(govtrack_graph(), directory)
    probes = [index.interner.lookup(label_id)
              for label_id in range(len(index.interner))]
    probes += [Literal("Health"), Literal("Absent"), Literal("Teacher")]
    want = _lookups(index, probes)
    index.close()
    with open(os.path.join(directory, "maps.json"), encoding="utf-8") as f:
        maps = f.read()
    with open(os.path.join(directory, "labels.dict"), "rb") as handle:
        labels = handle.read()
    return directory, maps, labels, probes, want


class TestLoaderFuzz:
    """ROADMAP 6(c) for the index loader: a mutated ``maps.json`` or a
    truncated or garbled ``labels.dict`` either opens with the lookups
    of the undamaged index or raises :class:`IndexCorruptError`.

    Mutations change a document's shape: keys, types, foreign entries
    and label keys, and any byte of the dictionary (which carries a
    checksum).  Swapping one stored offset or label id for another
    valid one is not generated — no format without a checksum over the
    postings can tell that apart from the original.
    """

    @given(maps_mutations=st.lists(_maps_mutation, max_size=2),
           labels_mutation=st.one_of(st.none(), _labels_mutation))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_opens_identically_or_raises_typed(self, pristine,
                                               maps_mutations,
                                               labels_mutation):
        import shutil
        import tempfile

        source, maps_text, labels, probes, want = pristine
        maps = json.loads(maps_text)
        for mutation in maps_mutations:
            _mutate_maps(maps, mutation)
        with tempfile.TemporaryDirectory() as scratch:
            directory = os.path.join(scratch, "index")
            shutil.copytree(source, directory)
            with open(os.path.join(directory, "maps.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(maps, handle)
            if labels_mutation is not None:
                with open(os.path.join(directory, "labels.dict"),
                          "wb") as handle:
                    handle.write(_mutate_labels(labels, labels_mutation))
            try:
                index = PathIndex.open(directory)
            except IndexCorruptError:
                return
            try:
                assert _lookups(index, probes) == want
            finally:
                index.close()
