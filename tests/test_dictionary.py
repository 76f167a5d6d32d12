"""Tests for the label dictionary (``labels.dict``), the §7 compression.

Every path record is a run of varint ids into one
:class:`~repro.index.labels.LabelInterner`, persisted beside the log, so
each label is spelled once per index instead of once per record.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import build_index
from repro.index.labels import LabelInterner
from repro.index.pathindex import PathIndex
from repro.paths.extraction import extract_paths
from repro.paths.model import Path
from repro.rdf.terms import Literal, URI, Variable
from repro.storage.serializer import CodecError, write_term


def _spelled_bytes(path: Path) -> int:
    """Bytes of ``path``'s labels spelled out in the term codec."""
    stream = io.BytesIO()
    for term in path.nodes + path.edges:
        write_term(stream, term)
    return len(stream.getvalue())


class TestTermDictionary:
    def test_first_use_assigns_sequential_ids(self):
        d = LabelInterner()
        assert d.intern(URI("http://x/a")) == 0
        assert d.intern(URI("http://x/b")) == 1
        assert d.intern(URI("http://x/a")) == 0  # stable
        assert len(d) == 2

    def test_lookup_inverse(self):
        d = LabelInterner()
        term = Literal("Health Care")
        assert d.lookup(d.intern(term)) == term

    def test_lookup_out_of_range(self):
        with pytest.raises(IndexError):
            LabelInterner().lookup(0)

    def test_id_of_requires_presence(self):
        d = LabelInterner()
        assert d.id_of(URI("http://x/missing")) is None
        assert len(d) == 0  # looking up never assigns

    def test_contains(self):
        d = LabelInterner()
        d.intern(URI("http://x/a"))
        assert URI("http://x/a") in d
        assert URI("http://x/b") not in d

    def test_save_load_roundtrip(self, tmp_path):
        d = LabelInterner()
        terms = [URI("http://x/a"), Literal("v"),
                 Literal("t", language="en"), Variable("q")]
        for term in terms:
            d.intern(term)
        d.save(tmp_path / "labels.dict")
        loaded = LabelInterner.load(tmp_path / "labels.dict")
        assert len(loaded) == len(terms)
        for index, term in enumerate(terms):
            assert loaded.lookup(index) == term
            assert loaded.id_of(term) == index

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE")
        with pytest.raises(CodecError):
            LabelInterner.load(path)


class TestCompressedPathCodec:
    def test_roundtrip(self):
        d = LabelInterner()
        path = Path([URI("http://x/a"), Literal("L"), URI("http://x/c")],
                    [URI("http://x/p"), URI("http://x/q")],
                    node_ids=[1, 2, 3])
        assert d.decode_path(d.encode_path(path)) == path

    def test_compression_beats_plain_on_repeated_labels(self):
        d = LabelInterner()
        long_uri = URI("http://very.long.example.org/ontology/with/a/deep"
                       "/path/FullProfessor")
        path = Path([long_uri] * 1, [])
        spelled_total = 0
        record_total = 0
        for _ in range(50):
            spelled_total += _spelled_bytes(path)
            record_total += len(d.encode_path(path))
        assert record_total < spelled_total / 5

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=8))
    @settings(deadline=None)
    def test_roundtrip_property(self, indices):
        d = LabelInterner()
        nodes = [URI(f"http://x/n{i}") for i in indices]
        edges = [URI(f"http://x/e{i}") for i in indices[:-1]]
        path = Path(nodes, edges)
        assert d.decode_path(d.encode_path(path)) == path


class TestCompressedIndex:
    def test_compressed_index_same_content(self, govtrack, tmp_path):
        built, _stats = build_index(govtrack, str(tmp_path / "built"))
        assert sorted(p.text() for p in built.all_paths()) == \
            sorted(p.text() for p in extract_paths(govtrack))
        built.close()

    def test_compressed_index_smaller_at_scale(self, tmp_path):
        from repro.datasets import dataset
        graph = dataset("lubm").build(1500, seed=2)
        built, stats = build_index(graph, str(tmp_path / "i"))
        spelled = sum(_spelled_bytes(p) for p in built.all_paths())
        built.close()
        # Log pages plus labels.dict: well under half the labels spelled
        # out once per record.
        assert stats.size_bytes < spelled / 2

    def test_compressed_index_reopens(self, govtrack, tmp_path):
        directory = str(tmp_path / "reopen")
        built, _stats = build_index(govtrack, directory)
        original = sorted(p.text() for p in built.all_paths())
        built.close()
        reopened = PathIndex.open(directory)
        assert len(reopened.interner) > 0
        assert sorted(p.text() for p in reopened.all_paths()) == original
        reopened.close()

    def test_compressed_queries_identical(self, govtrack, q1, tmp_path):
        from repro.engine import SamaEngine
        directory = str(tmp_path / "q")
        built = SamaEngine.from_graph(govtrack, directory=directory)
        reopened = SamaEngine(PathIndex.open(directory))
        assert [a.score for a in built.query(q1, k=5)] == \
            [a.score for a in reopened.query(q1, k=5)]
        built.close()
        reopened.close()
