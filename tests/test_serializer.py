"""Unit + property tests for the binary codecs: varints and terms
(``repro.storage.serializer``) and the one path record format they
carry (:meth:`LabelInterner.encode_path` / ``decode_path``)."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.labels import LabelInterner
from repro.paths.model import Path
from repro.rdf.terms import BlankNode, Literal, URI, Variable
from repro.storage.serializer import (CodecError, read_term, read_varint,
                                      write_term, write_varint)


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 32, 2 ** 62])
    def test_roundtrip(self, value):
        buffer = io.BytesIO()
        write_varint(buffer, value)
        buffer.seek(0)
        assert read_varint(buffer) == value

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            write_varint(io.BytesIO(), -1)

    def test_truncated_raises(self):
        with pytest.raises(CodecError):
            read_varint(io.BytesIO(b"\x80"))


class TestTermCodec:
    @pytest.mark.parametrize("term", [
        URI("http://x/a"),
        Literal("plain"),
        Literal("tagged", language="en"),
        Literal("typed", datatype=URI("http://x/dt")),
        BlankNode("b1"),
        Variable("v2"),
        Literal("unicode é ☃"),
        Literal(""),
    ])
    def test_roundtrip(self, term):
        buffer = io.BytesIO()
        write_term(buffer, term)
        buffer.seek(0)
        assert read_term(buffer) == term

    def test_unknown_tag_raises(self):
        with pytest.raises(CodecError):
            read_term(io.BytesIO(b"Z\x00"))

    def test_truncated_term_raises(self):
        with pytest.raises(CodecError):
            read_term(io.BytesIO(b""))


class TestPathCodec:
    def test_roundtrip_with_node_ids(self):
        interner = LabelInterner()
        path = Path([URI("http://x/a"), Literal("L")], [URI("http://x/p")],
                    node_ids=[7, 9])
        decoded = interner.decode_path(interner.encode_path(path))
        assert decoded == path
        assert decoded.node_ids == (7, 9)

    def test_roundtrip_without_node_ids(self):
        interner = LabelInterner()
        path = Path([URI("http://x/a")], [])
        assert interner.decode_path(
            interner.encode_path(path)).node_ids is None

    def test_corrupt_flag_raises(self):
        interner = LabelInterner()
        blob = interner.encode_path(Path([URI("http://x/a")], []))
        with pytest.raises(CodecError):
            interner.decode_path(blob[:-1] + b"\x07")

    def test_empty_blob_raises(self):
        with pytest.raises(CodecError):
            LabelInterner().decode_path(b"")


# --- property-based: any path survives the codec -----------------------

_text = st.text(min_size=0, max_size=30)
_nonempty = st.text(min_size=1, max_size=30)

_terms = st.one_of(
    _nonempty.map(lambda s: URI("http://x/" + s.replace(" ", "_"))),
    _text.map(Literal),
    _nonempty.map(lambda s: Literal(s, language="en")),
    _nonempty.map(lambda s: BlankNode(s.replace(" ", "_") or "b")),
    _nonempty.map(lambda s: Variable("v" + s.replace(" ", "_"))),
)


@st.composite
def _paths(draw):
    length = draw(st.integers(min_value=1, max_value=8))
    nodes = [draw(_terms) for _ in range(length)]
    edges = [URI(f"http://x/e{i}") for i in range(length - 1)]
    with_ids = draw(st.booleans())
    node_ids = (list(range(100, 100 + length))) if with_ids else None
    return Path(nodes, edges, node_ids=node_ids)


@given(_paths())
@settings(max_examples=150, deadline=None)
def test_codec_roundtrip_property(path):
    interner = LabelInterner()
    decoded = interner.decode_path(interner.encode_path(path))
    assert decoded == path
    assert decoded.node_ids == path.node_ids
    assert list(decoded.label_ids) == [interner.id_of(n) for n in path.nodes]


@given(st.lists(st.integers(min_value=0, max_value=2 ** 60), max_size=30))
@settings(deadline=None)
def test_varint_stream_roundtrip(values):
    buffer = io.BytesIO()
    for value in values:
        write_varint(buffer, value)
    buffer.seek(0)
    assert [read_varint(buffer) for _ in values] == values
