"""The label index: Lucene-Domain-index stand-in over graph labels (§6.1).

The prototype "define[s] a LDi index on the labels of nodes and edges"
so that "given a label, HGDB retrieves all paths containing data
elements matching the label in a very efficient way".  This module
provides that: the :class:`LabelInterner` dictionary (label ↔ dense id,
plus the word tokens of every label), an inverted index from label ids
to integer entry ids (the path index registers path offsets), and a
:class:`SemanticMatcher` that upgrades alignment's label comparison
with the same lexical and thesaurus machinery.
"""

from __future__ import annotations

import io
import os
import zlib
from array import array
from itertools import chain, zip_longest
from typing import BinaryIO, Iterable, Iterator

from ..paths.model import Path
from ..rdf.terms import Term, Variable
from .thesaurus import Thesaurus, stem_candidates, tokenize_label


def _uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode one LEB128 varint at ``pos``; returns (value, next pos)."""
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            from ..storage.serializer import CodecError
            raise CodecError("varint too long")


#: The file a :class:`LabelInterner` is persisted in, beside the path
#: log whose records it decodes.
LABELS_FILE = "labels.dict"


class LabelInterner:
    """A persisted dense label → ``int`` id dictionary.

    The hot paths of the engine — χ intersections inside ψ, the
    search's inverted candidate buckets, the conformity floors — all
    operate on *sets of node labels*.  Hashing and comparing full
    :class:`~repro.rdf.terms.Term` objects there costs a Python-level
    ``__eq__`` per probe; interning every label once into a dense
    integer id turns those into C-speed small-int set operations (the
    classic IR/RDF-store dense-vocabulary move).

    Ids are assigned in first-use order (an id *is* its position), so
    the on-disk form is simply the labels in order: ``LINT`` magic, a
    varint count, each term in the serializer's term encoding, then a
    CRC-32 of all of that (4 bytes, little-endian), so a flipped byte
    is a refused file rather than a different label.
    The dictionary also keeps the token view of its labels
    (:meth:`ids_with_token`): each label is filed under its words when
    it is interned, so every label map over these ids — sink and
    containment, every shard, the live index — shares one
    tokenisation.
    The index builder interns every node label at ``add_path`` time and
    persists the dictionary next to the path log; reopening reads it
    back so ids are stable across processes.  Only writers intern:
    a query looks ids up (:meth:`id_of`), and a constant the data never
    mentions gets an id of the query's own
    (:func:`repro.index.columnar.encode_query`), so reads never grow the
    dictionary.
    """

    def __init__(self):
        self._terms: list[Term] = []
        self._ids: dict[Term, int] = {}
        #: The token view of the dictionary: word or stem → the ids of
        #: the labels carrying it, ascending.
        self._token_ids: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def intern(self, term: Term) -> int:
        """The dense id of ``term``, assigning the next id on first use."""
        existing = self._ids.get(term)
        if existing is not None:
            return existing
        label_id = len(self._terms)
        self._terms.append(term)
        self._ids[term] = label_id
        # The token rule of every label map: each word of the label and
        # each word's singular stems, so "Database" finds "Databases".
        keys = set(tokenize_label(term))
        for token in list(keys):
            keys |= stem_candidates(token)
        for key in keys:
            self._token_ids.setdefault(key, []).append(label_id)
        return label_id

    def lookup(self, label_id: int) -> Term:
        """The label behind ``label_id``."""
        return self._terms[label_id]

    def id_of(self, term: Term) -> "int | None":
        """The id of ``term`` if it has one (the read-side of
        :meth:`intern`: never assigns)."""
        return self._ids.get(term)

    def ids_with_token(self, token: str) -> "list[int]":
        """Ids of the labels carrying word ``token`` or a word whose
        singular stem it is (ascending; read-only)."""
        return self._token_ids.get(token.lower(), [])

    def intern_path(self, path: Path) -> Path:
        """Attach the ``array('i')`` id sequences of ``path``'s node and
        edge labels (idempotent; returns ``path`` for chaining)."""
        if path.label_ids is None:
            intern = self.intern
            path.attach_label_ids(
                array("i", [intern(node) for node in path.nodes]),
                array("i", [intern(edge) for edge in path.edges]))
        return path

    # -- record codec ------------------------------------------------------

    def encode_path(self, path: Path) -> bytes:
        """Serialise ``path`` as varint label ids in this dictionary.

        The one path record format — built, sharded and live indexes
        all write it: varint node count, the node label ids, the edge
        label ids, then a node-id presence flag (``0``/``1``) and the
        varint graph node ids.  Ids are (re)computed through
        :meth:`intern` rather than trusting any attached ``label_ids``
        — those may belong to a different interner.
        """
        from ..storage.serializer import write_varint

        stream = io.BytesIO()
        write_varint(stream, path.length)
        for node in path.nodes:
            write_varint(stream, self.intern(node))
        for edge in path.edges:
            write_varint(stream, self.intern(edge))
        if path.node_ids is None:
            stream.write(b"\x00")
        else:
            stream.write(b"\x01")
            for node_id in path.node_ids:
                write_varint(stream, node_id)
        return stream.getvalue()

    def decode_path(self, data: bytes) -> Path:
        """Deserialise an interned record.

        This is the decode hot path of query-time cluster retrieval:
        label ids resolve by list indexing into *shared* Term objects
        (no UTF-8 parsing, no fresh Term per record), and the two id
        runs double as the path's ``label_ids`` / ``edge_ids``, so the
        id-space pipeline needs no re-interning pass afterwards.
        """
        from ..storage.serializer import CodecError

        # Varints are parsed by direct byte indexing — a BytesIO-based
        # reader allocates a one-byte object per byte read, which is
        # the difference between decode being I/O-shaped and
        # allocation-shaped on cold cluster scans.
        try:
            count, pos = _uvarint(data, 0)
            if count < 1:
                raise CodecError("path must have at least one node")
            terms = self._terms
            # ``count`` node label ids, then ``count - 1`` edge label ids.
            raw_ids = []
            append_id = raw_ids.append
            for _ in range(2 * count - 1):
                byte = data[pos]
                if byte < 0x80:
                    pos += 1
                else:
                    byte, pos = _uvarint(data, pos)
                append_id(byte)
            labels = [terms[i] for i in raw_ids]
            flag = data[pos:pos + 1]
            pos += 1
            if flag == b"\x00":
                node_ids = None
            elif flag == b"\x01":
                ids = []
                for _ in range(count):
                    value, pos = _uvarint(data, pos)
                    ids.append(value)
                node_ids = tuple(ids)
            else:
                raise CodecError(f"bad node-id presence flag {flag!r}")
        except IndexError as exc:
            raise CodecError(f"truncated or corrupt interned record: "
                             f"{exc}") from exc
        path = Path.from_terms(tuple(labels[:count]), tuple(labels[count:]),
                               node_ids)
        path.attach_label_ids(array("i", raw_ids[:count]),
                              array("i", raw_ids[count:]))
        return path

    # -- persistence -------------------------------------------------------

    def save(self, path) -> int:
        """Write the dictionary to ``path``; returns bytes written.

        The write is atomic (temp file + ``os.replace``): a crash
        mid-save can never leave a torn ``labels.dict`` that a server
        opening the index would reject as corrupt.
        """
        from ..storage.atomic import atomic_write_bytes
        from ..storage.serializer import write_term, write_varint

        buffer = io.BytesIO()
        buffer.write(b"LINT")
        write_varint(buffer, len(self._terms))
        for term in self._terms:
            write_term(buffer, term)
        buffer.write(zlib.crc32(buffer.getvalue()).to_bytes(4, "little"))
        return atomic_write_bytes(path, buffer.getvalue())

    @classmethod
    def load(cls, path) -> "LabelInterner":
        from ..storage.serializer import CodecError, read_term, read_varint

        with open(path, "rb") as handle:
            data = handle.read()
        body = data[:-4]
        if (data[:4] != b"LINT"
                or zlib.crc32(body).to_bytes(4, "little") != data[-4:]):
            raise CodecError(f"{os.fspath(path)} is not an intact "
                             f"label-interner dictionary")
        stream: BinaryIO = io.BytesIO(body)
        stream.seek(4)
        count = read_varint(stream)
        interner = cls()
        for _ in range(count):
            interner.intern(read_term(stream))
        if len(interner) != count or stream.tell() != len(body):
            raise CodecError("duplicate labels or trailing bytes in "
                             "interner stream")
        return interner


def first_tier(parts: "Iterable[Iterator[set[int]]]") -> "list[set[int]]":
    """One fallback decision over the tier streams of one index's parts.

    ``parts`` holds one :meth:`LabelIndex.tiers` stream per part of an
    index (a shard, or the whole index).  The answer is the first tier
    that matches on *any* part, as one set per part, so a part's exact
    hit suppresses every part's fallback and the result does not
    depend on how entries are partitioned.  All sets are empty when no
    tier matches anywhere.
    """
    streams = list(parts)
    for level in zip_longest(*streams, fillvalue=set()):
        if any(level):
            return list(level)
    return [set() for _ in streams]


class LabelIndex:
    """Inverted index: label id → ascending entry ids.

    The one posting structure of every index — built, sharded and
    live.  Labels are named only by their ids in ``interner``; the
    token and thesaurus tiers read the interner's token view
    (:meth:`LabelInterner.ids_with_token`) and take the union of this
    map's postings over the label ids it names.  Entry ids only ever
    ascend (they are record offsets in write order), so :meth:`add` is
    an append and a posting is a sorted ``array('q')`` — 8 bytes an
    entry, nothing for the GC to walk.
    """

    def __init__(self, interner: LabelInterner,
                 thesaurus: "Thesaurus | None" = None,
                 postings: "dict[int, array] | None" = None):
        self.interner = interner
        self.thesaurus = thesaurus
        #: The posting lists, by label id (read-only outside :meth:`add`).
        self.postings: "dict[int, array]" = ({} if postings is None
                                              else postings)

    def add(self, label_id: int, entry_id: int) -> None:
        """Append ``entry_id`` to the posting of ``label_id``; entry ids
        must arrive in ascending order."""
        bucket = self.postings.get(label_id)
        if bucket is None:
            self.postings[label_id] = array("q", (entry_id,))
        else:
            bucket.append(entry_id)

    def add_all(self, label_ids: Iterable[int], entry_id: int) -> None:
        for label_id in label_ids:
            self.add(label_id, entry_id)

    # -- lookup --------------------------------------------------------------

    def lookup_exact(self, label: Term) -> set[int]:
        """Entries registered under exactly this label."""
        return set(self.postings.get(self.interner.id_of(label), ()))

    def lookup_token(self, token: str) -> set[int]:
        """Entries whose labels contain the word ``token``."""
        get = self.postings.get
        ids = self.interner.ids_with_token(token)
        return set(chain.from_iterable(get(label_id, ()) for label_id in ids))

    def tiers(self, label: Term, semantic: bool = True) -> Iterator[set[int]]:
        """The match tiers of ``label``, lazily, in fallback order.

        Exact match first (the cheap common case), then the token
        conjunction (all the label's words), then — when a thesaurus
        is configured and ``semantic`` is true — the union over
        thesaurus expansions of each token.  :func:`first_tier` picks
        the tier that answers.
        """
        yield self.lookup_exact(label)
        tokens = tokenize_label(label)
        if not tokens:
            return
        yield self._conjunction(tokens)
        if not (semantic and self.thesaurus):
            return
        widened: set[int] = set()
        for token in tokens:
            for variant in self.thesaurus.expand(token):
                widened |= self.lookup_token(variant)
        yield widened

    def lookup(self, label: Term, semantic: bool = True) -> set[int]:
        """Entries matching ``label`` exactly, lexically, or semantically:
        the first non-empty of its :meth:`tiers`."""
        return first_tier([self.tiers(label, semantic)])[0]

    def _conjunction(self, tokens: list[str]) -> set[int]:
        result: "set[int] | None" = None
        for token in tokens:
            entries = self.lookup_token(token)
            result = entries if result is None else result & entries
            if not result:
                return set()
        return result or set()

    @property
    def label_count(self) -> int:
        """Distinct exact labels indexed (the |hash| of build step i)."""
        return len(self.postings)

    def __repr__(self):
        return f"<LabelIndex: {self.label_count} labels>"


class SemanticMatcher:
    """A :data:`~repro.paths.alignment.LabelMatcher` with graded laxity.

    Levels
    ------
    ``exact``
        Plain term equality (the alignment default).
    ``lexical``
        Equality, or equal token sequences — ``ub:FullProfessor``
        matches the literal ``"full professor"``.
    ``semantic``
        Lexical, or token-wise thesaurus relatedness: every query token
        must be matched by some related data token.  This is the level
        the Sama prototype runs at (WordNet-backed matching, §6.1).
    """

    LEVELS = ("exact", "lexical", "semantic")

    def __init__(self, thesaurus: "Thesaurus | None" = None,
                 level: str = "semantic"):
        if level not in self.LEVELS:
            raise ValueError(f"level must be one of {self.LEVELS}, got {level!r}")
        if level == "semantic" and thesaurus is None:
            raise ValueError("semantic level needs a thesaurus")
        self.thesaurus = thesaurus
        self.level = level
        self._cache: dict[tuple[Term, Term], bool] = {}

    def __call__(self, data_label: Term, query_label: Term) -> bool:
        if data_label == query_label:
            return True
        if self.level == "exact":
            return False
        key = (data_label, query_label)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._match(data_label, query_label)
            self._cache[key] = cached
        return cached

    def _match(self, data_label: Term, query_label: Term) -> bool:
        if isinstance(data_label, Variable) or isinstance(query_label, Variable):
            # Variables are the alignment's business, not the matcher's.
            return False
        data_tokens = tokenize_label(data_label)
        query_tokens = tokenize_label(query_label)
        if not data_tokens or not query_tokens:
            return False
        if data_tokens == query_tokens:
            return True
        if self.level == "lexical":
            return False
        return self._tokens_related(data_tokens, query_tokens)

    def _tokens_related(self, data_tokens: list[str],
                        query_tokens: list[str]) -> bool:
        data_stems: set[str] = set()
        for token in data_tokens:
            data_stems |= stem_candidates(token)
        for query_token in query_tokens:
            expansion = self.thesaurus.expand(query_token)
            if any(token in expansion for token in data_tokens):
                continue
            # Morphological fallback: compare singular stems too.
            if stem_candidates(query_token) & data_stems:
                continue
            return False
        return True
