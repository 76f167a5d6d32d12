"""The λ scan in id space: one loop for every scorer, and its row sources.

The paper's λ is a weighted count of the mismatches, insertions and
deletions found by one linear, sink-anchored greedy scan (§4.3), and
that scan only ever *compares* labels.  Every label the index stores is
its :class:`~repro.index.labels.LabelInterner` id, so
:func:`score_rows` runs the scan — anchor trim, backward walk,
insertion-budget rule, variable bindings, the six-term weighted sum —
over ``(node ids, edge ids)`` rows of small ints, and every scorer is a
caller of it: clustering on the coordinator (rows are the ids a decoded
:class:`~repro.paths.model.Path` carries) and the ``worker_mode="procs"``
shard workers (rows are slices of a :class:`ColumnarView`).  It replays
:func:`repro.paths.alignment.align` — the paper-shaped reference that
builds answers, ``explain`` output and transcripts — *exactly*: same
traversal order, same insertion-budget rule, same variable-binding
semantics, and the same float summation order for the weighted λ, so
scores are bit-identical to the reference's (asserted over every
candidate, for both row sources, in ``tests/test_multiproc.py``).  Two
facts make id-space comparison sound:

- interning is injective (one id per distinct term), so id equality
  *is* term equality;
- when ids differ, the label matcher decides — looked up through the
  interner and memoised per id pair by :func:`make_id_matcher`.

The walk's control flow depends only on the data path's *edge* ids:
where the insertion budget is spent, which edges mismatch, how many
leading inserts or deletes remain.  Node ids add only mismatch counts.
So :func:`score_rows` compiles the walk once per call for each trimmed
edge-id sequence — an *edge shape* — into a plan (:func:`_walk_plan`):
the shape's fixed counts, its ordered node checks ``(data position,
query constant)``, and binding operations for the variable slots that
occur more than once in the query path.  After the anchor trim a
candidate costs one dict lookup on its edge ids' bytes, its plan's node
checks and bindings, and the six-term λ sum.  Candidates share few
shapes: at LUBM 8000 the 12 templates send 95 067 candidates through
the scan and compile 432 plans (Q7: 8 245 candidates, 30 plans); see
DESIGN.md "One scan, every mode" for the other generators.

A query path is encoded once per cluster (:func:`encode_query`).
Variables cannot be interned (they are not data labels); they are
negative ids, ``-(slot + 1)`` into a per-query binding table, mirroring
the reference scanner's binding dict.  A constant the data never
mentions is not interned either — a read must not grow the dictionary —
and takes an id from :data:`FOREIGN_BASE` up, a range no stored label
can occupy, resolved through the encoding's own table and forgotten
with it.

A worker process holds its shard as flat columns, projected **once** at
start-up, so it never decodes a ``Path`` per candidate per query:

.. code-block:: text

    node_ids   [ p0n0 p0n1 p0n2 | p1n0 p1n1 | p2n0 p2n1 p2n2 p2n3 | ...]
    edge_ids   [ p0e0 p0e1      | p1e0      | p2e0 p2e1 p2e2      | ...]
    node_offs  [ 0, 3, 5, 9, ...]        # row r spans node_offs[r]:[r+1]

A path of *n* nodes always carries *n − 1* edges, so the edge column
needs no offsets of its own: row ``r``'s edges start at
``node_offs[r] - r``.
"""

from __future__ import annotations

from array import array

from ..paths.model import Path
from ..rdf.terms import Variable
from ..scoring.weights import ScoringWeights

#: Candidates scored between two deadline checks of :func:`score_rows`.
CHECK_STRIDE = 64

#: First id of a query-only constant.  Stored ids live in ``array('i')``
#: columns and so stay below it whatever a live writer interns while a
#: query runs.
FOREIGN_BASE = 1 << 31

#: Verdict of a candidate class whose representative fell to the anchor
#: trim: every member is dropped too.
DROPPED = object()


class ColumnarView:
    """One shard's paths as flat label-id columns (see module docs).

    Built once per worker process from an open
    :class:`~repro.index.pathindex.PathIndex`; after the build the
    index's decode cache can be dropped — scoring never touches
    ``Path`` objects again.
    """

    __slots__ = ("node_ids", "node_offs", "edge_ids", "row_of")

    def __init__(self, node_ids: array, node_offs: array,
                 edge_ids: array, row_of: "dict[int, int]"):
        self.node_ids = node_ids
        self.node_offs = node_offs
        self.edge_ids = edge_ids
        #: Storage offset -> row number, in build-walk order.  Shard
        #: tasks address candidates by their shard-local offsets.
        self.row_of = row_of

    @classmethod
    def build(cls, index) -> "ColumnarView":
        """Project every stored path of ``index`` into columns."""
        node_ids = array("i")
        edge_ids = array("i")
        node_offs = array("l", [0])
        row_of: "dict[int, int]" = {}
        for row, offset in enumerate(index.all_offsets()):
            path = index.path_at(offset)
            node_ids.extend(path.label_ids)
            edge_ids.extend(path.edge_ids)
            node_offs.append(len(node_ids))
            row_of[offset] = row
        return cls(node_ids, node_offs, edge_ids, row_of)

    def ids_at(self, offset: int) -> "tuple[array, array]":
        """The ``(node ids, edge ids)`` row of the path stored at
        ``offset``."""
        row = self.row_of[offset]
        start, end = self.node_offs[row], self.node_offs[row + 1]
        return (self.node_ids[start:end],
                self.edge_ids[start - row:end - row - 1])


class EncodedQuery:
    """A query path in id space: stored constants by their interned
    id, query-only constants from :data:`FOREIGN_BASE` up, variables
    negative."""

    __slots__ = ("nodes", "edges", "var_count", "anchor_id", "ids_match")

    def __init__(self, nodes: "list[int]", edges: "list[int]",
                 var_count: int, anchor_id: "int | None", ids_match):
        self.nodes = nodes
        self.edges = edges
        self.var_count = var_count
        #: Id of the trim anchor, or ``None`` when candidates are taken
        #: whole (sink lookups and non-sink anchors).
        self.anchor_id = anchor_id
        #: The label comparison for this query's ids: the shared
        #: :func:`make_id_matcher` callable, or — when the query brought
        #: constants of its own — one scoped to this encoding.
        self.ids_match = ids_match

    def constant_ids(self) -> "tuple[int, ...]":
        """Every id the scan may compare a data label against, sorted:
        the constant nodes and edges plus the trim anchor."""
        found = {label for label in self.nodes if label >= 0}
        found.update(label for label in self.edges if label >= 0)
        if self.anchor_id is not None:
            found.add(self.anchor_id)
        return tuple(sorted(found))


def encode_query(query_path: Path, ids_match, anchor=None) -> EncodedQuery:
    """Encode ``query_path`` (and its trim ``anchor``) for the
    dictionary behind ``ids_match`` (see module docs).

    Node and edge variables share one binding table, exactly like the
    reference scanner's single binding dict — ``?v`` used as both a
    node and an edge label is one variable.  Nothing is interned: a
    constant without a stored id equals no data label, so it gets a
    foreign id and the matcher still decides through
    ``ids_match.scoped``.
    """
    id_of = ids_match.interner.id_of
    slots: "dict[Variable, int]" = {}
    foreign: dict = {}          # query-only constant -> its slot

    def encode(term) -> int:
        if isinstance(term, Variable):
            return -(slots.setdefault(term, len(slots)) + 1)
        label_id = id_of(term)
        if label_id is None:
            label_id = FOREIGN_BASE + foreign.setdefault(term, len(foreign))
        return label_id

    nodes = [encode(node) for node in query_path.nodes]
    edges = [encode(edge) for edge in query_path.edges]
    anchor_id = None if anchor is None else encode(anchor)
    return EncodedQuery(
        nodes, edges, len(slots), anchor_id,
        ids_match.scoped(list(foreign)) if foreign else ids_match)


def make_id_matcher(interner, matcher):
    """An id-space label comparison: equality, else the memoised matcher.

    The returned ``ids_match(data id, query id)`` outlives queries on
    purpose — a verdict depends only on the two labels, so ``.memo`` is
    valid for the life of ``.interner`` and amortises thesaurus lookups
    across every query of an engine (or a worker process), which builds
    exactly one per ``(interner, matcher)``.  ``.matcher`` is the
    label-space comparison it wraps (what reference alignments use).

    ``.scoped(foreign)`` is the comparison for one query whose
    constants ``FOREIGN_BASE + n`` stand for ``foreign[n]``, labels the
    dictionary does not hold: their verdicts are memoised in the scoped
    callable and go when the query drops it, so unseen constants leave
    neither the dictionary nor the shared memo any larger.
    """
    lookup = interner.lookup
    memo: "dict[tuple[int, int], bool]" = {}

    def ids_match(data_id: int, query_id: int) -> bool:
        if data_id == query_id:
            return True
        key = (data_id, query_id)
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = bool(matcher(lookup(data_id),
                                               lookup(query_id)))
        return verdict

    def scoped(foreign):
        own: "dict[tuple[int, int], bool]" = {}

        def scoped_match(data_id: int, query_id: int) -> bool:
            if query_id < FOREIGN_BASE:
                return ids_match(data_id, query_id)
            key = (data_id, query_id)
            verdict = own.get(key)
            if verdict is None:
                verdict = own[key] = bool(matcher(
                    lookup(data_id), foreign[query_id - FOREIGN_BASE]))
            return verdict

        return scoped_match

    ids_match.interner = interner
    ids_match.matcher = matcher
    ids_match.memo = memo
    ids_match.scoped = scoped
    return ids_match


def score_rows(gids, ids_of, query: EncodedQuery, weights: ScoringWeights,
               expired=None, key_of=None, verdicts=None):
    """λ-score the candidates ``gids`` against ``query``: the one scan.

    ``ids_of(gid)`` is the row source — the candidate's ``(node ids,
    edge ids)`` as ``array('i')`` sequences, or ``None`` when it cannot
    be read (skipped).  Returns ``(rows, tripped)``: ``rows`` holds
    ``(λ, gid, prefix length, node ids of the prefix)`` per kept
    candidate, in candidate order, and ``tripped`` reports that
    ``expired()`` — the caller's deadline check, consulted every
    :data:`CHECK_STRIDE` candidates — cut the scan short (the rows so
    far are kept: cooperative degradation).

    When ``query.anchor_id`` is set, each candidate is first cut at its
    last node matching the anchor (the sink-anchored §4.3 trim, as
    :func:`repro.paths.alignment.prefix_at_anchor`); a candidate with no
    matching node is dropped.

    The backward walk is compiled once per call for each trimmed edge
    shape (:func:`_walk_plan`, keyed on the edge ids' bytes): after the
    trim a candidate costs one dict lookup, its plan's node checks and
    binding operations, and the six-term λ sum over the counts.

    ``key_of(gid)`` optionally names the candidate's class — any key
    under which the scan is provably branch-identical (the refine key of
    :mod:`repro.quotient.resolve`); ``None`` is a class of one.  The
    first readable candidate of a class is scanned and its ``(λ, prefix
    length)`` — or :data:`DROPPED` — filed in ``verdicts``; later
    members copy it without being read, and their rows carry ``None``
    for the node ids.  ``verdicts`` may be shared by concurrent calls:
    get/put are GIL-atomic and a key determines its verdict bit-exactly,
    so a racing duplicate write stores the identical value.
    """
    node_mis = weights.node_mismatch
    node_ins = weights.node_insertion
    edge_mis = weights.edge_mismatch
    edge_ins = weights.edge_insertion
    node_del = weights.node_deletion
    edge_del = weights.edge_deletion
    anchor_id = query.anchor_id
    ids_match = query.ids_match
    slots = _repeated_slots(query)
    var_count = query.var_count
    plans: "dict[bytes, tuple]" = {}

    rows: "list[tuple]" = []
    tripped = False
    for rank, gid in enumerate(gids):
        if (expired is not None and rank and rank % CHECK_STRIDE == 0
                and expired()):
            tripped = True
            break
        key = key_of(gid) if key_of is not None else None
        if key is not None:
            verdict = verdicts.get(key)
            if verdict is not None:
                if verdict is not DROPPED:
                    rows.append((verdict[0], gid, verdict[1], None))
                continue
        ids = ids_of(gid)
        if ids is None:
            continue        # unreadable: the class's next member stands in
        path_nodes, path_edges = ids
        plen = len(path_nodes)
        if anchor_id is not None:
            for position in range(plen - 1, -1, -1):
                label = path_nodes[position]
                if label == anchor_id or ids_match(label, anchor_id):
                    break
            else:
                if key is not None:
                    verdicts[key] = DROPPED
                continue
            if position + 1 != plen:
                plen = position + 1
                path_nodes = path_nodes[:plen]
                path_edges = path_edges[:position]
        shape = path_edges.tobytes()
        plan = plans.get(shape)
        if plan is None:
            plan = plans[shape] = _walk_plan(path_edges, query, slots)
        edge_mismatches, insertions, deletions, checks, binds = plan
        node_mismatches = 0
        for position, label in checks:
            data_label = path_nodes[position]
            if data_label != label and not ids_match(data_label, label):
                node_mismatches += 1
        if binds:
            bindings = [None] * var_count
            for slot, position, data_label in binds:
                at_node = data_label is None
                if at_node:
                    data_label = path_nodes[position]
                bound = bindings[slot]
                if bound is None:
                    bindings[slot] = data_label
                elif bound != data_label:   # conflict: binding kept
                    if at_node:
                        node_mismatches += 1
                    else:
                        edge_mismatches += 1
        # A data (edge, node) pair is inserted or deleted together.
        score = (node_mis * node_mismatches
                 + node_ins * insertions
                 + edge_mis * edge_mismatches
                 + edge_ins * insertions
                 + node_del * deletions
                 + edge_del * deletions)
        if key is not None:
            verdicts[key] = (score, plen)
        rows.append((score, gid, plen, path_nodes))
    return rows, tripped


def _repeated_slots(query: EncodedQuery) -> "dict[int, bool]":
    """The query path's variable slots that occur more than once, each
    mapped to whether one of its occurrences is a node (the only slots
    a plan must bind per candidate).  A slot that occurs once can never
    conflict."""
    seen: "dict[int, int]" = {}
    at_node: "set[int]" = set()
    for label in query.nodes:
        if label < 0:
            seen[-label - 1] = seen.get(-label - 1, 0) + 1
            at_node.add(-label - 1)
    for label in query.edges:
        if label < 0:
            seen[-label - 1] = seen.get(-label - 1, 0) + 1
    return {slot: slot in at_node for slot, count in seen.items()
            if count > 1}


def _walk_plan(path_edges, query: EncodedQuery,
               slots: "dict[int, bool]") -> tuple:
    """The backward walk of :func:`score_rows` over one data edge-id
    sequence, compiled for every candidate of that edge shape.

    The walk's control flow — where the insertion budget is spent,
    which edges mismatch, how many leading inserts or deletes remain —
    reads only edge labels, so the shape fixes it.  Node labels add
    only mismatches: the plan keeps them as ordered ``(data position,
    query constant)`` checks.  Of the repeated variable slots
    (:func:`_repeated_slots`), one seen only at edges is bound here, on
    the shape's own edge ids; one that also occurs at a node keeps its
    binding operations — ``(slot, data position, None)`` at a node,
    ``(slot, None, data edge id)`` at an edge — in walk order, for the
    candidate to replay.

    Returns ``(edge mismatches, insertions, deletions, checks,
    binds)``: the shape's fixed counts — an insertion or deletion is one
    of each, node and edge — and what each candidate replays.
    """
    query_nodes = query.nodes
    query_edges = query.edges
    ids_match = query.ids_match
    checks: "list[tuple[int, int]]" = []
    binds: "list[tuple]" = []
    edge_bindings: "dict[int, int]" = {}
    edge_mismatches = insertions = 0
    # Sink nodes first (the alignment is sink-anchored), then both edge
    # sequences backwards: each round visits one node pair and steps
    # to the next edge pair.
    data_pos = len(path_edges)
    query_pos = len(query_edges)
    budget = max(data_pos - query_pos, 0)
    while True:
        label = query_nodes[query_pos]
        if label >= 0:
            checks.append((data_pos, label))
        elif slots.get(-label - 1):
            binds.append((-label - 1, data_pos, None))
        data_pos -= 1
        query_pos -= 1
        # Spend insertion budget at the first incompatible edge: skip
        # the data (edge, node) pair and retry this query edge one step
        # earlier, exactly like the reference.
        while budget > 0 and data_pos >= 0 and query_pos >= 0:
            query_edge = query_edges[query_pos]
            if query_edge < 0 or ids_match(path_edges[data_pos], query_edge):
                break
            insertions += 1
            data_pos -= 1
            budget -= 1
        if data_pos < 0 or query_pos < 0:
            break
        data_edge = path_edges[data_pos]
        query_edge = query_edges[query_pos]
        if query_edge >= 0:
            if not ids_match(data_edge, query_edge):
                edge_mismatches += 1
        else:
            slot = -query_edge - 1
            if slots.get(slot):
                binds.append((slot, None, data_edge))
            elif slot in slots:
                if edge_bindings.setdefault(slot, data_edge) != data_edge:
                    edge_mismatches += 1     # conflict: binding kept
    insertions += data_pos + 1          # longer data path: leading inserts
    deletions = query_pos + 1           # longer query path: leading deletes
    return (edge_mismatches, insertions, deletions, tuple(checks),
            tuple(binds))
