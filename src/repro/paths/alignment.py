"""Path alignment: computing τ∘φ between a data path and a query path (§4.3).

Given a query path ``q`` and a data path ``p``, an alignment is a
substitution φ of q's variables plus a transformation τ (insertions,
deletions, label mismatches) such that ``τ(φ(q)) = p``.  The paper
computes alignments "by proceeding with a scan contrary to the
direction of the edges" — a backward walk from the sink — and states
the cost is ``O(|p| + |q|)``.

:func:`align` implements that linear-time greedy scan.  Both paths are
anchored at their sink ends; the walk then consumes ``(edge, node)``
pairs backwards.  Whenever the data path is longer than the query path
the surplus pairs must be inserted into q (they are what τ adds); the
greedy rule spends that insertion budget at the first position where
the edge labels conflict, and any budget left when the query side is
exhausted is spent on the data path's source-side remainder.  Query
variables substitute for any constant at zero cost.

:func:`align` is the paper-shaped reference: it builds answers,
``explain`` output and transcripts, and it is what the tests compare
the engine's hot-path scan against — candidates are *scored* by the
id-space replay of the same walk,
:func:`repro.index.columnar.score_rows`.

:func:`align_optimal` is a dynamic-programming reference (O(|p|·|q|))
that provably minimises the weighted cost; the test suite uses it to
bound how far the greedy scan can drift, and the engine can be switched
to it for small workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..rdf.terms import Term, Variable
from .model import Path
from .substitution import BindingConflict, Substitution

#: Decides whether a data-side constant satisfies a query-side constant.
#: The default is label equality; the index layer substitutes a
#: thesaurus-aware matcher (synonyms/hyponyms/hypernyms, §6.1).
LabelMatcher = Callable[[Term, Term], bool]


def exact_match(data_label: Term, query_label: Term) -> bool:
    """The default matcher: plain label equality."""
    return data_label == query_label


class EditOp(NamedTuple):
    """One step of an alignment transcript.

    ``kind`` is one of ``match-node``, ``bind``, ``mismatch-node``,
    ``insert-node``, ``delete-node`` and the ``-edge`` variants.
    ``data`` / ``query`` carry the labels involved (``None`` where a
    side does not participate).
    """

    kind: str
    data: "Term | None"
    query: "Term | None"


@dataclass(frozen=True)
class AlignmentCounts:
    """The four counters of Equation 1, plus the zero-weight deletions.

    ``node_mismatches`` is n⁻_N (nodes of p whose label is not in q),
    ``node_insertions`` is n↑_N (nodes τ inserts into q), and likewise
    for edges.  Deletions — query elements with no data counterpart —
    carry weight 0 in the paper (ω(deletion) = 0 in the Theorem 1
    proof) but are still counted so callers can inspect them.
    """

    node_mismatches: int = 0
    node_insertions: int = 0
    edge_mismatches: int = 0
    edge_insertions: int = 0
    node_deletions: int = 0
    edge_deletions: int = 0

    @property
    def is_exact(self) -> bool:
        """True when the alignment is a pure substitution (τ empty)."""
        return self == AlignmentCounts()

    def __add__(self, other: "AlignmentCounts") -> "AlignmentCounts":
        return AlignmentCounts(
            self.node_mismatches + other.node_mismatches,
            self.node_insertions + other.node_insertions,
            self.edge_mismatches + other.edge_mismatches,
            self.edge_insertions + other.edge_insertions,
            self.node_deletions + other.node_deletions,
            self.edge_deletions + other.edge_deletions,
        )


@dataclass(frozen=True)
class Alignment:
    """The result of aligning a data path against a query path."""

    data_path: Path
    query_path: Path
    counts: AlignmentCounts
    substitution: Substitution
    ops: tuple[EditOp, ...] = field(default=(), repr=False)

    @property
    def is_exact(self) -> bool:
        """True when p is obtainable from q by substitution alone."""
        return self.counts.is_exact

    def explain(self) -> str:
        """A human-readable transcript, for debugging and examples."""
        lines = [f"align  p = {self.data_path}",
                 f"  over q = {self.query_path}"]
        for op in self.ops:
            if op.kind == "bind":
                lines.append(f"    φ: {op.query} := {op.data}")
            elif op.kind.startswith("match"):
                lines.append(f"    {op.kind}: {op.data}")
            elif op.kind.startswith("mismatch"):
                lines.append(f"    {op.kind}: {op.data} vs {op.query}")
            elif op.kind.startswith("insert"):
                lines.append(f"    τ {op.kind}: {op.data}")
            else:
                lines.append(f"    τ {op.kind}: {op.query}")
        return "\n".join(lines)


class _Scanner:
    """Mutable state of one greedy backward scan.

    With ``record_ops=False`` the transcript is skipped: counts and the
    substitution are still exact (scores and bindings are unaffected),
    but no :class:`EditOp` objects are built.  Clustering aligns every
    retrieved candidate and only ever reads counts + substitution, so
    the transcript would be allocated millions of times and read never
    — the engine's hot path runs with recording off, while ``explain``
    paths keep the default.
    """

    def __init__(self, matcher: LabelMatcher, record_ops: bool = True):
        self.matcher = matcher
        self.record_ops = record_ops
        self.ops: list[EditOp] = []
        self.substitution = Substitution()
        self.node_mismatches = 0
        self.node_insertions = 0
        self.edge_mismatches = 0
        self.edge_insertions = 0
        self.node_deletions = 0
        self.edge_deletions = 0

    def compare_node(self, data_label: Term, query_label: Term) -> None:
        if isinstance(query_label, Variable):
            try:
                self.substitution = self.substitution.bind(query_label, data_label)
                if self.record_ops:
                    self.ops.append(EditOp("bind", data_label, query_label))
            except BindingConflict:
                # A variable repeated in one query path that would need
                # two different constants: counted as a node mismatch.
                self.node_mismatches += 1
                if self.record_ops:
                    self.ops.append(EditOp("mismatch-node", data_label,
                                           query_label))
            return
        if self.matcher(data_label, query_label):
            if self.record_ops:
                self.ops.append(EditOp("match-node", data_label, query_label))
        else:
            self.node_mismatches += 1
            if self.record_ops:
                self.ops.append(EditOp("mismatch-node", data_label, query_label))

    def compare_edge(self, data_label: Term, query_label: Term) -> None:
        if isinstance(query_label, Variable):
            try:
                self.substitution = self.substitution.bind(query_label, data_label)
                if self.record_ops:
                    self.ops.append(EditOp("bind", data_label, query_label))
            except BindingConflict:
                self.edge_mismatches += 1
                if self.record_ops:
                    self.ops.append(EditOp("mismatch-edge", data_label,
                                           query_label))
            return
        if self.matcher(data_label, query_label):
            if self.record_ops:
                self.ops.append(EditOp("match-edge", data_label, query_label))
        else:
            self.edge_mismatches += 1
            if self.record_ops:
                self.ops.append(EditOp("mismatch-edge", data_label, query_label))

    def edge_compatible(self, data_label: Term, query_label: Term) -> bool:
        if isinstance(query_label, Variable):
            return True
        return self.matcher(data_label, query_label)

    def insert_pair(self, edge_label: Term, node_label: Term) -> None:
        self.edge_insertions += 1
        self.node_insertions += 1
        if self.record_ops:
            self.ops.append(EditOp("insert-edge", edge_label, None))
            self.ops.append(EditOp("insert-node", node_label, None))

    def delete_pair(self, edge_label: Term, node_label: Term) -> None:
        self.edge_deletions += 1
        self.node_deletions += 1
        if self.record_ops:
            self.ops.append(EditOp("delete-edge", None, edge_label))
            self.ops.append(EditOp("delete-node", None, node_label))

    def counts(self) -> AlignmentCounts:
        return AlignmentCounts(
            node_mismatches=self.node_mismatches,
            node_insertions=self.node_insertions,
            edge_mismatches=self.edge_mismatches,
            edge_insertions=self.edge_insertions,
            node_deletions=self.node_deletions,
            edge_deletions=self.edge_deletions,
        )


def align(data_path: Path, query_path: Path,
          matcher: LabelMatcher = exact_match,
          transcript: bool = True) -> Alignment:
    """Greedy linear-time alignment (the paper's §4.3 scan).

    Runs in ``O(|p| + |q|)``: every iteration of the loop consumes at
    least one ``(edge, node)`` pair from one of the two paths.

    ``transcript=False`` skips recording the :class:`EditOp` sequence
    (``ops`` comes back empty); counts, score, and substitution are
    identical.  The clustering hot path uses this — it scores millions
    of candidates and reads the transcript of none of them.
    """
    scanner = _Scanner(matcher, record_ops=transcript)
    # Anchor the sinks: both paths end at their sink by construction.
    scanner.compare_node(data_path.sink, query_path.sink)

    p_edges, p_nodes = data_path.edges, data_path.nodes
    q_edges, q_nodes = query_path.edges, query_path.nodes
    pi = len(p_edges) - 1
    qi = len(q_edges) - 1
    budget = max(0, (pi + 1) - (qi + 1))

    while pi >= 0 and qi >= 0:
        p_edge, p_node = p_edges[pi], p_nodes[pi]
        q_edge = q_edges[qi]
        if budget > 0 and not scanner.edge_compatible(p_edge, q_edge):
            scanner.insert_pair(p_edge, p_node)
            pi -= 1
            budget -= 1
            continue
        scanner.compare_edge(p_edge, q_edge)
        scanner.compare_node(p_node, q_nodes[qi])
        pi -= 1
        qi -= 1
    while pi >= 0:
        # Data-side remainder at the source end: τ must insert it.
        scanner.insert_pair(p_edges[pi], p_nodes[pi])
        pi -= 1
    while qi >= 0:
        # Query-side remainder: deletions, weight 0 per the paper.
        scanner.delete_pair(q_edges[qi], q_nodes[qi])
        qi -= 1

    return Alignment(data_path=data_path, query_path=query_path,
                     counts=scanner.counts(),
                     substitution=scanner.substitution,
                     ops=tuple(reversed(scanner.ops)))


def prefix_at_anchor(path: Path, anchor: Term,
                     matcher: LabelMatcher = exact_match) -> "Path | None":
    """The longest prefix of ``path`` ending at a node matching ``anchor``
    — the sink-anchored trim applied to a candidate retrieved through a
    mid-path label (§4.3: alignment starts from the sinks).

    Returns ``None`` when no node matches (the candidate matched the
    containment lookup through an edge label or a token; it cannot be
    sink-anchored, so it is dropped).  Like :func:`align`, this is the
    label-space reference of what the engine's id-space scan
    (:func:`repro.index.columnar.score_rows`) does per candidate.
    """
    for position in range(path.length - 1, -1, -1):
        node = path.nodes[position]
        if node == anchor or matcher(node, anchor):
            return path.prefix(position + 1)
    return None


def align_optimal(data_path: Path, query_path: Path, weights,
                  matcher: LabelMatcher = exact_match) -> Alignment:
    """Minimum-cost alignment by dynamic programming (O(|p|·|q|)).

    ``weights`` is a :class:`~repro.scoring.weights.ScoringWeights`; the
    DP minimises the λ cost of Equation 1 exactly, with deletions at
    the configured (default zero) deletion weights.  Sink nodes are
    anchored like the greedy scan so both algorithms solve the same
    problem.
    """
    p_pairs = [(data_path.edges[i], data_path.nodes[i])
               for i in range(len(data_path.edges) - 1, -1, -1)]
    q_pairs = [(query_path.edges[i], query_path.nodes[i])
               for i in range(len(query_path.edges) - 1, -1, -1)]
    m, n = len(p_pairs), len(q_pairs)
    insert_cost = weights.node_insertion + weights.edge_insertion
    delete_cost = weights.node_deletion + weights.edge_deletion

    def pair_cost(p_pair, q_pair) -> float:
        p_edge, p_node = p_pair
        q_edge, q_node = q_pair
        cost = 0.0
        if not isinstance(q_edge, Variable) and not matcher(p_edge, q_edge):
            cost += weights.edge_mismatch
        if not isinstance(q_node, Variable) and not matcher(p_node, q_node):
            cost += weights.node_mismatch
        return cost

    # dp[i][j] = min cost aligning first i pairs of p against first j of q.
    infinity = float("inf")
    dp = [[infinity] * (n + 1) for _ in range(m + 1)]
    choice = [[""] * (n + 1) for _ in range(m + 1)]
    dp[0][0] = 0.0
    for i in range(m + 1):
        for j in range(n + 1):
            base = dp[i][j]
            if base == infinity:
                continue
            if i < m and base + insert_cost < dp[i + 1][j]:
                dp[i + 1][j] = base + insert_cost
                choice[i + 1][j] = "insert"
            if j < n and base + delete_cost < dp[i][j + 1]:
                dp[i][j + 1] = base + delete_cost
                choice[i][j + 1] = "delete"
            if i < m and j < n:
                step = base + pair_cost(p_pairs[i], q_pairs[j])
                if step < dp[i + 1][j + 1]:
                    dp[i + 1][j + 1] = step
                    choice[i + 1][j + 1] = "substitute"

    # Reconstruct the op sequence (sink-to-source order while walking
    # back, re-reversed at the end like the greedy scan).
    scanner = _Scanner(matcher)
    scanner.compare_node(data_path.sink, query_path.sink)
    steps = []
    i, j = m, n
    while i > 0 or j > 0:
        move = choice[i][j]
        steps.append(move)
        if move == "insert":
            i -= 1
        elif move == "delete":
            j -= 1
        else:
            i -= 1
            j -= 1
    # ``steps`` was collected walking back from (m, n); reverse it so it
    # replays sink-to-source, matching the pair lists' orientation.
    steps.reverse()
    i = j = 0
    for move in steps:
        if move == "insert":
            scanner.insert_pair(*p_pairs[i])
            i += 1
        elif move == "delete":
            scanner.delete_pair(*q_pairs[j])
            j += 1
        else:
            p_edge, p_node = p_pairs[i]
            q_edge, q_node = q_pairs[j]
            scanner.compare_edge(p_edge, q_edge)
            scanner.compare_node(p_node, q_node)
            i += 1
            j += 1

    return Alignment(data_path=data_path, query_path=query_path,
                     counts=scanner.counts(),
                     substitution=scanner.substitution,
                     ops=tuple(reversed(scanner.ops)))
