"""Clustering (§5, step 2): one ranked cluster of data paths per query path.

For every query path ``q`` the engine retrieves candidate data paths
from the index — by sink when ``q`` ends in a constant, otherwise by
the first constant found scanning backwards from the sink — evaluates
the alignment of each candidate, and keeps the cluster ordered by λ
score, best (lowest) first.  A data path may appear in several clusters
with different scores (``p1`` scores 0 in ``cl1`` and 1.5 in ``cl2`` in
the paper's Fig. 3), which is exactly what happens here.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from ..index.columns import PathColumns
from ..index.pathindex import PathIndex
from ..parallel import chunked
from ..paths.alignment import Alignment, LabelMatcher, align, exact_match
from ..paths.model import Path
from ..quotient.resolve import DROPPED
from ..resilience.budget import Budget, DegradationCause
from ..resilience.errors import IndexCorruptError, StorageError
from ..scoring.quality import lambda_cost
from ..scoring.weights import PAPER_WEIGHTS, ScoringWeights
from .preprocess import PreparedQuery

#: Exception types treated as "this shard failed" rather than "this
#: query failed" when they escape a per-shard task or a per-candidate
#: decode over a sharded index.  Everything the storage stack raises
#: deliberately (ShardUnavailableError, TransientStorageError after
#: retries, checksum failures) plus raw OS-level trouble.
_SHARD_FAULTS = (StorageError, IndexCorruptError, OSError)

#: Extra seconds granted beyond the budget's remaining deadline before
#: a dispatched shard task is declared overrun and its partial dropped.
#: Not a tuning knob for straggler latency (that is ``hedge_ms``) —
#: just the slack that separates "cooperatively degraded inside the
#: task" from "the task itself is wedged".
_SHARD_DEADLINE_GRACE_S = 0.25

#: Candidates charged to the budget per call (granularity of the
#: ``max_candidates`` cap inside one cluster).
_CHARGE_BLOCK = 64

#: Below this many candidates a cluster is aligned serially even when
#: an executor is available: dispatch overhead beats the win (measured
#: in ``benchmarks/bench_hotpath.py``).
PARALLEL_THRESHOLD = 512

#: Minimum candidates before a cluster over a sharded index
#: scatter-gathers.  Much lower than :data:`PARALLEL_THRESHOLD`:
#: scatter dispatch is one task per shard (not one per
#: :data:`_CHUNK`-slice), and the win it buys — overlapping each
#: shard's physical page reads — already pays at small clusters when
#: the buffer pool is cold (measured in
#: ``benchmarks/bench_sharding.py``).
SCATTER_THRESHOLD = 64

#: Candidates per parallel alignment chunk.
_CHUNK = 128


#: Cluster order: best (lowest) λ first, gid breaking ties.
_BY_SCORE_THEN_GID = attrgetter("score", "offset")


@dataclass(frozen=True)
class ClusterEntry:
    """One candidate data path in a cluster, with its alignment and λ.

    ``path`` may be a *prefix* of the stored path when the query path's
    sink matched mid-path (see :func:`build_clusters`); ``offset`` still
    identifies the stored path.  ``uid`` identifies the ``(offset,
    prefix length)`` row — the search keys its pairwise-ψ cache on it
    (cheaper than hashing tuples millions of times).  ``id_set`` is the
    χ operand: the frozenset of the path's interned node label ids
    (``None`` when the path carries none); :func:`build_clusters` hands
    in the shared object of :class:`~repro.index.columns.PathColumns`.
    """

    offset: int
    path: Path
    alignment: Alignment
    score: float
    uid: int = -1
    id_set: "frozenset[int] | None" = None

    def __post_init__(self):
        if self.id_set is None:
            object.__setattr__(self, "id_set", self.path.node_label_id_set())

    @property
    def cache_key(self) -> tuple[int, int]:
        return (self.offset, self.path.length)

    # The search reads paths through these entry-level accessors (never
    # ``entry.path.X`` directly), so a LazyClusterEntry can answer from
    # its shared id column without decoding the path.

    @property
    def path_length(self) -> int:
        return self.path.length

    def node_label_set(self) -> frozenset:
        return self.path.node_label_set()

    def label_name(self, key) -> str:
        """Lexical form of one of this entry's bucket keys (interned
        node label id or label) — the rarest-label tie-break."""
        if isinstance(key, int):
            path = self.path
            key = path.nodes[path.label_ids.index(key)]
        return str(key)

    def __str__(self):
        return f"{self.path} [{self.score:g}]"


class _EntryContext:
    """What a :class:`LazyClusterEntry` needs to materialize on demand.

    One per cluster, shared by all of its lazy entries: the index (to
    decode), the query path + matcher (to re-align), the per-query memo
    (so a threads-mode entry whose alignment was already computed
    inside its shard task finds it instead of paying a second greedy
    scan), and the epoch's column store (label spellings).
    """

    __slots__ = ("index", "query_path", "matcher", "memo", "transcript",
                 "columns")

    def __init__(self, index, query_path, matcher, memo, transcript, columns):
        self.index = index
        self.query_path = query_path
        self.matcher = matcher
        self.memo = memo
        self.transcript = transcript
        self.columns = columns


class LazyClusterEntry:
    """A cluster entry that is a row: ``(λ, gid, prefix length)`` plus
    the shared columns of that stored path.

    Scatter tasks and quotient classes produce rows, not
    ``Path``/``Alignment`` objects: the row is what ranking needs, and
    most entries of a large cluster are never looked at again.  The
    node-id set — the very object
    :class:`~repro.index.columns.PathColumns` keeps for the epoch,
    never a per-query copy — answers everything the top-k search asks
    in bulk (χ operands, candidate buckets), so whole
    clusters are joined without touching the page store; the path is
    decoded (and the alignment recomputed) lazily only for the entries
    that become answers, explain output, or pool selections.

    Duck-types :class:`ClusterEntry`: same attributes, same
    ``cache_key``, same entry-level accessors, lazily the same
    ``path``/``alignment``.
    """

    __slots__ = ("offset", "score", "uid", "id_set", "_plen", "_context",
                 "_path", "_alignment")

    def __init__(self, context: _EntryContext, gid: int, plen: int,
                 score: float, row: tuple):
        self.offset = gid
        self.score = score
        self._plen = plen
        self._context = context
        self.uid, self.id_set = row
        self._path = None
        self._alignment = None

    @property
    def path(self) -> Path:
        path = self._path
        if path is None:
            path = self._context.index.path_at(self.offset)
            if path.length != self._plen:
                path = path.prefix(self._plen)
            self._path = path
        return path

    @property
    def alignment(self) -> Alignment:
        alignment = self._alignment
        if alignment is None:
            context = self._context
            key = (self.offset, self._plen, context.query_path)
            found = context.memo.get(key)
            if found is not None:
                alignment = found[0]
            else:
                alignment = align(self.path, context.query_path,
                                  context.matcher,
                                  transcript=context.transcript)
                context.memo.put(key, alignment, self.score)
            self._alignment = alignment
        return alignment

    @property
    def cache_key(self) -> tuple[int, int]:
        return (self.offset, self._plen)

    @property
    def path_length(self) -> int:
        return self._plen

    def node_label_set(self) -> frozenset:
        if self.id_set is not None:
            lookup = self._context.index.interner.lookup
            return frozenset(lookup(label_id) for label_id in self.id_set)
        return self.path.node_label_set()

    def label_name(self, key) -> str:
        if isinstance(key, int):
            return self._context.columns.name(key)
        return str(key)

    def __str__(self):
        return f"{self.path} [{self.score:g}]"


@dataclass
class Cluster:
    """All candidates for one query path, sorted best-first by λ.

    ``missing_penalty`` is the λ charged when a combination leaves this
    query path uncovered (the cluster may be empty, or search may run
    past its end): every node and edge of the query path is priced as a
    mismatch.  The paper does not spell this case out; see DESIGN.md.
    """

    query_path: Path
    entries: list[ClusterEntry]
    missing_penalty: float

    def __len__(self):
        return len(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def best(self) -> "ClusterEntry | None":
        return self.entries[0] if self.entries else None

    def score_at(self, index: int) -> float:
        """λ of the ``index``-th entry, or the missing penalty past the end."""
        if index < len(self.entries):
            return self.entries[index].score
        return self.missing_penalty


def _prefix_at_anchor(path: Path, anchor, matcher: LabelMatcher) -> "Path | None":
    """The longest prefix of ``path`` ending at a node matching ``anchor``.

    Returns ``None`` when no node matches (the candidate matched the
    containment lookup through an edge label or a token; it cannot be
    sink-anchored, so it is dropped).
    """
    for position in range(path.length - 1, -1, -1):
        node = path.nodes[position]
        if node == anchor or matcher(node, anchor):
            return path.prefix(position + 1)
    return None


class AlignmentMemo:
    """Per-query alignment cache: ``(offset, prefix length, query path)``
    → ``(alignment, λ score)``.

    Thesaurus-widened retrieval routinely hands the same stored path to
    clustering more than once — identical query paths extracted from
    different parts of the query graph, anchor fallbacks re-fetching a
    containment set, the explain forest re-clustering after the engine
    already did — and each occurrence used to pay a full greedy scan.
    The memo keys on the stored-path identity (offset + prefix length,
    the same identity the uid pool uses) and the query path (by value:
    equal query paths share entries), so every distinct alignment
    problem is solved exactly once per query.

    A memo is per-query state, like a :class:`Budget`: create one per
    query (or let :func:`build_clusters` create its own) — reusing one
    across queries would be correct but unbounded.
    """

    __slots__ = ("_table", "hits", "misses")

    def __init__(self):
        self._table: dict[tuple, tuple[Alignment, float]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: tuple) -> "tuple[Alignment, float] | None":
        found = self._table.get(key)
        if found is not None:
            self.hits += 1
        return found

    def put(self, key: tuple, alignment: Alignment, score: float) -> None:
        self.misses += 1
        self._table[key] = (alignment, score)

    @classmethod
    def disabled(cls) -> "AlignmentMemo":
        """A memo that never caches — the pre-PR (re-align every
        occurrence) behaviour, kept for A/B benchmarking."""
        return _NullMemo()


class _NullMemo(AlignmentMemo):
    __slots__ = ()

    def get(self, key: tuple) -> None:
        return None

    def put(self, key: tuple, alignment: Alignment, score: float) -> None:
        self.misses += 1


def missing_path_penalty(query_path: Path,
                         weights: ScoringWeights = PAPER_WEIGHTS) -> float:
    """λ-equivalent cost of leaving a query path completely unmatched.

    Prices every node as a node mismatch (a) and every edge as an edge
    mismatch (c) — the cost an answer would pay if a data path existed
    but agreed on nothing.  This keeps "no path at all" comparable to,
    and never cheaper than, "a bad path".
    """
    return (weights.node_mismatch * query_path.length
            + weights.edge_mismatch * len(query_path.edges))


def build_clusters(prepared: PreparedQuery, index: PathIndex,
                   weights: ScoringWeights = PAPER_WEIGHTS,
                   matcher: LabelMatcher = exact_match,
                   semantic_lookup: bool = True,
                   max_cluster_size: "int | None" = None,
                   budget: "Budget | None" = None,
                   memo: "AlignmentMemo | None" = None,
                   executor=None,
                   parallel_threshold: int = PARALLEL_THRESHOLD,
                   scatter_threshold: int = SCATTER_THRESHOLD,
                   hedge_ms: "float | None" = None,
                   proc_pool=None,
                   transcript: bool = False,
                   sketch_filter=None,
                   quotient=None,
                   columns: "PathColumns | None" = None) -> list[Cluster]:
    """Build one cluster per query path of ``prepared``.

    ``semantic_lookup`` controls whether index retrieval may widen
    labels through the thesaurus; ``matcher`` is the label comparison
    used inside alignments (they are deliberately independent: lookup
    recall and alignment cost are different dials).  ``max_cluster_size``
    truncates each cluster after sorting, bounding search work at a
    possible loss of answers beyond the cut.

    ``budget`` makes candidate evaluation cooperative: every aligned
    candidate is charged (tripping ``max_candidates`` or the deadline
    stops scoring mid-cluster), and the trip is recorded on the budget
    as a degradation reason.  Clusters already built keep their
    entries; clusters not yet reached come back empty — the search
    prices them with the missing-path penalty, so a degraded query
    still yields ranked, scored answers.

    A :class:`~repro.index.sharded.ShardedIndex` runs through the same
    logic over global ids — and when an executor is available and the
    cluster holds at least ``scatter_threshold`` candidates, cluster
    retrieval *scatter-gathers*: candidates are charged against the
    budget in global order, decoded and aligned with one task per
    shard, and merged back with a deterministic k-way merge on
    ``(λ, gid)``, so rankings are bit-identical to the single-shard
    engine at any shard count (``tests/test_sharded.py``).

    ``memo`` caches scored alignments per query (one is created when
    not supplied; pass the same instance to a follow-up ``explain`` to
    share work).  ``executor`` fans a cluster's candidate alignments
    out in chunks of :data:`_CHUNK` when the cluster holds at least
    ``parallel_threshold`` of them (pass an executor explicitly or let
    the engine supply the process-wide :func:`repro.parallel.shared_executor`);
    entry order, uids, scores, and budget charging are identical to the
    serial path — charging happens up front on the calling thread, and
    chunk results are merged in submission order.  ``transcript``
    re-enables the :class:`~repro.paths.alignment.EditOp` transcript on
    entry alignments (off by default: clustering reads only counts and
    substitutions, and skipping the transcript is a large win).

    **Fault isolation** (sharded indexes only): a shard that raises a
    storage-level error, is quarantined or circuit-open on the index's
    health board, or overruns the per-shard deadline contributes an
    *empty* partial — the surviving shards' candidates still merge, and
    the loss is recorded on the budget as a ``SHARD_FAILED``
    degradation reason naming the lost shards.  ``hedge_ms`` arms
    straggler hedging on the scatter path: a shard task still running
    after that many milliseconds gets a duplicate dispatch and the
    first result wins (both compute the same ``(λ, gid)``-sorted list,
    so hedging never changes a ranking).  Over a single-directory
    :class:`PathIndex` there is no shard to blame, so storage failures
    propagate exactly as before.

    ``proc_pool`` (a :class:`~repro.parallel.ProcessShardPool`) routes
    shard tasks to per-shard worker processes — the
    ``worker_mode="procs"`` execution mode.  Workers score candidates
    in the columnar id space (``repro.index.columnar``) and ship back
    the same ``(λ, gid, prefix length, node label ids)`` rows the
    thread tasks produce, so the merge — and therefore every ranking —
    is
    bit-identical across serial, threads, and procs.  Hedge dispatches
    and shards with an armed fault injector score in-process (a
    duplicate task to a wedged worker would wait in the same queue, and
    injected faults must keep their exact chaos-harness semantics); a
    crashed or overrun worker surfaces as a per-shard storage fault on
    the usual ``SHARD_FAILED`` + breaker path.

    ``sketch_filter`` is the optional two-stage recall hook (a
    :class:`repro.sketch.twostage.TwoStageFilter`, usually wrapped by
    the engine with its span and counters): called as
    ``sketch_filter(query_path, offsets, trim_to_anchor, anchor)``
    right after candidate retrieval, it returns the surviving subset —
    still in ascending gid order — and everything downstream (budget
    charging, scatter-gather, serial scoring) sees only survivors.

    ``quotient`` is the optional class-compression hook (a
    :class:`repro.quotient.resolve.QuotientResolver`): per cluster it
    yields a refine-key context, and candidates sharing a refine key
    are aligned **once** — the representative's ``(λ, trimmed
    length)`` is copied to the other members, which enter the cluster
    as :class:`LazyClusterEntry` rows carrying their own node ids.
    Budget charging still sees every retrieved candidate (identical
    ``max_candidates`` trip points) and the ``(λ, gid)`` sort key is
    unchanged, so rankings are bit-identical to per-path scoring
    (``benchmarks/bench_quotient.py`` asserts it across shard counts ×
    worker modes × two-stage modes).

    ``columns`` is the engine's per-epoch
    :class:`~repro.index.columns.PathColumns`: every entry takes its
    uid and χ operand from there, so a path's node-id set is built
    once per epoch, not per query (default: a store for this call).
    """
    clusters = []
    tripped = False
    if memo is None:
        memo = AlignmentMemo()
    if columns is None:
        columns = PathColumns(index)
    row = columns.row
    sharded = getattr(index, "is_sharded", False)
    health = getattr(index, "health", None) if sharded else None
    # Shards found dead during *this query* (shard -> first error).
    # Checked before every decode so one dead shard costs one failure,
    # not one per candidate; noted once on the budget at the end.
    # Quarantined shards are lost before the query even starts — their
    # candidates cannot be served, so the result must say SHARD_FAILED
    # even though no lookup will ever touch them.
    dead_shards: dict[int, str] = {}
    if health is not None:
        for shard_no, reason in health.quarantined_shards():
            dead_shards[shard_no] = reason or "quarantined"
    for position, query_path in enumerate(prepared.paths):
        if tripped or (budget is not None and budget.poll("cluster")):
            # Budget gone: emit the remaining clusters empty.
            clusters.append(Cluster(
                query_path=query_path, entries=[],
                missing_penalty=missing_path_penalty(query_path, weights)))
            tripped = True
            continue
        candidates = prepared.anchor_lists[position]
        trim_to_anchor = False
        anchor = None
        offsets: list[int] = []
        if not candidates:
            # Fully-variable query path: every indexed path is a candidate.
            offsets = index.all_offsets()
        else:
            # Walk the anchor fallbacks: sink first (by sink lookup,
            # then containment with trimming — the sink may be a
            # mid-graph entity like a department), then earlier
            # constants by containment (a constant that occurs nowhere
            # in the data anchors through the next one — that query
            # still deserves approximate answers).
            for position_in_list, anchor in enumerate(candidates):
                if position_in_list == 0 and anchor == query_path.sink:
                    offsets = index.offsets_with_sink(
                        anchor, semantic=semantic_lookup)
                    if offsets:
                        break
                    offsets = index.offsets_containing(
                        anchor, semantic=semantic_lookup)
                    if offsets:
                        # Alignment is sink-anchored (§4.3): cut the
                        # candidate at the matched anchor.
                        trim_to_anchor = True
                        break
                else:
                    offsets = index.offsets_containing(
                        anchor, semantic=semantic_lookup)
                    if offsets:
                        break
        # Two-stage recall: judge every retrieved candidate against its
        # sketch row before any budget is charged or any path decoded.
        if sketch_filter is not None and offsets:
            offsets = sketch_filter(query_path, offsets, trim_to_anchor,
                                    anchor)
        # Quotient compression: one refine-key context per cluster (the
        # key depends on the query path's constants and the trim
        # anchor, both fixed for the cluster).  ``None`` when the
        # resolver is absent — every candidate then scores exhaustively.
        qctx = (quotient.context(query_path, trim_to_anchor, anchor)
                if quotient is not None and offsets else None)
        # Sharded scatter-gather: when the index is partitioned and an
        # executor is available, charge the budget up front over the
        # *global* candidate order (identical trip points for the
        # deterministic caps), then fan decode + trim + alignment out
        # with one task per shard — each shard's buffer pool is touched
        # by exactly one thread, so simulated or real page-read latency
        # overlaps across shards — and k-way merge the per-shard
        # results on ``(λ, gid)``.  Global ids ascend in build-walk
        # order exactly like the unsharded index's byte offsets, so the
        # merged order is bit-identical to the serial sort below.
        if ((executor is not None or proc_pool is not None) and sharded
                and index.shard_count > 1
                and len(offsets) >= max(2, scatter_threshold)):
            kept = offsets
            for rank in range(0, len(offsets), _CHARGE_BLOCK):
                if (budget is not None and budget.charge_candidates(
                        min(_CHARGE_BLOCK, len(offsets) - rank))):
                    tripped = True
                    kept = offsets[:rank]
                    break
            # Procs mode dispatches through the pool's own threads so
            # blocked IPC waits never starve the shared executor.
            dispatch_executor = (proc_pool.executor if proc_pool is not None
                                 else executor)
            merged, scatter_tripped = _scatter_gather(
                index, kept, query_path, trim_to_anchor, anchor, matcher,
                weights, memo, transcript, budget, dispatch_executor,
                hedge_ms=hedge_ms, dead_shards=dead_shards,
                proc_pool=proc_pool, quotient_ctx=qctx)
            tripped = tripped or scatter_tripped
            context = _EntryContext(index, query_path, matcher, memo,
                                    transcript, columns)
            entries = [LazyClusterEntry(context, gid, plen, score,
                                        row(gid, plen, node_ids))
                       for score, gid, plen, node_ids in merged]
            if max_cluster_size is not None:
                entries = entries[:max_cluster_size]
            clusters.append(Cluster(
                query_path=query_path, entries=entries,
                missing_penalty=missing_path_penalty(query_path, weights)))
            if qctx is not None:
                quotient.observe(qctx)
            continue
        # Quotient-aware serial path: identical budget charging and
        # sort keys, but only one alignment per refined class.
        if qctx is not None:
            entries, q_tripped = _quotient_serial(
                index, offsets, query_path, trim_to_anchor, anchor,
                matcher, weights, memo, transcript, budget, executor,
                parallel_threshold, sharded, health, dead_shards, qctx,
                columns)
            tripped = tripped or q_tripped
            if max_cluster_size is not None:
                entries = entries[:max_cluster_size]
            clusters.append(Cluster(
                query_path=query_path, entries=entries,
                missing_penalty=missing_path_penalty(query_path, weights)))
            quotient.observe(qctx)
            continue
        # Stage 1 (serial): charge the budget, decode, and trim.  The
        # storage layer stays single-threaded; only the pure-CPU
        # alignment below ever fans out.
        pool_pairs: list[tuple[int, Path]] = []
        for rank, offset in enumerate(offsets):
            # Charging per candidate would make the budget call the
            # hottest instruction of the loop; charge whole blocks
            # instead (the caps trip at block granularity, which the
            # <5 % overhead target buys).
            if (budget is not None and rank % _CHARGE_BLOCK == 0
                    and budget.charge_candidates(
                        min(_CHARGE_BLOCK, len(offsets) - rank))):
                tripped = True
                break
            if sharded and dead_shards \
                    and index.locate(offset)[0] in dead_shards:
                continue
            try:
                path = index.path_at(offset)
            except _SHARD_FAULTS as exc:
                if not sharded:
                    raise      # one directory, no shard to isolate
                shard_no = index.locate(offset)[0]
                dead_shards.setdefault(shard_no, str(exc))
                if health is not None:
                    health.record_failure(shard_no, exc)
                continue
            if trim_to_anchor:
                path = _prefix_at_anchor(path, anchor, matcher)
                if path is None:
                    continue
            pool_pairs.append((offset, path))
        # Stage 2: score every candidate (memoised; chunked across the
        # executor when the cluster is large enough).
        scored = _score_candidates(pool_pairs, query_path, matcher, weights,
                                   memo, transcript, budget, executor,
                                   parallel_threshold)
        if len(scored) < len(pool_pairs):
            # Deadline tripped mid-scoring: keep what was scored, emit
            # the remaining clusters empty (same contract as before).
            tripped = True
        # Stage 3 (serial): attach the shared columns and sort.
        entries = _scored_entries(pool_pairs, scored, row)
        # Best (lowest λ) first; offset breaks ties deterministically.
        entries.sort(key=_BY_SCORE_THEN_GID)
        if max_cluster_size is not None:
            entries = entries[:max_cluster_size]
        clusters.append(Cluster(
            query_path=query_path, entries=entries,
            missing_penalty=missing_path_penalty(query_path, weights)))
    if dead_shards and budget is not None:
        lost = ",".join(str(shard) for shard in sorted(dead_shards))
        first_error = dead_shards[min(dead_shards)]
        budget.note(DegradationCause.SHARD_FAILED, "cluster",
                    f"shards={lost}: {first_error}")
    return clusters


def _scored_entries(pool_pairs, scored, row) -> list:
    """One :class:`ClusterEntry` per scored candidate, each holding the
    uid and id set of its ``(offset, prefix length)`` column row."""
    entries = []
    for (offset, path), (alignment, score) in zip(pool_pairs, scored):
        uid, id_set = row(offset, path.length, path.label_ids)
        entries.append(ClusterEntry(offset, path, alignment, score, uid,
                                    id_set))
    return entries


def _quotient_serial(index, offsets, query_path: Path,
                     trim_to_anchor: bool, anchor, matcher: LabelMatcher,
                     weights: ScoringWeights, memo: AlignmentMemo,
                     transcript: bool, budget: "Budget | None", executor,
                     parallel_threshold: int, sharded: bool, health,
                     dead_shards: "dict[int, str]", qctx,
                     columns: PathColumns) -> "tuple[list, bool]":
    """The serial cluster stages with one alignment per refined class.

    Mirrors :func:`build_clusters`'s stages 1–3 exactly — identical
    budget charging (every candidate is charged, member or not),
    identical dead-shard skips and per-candidate fault isolation,
    identical ``(λ, offset)`` sort — except that a candidate whose
    refine key was already seen skips the decode/trim/align pipeline
    entirely: it enters the cluster as a :class:`LazyClusterEntry`
    row — its own shared node-id column plus the representative's
    bit-identical ``(λ, trimmed length)``.

    The first candidate of a class becomes its representative.  A
    representative that faults during decode does *not* register its
    key — the next member of the class is decoded and becomes the
    representative instead, preserving per-candidate fault isolation.
    A representative dropped by the anchor trim registers the class as
    dropped, which drops every member (the trim verdict is refine-key
    invariant).  A deadline that trips before a representative is
    scored loses its members too — the documented unbudgeted-queries
    caveat, shared with two-stage retrieval.
    """
    tripped = False
    pool_pairs: list[tuple[int, Path]] = []
    # Refine key -> pool index of the class representative, or -1 when
    # the representative fell to the anchor trim.
    rep_state: dict = {}
    #: Members: offset and pool index of the representative, aligned.
    member_offsets: list[int] = []
    member_reps: list[int] = []
    key_of = qctx.key_of
    for rank, offset in enumerate(offsets):
        if (budget is not None and rank % _CHARGE_BLOCK == 0
                and budget.charge_candidates(
                    min(_CHARGE_BLOCK, len(offsets) - rank))):
            tripped = True
            break
        if sharded and dead_shards \
                and index.locate(offset)[0] in dead_shards:
            continue
        key = key_of(offset)
        if key is not None:
            state = rep_state.get(key)
            if state is not None:
                if state >= 0:
                    member_offsets.append(offset)
                    member_reps.append(state)
                continue
        try:
            path = index.path_at(offset)
        except _SHARD_FAULTS as exc:
            if not sharded:
                raise      # one directory, no shard to isolate
            shard_no = index.locate(offset)[0]
            dead_shards.setdefault(shard_no, str(exc))
            if health is not None:
                health.record_failure(shard_no, exc)
            continue
        if trim_to_anchor:
            path = _prefix_at_anchor(path, anchor, matcher)
            if path is None:
                if key is not None:
                    rep_state[key] = -1
                continue
        if key is not None:
            rep_state[key] = len(pool_pairs)
            qctx.reps += 1
        pool_pairs.append((offset, path))
    qctx.members += len(member_offsets)
    scored = _score_candidates(pool_pairs, query_path, matcher, weights,
                               memo, transcript, budget, executor,
                               parallel_threshold)
    if len(scored) < len(pool_pairs):
        tripped = True
    row = columns.row
    entries = _scored_entries(pool_pairs, scored, row)
    context = _EntryContext(index, query_path, matcher, memo, transcript,
                            columns)
    #: What a member copies, per scored pool index.
    verdicts = [(score, pair[1].length)
                for pair, (_alignment, score) in zip(pool_pairs, scored)]
    for offset, rep_index in zip(member_offsets, member_reps):
        if rep_index < len(verdicts):   # else: lost to the deadline
            score, plen = verdicts[rep_index]
            entries.append(LazyClusterEntry(context, offset, plen, score,
                                            row(offset, plen)))
    entries.sort(key=_BY_SCORE_THEN_GID)
    return entries, tripped


def _score_candidates(pool_pairs: list[tuple[int, Path]], query_path: Path,
                      matcher: LabelMatcher, weights: ScoringWeights,
                      memo: AlignmentMemo, transcript: bool,
                      budget: "Budget | None", executor,
                      parallel_threshold: int,
                      ) -> list[tuple[Alignment, float]]:
    """λ-score one cluster's candidates in a single batched pass.

    Returns one ``(alignment, score)`` per candidate, in candidate
    order; a deadline trip mid-cluster returns the prefix scored so
    far.  The weighted λ sum is inlined (attribute lookups hoisted)
    rather than routed through :func:`lambda_cost` per candidate.
    """
    results: list[tuple[Alignment, float]] = []
    if not pool_pairs:
        return results
    node_mis = weights.node_mismatch
    node_ins = weights.node_insertion
    edge_mis = weights.edge_mismatch
    edge_ins = weights.edge_insertion
    node_del = weights.node_deletion
    edge_del = weights.edge_deletion

    def score_one(offset: int, path: Path) -> tuple[Alignment, float]:
        key = (offset, path.length, query_path)
        found = memo.get(key)
        if found is not None:
            return found
        alignment = align(path, query_path, matcher, transcript=transcript)
        counts = alignment.counts
        score = (node_mis * counts.node_mismatches
                 + node_ins * counts.node_insertions
                 + edge_mis * counts.edge_mismatches
                 + edge_ins * counts.edge_insertions
                 + node_del * counts.node_deletions
                 + edge_del * counts.edge_deletions)
        memo.put(key, alignment, score)
        return alignment, score

    if executor is not None and len(pool_pairs) >= max(2, parallel_threshold):
        chunks = chunked(pool_pairs, _CHUNK)
        futures = [executor.submit(
            lambda chunk=chunk: [score_one(o, p) for o, p in chunk])
            for chunk in chunks]
        for index, future in enumerate(futures):
            if budget is not None and budget.poll("cluster"):
                for late in futures[index:]:
                    late.cancel()
                return results
            results.extend(future.result())
        return results

    for rank, (offset, path) in enumerate(pool_pairs):
        if (budget is not None and rank and rank % _CHARGE_BLOCK == 0
                and budget.poll("cluster")):
            return results
        results.append(score_one(offset, path))
    return results


def _scatter_gather(index, gids: list[int], query_path: Path,
                    trim_to_anchor: bool, anchor, matcher: LabelMatcher,
                    weights: ScoringWeights, memo: AlignmentMemo,
                    transcript: bool, budget: "Budget | None", executor,
                    hedge_ms: "float | None" = None,
                    dead_shards: "dict[int, str] | None" = None,
                    proc_pool=None, quotient_ctx=None,
                    ) -> "tuple[list[tuple], bool]":
    """Fan one cluster's candidates out across shards; merge on (λ, gid).

    One task per non-empty shard decodes, trims and memo-scores its
    slice of the (already budget-charged) candidate list; each task
    returns its results sorted by ``(score, gid)`` and the calling
    thread k-way merges them.  Returns the merged
    ``(score, gid, prefix length, node label ids)`` rows — the id
    column rides along so the top-k search can join whole clusters
    without decoding paths — and whether any task saw the budget
    deadline trip mid-scoring (its cluster keeps what was scored;
    later clusters come back empty, the serial contract).

    With ``proc_pool``, eligible shards are scored inside their worker
    processes instead (same triples, same sort key); a shard whose
    coordinator-side page store has a fault injector armed stays
    in-process so injected chaos keeps its exact semantics, and hedge
    dispatches always run in-process because a duplicate envelope to a
    wedged worker would queue behind the very task being hedged.

    Each shard task is *isolated*: a storage-level error escaping it, a
    circuit-open verdict from the index's health board, or an overrun
    of the per-shard deadline (budget remaining plus a small grace)
    drops that one shard's partial — recorded in ``dead_shards`` and on
    the health board — while every surviving shard still merges.  When
    ``hedge_ms`` is set, a task still running after that long gets a
    duplicate submission and the first completed result wins; the merge
    key is unchanged, so a hedge can only change *when* the answer
    arrives, never what it ranks.

    The memo is shared across tasks on purpose: its table is a dict
    whose get/put are GIL-atomic, and a racing duplicate alignment is
    merely redundant work, never a wrong score.

    ``quotient_ctx`` (a :class:`repro.quotient.resolve.QuotientContext`)
    turns on class compression inside the thread tasks: the first
    candidate of a refined class is decoded and aligned, its
    ``(λ, trimmed length)`` verdict is published in a cluster-wide
    class memo, and later members — on *any* shard, classes span
    shards — ship a row copied from it (no ids: the coordinator's
    column store derives each member's own from its class).  The
    memo is shared like the alignment memo: dict ops are GIL-atomic
    and the refine key determines the verdict bit-exactly, so a racing
    duplicate write stores the identical value.  Procs-eligible shards
    do their own class grouping inside the worker instead (the flag
    rides on the task envelope); both produce the same sorted rows.
    """
    node_mis = weights.node_mismatch
    node_ins = weights.node_insertion
    edge_mis = weights.edge_mismatch
    edge_ins = weights.edge_insertion
    node_del = weights.node_deletion
    edge_del = weights.edge_deletion
    #: Refine key -> ``(λ, trimmed length)`` of the class
    #: representative, or :data:`DROPPED` when the representative fell
    #: to the anchor trim.  One dict per cluster, shared by its shard
    #: tasks (including hedges) — see the docstring for why the races
    #: are benign.
    class_memo: "dict | None" = {} if quotient_ctx is not None else None

    def run_shard(shard_no: int, pairs: list[tuple[int, int]]):
        shard = index.shards[shard_no]
        results = []
        tripped = False
        for rank, (gid, offset) in enumerate(pairs):
            if (budget is not None and rank and rank % _CHARGE_BLOCK == 0
                    and budget.poll("cluster")):
                tripped = True
                break
            ckey = None
            if class_memo is not None:
                ckey = quotient_ctx.key_of(gid)
                if ckey is not None:
                    verdict = class_memo.get(ckey)
                    if verdict is DROPPED:
                        continue
                    if verdict is not None:
                        score, plen = verdict
                        quotient_ctx.members += 1
                        # No ids: the column store derives them.
                        results.append((score, gid, plen, None))
                        continue
            path = shard.path_at(offset)
            if trim_to_anchor:
                path = _prefix_at_anchor(path, anchor, matcher)
                if path is None:
                    if ckey is not None:
                        class_memo[ckey] = DROPPED
                    continue
            key = (gid, path.length, query_path)
            found = memo.get(key)
            if found is not None:
                score = found[1]
            else:
                alignment = align(path, query_path, matcher,
                                  transcript=transcript)
                counts = alignment.counts
                score = (node_mis * counts.node_mismatches
                         + node_ins * counts.node_insertions
                         + edge_mis * counts.edge_mismatches
                         + edge_ins * counts.edge_insertions
                         + node_del * counts.node_deletions
                         + edge_del * counts.edge_deletions)
                memo.put(key, alignment, score)
            if ckey is not None:
                class_memo[ckey] = (score, path.length)
                quotient_ctx.reps += 1
            results.append((score, gid, path.length, path.label_ids))
        results.sort(key=lambda item: (item[0], item[1]))
        return results, tripped

    if dead_shards is None:
        dead_shards = {}
    health = getattr(index, "health", None)

    def deadline_cap() -> "float | None":
        """Seconds a gather may still wait before a task is overrun."""
        if budget is None:
            return None
        remaining = budget.remaining_ms()
        if remaining is None:
            return None
        return remaining / 1000.0 + _SHARD_DEADLINE_GRACE_S

    tasks = []
    for shard_no, pairs in enumerate(index.group_by_shard(gids)):
        if not pairs:
            continue
        if shard_no in dead_shards:
            continue           # already failed earlier in this query
        if health is not None and not health.allow(shard_no):
            dead_shards.setdefault(shard_no, "circuit open")
            continue
        if proc_pool is not None and _pool_eligible(index, shard_no):
            remaining = budget.remaining_ms() if budget is not None else None
            task = partial(proc_pool.run_shard, shard_no, pairs,
                           query_path, anchor if trim_to_anchor else None,
                           weights, remaining,
                           quotient_ctx is not None)
            future = executor.submit(task)
        else:
            future = executor.submit(run_shard, shard_no, pairs)
        tasks.append((shard_no, pairs, future))

    shard_results = []
    tripped = False
    for shard_no, pairs, future in tasks:
        try:
            if hedge_ms is not None:
                try:
                    results, shard_tripped = future.result(
                        timeout=hedge_ms / 1000.0)
                except FutureTimeout:
                    # Straggler: duplicate the task, first result wins.
                    if health is not None:
                        health.note_hedge(shard_no)
                    hedge = executor.submit(run_shard, shard_no, pairs)
                    results, shard_tripped = _first_of(
                        future, hedge, deadline_cap())
            else:
                results, shard_tripped = future.result(
                    timeout=deadline_cap())
        except FutureTimeout:
            dead_shards.setdefault(shard_no, "per-shard deadline overrun")
            if health is not None:
                health.record_failure(shard_no, "deadline overrun")
            continue
        except _SHARD_FAULTS as exc:
            dead_shards.setdefault(shard_no, str(exc))
            if health is not None:
                health.record_failure(shard_no, exc)
            continue
        if health is not None:
            health.record_success(shard_no)
        shard_results.append(results)
        tripped = tripped or shard_tripped
    if tripped and budget is not None:
        # A worker trips on its own clock against its budget slice; the
        # coordinator's budget must still record the deadline so the
        # degradation reason reaches the PartialResult.  (In threads
        # mode this is a no-op: the task's own poll already noted it.)
        budget.out_of_time("cluster")
    merge_started = time.monotonic() if proc_pool is not None else 0.0
    merged = list(heapq.merge(*shard_results,
                              key=lambda item: (item[0], item[1])))
    if proc_pool is not None:
        proc_pool.observe_merge(time.monotonic() - merge_started)
    return merged, tripped


def _pool_eligible(index, shard_no: int) -> bool:
    """Whether a shard task may run in a worker process.

    A shard whose coordinator-side page store carries an armed fault
    injector must score in-process: the injector cannot fire inside a
    worker (workers open their own stores), and chaos-harness fault
    plans rely on its exact semantics.  Quarantined shards (no open
    page store at all) are never dispatched anyway.
    """
    shard = index.shards[shard_no]
    store = getattr(shard, "page_store", None)
    return store is not None and getattr(store, "fault_injector", None) is None


def _first_of(primary, hedge, cap: "float | None"):
    """The first successful result of two racing shard tasks.

    Waits for whichever future completes first (bounded by ``cap``
    seconds when given); a completed future that *failed* defers to the
    other one, and only when both have failed does the first error
    propagate.  Both compute the same pure function over the same
    pairs, so whichever wins returns the same sorted list.
    """
    pending = {primary, hedge}
    first_error = None
    while pending:
        done, pending = wait_futures(pending, timeout=cap,
                                     return_when=FIRST_COMPLETED)
        if not done:
            raise FutureTimeout()
        for finished in done:
            try:
                return finished.result()
            except _SHARD_FAULTS as exc:
                if first_error is None:
                    first_error = exc
    raise first_error
