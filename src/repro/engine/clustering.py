"""Clustering (§5, step 2): one ranked cluster of data paths per query path.

For every query path ``q`` the engine retrieves candidate data paths
from the index — by sink when ``q`` ends in a constant, otherwise by
the first constant found scanning backwards from the sink — scores
each candidate's alignment, and keeps the cluster ordered by λ score,
best (lowest) first.  A data path may appear in several clusters
with different scores (``p1`` scores 0 in ``cl1`` and 1.5 in ``cl2`` in
the paper's Fig. 3), which is exactly what happens here.

:func:`build_clusters` runs each query path through five stages —
**retrieve → filter → charge → score → merge** — and every stage after
retrieval hands on rows ``(λ, gid, prefix length, node label ids)``:
what ranking needs, whoever scored the candidate.  Scoring happens in
id space on every path: the score stage is a caller of the one λ scan,
:func:`repro.index.columnar.score_rows`, and the label-space
:func:`repro.paths.alignment.align` runs only for the handful of
entries that become answers or ``explain`` output.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from operator import itemgetter

from ..index.columnar import DROPPED, encode_query, score_rows
from ..index.columns import PathColumns
from ..index.pathindex import PathIndex
from ..paths.alignment import Alignment, align
from ..paths.model import Path
from ..resilience.budget import Budget, DegradationCause
from ..resilience.errors import IndexCorruptError, StorageError
from ..scoring.weights import PAPER_WEIGHTS, ScoringWeights
from .preprocess import PreparedQuery

#: Exception types treated as "this shard failed" rather than "this
#: query failed" when they escape a per-candidate decode over a sharded
#: index.  Everything the storage stack raises
#: deliberately (ShardUnavailableError, TransientStorageError after
#: retries, checksum failures) plus raw OS-level trouble.
_SHARD_FAULTS = (StorageError, IndexCorruptError, OSError)

#: Candidates charged to the budget per call (granularity of the
#: ``max_candidates`` cap inside one cluster).
_CHARGE_BLOCK = 64

#: Cluster order: best (lowest) λ first, gid breaking ties.
_BY_SCORE_THEN_GID = itemgetter(0, 1)


class _EntryContext:
    """What a :class:`ClusterEntry` needs to materialize on demand.

    One per cluster, shared by all of its entries: the index (to
    decode), the query path + matcher (to re-align), and the epoch's
    column store (row id sets, label spellings).
    """

    __slots__ = ("index", "query_path", "matcher", "columns")

    def __init__(self, index, query_path, matcher, columns):
        self.index = index
        self.query_path = query_path
        self.matcher = matcher
        self.columns = columns


class ClusterEntry:
    """One candidate data path in a cluster, made for a rank that is
    read (:meth:`Cluster.entry`): the row ``(λ, gid, prefix length)``
    plus the shared columns of that stored path.

    ``offset`` identifies the stored path; the entry may stand for a
    *prefix* of it when the query path's sink matched mid-path (see
    :func:`build_clusters`).  ``uid`` identifies the ``(offset, prefix
    length)`` row — the search keys its pairwise-ψ cache on it (cheaper
    than hashing tuples millions of times).  ``id_set`` is the χ
    operand: the frozenset of the prefix's interned node label ids —
    the very object :class:`~repro.index.columns.PathColumns` keeps for
    the epoch, never a per-query copy.

    ``path`` and ``alignment`` — the label-space reference alignment,
    whose counts re-derive ``score`` exactly — are decoded / aligned on
    first use: only for the entries that become answers or explain
    output.
    """

    __slots__ = ("offset", "score", "uid", "id_set", "_plen", "_context",
                 "_path", "_alignment")

    def __init__(self, context: "_EntryContext | None", gid: int, plen: int,
                 score: float, row: tuple):
        self.offset = gid
        self.score = score
        self._plen = plen
        self._context = context
        self.uid, self.id_set = row
        self._path: "Path | None" = None
        self._alignment: "Alignment | None" = None

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
            alignment = self._alignment = align(
                self.path, context.query_path, context.matcher,
                transcript=False)
        return alignment

    @property
    def path_length(self) -> int:
        return self._plen

    def __str__(self):
        return f"{self.path} [{self.score:g}]"


class Cluster:
    """All candidates for one query path, sorted best-first by λ.

    The cluster keeps the merge's sorted rows as parallel columns —
    ``scores`` (λ), ``gids``, ``plens`` (prefix lengths) and
    ``node_ids`` (the scan's prefix node ids; ``None`` for a quotient
    member, whose ids the column store derives) — and makes a
    :class:`ClusterEntry` only for a rank that is read
    (:meth:`entry`).  ``entries`` is a read-only sequence view over
    those memoised entries.

    ``missing_penalty`` is the λ charged when a combination leaves this
    query path uncovered (the cluster may be empty, or search may run
    past its end): every node and edge of the query path is priced as a
    mismatch.  The paper does not spell this case out; see DESIGN.md.
    """

    __slots__ = ("query_path", "missing_penalty", "scores", "gids", "plens",
                 "node_ids", "_context", "_sets", "_entries")

    def __init__(self, query_path: Path, missing_penalty: float,
                 rows=(), context: "_EntryContext | None" = None):
        self.query_path = query_path
        self.missing_penalty = missing_penalty
        self.scores, self.gids, self.plens, self.node_ids = (
            tuple(zip(*rows)) if rows else ((), (), (), ()))
        self._context = context
        self._sets: "list[frozenset | None]" = [None] * len(self.scores)
        self._entries: "dict[int, ClusterEntry]" = {}

    def __len__(self):
        return len(self.scores)

    @property
    def is_empty(self) -> bool:
        return not self.scores

    def _row(self, rank: int) -> tuple:
        """``(uid, node label id set)`` of the row at ``rank``, from the
        epoch's column store."""
        return self._context.columns.row(self.gids[rank], self.plens[rank],
                                         self.node_ids[rank])

    def id_set(self, rank: int) -> frozenset:
        """The χ operand of the row at ``rank`` (memoised per rank)."""
        ids = self._sets[rank]
        if ids is None:
            ids = self._sets[rank] = self._row(rank)[1]
        return ids

    def label_name(self, label_id: int) -> str:
        """Lexical form of an interned node label id — the rarest-label
        tie-break."""
        return self._context.columns.name(label_id)

    def entry(self, rank: int) -> ClusterEntry:
        """The entry at ``rank``, made on first read."""
        entry = self._entries.get(rank)
        if entry is None:
            entry = self._entries[rank] = ClusterEntry(
                self._context, self.gids[rank], self.plens[rank],
                self.scores[rank], self._row(rank))
        return entry

    @property
    def entries(self) -> "_Entries":
        return _Entries(self)


class _Entries(Sequence):
    """A cluster's entries in rank order, each made on first read."""

    __slots__ = ("_cluster",)

    def __init__(self, cluster: Cluster):
        self._cluster = cluster

    def __len__(self):
        return len(self._cluster)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._cluster.entry(rank)
                    for rank in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("cluster rank out of range")
        return self._cluster.entry(index)


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


def build_clusters(prepared: PreparedQuery, index: PathIndex, ids_match,
                   weights: ScoringWeights = PAPER_WEIGHTS,
                   semantic_lookup: bool = True,
                   max_cluster_size: "int | None" = None,
                   budget: "Budget | None" = None,
                   proc_pool=None,
                   sketch_filter=None,
                   quotient=None,
                   columns: "PathColumns | None" = None) -> list[Cluster]:
    """Build one cluster per query path of ``prepared``.

    Each query path goes through the same five stages:

    1. **retrieve** — the anchor fallback walk (:func:`_retrieve`):
       candidate gids in ascending order.  ``semantic_lookup`` controls
       whether index retrieval may widen labels through the thesaurus;
       ``ids_match`` — the engine's
       :func:`~repro.index.columnar.make_id_matcher` over
       ``index.interner`` — is the label comparison used inside
       alignments (they are deliberately independent: lookup recall and
       alignment cost are different dials).  The query path and its
       trim anchor are encoded against it once
       (:func:`~repro.index.columnar.encode_query`), and the filter,
       the refine keys and the scan all read constant ids from that one
       encoding.
    2. **filter** — ``sketch_filter``, the optional two-stage recall
       hook (a :class:`repro.sketch.twostage.TwoStageFilter`, usually
       wrapped by the engine with its span and counters): called as
       ``sketch_filter(query, offsets, qctx)`` with the encoded query
       and the cluster's refine-key context (or ``None``), it returns
       the surviving subset — still in ascending gid order — and
       everything downstream sees only survivors.
    3. **charge** — every surviving candidate is charged to ``budget``
       in blocks, over the *global* candidate order, before any is
       scored (:func:`_charge`): tripping ``max_candidates`` or the
       deadline keeps the candidates charged so far, and the trip is
       recorded on the budget as a degradation reason.  Clusters
       already built keep their entries; clusters not yet reached come
       back empty — the search prices them with the missing-path
       penalty, so a degraded query still yields ranked, scored answers.
    4. **score** — trim, scan and λ-sum in id space, by the one loop
       every scorer calls (:func:`~repro.index.columnar.score_rows`,
       bound to the cluster by :class:`_Scorer`), run over the whole
       list on the calling thread; a candidate's row is the ``(node
       ids, edge ids)`` its decoded path carries.  ``quotient`` is the
       optional class-compression hook (a
       :class:`repro.quotient.resolve.QuotientResolver`): per cluster
       it yields a refine-key context, and candidates sharing a refine
       key are decoded and scanned **once** — the representative's
       ``(λ, trimmed length)`` is copied to the other members' rows.  A
       candidate without a refine key (no resolver, no usable
       ``quotient.bin``) is a class of one.  Charging never sees the
       difference (identical ``max_candidates`` trip points), so
       rankings are bit-identical to per-path scoring.
    5. **merge** — rows are sorted on ``(λ, gid)``, cut to
       ``max_cluster_size`` (bounding search work at a possible loss of
       answers beyond the cut), and kept as the :class:`Cluster`'s
       columns.  A row's uid and id set come from ``columns`` — the
       engine's per-epoch :class:`~repro.index.columns.PathColumns`, so
       a path's node-id set is built once per epoch, not per query
       (default: a store for this call) — and only for the ranks the
       search or a caller reads, as does a :class:`ClusterEntry`.

    **Sharded indexes.**  A :class:`~repro.index.sharded.ShardedIndex`
    runs through the same stages over global ids, which ascend in
    build-walk order exactly like the unsharded index's byte offsets,
    so rankings are bit-identical at any shard count
    (``tests/test_sharded.py``).  Its score stage
    (:func:`_score_sharded`) isolates faults per shard: a shard that is
    quarantined, refused by its circuit breaker, or fails while scored
    contributes an empty partial, and the loss is recorded on the
    budget as one ``SHARD_FAILED`` reason naming the lost shards.
    ``proc_pool`` (a :class:`~repro.parallel.ProcessShardPool`, the
    ``worker_mode="procs"`` mode) scores shard slices in worker
    processes that run the same scan over their columnar views, so
    rankings are bit-identical there too.  Over a single-directory
    :class:`PathIndex` there is no shard to blame, so storage failures
    propagate.
    """
    if columns is None:
        columns = PathColumns(index)
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
    ids_of = (_isolating_ids(index, health, dead_shards) if sharded
              else _path_ids(index))    # one directory: nothing to isolate
    clusters = []
    tripped = False
    for query_path, anchors in zip(prepared.paths, prepared.anchor_lists):
        rows: list[tuple] = []
        if tripped or (budget is not None and budget.poll("cluster")):
            tripped = True      # budget gone: the rest come back empty
        else:
            offsets, trim_anchor = _retrieve(index, query_path, anchors,
                                             semantic_lookup)
            query = encode_query(query_path, ids_match, trim_anchor)
            # One refine-key context per cluster (the key depends on
            # the query path's constants and the trim anchor, both
            # fixed for the cluster).
            qctx = (quotient.context(query)
                    if quotient is not None and offsets else None)
            # Two-stage recall: judge every retrieved candidate against
            # its sketch row before any budget is charged or any path
            # decoded.
            if sketch_filter is not None and offsets:
                offsets = sketch_filter(query, offsets, qctx)
            kept, tripped = _charge(offsets, budget)
            scorer = _Scorer(query_path, trim_anchor, query, weights, budget,
                             qctx.key_of if qctx is not None else None)
            if sharded:
                rows, score_tripped = _score_sharded(
                    index, kept, scorer, ids_of, health, dead_shards,
                    proc_pool)
            else:
                rows, score_tripped = scorer(kept, ids_of)
            tripped = tripped or score_tripped
            if qctx is not None:
                # A member's row carries no ids of its own.
                quotient.observe(
                    members=sum(row[3] is None for row in rows),
                    reps=sum(verdict is not DROPPED
                             for verdict in scorer.verdicts.values()))
            rows.sort(key=_BY_SCORE_THEN_GID)
            if max_cluster_size is not None:
                del rows[max_cluster_size:]
        clusters.append(Cluster(
            query_path, missing_path_penalty(query_path, weights), rows,
            _EntryContext(index, query_path, ids_match.matcher, columns)))
    if dead_shards and budget is not None:
        lost = ",".join(str(shard) for shard in sorted(dead_shards))
        first_error = dead_shards[min(dead_shards)]
        budget.note(DegradationCause.SHARD_FAILED, "cluster",
                    f"shards={lost}: {first_error}")
    return clusters


def _retrieve(index, query_path: Path, anchors,
              semantic_lookup: bool) -> "tuple[list[int], object]":
    """The retrieve stage: ``(candidate gids, trim anchor)``.

    Walks the anchor fallbacks: sink first (by sink lookup, then
    containment with trimming — the sink may be a mid-graph entity like
    a department), then earlier constants by containment (a constant
    that occurs nowhere in the data anchors through the next one — that
    query still deserves approximate answers).  The trim anchor is the
    sink when candidates came from its containment lookup — alignment
    is sink-anchored (§4.3), so each is cut at the matched anchor —
    and ``None`` when candidates are taken whole.
    """
    if not anchors:
        # Fully-variable query path: every indexed path is a candidate.
        return index.all_offsets(), None
    offsets: list[int] = []
    for position, anchor in enumerate(anchors):
        if position == 0 and anchor == query_path.sink:
            offsets = index.offsets_with_sink(anchor, semantic=semantic_lookup)
            if offsets:
                break
            offsets = index.offsets_containing(anchor,
                                               semantic=semantic_lookup)
            if offsets:
                return offsets, anchor
        else:
            offsets = index.offsets_containing(anchor,
                                               semantic=semantic_lookup)
            if offsets:
                break
    return offsets, None


def _charge(offsets: list[int],
            budget: "Budget | None") -> "tuple[list[int], bool]":
    """The charge stage: the candidates the budget admits, and whether
    it tripped.

    Charging per candidate would make the budget call the hottest
    instruction of the pipeline; whole blocks are charged instead (the
    caps trip at block granularity, which the <5 % overhead target
    buys).  A trip at a block keeps the blocks before it.
    """
    if budget is not None:
        for rank in range(0, len(offsets), _CHARGE_BLOCK):
            if budget.charge_candidates(
                    min(_CHARGE_BLOCK, len(offsets) - rank)):
                return offsets[:rank], True
    return offsets, False


def _path_ids(index):
    """``gid -> (node ids, edge ids)`` of the decoded stored path: the
    coordinator's row source for :func:`score_rows`."""
    path_at = index.path_at

    def ids_of(gid: int):
        path = path_at(gid)
        return path.label_ids, path.edge_ids

    return ids_of


def _isolating_ids(index, health, dead_shards: "dict[int, str]"):
    """:func:`_path_ids` over a sharded index, for scoring on the
    calling thread: a candidate of a dead shard has no row (``None``),
    and a storage fault marks its shard dead (here and on the health
    board) instead of failing the query."""
    locate, ids_of = index.locate, _path_ids(index)

    def isolated(gid: int):
        if dead_shards and locate(gid)[0] in dead_shards:
            return None
        try:
            return ids_of(gid)
        except _SHARD_FAULTS as exc:
            shard_no = locate(gid)[0]
            dead_shards.setdefault(shard_no, str(exc))
            if health is not None:
                health.record_failure(shard_no, exc)
            return None

    return isolated


class _Scorer:
    """The score stage of one cluster: the λ scan
    (:func:`~repro.index.columnar.score_rows`) bound to the cluster's
    encoded query, budget and class verdicts.

    Called as ``scorer(gids, ids_of)`` over the cluster's charged list
    (in procs mode, over the part no worker scores), and its
    ``verdicts`` span the whole cluster: the first candidate of a
    refined class — on *any* shard, classes span shards — is decoded
    and scanned; later members
    ship a row copied from its verdict (no ids: the column store
    derives each member's own from its class).  A representative that
    fails to decode does *not* register its key — the next member of
    the class is decoded and becomes the representative instead,
    preserving per-candidate fault isolation.  A dropped representative
    drops every member (the trim verdict is refine-key invariant).
    """

    __slots__ = ("query_path", "trim_anchor", "query", "weights", "budget",
                 "expired", "key_of", "verdicts")

    def __init__(self, query_path: Path, trim_anchor, query,
                 weights: ScoringWeights, budget: "Budget | None", key_of):
        self.query_path = query_path
        self.trim_anchor = trim_anchor
        self.query = query
        self.weights = weights
        self.budget = budget
        self.expired = (partial(budget.poll, "cluster")
                        if budget is not None else None)
        self.key_of = key_of
        self.verdicts: dict = {}

    def __call__(self, gids, ids_of) -> "tuple[list[tuple], bool]":
        """Rows of ``gids`` in candidate order, and whether the
        deadline tripped mid-scoring (the rows scored so far are kept)."""
        return score_rows(gids, ids_of, self.query, self.weights,
                          self.expired, self.key_of, self.verdicts)


def _score_sharded(index, gids: list[int], scorer: _Scorer, ids_of,
                   health, dead_shards: "dict[int, str]",
                   proc_pool) -> "tuple[list[tuple], bool]":
    """The score stage over a sharded index: the rows of every shard
    that may be read, and whether the deadline tripped mid-scoring.

    Each shard holding candidates is asked once (``health.allow``); a
    refused one is marked dead as circuit-open and never decoded.  The
    rest score here through ``ids_of`` (:func:`_isolating_ids`) — or,
    with ``proc_pool``, in their workers while the others score here.
    A shard lost on the way keeps no row, not even a class member's
    copied one, and every admitted shard that scored cleanly reports
    success.
    """
    budget = scorer.budget
    locate = index.locate
    admitted = []
    for shard_no in sorted({locate(gid)[0] for gid in gids}):
        if shard_no in dead_shards:
            continue           # already lost earlier in this query
        if health is not None and not health.allow(shard_no):
            dead_shards.setdefault(shard_no, "circuit open")
            continue
        admitted.append(shard_no)
    remote = ([shard_no for shard_no in admitted
               if _pool_eligible(index, shard_no)]
              if proc_pool is not None else [])
    if remote:
        groups = index.group_by_shard(gids)
        in_workers = set(remote)
        local = [gid for gid in gids if locate(gid)[0] not in in_workers]
        remaining = budget.remaining_ms() if budget is not None else None
        (rows, tripped), replies = proc_pool.score(
            [(shard_no, groups[shard_no]) for shard_no in remote],
            scorer.query_path, scorer.trim_anchor, scorer.weights,
            remaining, partial(scorer, local, ids_of))
        for shard_no, reply in replies.items():
            if isinstance(reply, _SHARD_FAULTS):
                dead_shards.setdefault(shard_no, str(reply))
                if health is not None:
                    health.record_failure(shard_no, reply)
                continue
            shard_rows, shard_tripped = reply
            rows.extend(shard_rows)
            tripped = tripped or shard_tripped
    else:
        rows, tripped = scorer(gids, ids_of)
    if dead_shards:
        rows = [row for row in rows if locate(row[1])[0] not in dead_shards]
    if health is not None:
        for shard_no in admitted:
            if shard_no not in dead_shards:
                health.record_success(shard_no)
    if tripped and budget is not None:
        # A worker trips on its own clock against its budget slice; the
        # coordinator's budget must still record the deadline so the
        # degradation reason reaches the PartialResult.  (In-process
        # this is a no-op: the scan's own poll already noted it.)
        budget.out_of_time("cluster")
    return rows, tripped


def _pool_eligible(index, shard_no: int) -> bool:
    """Whether a shard's slice may be scored in a worker process.

    A shard whose coordinator-side page store carries an armed fault
    injector must score in-process: the injector cannot fire inside a
    worker (workers open their own stores), and chaos-harness fault
    plans rely on its exact semantics.  Quarantined shards (no open
    page store at all) are never dispatched anyway.
    """
    shard = index.shards[shard_no]
    store = getattr(shard, "page_store", None)
    return store is not None and getattr(store, "fault_injector", None) is None
