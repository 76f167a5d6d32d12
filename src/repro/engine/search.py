"""Top-k answer generation (§5, step 3).

The search combines one entry per cluster into answers, emitting the k
best by total score without enumerating the whole combination space.
It is an A* join driven by the intersection query graph:

- clusters are joined in connectivity order (most IG-connected first),
  so every newly decided path is immediately scored against decided
  neighbours — conformity guides the search instead of being checked
  after the fact (this is the role the paper's *forest of paths* plays:
  combinations grow along IG edges, preferring solid, conforming ones);
- a partial state's priority is its exact cost so far (λ of decided
  entries + ψ of fully decided IG pairs) plus an estimate of the
  remainder (per-cluster minimum λ + per-edge conformity floor).  The
  floor divides by the largest |χ| over each cluster's first
  ``_FLOOR_SAMPLE`` entries, not over all of them, so the estimate is
  not proven admissible;
- successor enumeration is lazy (best child + next-sibling cursor), so
  popping a state costs one candidate list per distinct anchor set.
  A list prices by exception: entries that meet the anchors only in
  labels their whole cluster carries share one base price, and only the
  rest are priced pair by pair — same floats, same order, same pool
  as pricing every pair (see :func:`_candidates_of`);
- complete states are buffered and emitted only when their score is ≤
  every bound still in the frontier.  With ``forced_emissions == 0``
  and an admissible floor, the emitted sequence is the top-k of the
  pooled candidates in non-decreasing score order; a ``sibling_limit``
  restricts it to the pools, and the patience rule
  (``forced_emissions > 0``) gives up the proof for the rest.  This
  *structural* monotonicity is why the paper's reciprocal-rank
  experiment (§6.3) reports RR = 1 everywhere.

Empty clusters contribute a "missing" slot priced by
:func:`~repro.engine.clustering.missing_path_penalty`; IG pairs with a
missing side pay the full conformity penalty ``e·|χ(q_i, q_j)|``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from ..index.columns import uid_limit
from ..resilience.budget import Budget, DegradationReason
from ..scoring.weights import PAPER_WEIGHTS, ScoringWeights
from .answers import Answer
from .clustering import Cluster, ClusterEntry
from .preprocess import PreparedQuery

#: Rank used for the "missing" slot of an empty cluster.
_MISSING = -1

#: Cluster-prefix size sampled when estimating each IG edge's best
#: achievable |χ| (the denominator of its conformity floor).
_FLOOR_SAMPLE = 64


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the top-k search.

    ``k`` is the number of answers; answers covering the same triple
    set collapse into the best of them.  ``sibling_limit`` bounds how
    many children of one partial state the search may explore
    (children are cost-sorted, so only the tail is sacrificed); ``None``
    explores everything — exact but potentially slow on clusters with
    thousands of λ-tied entries.  ``patience`` force-emits the best
    buffered answer after that many expansions without an emission: the
    conformity floor of the A* bound is loose, so on adversarial
    plateaus the proof-of-optimality phase can cost far more than
    finding the answers; patience trades the guarantee for a hard
    latency bound (forced emissions are counted on the result).
    ``None`` disables it.  The cap on frontier pops is the query's
    :class:`~repro.resilience.budget.Budget`'s, not a knob here.

    ``k``, ``sibling_limit`` and ``patience`` below 1 raise
    ``ValueError``: each would silently return fewer answers.
    """

    k: int = 10
    sibling_limit: "int | None" = 64
    patience: "int | None" = 250

    def __post_init__(self):
        for name in ("k", "sibling_limit", "patience"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"SearchConfig.{name} must be >= 1, "
                                 f"got {value!r}")


@dataclass
class SearchResult:
    """The ranked answers plus search effort counters.

    ``forced_emissions`` counts answers emitted by the patience rule
    before their optimality proof completed (0 = fully proven order).
    ``degradation`` records why the search stopped early, when it did
    (a budget trip: deadline or expansion cap); ``exhausted`` is True
    when there is no such reason.

    Sub-stage attribution: ``candidate_lists`` counts the sorted child
    lists built, ``candidate_cache_hits`` the states that shared one
    already built, and ``psi_evaluations`` the (entry, settled IG edge)
    pairs priced one by one while building them — the exceptions only;
    plain entries share one base price (see :func:`_candidates_of`).
    """

    answers: list[Answer]
    expansions: int = 0
    generated: int = 0
    forced_emissions: int = 0
    degradation: tuple[DegradationReason, ...] = ()
    candidate_lists: int = 0
    candidate_cache_hits: int = 0
    psi_evaluations: int = 0

    @property
    def exhausted(self) -> bool:
        return not self.degradation

    def __iter__(self):
        return iter(self.answers)

    def __len__(self):
        return len(self.answers)

    def __getitem__(self, item):
        return self.answers[item]


class _JoinSpace:
    """Shared immutable context of one top-k search.

    χ/ψ intersect the dense label-id sets of the clusters' rows
    (:meth:`~repro.engine.clustering.Cluster.id_set`) — the one key
    space of every index, built or live.  Interning is injective, so
    ``|a ∩ b|`` over ids is the paper's ``|χ|`` over node labels.  A
    row's set is fetched only for a rank the search prices, anchors on
    or samples for a floor; λ is read from the cluster's score column.
    """

    def __init__(self, prepared: PreparedQuery, clusters: list[Cluster],
                 weights: ScoringWeights):
        self.prepared = prepared
        self.clusters = clusters
        self.weights = weights
        self.order = _join_order(prepared, clusters)
        # position_of[cluster index] = depth at which it is decided.
        self.position_of = {cluster: depth
                            for depth, cluster in enumerate(self.order)}
        self.edge_penalty: dict[tuple[int, int], float] = {
            (i, j): weights.conformity * len(shared)
            for i, j, shared in prepared.ig.edges()}
        # Per-edge conformity floor.  An edge into an *empty* cluster
        # always pays the full penalty (its side is forcibly missing),
        # so the floor is exact there.  Elsewhere the floor divides by
        # the largest |χ| observed over the two clusters' best-entry
        # prefixes: the true maximum over the full clusters could in
        # principle exceed the sampled one, but the prefixes are where
        # the search actually lives, and a tight floor is what stops
        # A* from grinding λ-plateaus before completing a combination.
        self.edge_floor: dict[tuple[int, int], float] = {}
        samples: dict[int, set] = {}
        for (i, j), penalty in self.edge_penalty.items():
            if not len(clusters[i]) or not len(clusters[j]):
                self.edge_floor[(i, j)] = penalty
                continue
            for index in (i, j):
                if index not in samples:
                    samples[index] = _floor_sample(clusters[index])
            cap = _max_common(samples[i], samples[j])
            self.edge_floor[(i, j)] = penalty / cap if cap else penalty
        self.min_lambda = [
            cluster.scores[0] if len(cluster) else cluster.missing_penalty
            for cluster in clusters]
        # h(depth): optimistic remainder after ``depth`` clusters decided.
        self.tail_estimate = self._tail_estimates()
        # Pairwise-ψ cache keyed on packed entry uids.  The packing
        # stride is derived from the largest gid — a fixed 2^20 stride
        # silently collided (and returned a wrong cached intersection)
        # once a clustering run handed out uids past it.
        self._uid_stride = uid_limit(max(
            (max(cluster.gids) for cluster in clusters if len(cluster)),
            default=0))
        self._pair_cache: dict[int, int] = {}
        # Edges settled when the cluster at each join depth is decided:
        # (other cluster index, penalty) — ψ against anything else is
        # irrelevant while scoring that depth's candidates.
        self.settled_edges: list[list[tuple[int, float]]] = [
            [] for _ in self.order]
        for (i, j), penalty in self.edge_penalty.items():
            pos_i, pos_j = self.position_of[i], self.position_of[j]
            late, early = ((i, j) if pos_i > pos_j else (j, i))
            self.settled_edges[self.position_of[late]].append((early, penalty))
        # Candidate lists depend only on (depth, the decided entries on
        # that depth's settled edges) — states sharing those share the
        # list, which this cache exploits.
        self._candidate_cache: dict[tuple, tuple[tuple, tuple, tuple]] = {}
        # Per-cluster inverted index: node label id → entry ranks, used
        # to find the entries that *intersect* an anchor path without
        # scanning the whole cluster.  Built lazily per cluster.
        self._buckets: dict[int, dict] = {}
        # Sub-stage effort for the SearchResult (plain ints, no registry).
        self.candidate_lists = 0
        self.candidate_cache_hits = 0
        self.psi_evaluations = 0

    def buckets_of(self, cluster_index: int) -> "tuple[dict, frozenset]":
        """Inverted index of one cluster: node label id → ascending
        ranks (C-speed int hashing, read straight off the cluster's
        node-id column, each label filed once per rank), plus the
        cluster's *universal* labels — those every row carries."""
        cached = self._buckets.get(cluster_index)
        if cached is None:
            buckets: dict = {}
            cluster = self.clusters[cluster_index]
            for rank, node_ids in enumerate(cluster.node_ids):
                if node_ids is None:     # a quotient member: no ids shipped
                    node_ids = cluster.id_set(rank)
                for key in node_ids:
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [rank]
                    elif bucket[-1] != rank:
                        bucket.append(rank)
            full = frozenset(label for label, ranks in buckets.items()
                             if len(ranks) == len(cluster))
            cached = self._buckets[cluster_index] = (buckets, full)
        return cached

    def _tail_estimates(self) -> list[float]:
        depth_count = len(self.order)
        estimates = [0.0] * (depth_count + 1)
        for depth in range(depth_count - 1, -1, -1):
            estimates[depth] = (estimates[depth + 1]
                                + self.min_lambda[self.order[depth]])
        # Conformity floors attach to the depth at which the edge's
        # *second* endpoint is decided (that's when its ψ becomes exact).
        for (i, j), floor in self.edge_floor.items():
            settled = max(self.position_of[i], self.position_of[j])
            for depth in range(settled + 1):
                estimates[depth] += floor
        return estimates

    def entry(self, cluster_index: int, rank: int) -> "ClusterEntry | None":
        if rank == _MISSING:
            return None
        return self.clusters[cluster_index].entry(rank)

    def id_set(self, cluster_index: int, rank: int) -> "frozenset | None":
        if rank == _MISSING:
            return None
        return self.clusters[cluster_index].id_set(rank)

    def common_nodes(self, entry_a: ClusterEntry, entry_b: ClusterEntry) -> int:
        uid_a, uid_b = entry_a.uid, entry_b.uid
        key = uid_a * self._uid_stride + uid_b if uid_a <= uid_b \
            else uid_b * self._uid_stride + uid_a
        cached = self._pair_cache.get(key)
        if cached is None:
            cached = len(entry_a.id_set & entry_b.id_set)
            self._pair_cache[key] = cached
        return cached


def _floor_sample(cluster: Cluster) -> "set[frozenset]":
    """The distinct id sets of a cluster's first ``_FLOOR_SAMPLE`` rows
    (trimmed prefixes repeat heavily)."""
    return {cluster.id_set(rank)
            for rank in range(min(len(cluster), _FLOOR_SAMPLE))}


def _max_common(sets_i, sets_j) -> int:
    """``max |a ∩ b|`` over ``a`` in ``sets_i``, ``b`` in ``sets_j``,
    counted through postings of ``sets_j``: the work is the number of
    label co-occurrences (most pairs share nothing), not ``|i|·|j|``."""
    postings: dict = {}
    for index_j, labels in enumerate(sets_j):
        for label in labels:
            postings.setdefault(label, []).append(index_j)
    best = 0
    for labels in sets_i:
        shared: dict = {}
        for label in labels:
            for index_j in postings.get(label, ()):
                count = shared[index_j] = shared.get(index_j, 0) + 1
                if count > best:
                    best = count
    return best


def _join_order(prepared: PreparedQuery, clusters: list[Cluster]) -> list[int]:
    """Decide clusters most-connected-first, growing along IG edges."""
    count = len(clusters)
    if count == 0:
        return []
    ig = prepared.ig
    remaining = set(range(count))

    def degree(index: int) -> int:
        return len(ig.neighbors(index))

    order = []
    seed = max(remaining, key=lambda i: (degree(i), -len(clusters[i]), -i))
    order.append(seed)
    remaining.discard(seed)
    while remaining:
        def connectivity(index: int) -> int:
            return sum(1 for decided in order if ig.has_edge(index, decided))
        best = max(remaining, key=lambda i: (connectivity(i), degree(i), -i))
        order.append(best)
        remaining.discard(best)
    return order


class _PartialState:
    """A prefix of the join: entries decided for ``order[:depth]``."""

    __slots__ = ("depth", "ranks", "cost", "broken", "candidates")

    def __init__(self, depth: int, ranks: tuple[int, ...], cost: float,
                 broken: int):
        self.depth = depth
        self.ranks = ranks            # rank per decided cluster, join order
        self.cost = cost              # exact Λ + settled Ψ so far
        self.broken = broken
        #: Sorted children as three aligned columns (see _candidates_of).
        self.candidates: "tuple[tuple, tuple, tuple] | None" = None


def top_k(prepared: PreparedQuery, clusters: list[Cluster],
          weights: ScoringWeights = PAPER_WEIGHTS,
          config: SearchConfig = SearchConfig(),
          budget: "Budget | None" = None) -> SearchResult:
    """Generate the top-k answers for a prepared query over its clusters.

    Precondition: every cluster's rows are sorted by ``(λ, gid)``,
    as :func:`~repro.engine.clustering.build_clusters` leaves them.
    The candidate lists rely on it to keep rows that share one base
    price in rank order without sorting them.

    ``budget`` is the query's cooperative cancellation: each frontier
    pop is charged (deadline checks are strided inside the budget), and
    when a limit trips the search stops where it is and returns the
    answers proven (or buffered) so far, with the reason recorded both
    on the budget and on ``SearchResult.degradation``.  Without one the
    search runs under a fresh ``Budget()``, whose expansion cap is
    :data:`~repro.resilience.budget.DEFAULT_MAX_EXPANSIONS`.
    """
    if len(clusters) != len(prepared.paths):
        raise ValueError(f"need one cluster per query path: "
                         f"{len(clusters)} vs {len(prepared.paths)}")
    if not clusters:
        return SearchResult(answers=[])
    if budget is None:
        budget = Budget()

    space = _JoinSpace(prepared, clusters, weights)
    depth_total = len(clusters)
    tie = itertools.count()

    root = _PartialState(0, (), 0.0, 0)
    # Heap items: (bound, tie, state, sibling_index).  sibling_index is
    # the position in state.candidates this item will expand; the root
    # enters with index 0 and, when popped, re-enqueues index + 1.
    frontier: list[tuple[float, int, int, _PartialState, int]] = []
    _enqueue_child(frontier, space, root, 0, tie, config)

    buffered: list[tuple[float, int, int, Answer]] = []
    emitted: list[Answer] = []
    signatures: set[frozenset] = set()
    expansions = 0
    generated = 0
    forced = 0
    since_emission = 0
    degradation: list[DegradationReason] = []

    def emit_one() -> bool:
        """Pop the buffered best into the output; False for a duplicate."""
        _score, _broken, _t, answer = heapq.heappop(buffered)
        signature = answer.signature()
        if signature in signatures:
            return False
        signatures.add(signature)
        emitted.append(answer)
        return True

    def drain(force: bool = False) -> int:
        floor = frontier[0][0] if frontier else float("inf")
        count = 0
        while buffered and len(emitted) < config.k:
            # Strict: a frontier state whose bound *equals* the buffered
            # score could still tie it with fewer broken pairs, so the
            # plateau is expanded first (the patience rule bounds how
            # long that may take).
            if not force and buffered[0][0] >= floor:
                break
            if emit_one():
                count += 1
        return count

    while frontier and len(emitted) < config.k:
        reason = budget.charge_expansion()
        if reason is not None:
            degradation.append(reason)
            break
        _bound, _depth, _t, parent, sibling_index = heapq.heappop(frontier)
        expansions += 1
        since_emission += 1
        # Re-enqueue the parent's next-best child (the cursor trick).
        _enqueue_child(frontier, space, parent, sibling_index + 1, tie, config)
        child = _make_child(space, parent, sibling_index)
        if child.depth == depth_total:
            answer = _materialize(space, child)
            if answer is not None:
                generated += 1
                heapq.heappush(buffered, (answer.score, answer.broken_pairs,
                                          next(tie), answer))
        else:
            _enqueue_child(frontier, space, child, 0, tie, config)
        if drain():
            since_emission = 0
        elif (config.patience is not None
                and since_emission >= config.patience):
            # The search is stalling: answers exist (or can be made to
            # exist) but the optimality proof can't close on the λ-tie
            # plateau.  Switch to greedy-finish: repeatedly complete
            # the best-bound frontier state and emit — an anytime
            # cutover bounding query latency at ~patience expansions
            # total rather than per answer.  The final sort below
            # orders whatever was found best-first.
            while len(emitted) < config.k and (buffered or frontier):
                reason = budget.poll("search")
                if reason is not None:
                    degradation.append(reason)
                    break
                if frontier:
                    _b, _d, _t2, dive_parent, dive_sibling = \
                        heapq.heappop(frontier)
                    answer = _materialize(
                        space, _greedy_complete(space, dive_parent,
                                                dive_sibling, depth_total,
                                                config))
                    if answer is not None:
                        generated += 1
                        heapq.heappush(buffered,
                                       (answer.score, answer.broken_pairs,
                                        next(tie), answer))
                if buffered and emit_one():
                    forced += 1
            break

    drain(force=True)
    # Forced (patience) emissions can leave the list locally out of
    # order; the delivered ranking is the sorted one.
    emitted.sort(key=lambda answer: (answer.score, answer.broken_pairs))
    return SearchResult(answers=emitted, expansions=expansions,
                        generated=generated, forced_emissions=forced,
                        degradation=tuple(degradation),
                        candidate_lists=space.candidate_lists,
                        candidate_cache_hits=space.candidate_cache_hits,
                        psi_evaluations=space.psi_evaluations)


def _candidates_of(space: _JoinSpace, state: _PartialState,
                   limit: "int | None") -> tuple[tuple, tuple, tuple]:
    """Sorted candidate children of a partial state.

    Returned as three aligned columns — cost increments, broken
    increments, ranks — sorted by ``(cost, broken, rank)``: they live
    as long as the search, and flat tuples of numbers give the cyclic
    GC nothing to track.  Child ``i`` decides entry ``ranks[i]`` at
    ``state.depth``; its increment is exact — the
    entry's λ plus the ψ of the IG edges this decision settles — so
    parent cost + increment is again an exact prefix cost.  With a
    ``limit`` only the best ``limit`` children of a *pool* are kept.

    The pool is every rank when there is no ``limit`` or the cluster
    fits ``cap = max(2·limit, 128)``.  Otherwise it is ``cap`` ranks:
    entries *intersecting* an anchor path, found through the label
    buckets rarest-label-first (lexical tie-break, so the pool does not
    depend on interning order) — the candidates ψ rewards — up to
    ``cap // 2``, then the lowest other ranks, which dominate the rest
    because their ψ is uniform.

    Prices are by exception.  A label every entry carries (``full``)
    meets an anchor alike for all of them, so an entry sharing no other
    anchor label — a *plain* entry — has ``|χ(e, a)| = |a ∩ full|`` on
    every settled edge and costs ``λ + base``, ``base`` summed once in
    the per-edge order.  Clusters are ``(λ, gid)``-sorted and
    ``fl(x + base)`` is monotone, so plain entries come in rank order
    and only the *exceptions* (the buckets of anchor labels outside
    ``full``) are priced pair by pair.  The rarity walk visits every
    non-universal label before a universal one, so while the
    exceptions fit in ``cap // 2`` the pool is them plus the lowest
    other ranks, and the walk runs only beyond that.

    Only the entries decided on this depth's *settled edges* influence
    the scores, so the list is memoised on them: sibling states that
    differ elsewhere share one computation.
    """
    depth = state.depth
    cluster_index = space.order[depth]
    cluster = space.clusters[cluster_index]
    settled = space.settled_edges[depth]
    # The decided rows that matter here (settled-edge endpoints): the
    # cluster on each settled edge is fixed per depth, so the memo keys
    # on their ranks, and their id sets are fetched on a miss only.
    ranks = [state.ranks[space.position_of[other_index]]
             for other_index, _penalty in settled]
    key = (depth, limit, *ranks)
    cached = space._candidate_cache.get(key)
    if cached is not None:
        space.candidate_cache_hits += 1
        return cached
    space.candidate_lists += 1
    anchors = [(space.id_set(other_index, rank), penalty)
               for (other_index, penalty), rank in zip(settled, ranks)]

    total = len(cluster)
    present = [ids for ids, _penalty in anchors if ids is not None]
    buckets, full = (space.buckets_of(cluster_index) if total and present
                     else ({}, frozenset()))
    # A plain row meets each anchor in exactly its universal labels.
    # In an empty cluster nothing is universal, so the missing row pays
    # every edge's full penalty, summed in the same order.
    base, base_broken = _psi(full, anchors)
    if not total:
        result = ((cluster.missing_penalty + base,), (base_broken,),
                  (_MISSING,))
        space._candidate_cache[key] = result
        return result
    rare = {label for ids in present for label in ids
            if label not in full and label in buckets}
    exceptions: set[int] = set()
    for label in rare:
        exceptions.update(buckets[label])
    want = total if limit is None else limit
    cap = total if limit is None else max(2 * limit, 128)
    if total <= cap or len(exceptions) <= cap // 2:
        priced = exceptions
        plain = [rank for rank in range(min(total, want + len(exceptions)))
                 if rank not in exceptions][:want]
    else:
        def rarity(label):
            return len(buckets[label]), cluster.label_name(label)

        # Rarest labels first: a label shared with few rows pinpoints
        # the genuinely related candidates (specific entities), while a
        # label shared with thousands (class nodes) carries no signal.
        # The lexical form is resolved for these few labels only.
        walked: set[int] = set()
        for rank in (rank for label in sorted(rare, key=rarity)
                     for rank in buckets[label]):
            walked.add(rank)
            if len(walked) == cap // 2:
                break
        # Fill up with the lowest other ranks: at most ``len(walked)``
        # of the first ``cap + len(walked)`` are taken.
        fill = [rank for rank in range(min(total, cap + len(walked)))
                if rank not in walked][:cap - len(walked)]
        priced = [*walked, *(rank for rank in fill if rank in exceptions)]
        plain = [rank for rank in fill if rank not in exceptions][:want]
    space.psi_evaluations += len(priced) * len(anchors)
    scores = cluster.scores
    scored = []
    for rank in priced:
        psi, broken = _psi(cluster.id_set(rank), anchors)
        scored.append((scores[rank] + psi, broken, rank))
    costs = [scores[rank] + base for rank in plain]
    if not scored:
        result = (tuple(costs), (base_broken,) * len(plain), tuple(plain))
    else:
        scored.extend(zip(costs, itertools.repeat(base_broken), plain))
        scored.sort()
        del scored[want:]
        result = tuple(zip(*scored))
    space._candidate_cache[key] = result
    return result


def _psi(ids: frozenset, anchors: list[tuple["frozenset | None", float]]
         ) -> tuple[float, int]:
    """ψ of the settled edges for a path with node label ids ``ids``
    against the anchors' id sets (``None``: missing), summed from 0.0
    left to right, and how many of them are broken (a missing or
    disjoint side pays the edge's full penalty)."""
    psi = 0.0
    broken = 0
    for anchor, penalty in anchors:
        common = len(ids & anchor) if anchor is not None else 0
        if common:
            psi += penalty / common
        else:
            psi += penalty
            broken += 1
    return psi, broken


def _enqueue_child(frontier, space: _JoinSpace, state: _PartialState,
                   sibling_index: int, tie, config: SearchConfig) -> None:
    if state.candidates is None:
        state.candidates = _candidates_of(space, state, config.sibling_limit)
    costs = state.candidates[0]
    if sibling_index >= len(costs):
        return
    increment = costs[sibling_index]
    # Bound: exact cost through the child (parent cost + λ of the entry
    # + ψ of the edges it settles) plus the optimistic remainder at the
    # child's depth (min λ of undecided clusters + floors of edges not
    # yet settled).  increment ≥ min λ + settled floors, so bounds are
    # non-decreasing along any path — the A* frontier is consistent.
    # Ties break deepest-first: on the λ-tie plateaus typical of large
    # clusters, insertion-order ties would explore the plateau
    # breadth-first and never complete a combination.
    bound = state.cost + increment + space.tail_estimate[state.depth + 1]
    heapq.heappush(frontier,
                   (bound, -(state.depth + 1), next(tie), state, sibling_index))


def _greedy_complete(space: _JoinSpace, state: _PartialState,
                     sibling_index: int, depth_total: int,
                     config: SearchConfig) -> _PartialState:
    """Complete a partial state by always taking the best child.

    The anytime fallback of the patience rule: from the frontier's best
    partial state, dive straight to a full combination.  The result is
    not provably optimal — it is the best *greedy* completion — but it
    guarantees the search can always emit an answer.
    """
    if state.candidates is None:
        state.candidates = _candidates_of(space, state, config.sibling_limit)
    current = _make_child(space, state,
                          min(sibling_index, len(state.candidates[0]) - 1))
    while current.depth < depth_total:
        if current.candidates is None:
            current.candidates = _candidates_of(space, current,
                                                config.sibling_limit)
        current = _make_child(space, current, 0)
    return current


def _make_child(space: _JoinSpace, parent: _PartialState,
                sibling_index: int) -> _PartialState:
    costs, brokens, ranks = parent.candidates
    return _PartialState(parent.depth + 1,
                         parent.ranks + (ranks[sibling_index],),
                         parent.cost + costs[sibling_index],
                         parent.broken + brokens[sibling_index])


def _materialize(space: _JoinSpace, state: _PartialState) -> "Answer | None":
    """Build the Answer for a complete join state."""
    entries: list["ClusterEntry | None"] = [None] * len(space.clusters)
    quality = 0.0
    conformity = 0.0
    covered = 0
    for depth, cluster_index in enumerate(space.order):
        entry = space.entry(cluster_index, state.ranks[depth])
        entries[cluster_index] = entry
        if entry is None:
            quality += space.clusters[cluster_index].missing_penalty
        else:
            quality += entry.score
            covered += 1
    if covered == 0:
        return None
    # Recompute Ψ exactly over all IG edges (cheap; uses the pair cache).
    broken = 0
    for (i, j), penalty in space.edge_penalty.items():
        entry_i, entry_j = entries[i], entries[j]
        if entry_i is None or entry_j is None:
            conformity += penalty
            broken += 1
            continue
        common = space.common_nodes(entry_i, entry_j)
        if common == 0:
            conformity += penalty
            broken += 1
        else:
            conformity += penalty / common
    return Answer(entries=tuple(entries),
                  query_paths=tuple(space.prepared.paths),
                  quality=quality, conformity=conformity,
                  broken_pairs=broken)
