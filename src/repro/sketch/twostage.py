"""Two-stage candidate generation: sketch recall, then exact rerank.

Stage 1 judges every retrieved candidate against the query using only
its sketch row (distinct label-id sets + minhash signature); stage 2
is the unchanged exact λ/ψ scorer over whatever survives.  Two modes:

**safe** — prunes only candidates *provably* outside the kept cluster,
so rankings stay bit-identical to exhaustive scoring.  Three exact
facts about :func:`repro.index.columnar.score_rows` make that work:

- *Trim survival is decidable from the sketch.*  A sink-anchored
  candidate survives the §4.3 trim iff some stored node matches the
  anchor, i.e. iff its node-id set intersects the anchor's match set
  (interning is injective and the id matcher is the label matcher).
  Trim-dropped candidates are pruned for free.
- *A lower bound λ ≥ LB.*  The scan's indel counts are exact, not
  bounded: insertions are exactly ``max(0, plen - qlen)`` data
  (edge, node) pairs and deletions exactly ``max(0, qlen - plen)``
  query pairs, so those weighted terms are guaranteed λ components.
  The scan is also positionally rigid — it walks both sequences
  backward from the sink 1:1 (insertions skip *data* pairs only), so
  the query occurrence at sink-distance ``s`` is compared iff
  ``plen > s`` and deleted otherwise.  A *compared* constant
  occurrence whose match set misses the candidate's full id set
  therefore adds a full mismatch weight on top of the indel terms
  (deleted occurrences add nothing more — their cost is already
  inside the blanket delete term) — decidable per candidate from its
  stored length.
- *An upper bound λ ≤ UB.*  Aligned node comparisons never exceed
  ``min(plen, qlen)`` (edges likewise) and the indel terms are the
  same exact counts, so ``UB(plen)`` caps λ; it is piecewise linear
  in ``plen``, so over the trim range ``[1, stored]`` it is maximised
  at an endpoint — ``max(UB(1), UB(stored))`` for anchored
  candidates.  Anchored candidates score an unknown trimmed prefix,
  so their LB conservatively degrades to the trim-invariant part:
  each disjoint constant is compared or deleted whatever the trim
  keeps, costing at least ``min(mismatch, deletion)``.

The cluster keeps the ``max_cluster_size`` smallest scores.  With
``T`` = the limit-th smallest UB among trim survivors, any candidate
with ``LB > T`` has λ strictly above the λ of at least ``limit``
others (each λ_i ≤ UB_i ≤ T), so it cannot make the truncated cluster
— even on ties, because the cut is strict.  Survivor counts at or
under the limit prune nothing (no truncation ⇒ everything is kept).
Candidates without a sketch row (quarantined / stale / missing shard
sketch) pass through with UB = ∞, which only raises ``T`` — always
conservative.  Safe mode is proven bit-identical under random
workloads in ``tests/test_sketch.py`` and on the LUBM workload by
``benchmarks/bench_twostage.py``.

**approximate** — also drops candidates that merely *look* far.  The
recall target buys a keep budget ``K`` (160 at the default 0.95,
doubling every time the allowed miss rate halves, degenerating to
keep-everything at target 1.0); candidates are ranked by ``(LB,
gid)`` — the same ascending-gid order the exact scorer uses to break
cost ties, so within a tied LB stratum the survivors are exactly the
candidates the exhaustive tie-break would promote — and cut at the
budget.  Beyond-budget candidates are rescued when the LSH bucket
index reports a band collision with the query's signature (their
labels look like the query's beyond what the bounds see).  Candidate
sets at or under the budget pass untouched.  Recall is measured, not
promised — ``bench_twostage.py`` gates it ≥ the target.

One caveat the docs repeat: pruning removes candidates *before* budget
charging, so degradation-budget accounting differs from exhaustive
runs.  Bit-identity claims are for unbudgeted queries.
"""

from __future__ import annotations

import math

from ..index.columnar import DROPPED, FOREIGN_BASE
from ..paths.alignment import exact_match
from .minhash import coefficients, signature
from .store import load_sketches

#: Approximate mode's keep budget at the default 0.95 recall target,
#: and its floor at looser targets: never fewer than this many
#: candidates survive (when that many were retrieved) — a
#: deterministic starvation guard well above any sane top-k.
APPROX_MIN_KEEP = 32

_MODES = ("off", "safe", "approx")


def validate_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(
            f"two_stage must be one of {_MODES}, got {mode!r}")
    return mode


class SketchIndex:
    """Gid-space view over per-shard sketches (``None`` holes allowed)."""

    __slots__ = ("sketches", "_locate", "params", "_coeffs")

    def __init__(self, sketches, locate):
        self.sketches = sketches
        self._locate = locate
        loaded = [sketch for sketch in sketches if sketch is not None]
        self.params = loaded[0].params
        self._coeffs = coefficients(self.params)

    @classmethod
    def for_index(cls, index) -> "SketchIndex | None":
        """Load the persisted sketches of ``index``; ``None`` when no
        shard has a usable one (absent, stale epoch, corrupt)."""
        sketches = load_sketches(index)
        if sketches is None:
            return None
        locate = getattr(index, "locate", None)
        if locate is None:
            locate = lambda gid: (0, gid)
        return cls(sketches, locate)

    def lookup(self, gid: int):
        """``(shard sketch, row)`` for ``gid``, or ``None`` when its
        shard has no sketch (→ the filter passes it through)."""
        shard_no, offset = self._locate(gid)
        sketch = self.sketches[shard_no]
        if sketch is None:
            return None
        row = sketch.row_of.get(offset)
        if row is None:
            return None
        return sketch, row

    def query_signature(self, ids):
        return signature(ids, self._coeffs)


class TwoStageFilter:
    """The stage-1 candidate judge wired into ``build_clusters``.

    Callable as ``filter(query, gids, qctx=None)`` — ``query`` the
    cluster's :class:`~repro.index.columnar.EncodedQuery`, trim anchor
    included — returning the surviving gids in ascending order.
    ``qctx`` is the cluster's optional
    :class:`~repro.quotient.resolve.QuotientContext`: candidates
    sharing a refine key provably receive identical ``(LB, UB)``
    verdicts (the disjointness of a slot filler against a constant's
    match set is exactly that constant's membership in the slot's
    refine feature, and the stored length is fixed by the class
    pattern), so the filter judges one member per class and reuses the
    verdict — the kept gid list is unchanged, only the set
    intersections are skipped.

    One instance serves every query of an engine: the per-constant
    match sets (all data label ids the matcher accepts for a stored
    query constant) are memoised across queries, like the verdicts of
    ``ids_match`` (the engine's
    :func:`~repro.index.columnar.make_id_matcher`).
    """

    def __init__(self, index, sketch_index: SketchIndex, ids_match, weights,
                 mode: str, max_cluster_size: "int | None",
                 recall_target: float = 0.95):
        self.sketches = sketch_index
        self.mode = validate_mode(mode)
        self.limit = max_cluster_size
        self.recall_target = min(max(recall_target, 0.0), 1.0)
        self.weights = weights
        #: Every label of the sketched paths carries an id below this.
        self._data_vocab = len(index.interner)
        self._exact = ids_match.matcher is exact_match
        self._match_ids: "dict[int, frozenset]" = {}

    def match_set(self, query_id: int, ids_match) -> frozenset:
        """All data label ids ``ids_match`` accepts for ``query_id``."""
        found = self._match_ids.get(query_id)
        if found is None:
            if self._exact:
                found = frozenset((query_id,))
            else:
                found = frozenset(
                    data_id for data_id in range(self._data_vocab)
                    if ids_match(data_id, query_id))
            if query_id < FOREIGN_BASE:
                # A query-only constant's set goes with its query.
                self._match_ids[query_id] = found
        return found

    def _occurrence_checks(self, query):
        """One ``(min_plen, match set, mismatch w, deletion w, kind)``
        per constant occurrence of the query path.

        ``min_plen`` is the smallest candidate length at which the
        sink-anchored scan *compares* this occurrence instead of
        deleting it: the node at sink-distance ``s`` is compared iff
        ``plen >= s + 1``; the edge at sink-distance ``s`` needs the
        candidate to have an edge that deep, ``plen >= s + 2``.
        ``kind`` selects the candidate id set (False=node, True=edge).
        """
        weights = self.weights
        ids_match = query.ids_match
        checks = []
        for distance, label in enumerate(reversed(query.nodes)):
            if label >= 0:          # a constant; variables are negative
                checks.append((distance + 1,
                               self.match_set(label, ids_match),
                               weights.node_mismatch,
                               weights.node_deletion, False))
        for distance, label in enumerate(reversed(query.edges)):
            if label >= 0:
                checks.append((distance + 2,
                               self.match_set(label, ids_match),
                               weights.edge_mismatch,
                               weights.edge_deletion, True))
        return checks

    def __call__(self, query, gids, qctx=None):
        if not gids:
            return gids
        weights = self.weights
        checks = self._occurrence_checks(query)
        anchor_set = (self.match_set(query.anchor_id, query.ids_match)
                      if query.anchor_id is not None else None)

        query_len = len(query.nodes)
        edge_len = query_len - 1
        node_mis = weights.node_mismatch
        edge_mis = weights.edge_mismatch
        insert_unit = weights.node_insertion + weights.edge_insertion
        delete_unit = weights.node_deletion + weights.edge_deletion

        def upper_bound(plen: int) -> float:
            return (node_mis * min(plen, query_len)
                    + edge_mis * min(plen - 1, edge_len)
                    + insert_unit * max(0, plen - query_len)
                    + delete_unit * max(0, query_len - plen))

        trimmed_floor = upper_bound(1)
        lookup = self.sketches.lookup
        #: Refine key -> ``(LB, UB)`` or :data:`DROPPED`, valid
        #: for this call only (the bounds depend on the query path).
        class_verdicts: "dict | None" = {} if qctx is not None else None
        judged = []          # (gid, LB, UB) for every trim survivor
        for gid in gids:
            found = lookup(gid)
            if found is None:
                # No sketch for this shard: never prune, never count
                # toward the threshold in a way that tightens it.
                judged.append((gid, 0.0, math.inf, None))
                continue
            sketch, row = found
            ckey = qctx.key_of(gid) if qctx is not None else None
            if ckey is not None:
                verdict = class_verdicts.get(ckey)
                if verdict is DROPPED:
                    continue
                if verdict is not None:
                    judged.append((gid, verdict[0], verdict[1],
                                   (sketch, row)))
                    continue
            node_set = sketch.node_sets[row]
            if anchor_set is not None and anchor_set.isdisjoint(node_set):
                if ckey is not None:
                    class_verdicts[ckey] = DROPPED
                continue        # exact: the §4.3 trim drops it anyway
            edge_set = sketch.edge_sets[row]
            stored = sketch.lengths[row]
            if anchor_set is None:
                # Untrimmed: the scored path is the stored path, so the
                # exact indel counts and the compared/deleted fate of
                # every constant occurrence follow from ``stored``.  A
                # deleted occurrence adds nothing here — its deletion
                # weight is already inside the blanket delete term.
                bound = (insert_unit * max(0, stored - query_len)
                         + delete_unit * max(0, query_len - stored))
                for min_plen, match_ids, mis_w, _del_w, is_edge in checks:
                    if stored >= min_plen and match_ids.isdisjoint(
                            edge_set if is_edge else node_set):
                        bound += mis_w
                ceiling = upper_bound(stored)
            else:
                # Anchored: the scored prefix length is unknown, so
                # only the trim-invariant floor survives — a disjoint
                # constant is compared or deleted whatever the trim
                # keeps.
                bound = 0.0
                for _min_plen, match_ids, mis_w, del_w, is_edge in checks:
                    unit = mis_w if mis_w < del_w else del_w
                    if unit and match_ids.isdisjoint(edge_set if is_edge
                                                     else node_set):
                        bound += unit
                ceiling = max(trimmed_floor, upper_bound(stored))
            if ckey is not None:
                class_verdicts[ckey] = (bound, ceiling)
            judged.append((gid, bound, ceiling, (sketch, row)))

        if self.mode == "safe":
            return self._keep_safe(judged)
        return self._keep_approx(judged, checks)

    def _keep_safe(self, judged):
        limit = self.limit
        if limit is None or len(judged) <= limit:
            # No truncation ⇒ every trim survivor is kept verbatim.
            return [gid for gid, _bound, _ceiling, _row in judged]
        threshold = sorted(ceiling
                           for _gid, _bound, ceiling, _row in judged)[limit - 1]
        return [gid for gid, bound, _ceiling, _row in judged
                if bound <= threshold]

    def keep_budget(self) -> "int | None":
        """The approx keep budget ``K``, or ``None`` for keep-all.

        ``ceil(8 / (1 - target))`` with an :data:`APPROX_MIN_KEEP`
        floor: halving the allowed miss rate doubles the budget, the
        default 0.95 target spends 160, and target 1.0 keeps
        everything (approx degenerates to exhaustive recall).  The
        constant is calibrated on the LUBM Fig. 9 workload by
        ``benchmarks/bench_twostage.py``, which measures the recall
        the budget actually delivers.
        """
        miss_rate = 1.0 - self.recall_target
        if miss_rate <= 0.0:
            return None
        return max(APPROX_MIN_KEEP, math.ceil(8.0 / miss_rate))

    def _keep_approx(self, judged, checks):
        budget = self.keep_budget()
        sketched = sum(1 for _g, _b, _c, located in judged
                       if located is not None)
        if budget is None or sketched <= budget:
            return [gid for gid, _bound, _ceiling, _located in judged]
        # Rank sketched candidates by (LB, gid) — the same ascending-gid
        # order the exact scorer uses to break cost ties — and cut at
        # the budget.  LSH band collisions with the query's signature
        # rescue beyond-budget candidates whose labels look like the
        # query's beyond what the bounds see.
        ranked = sorted((bound, gid) for gid, bound, _ceiling, located
                        in judged if located is not None)
        cut = ranked[budget - 1]
        query_ids = set()
        for _min_plen, match_ids, _mis_w, _del_w, _is_edge in checks:
            query_ids.update(match_ids)
        query_sig = (self.sketches.query_signature(query_ids)
                     if query_ids else None)
        collisions: "dict[int, set]" = {}
        kept = []
        for gid, bound, _ceiling, located in judged:
            if located is None or (bound, gid) <= cut:
                kept.append(gid)
                continue
            if query_sig is None:
                continue
            sketch, row = located
            rows = collisions.get(id(sketch))
            if rows is None:
                rows = collisions[id(sketch)] = sketch.collision_rows(
                    query_sig)
            if row in rows:
                kept.append(gid)
        return kept
