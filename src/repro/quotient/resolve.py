"""Query-time class resolution: score one path per refined class.

The persisted quotient (:mod:`repro.quotient.store`) groups paths by
label-*equality pattern*; whether two members of a class score the
same λ against a *particular* query additionally depends on how their
concrete slot fillers compare to that query's constants.  The resolver
closes that gap with a **refine key** per candidate:

.. code-block:: text

    key = (class pattern, feature(param) for each slot filler ...)
    feature(p) = { query constant c : ids_match(p, c) }

where the constants are the ids of every constant node and edge of the
encoded query path plus the trim anchor
(:meth:`repro.index.columnar.EncodedQuery.constant_ids`).  Two
candidates with equal refine keys are indistinguishable to the greedy
sink-anchored scan (:func:`repro.index.columnar.score_rows`, the
id-space replay of :func:`repro.paths.alignment.align`):

- at every *compared* position the scan's verdict is
  ``ids_match(data id, query constant)`` — equal features ⇒ equal
  verdicts position by position (positions map to slots identically
  because the patterns are equal);
- at repeated-*variable* positions the scan compares the candidate's
  own ids against each other — determined by the pattern alone;
- the §4.3 anchor trim scans node positions sink-first for the first
  anchor match — the anchor is one of the constants, so equal
  features ⇒ the same trim position (or the same drop);
- the insertion-budget rule spends on the same verdicts, so the
  traversal itself is branch-identical.

Branch-identical scans produce the *same integer counts*, and λ is a
weighted sum of those integers evaluated in one fixed order — so the
scores are bit-identical floats, not merely close.  The scan
therefore reads one representative per refine key and copies
``(λ, trimmed length)`` to the other members — which are never decoded;
members re-enter the pipeline as ``(λ, gid, trimmed length)`` rows whose
:class:`~repro.engine.clustering.ClusterEntry` carries their own
concrete node ids (reconstructed once per index epoch from their slot
fillers by :class:`repro.index.columns.PathColumns`),
so everything downstream — ψ/χ set intersections, candidate
buckets, final answers — sees the member's true labels.  Rankings are
asserted bit-identical to unquotiented scoring across shard counts,
worker modes and two-stage modes by ``benchmarks/bench_quotient.py``.

Refine keys exist here and nowhere else, and only the coordinator uses
them (serial path, in-process shard tasks, hedges): what a class saves
is the record decode of its members, and a ``worker_mode="procs"``
worker holds its shard as id columns it never decodes, so it scans
every candidate — measured faster than grouping them first (DESIGN
§11).

The bit-identity claim is for unbudgeted, fault-free queries — the
same caveat two-stage retrieval documents: a deadline that trips
mid-cluster keeps whatever was scored, and with quotients a lost
representative loses its members too.  Budget *charging* is untouched
(every retrieved candidate is charged, member or not), so
``max_candidates`` trips at identical points either way.
"""

from __future__ import annotations

from ..index.columnar import DROPPED, EncodedQuery
from ..obs import get_registry
from .store import load_quotients


class QuotientIndex:
    """Gid-space view over per-shard quotients (``None`` holes allowed)."""

    __slots__ = ("quotients", "_locate")

    def __init__(self, quotients, locate):
        self.quotients = quotients
        self._locate = locate

    @classmethod
    def for_index(cls, index) -> "QuotientIndex | None":
        """Load the persisted quotients of ``index``; ``None`` when no
        shard has a usable one (absent, stale epoch, corrupt)."""
        quotients = load_quotients(index)
        if quotients is None:
            return None
        locate = getattr(index, "locate", None)
        if locate is None:
            locate = lambda gid: (0, gid)
        return cls(quotients, locate)

    def lookup(self, gid: int):
        """``(shard quotient, row)`` for ``gid``, or ``None`` when its
        shard has no quotient (→ the path scores exhaustively)."""
        shard_no, offset = self._locate(gid)
        quotient = self.quotients[shard_no]
        if quotient is None:
            return None
        row = quotient.row_of.get(offset)
        if row is None:
            return None
        return quotient, row

    @property
    def path_count(self) -> int:
        return sum(len(quotient) for quotient in self.quotients
                   if quotient is not None)

    @property
    def class_count(self) -> int:
        return sum(quotient.class_count for quotient in self.quotients
                   if quotient is not None)

    @property
    def compression_ratio(self) -> float:
        """Stored paths per equality-pattern class (≥ 1.0)."""
        classes = self.class_count
        return self.path_count / classes if classes else 1.0


class QuotientContext:
    """Refine-key machinery for one ``(query path, anchor)`` pair.

    Created by :meth:`QuotientResolver.context` once per cluster and
    shared across that cluster's shard tasks — the key is
    content-defined (classes span shards), so two shards computing the
    key of pattern-equal rows agree.
    """

    __slots__ = ("_lookup", "_ids_match", "_constants", "_features",
                 "_interned")

    def __init__(self, lookup, ids_match, constants: tuple):
        self._lookup = lookup
        self._ids_match = ids_match
        self._constants = constants
        #: param id -> frozenset of matched query constants, memoised
        #: across every candidate of the cluster.  Equal features are
        #: one object (almost always the empty one), so comparing two
        #: refine keys is a run of identity checks.
        self._features: "dict[int, frozenset]" = {}
        self._interned: "dict[frozenset, frozenset]" = {}

    def key_of(self, gid: int):
        """The candidate's refine key — its class identity followed by
        the feature of each slot filler — or ``None`` when its shard
        has no usable quotient (→ score it exhaustively)."""
        found = self._lookup(gid)
        if found is None:
            return None
        quotient, row = found
        features = self._features
        key = [quotient.class_keys[quotient.class_ids[row]]]
        for param in quotient.params[row]:
            feature = features.get(param)
            if feature is None:
                feature = self._feature(param)
            key.append(feature)
        return tuple(key)

    def _feature(self, param: int) -> frozenset:
        ids_match = self._ids_match
        feature = frozenset([constant for constant in self._constants
                             if ids_match(param, constant)])
        if feature:     # the empty frozenset is already one object
            feature = self._interned.setdefault(feature, feature)
        self._features[param] = feature
        return feature


class QuotientResolver:
    """The engine-held factory of per-cluster :class:`QuotientContext`:
    the gid-space quotient view, which outlives queries, and the
    savings counters."""

    __slots__ = ("quotients", "_members_total", "_reps_total")

    def __init__(self, quotient_index: QuotientIndex):
        self.quotients = quotient_index
        registry = get_registry()
        self._members_total = registry.counter(
            "sama_quotient_members_total",
            "Candidates scored by copying their class representative")
        self._reps_total = registry.counter(
            "sama_quotient_reps_total",
            "Class representatives aligned exactly on behalf of a "
            "refined equivalence class")

    def context(self, query: EncodedQuery) -> QuotientContext:
        """A fresh refine-key context for one cluster: the constants
        and the label comparison are the encoded query's own, so a
        query-only constant refines classes like any other and leaves
        nothing behind."""
        return QuotientContext(self.quotients.lookup, query.ids_match,
                               query.constant_ids())

    def observe(self, members: int, reps: int) -> None:
        """Fold one finished cluster's savings into the counters."""
        if members:
            self._members_total.inc(members)
        if reps:
            self._reps_total.inc(reps)
