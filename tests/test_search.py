"""Unit tests for the top-k search (§5 step 3)."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.clustering import Cluster, ClusterEntry, _EntryContext
from repro.engine.search import (_MISSING, SearchConfig, _candidates_of,
                                 _JoinSpace, _PartialState, top_k)
from repro.rdf.graph import QueryGraph
from repro.rdf.terms import Literal


GOV = "http://example.org/govtrack/"


class TestFirstSolution:
    def test_paper_first_solution(self, govtrack_engine, q1):
        """The first solution combines p1, p10 and p20 (§5)."""
        answer = govtrack_engine.query(q1, k=1)[0]
        texts = sorted(e.path.text() for e in answer.entries)
        assert texts == [
            "CarlaBunes-sponsor-A0056-aTo-B1432-subject-Health Care",
            "PierceDickes-gender-Male",
            "PierceDickes-sponsor-B1432-subject-Health Care",
        ]

    def test_first_solution_is_conforming(self, govtrack_engine, q1):
        answer = govtrack_engine.query(q1, k=1)[0]
        assert answer.broken_pairs == 0
        assert answer.is_coherent

    def test_q2_answered_approximately(self, govtrack_engine, q2):
        answers = govtrack_engine.query(q2, k=3)
        assert answers
        assert not answers[0].is_exact  # no exact answer exists


class TestMonotonicity:
    """§6.3: answers emerge in non-decreasing score order (RR = 1)."""

    def test_scores_non_decreasing(self, govtrack_engine, q1, q2):
        for query in (q1, q2):
            answers = govtrack_engine.query(query, k=10)
            scores = [answer.score for answer in answers]
            assert scores == sorted(scores)

    def test_lubm_scores_non_decreasing(self, lubm_engine):
        from repro.datasets import lubm_queries
        for spec in lubm_queries()[:4]:
            answers = lubm_engine.query(spec.graph, k=10)
            scores = [answer.score for answer in answers]
            assert scores == sorted(scores)


class TestSearchConfig:
    def test_k_respected(self, govtrack_engine, q1):
        assert len(govtrack_engine.query(q1, k=3)) == 3
        assert len(govtrack_engine.query(q1, k=7)) == 7

    def test_dedupe_removes_triple_duplicates(self, govtrack_engine, q1):
        prepared = govtrack_engine.prepare(q1)
        clusters = govtrack_engine.clusters(prepared)
        deduped = top_k(prepared, clusters,
                        config=SearchConfig(k=50, dedupe=True))
        raw = top_k(prepared, clusters,
                    config=SearchConfig(k=50, dedupe=False))
        signatures = [a.signature() for a in deduped.answers]
        assert len(set(signatures)) == len(signatures)
        assert len(raw.answers) >= len(deduped.answers)

    def test_strict_bindings_drops_incoherent(self, govtrack_engine, q1):
        prepared = govtrack_engine.prepare(q1)
        clusters = govtrack_engine.clusters(prepared)
        strict = top_k(prepared, clusters,
                       config=SearchConfig(k=20, strict_bindings=True))
        assert strict.answers
        assert all(answer.is_coherent for answer in strict.answers)

    def test_max_expansions_reports_exhaustion(self, govtrack_engine, q1):
        prepared = govtrack_engine.prepare(q1)
        clusters = govtrack_engine.clusters(prepared)
        result = top_k(prepared, clusters,
                       config=SearchConfig(k=100, max_expansions=5))
        assert not result.exhausted
        assert result.expansions == 5

    def test_exact_mode_unlimited_siblings(self, govtrack_engine, q1):
        prepared = govtrack_engine.prepare(q1)
        clusters = govtrack_engine.clusters(prepared)
        exact = top_k(prepared, clusters,
                      config=SearchConfig(k=5, sibling_limit=None,
                                          patience=None))
        default = top_k(prepared, clusters, config=SearchConfig(k=5))
        assert [a.score for a in exact.answers] == \
            [a.score for a in default.answers]

    def test_result_is_sequence(self, govtrack_engine, q1):
        prepared = govtrack_engine.prepare(q1)
        clusters = govtrack_engine.clusters(prepared)
        result = top_k(prepared, clusters, config=SearchConfig(k=4))
        assert len(result) == 4
        assert result[0].score <= result[-1].score
        assert list(iter(result)) == result.answers

    @pytest.mark.parametrize("field, value", [
        ("k", 0), ("k", -1), ("sibling_limit", 0), ("patience", 0)])
    def test_degenerate_values_are_refused(self, field, value):
        """Each of these used to return fewer answers, or none, with
        ``exhausted=True`` and no degradation reason."""
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})

    def test_none_stays_legal(self):
        config = SearchConfig(sibling_limit=None, patience=None)
        assert config.sibling_limit is None and config.patience is None

    @pytest.mark.parametrize("k", [0, -1])
    def test_engine_query_refuses_bad_k(self, govtrack_engine, q1, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            govtrack_engine.query(q1, k=k)


class TestPatienceDefect:
    """The patience rule's greedy loop pops frontier items without
    re-enqueuing their next sibling, so a forced phase can run out of
    frontier and return fewer than ``k`` answers while still reporting
    ``exhausted=True`` and no reason.  Fixing it changes the forced
    emission order, which only the storage-order ranking change may
    recapture (ROADMAP items 1 and 2(d))."""

    @staticmethod
    def _q9(lubm_engine):
        from repro.datasets import lubm_queries
        spec = {spec.qid: spec for spec in lubm_queries()}["Q9"]
        prepared = lubm_engine.prepare(spec.sparql)
        return prepared, lubm_engine.clusters(prepared)

    def test_ten_answers_exist(self, lubm_engine):
        prepared, clusters = self._q9(lubm_engine)
        assert len(top_k(prepared, clusters, config=SearchConfig(k=10))) == 10

    @pytest.mark.xfail(strict=True, reason="forced phase drops siblings: "
                       "Q9 at patience=10 returns 4 of 10 answers silently")
    def test_short_forced_result_says_why(self, lubm_engine):
        prepared, clusters = self._q9(lubm_engine)
        result = top_k(prepared, clusters,
                       config=SearchConfig(k=10, patience=10))
        assert len(result) == 10 or (not result.exhausted
                                     and result.degradation)


class TestDegenerateInputs:
    def test_single_path_query(self, govtrack_engine):
        q = QueryGraph()
        q.add_triple("?v", GOV + "gender", Literal("Male"))
        answers = govtrack_engine.query(q, k=10)
        assert len(answers) == 4
        assert all(a.score == 0 for a in answers)

    def test_unmatchable_query_gets_missing_answers(self, govtrack_engine):
        q = QueryGraph()
        q.add_triples([
            ("?a", "http://nowhere/p", Literal("Unfindable Sink Label")),
            ("?a", GOV + "gender", Literal("Male")),
        ])
        answers = govtrack_engine.query(q, k=3)
        assert answers
        top = answers[0]
        assert top.matched_count == 1  # only the gender path covered
        assert not top.is_complete

    def test_fully_unmatchable_query_no_answers(self, govtrack_engine):
        q = QueryGraph()
        q.add_triple("?a", "http://nowhere/p", Literal("Unfindable Thing"))
        assert govtrack_engine.query(q, k=3) == []

    def test_cluster_count_mismatch_rejected(self, govtrack_engine, q1):
        prepared = govtrack_engine.prepare(q1)
        clusters = govtrack_engine.clusters(prepared)
        with pytest.raises(ValueError):
            top_k(prepared, clusters[:-1])

    def test_ground_query(self, govtrack_engine):
        """A fully ground query (no variables) still answers."""
        q = QueryGraph()
        q.add_triple(GOV + "PierceDickes", GOV + "gender", Literal("Male"))
        answers = govtrack_engine.query(q, k=1)
        assert answers[0].is_exact


# --- Candidate lists: pricing by exception against pricing every pair ---

def _reference_candidates(space, state, limit):
    """The candidate list as it was computed before pricing by
    exception: walk a pool rarest-label-first, then price every pooled
    entry against every anchor, sort, cut."""
    depth = state.depth
    cluster_index = space.order[depth]
    entries = space.clusters[cluster_index].entries
    anchors = [(space.entry(other, state.ranks[space.position_of[other]]),
                penalty) for other, penalty in space.settled_edges[depth]]
    all_broken = 0.0
    for _entry, penalty in anchors:
        all_broken += penalty
    if not entries:
        return ((space.clusters[cluster_index].missing_penalty + all_broken,),
                (len(anchors),), (_MISSING,))
    scored = []
    for rank in _reference_pool(entries, anchors, limit):
        entry = entries[rank]
        psi_total = 0.0
        broken = 0
        for other, penalty in anchors:
            if other is None or entry.id_set.isdisjoint(other.id_set):
                psi_total += penalty
                broken += 1
            else:
                psi_total += penalty / len(entry.id_set & other.id_set)
        scored.append((entry.score + psi_total, broken, rank))
    if limit is None or len(scored) <= 2 * limit:
        scored.sort()
        if limit is not None:
            del scored[limit:]
    else:
        scored = heapq.nsmallest(limit, scored)
    return tuple(zip(*scored)) or ((), (), ())


def _reference_pool(entries, anchors, limit):
    total = len(entries)
    if limit is None:
        return range(total)
    cap = max(2 * limit, 128)
    if total <= cap:
        return range(total)
    buckets: dict = {}
    for rank, entry in enumerate(entries):
        for label in entry.id_set:
            buckets.setdefault(label, []).append(rank)
    present = [entry for entry, _penalty in anchors if entry is not None]
    labels = set().union(*[entry.id_set for entry in present])

    def rarity(label):
        for entry in present:
            if label in entry.id_set:
                return len(buckets[label]), entry.label_name(label)

    pool, seen = [], set()
    for label in sorted((label for label in labels if label in buckets),
                        key=rarity):
        for rank in buckets[label]:
            if rank not in seen:
                seen.add(rank)
                pool.append(rank)
                if len(pool) >= cap // 2:
                    break
        if len(pool) >= cap // 2:
            break
    pool.extend([rank for rank in range(total) if rank not in seen]
                [:cap - len(pool)])
    return pool


class _Names:
    """Label spellings whose order differs from the id order."""

    @staticmethod
    def name(label):
        return format(label * 2654435761 % 2 ** 32, "010d")


_CONTEXT = _EntryContext(None, None, None, _Names())
_RARE = range(4)             # labels some entries carry
_UNIVERSAL = range(900, 903)  # labels every entry may carry
_ABSENT = range(500, 504)    # labels no entry carries


def _join_space(target, anchor_sets, penalties):
    """A space that decided one anchor cluster per settled edge (an
    empty one where the anchor is missing) and now decides ``target``."""
    clusters = []
    for position, ids in enumerate(anchor_sets):
        members = [] if ids is None else [
            ClusterEntry(_CONTEXT, 10_000 + position, 1, 0.0,
                         (10_000 + position, frozenset(ids)))]
        clusters.append(Cluster(None, members, 3.0))
    clusters.append(target)
    space = _JoinSpace.__new__(_JoinSpace)
    space.clusters = clusters
    space.order = list(range(len(clusters)))
    space.position_of = {index: index for index in space.order}
    space.settled_edges = [[] for _ in clusters]
    space.settled_edges[-1] = list(zip(range(len(anchor_sets)), penalties))
    space._candidate_cache, space._buckets = {}, {}
    space.candidate_lists = space.candidate_cache_hits = 0
    space.psi_evaluations = 0
    ranks = tuple(_MISSING if ids is None else 0 for ids in anchor_sets)
    return space, _PartialState(len(anchor_sets), ranks, 0.0, 0)


@st.composite
def _instances(draw, walk=False):
    """A target cluster, anchor label sets (``None`` = missing), edge
    penalties and a sibling limit.  With ``walk`` the cluster is over
    the cap and one anchor label has more than ``cap // 2`` carriers,
    so the rarity walk builds the pool."""
    size = draw(st.sampled_from(
        [300, 129, 200] if walk else [300, 129, 200, 128, 127, 60, 5, 1, 0]))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    universal = draw(st.sets(st.sampled_from(_UNIVERSAL), max_size=2))
    # How many entries carry each rare label: exception counts land on
    # both sides of cap // 2 = 64, and equal counts tie in the walk.
    counts = [draw(st.sampled_from([70, 65, 64, 20, 3, 0, size]))
              for _ in _RARE]
    heavy = draw(st.sampled_from(_RARE))
    if walk:
        counts[heavy] = draw(st.sampled_from([65, 70, 100]))
    # λ plateaus: few distinct values, sorted, gid breaking ties.  On a
    # single plateau ψ alone orders the list, so the pool shows in it.
    palette = draw(st.sampled_from([(1.0,), (0.0, 0.5, 1.0, 1.25, 2.0, 3.5),
                                    (0.1, 0.1 + 2 ** -40, 0.2)]))
    scores = sorted(rng.choice(palette) for _ in range(size))
    label_sets = [set(universal) | {1000 + rank} for rank in range(size)]
    for label, count in zip(_RARE, counts):
        for rank in rng.sample(range(size), min(size, count)):
            label_sets[rank].add(label)
    entries = [ClusterEntry(_CONTEXT, rank, 2, score,
                            (rank, frozenset(label_sets[rank])))
               for rank, score in enumerate(scores)]
    vocabulary = [*_RARE, *_UNIVERSAL, *_ABSENT, 1000, 1000 + size // 2]
    anchor_sets = draw(st.lists(
        st.sets(st.sampled_from(vocabulary), min_size=1, max_size=4)
        | st.none(), min_size=1 if walk else 0, max_size=3))
    if walk:
        anchor_sets[0] = (anchor_sets[0] or set()) | {heavy}
    penalties = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                              min_size=len(anchor_sets),
                              max_size=len(anchor_sets)))
    limit = draw(st.sampled_from([64, 3, 1] if walk else [64, 3, 1, None]))
    return Cluster(None, entries, 7.5), anchor_sets, penalties, limit


def _assert_same_lists(instance):
    target, anchor_sets, penalties, limit = instance
    space, state = _join_space(target, anchor_sets, penalties)
    got = _candidates_of(space, state, limit)
    reference, _state = _join_space(target, anchor_sets, penalties)
    want = _reference_candidates(reference, state, limit)
    assert got == want
    assert repr(got) == repr(want)  # bit-identical floats


class TestCandidateLists:
    @settings(max_examples=200, deadline=None)
    @given(_instances())
    def test_equals_pricing_every_pair(self, instance):
        _assert_same_lists(instance)

    @settings(max_examples=150, deadline=None)
    @given(_instances(walk=True))
    def test_walked_pool_equals_pricing_every_pair(self, instance):
        _assert_same_lists(instance)

    def test_walk_breaks_count_ties_by_spelling(self):
        """Labels 1 and 2 have 70 carriers each; 2 is spelled first, so
        the walk pools its carriers and only the fill reaches 1's.  The
        list then holds the 64 lowest pooled carriers."""
        assert _Names.name(2) < _Names.name(1)
        entries = [ClusterEntry(_CONTEXT, rank, 2, 1.0, (rank, frozenset(
            {1000 + rank} | ({1} if rank % 4 == 1 else set())
            | ({2} if rank % 4 == 2 else set()))))
            for rank in range(280)]
        target = Cluster(None, entries, 7.5)
        _assert_same_lists((target, [{1, 2}], [2.0], 64))
        space, state = _join_space(target, [{1, 2}], [2.0])
        ranks = _candidates_of(space, state, 64)[2]
        assert max(rank for rank in ranks if rank % 4 == 2) == 170
        assert max(rank for rank in ranks if rank % 4 == 1) == 81

    def test_plain_entries_are_not_priced_pair_by_pair(self):
        """Entries meeting the anchor only in a label the whole cluster
        carries share one base price: none of them is an evaluation."""
        entries = [ClusterEntry(_CONTEXT, rank, 2, float(rank // 10),
                                (rank, frozenset({900, 1000 + rank})))
                   for rank in range(300)]
        space, state = _join_space(Cluster(None, entries, 7.5),
                                   [{900, 1005}], [2.0])
        costs, brokens, ranks = _candidates_of(space, state, 64)
        assert space.psi_evaluations == 1  # rank 5, the one exception
        assert ranks[:7] == (5, 0, 1, 2, 3, 4, 6)
        assert costs[:2] == (2.0 / 2, 2.0 / 1)
        assert brokens == (0,) * 64
