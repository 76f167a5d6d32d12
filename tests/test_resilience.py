"""Resilient query execution: budgets, degradation, typed errors, faults.

The central contract under test: a query under any seeded fault plan
produces either a complete result, a :class:`PartialResult` with
populated :class:`DegradationReason`\\ s, or a typed
:class:`ReproError` subclass — never a hang (the per-test timeout in
pyproject.toml enforces the "never" part) and never a bare exception.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.datasets.govtrack import govtrack_graph, query_q1
from repro.engine import SamaEngine
from repro.engine.forest import PathForest
from repro.rdf.graph import QueryGraph
from repro.rdf.sparql import parse_select
from repro.resilience import (Budget, DegradationCause, DegradationReason,
                              FaultPlan, InvalidQueryError, ParseError,
                              PartialResult, QueryTimeout, ReproError)
from repro.resilience.errors import (IndexCorruptError, PageCorruptError,
                                     StorageError, TransientStorageError)
from repro.resilience.faults import install, uninstall
from repro.resilience.retry import (DEFAULT_RETRY, NO_RETRY, RetryPolicy,
                                    retry_call)
from repro.storage.bufferpool import BufferPool
from repro.storage.pagestore import PageStore

Q1_SPARQL = """
    PREFIX gov: <http://example.org/govtrack/>
    SELECT * WHERE {
        gov:CarlaBunes gov:sponsor ?v1 .
        ?v1 gov:aTo ?v2 .
        ?v2 gov:subject "Health Care" .
    }
"""


@pytest.fixture(scope="module")
def shared_index_dir(tmp_path_factory):
    """One GovTrack index on disk; fault tests open fresh engines on it."""
    directory = tmp_path_factory.mktemp("resilience-index")
    engine = SamaEngine.from_graph(govtrack_graph(), directory=str(directory))
    engine.close()
    return str(directory)


@pytest.fixture
def fresh_engine(shared_index_dir):
    """A function-scoped engine: cold cache, private injector/counters."""
    engine = SamaEngine.open(shared_index_dir)
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def reference_scores(shared_index_dir):
    """Fault-free ranking every healed/complete run must reproduce."""
    engine = SamaEngine.open(shared_index_dir)
    try:
        result = engine.query(query_q1(), k=5)
    finally:
        engine.close()
    assert result.complete and result
    return [answer.score for answer in result]


# -- the acceptance matrix: >= 20 seeded fault plans, no hangs ----------------


def _plan_for(seed: int) -> FaultPlan:
    kind = seed % 4
    if kind == 0:       # random transient read failures, persistent
        return FaultPlan(seed=seed,
                         read_failure_rate=0.05 + 0.09 * (seed % 5))
    if kind == 1:       # random page corruption, persistent
        return FaultPlan(seed=seed, corrupt_rate=0.04 + 0.07 * (seed % 5))
    if kind == 2:       # a bounded blip that the retry layer may heal
        return FaultPlan(seed=seed, fail_reads=(0, 2), corrupt_rate=0.02,
                         max_failures=1 + seed % 3)
    # kind == 3: a host clock jumping forward under a real deadline
    return FaultPlan(seed=seed, clock_skew_ms=200.0 + 100.0 * seed)


SEEDED_PLANS = [_plan_for(seed) for seed in range(24)]


@pytest.mark.parametrize("plan", SEEDED_PLANS,
                         ids=lambda plan: f"seed{plan.seed}")
def test_seeded_plan_partial_or_typed_never_hangs(plan, fresh_engine,
                                                  reference_scores):
    injector = install(fresh_engine, plan)
    budget = (Budget(deadline_ms=2_000, clock=plan.clock())
              if plan.clock_skew_ms else None)
    try:
        result = fresh_engine.query(query_q1(), k=5, budget=budget)
    except ReproError as exc:
        # Typed failure: the storage fault survived the retry budget.
        assert isinstance(exc, (StorageError, IndexCorruptError))
    else:
        assert isinstance(result, PartialResult)
        if result.degraded:
            assert result.reasons
            assert all(isinstance(reason, DegradationReason)
                       for reason in result.reasons)
        else:
            # The plan let the query through whole: ranking must match
            # the fault-free reference exactly.
            assert [answer.score for answer in result] == reference_scores
    if plan.read_failure_rate or plan.corrupt_rate or plan.fail_reads:
        assert injector.reads > 0, "storage plan never saw a read"


def test_persistent_read_failure_surfaces_typed(fresh_engine):
    install(fresh_engine, FaultPlan(seed=1, read_failure_rate=1.0))
    with pytest.raises(TransientStorageError, match="injected read failure"):
        fresh_engine.query(query_q1(), k=5)


def test_persistent_corruption_trips_checksum(fresh_engine):
    install(fresh_engine, FaultPlan(seed=2, corrupt_rate=1.0))
    with pytest.raises(PageCorruptError, match="checksum"):
        fresh_engine.query(query_q1(), k=5)


def test_transient_blip_heals_via_retry(fresh_engine, reference_scores):
    injector = install(fresh_engine,
                       FaultPlan(seed=7, fail_reads=(0,), max_failures=1))
    result = fresh_engine.query(query_q1(), k=5)
    assert result.complete
    assert [answer.score for answer in result] == reference_scores
    assert injector.failures_injected == 1


def test_uninstall_restores_service(fresh_engine, reference_scores):
    install(fresh_engine, FaultPlan(seed=3, read_failure_rate=1.0))
    with pytest.raises(StorageError):
        fresh_engine.query(query_q1(), k=5)
    uninstall(fresh_engine)
    result = fresh_engine.query(query_q1(), k=5)
    assert result.complete
    assert [answer.score for answer in result] == reference_scores


def test_fault_plan_is_deterministic():
    plan = FaultPlan(seed=11, read_failure_rate=0.3, corrupt_rate=0.3)

    def run(injector):
        outcomes = []
        for ordinal in range(50):
            try:
                outcomes.append(injector.on_read(ordinal % 7, bytes(range(16))))
            except TransientStorageError:
                outcomes.append("fail")
        return outcomes

    assert run(plan.injector()) == run(plan.injector())


def test_max_failures_disarms_injection():
    injector = FaultPlan(seed=4, read_failure_rate=1.0,
                         max_failures=2).injector()
    outcomes = []
    for ordinal in range(10):
        try:
            injector.on_read(ordinal, b"page")
            outcomes.append("ok")
        except TransientStorageError:
            outcomes.append("fail")
    assert outcomes == ["fail", "fail"] + ["ok"] * 8
    assert injector.failures_injected == 2


def test_skewed_clock_is_monotonic_and_advances():
    clock = FaultPlan(seed=5, clock_skew_ms=10.0).clock()
    readings = [clock() for _ in range(100)]
    assert readings == sorted(readings)
    # 100 draws of uniform(0, 20 ms) skew: far beyond 50 ms total.
    assert readings[-1] - readings[0] > 0.05


def test_clock_skew_trips_deadline_early(fresh_engine):
    plan = FaultPlan(seed=9, clock_skew_ms=2_000.0)
    budget = Budget(deadline_ms=50, clock=plan.clock(), check_stride=1)
    result = fresh_engine.query(query_q1(), k=5, budget=budget)
    assert result.degraded
    assert DegradationCause.DEADLINE in result.causes()


# -- budget boundary semantics -------------------------------------------------


def test_zero_deadline_yields_empty_partial_not_exception(govtrack_engine, q1):
    result = govtrack_engine.query(q1, deadline_ms=0)
    assert isinstance(result, PartialResult)
    assert list(result) == []
    assert result.degraded
    assert DegradationCause.DEADLINE in result.causes()


def test_huge_deadline_equals_unbudgeted(govtrack_engine, q1):
    full = govtrack_engine.query(q1, k=10)
    budgeted = govtrack_engine.query(q1, k=10, deadline_ms=1e9)
    assert budgeted.complete
    assert len(budgeted) == len(full)
    assert [a.score for a in budgeted] == [a.score for a in full]


def test_expansion_cap_partial_is_score_prefix_of_full(govtrack_engine, q1):
    full_scores = [a.score for a in govtrack_engine.query(q1, k=10)]
    for cap in (2, 5, 9):
        partial = govtrack_engine.query(q1, k=10,
                                        budget=Budget(max_expansions=cap))
        scores = [a.score for a in partial]
        assert scores == full_scores[:len(scores)]
        if partial.degraded:
            assert partial.causes() == {DegradationCause.EXPANSION_CAP}


class TestSearchCapIsLoud:
    """The search's expansion cap lives on the query's budget, so a
    capped search is incomplete with one reason — Q9 without patience
    completes no answer before the cap, and an empty answer must not
    read as complete (ROADMAP item 15)."""

    @staticmethod
    def _q9():
        from repro.datasets import lubm_queries
        return {spec.qid: spec for spec in lubm_queries()}["Q9"].sparql

    @staticmethod
    def _unpatient(lubm_engine):
        from dataclasses import replace

        from repro.engine.search import SearchConfig
        # Shares the fixture's index; closing it would close that index.
        return SamaEngine(lubm_engine.index, replace(
            lubm_engine.config, search=SearchConfig(patience=None)))

    def test_capped_search_is_incomplete(self, lubm_engine):
        result = self._unpatient(lubm_engine).query(
            self._q9(), k=10, budget=Budget(max_expansions=40))
        assert result.complete is False
        assert DegradationCause.EXPANSION_CAP in result.causes()
        assert [str(reason) for reason in result.reasons] == [
            "expansion_cap in search (max_expansions=40)"]

    def test_budget_trip_is_not_recorded_twice(self, lubm_engine):
        budget = Budget(max_expansions=30)
        engine = self._unpatient(lubm_engine)
        result = engine.query(self._q9(), k=10, budget=budget)
        assert len(result.reasons) == 1
        assert result.reasons == tuple(budget.reasons)
        assert engine.last_result.expansions == 30

    def test_top_k_without_budget_stops_at_the_default_cap(self,
                                                           lubm_engine):
        from repro.engine.search import SearchConfig, top_k
        from repro.resilience.budget import DEFAULT_MAX_EXPANSIONS
        prepared = lubm_engine.prepare(self._q9())
        result = top_k(prepared, lubm_engine.clusters(prepared),
                       config=SearchConfig(patience=None))
        assert result.expansions == DEFAULT_MAX_EXPANSIONS
        assert [str(reason) for reason in result.degradation] == [
            f"expansion_cap in search "
            f"(max_expansions={DEFAULT_MAX_EXPANSIONS})"]

    def test_default_config_stops_at_patience_and_is_complete(
            self, lubm_engine):
        assert lubm_engine.query(self._q9(), k=10).complete


def test_candidate_cap_records_cluster_truncation(govtrack_engine, q1):
    partial = govtrack_engine.query(q1, budget=Budget(max_candidates=3))
    assert partial.degraded
    assert DegradationCause.CLUSTER_TRUNCATION in partial.causes()


def test_on_budget_raise_carries_partial(govtrack_engine, q1):
    with pytest.raises(QueryTimeout) as info:
        govtrack_engine.query(q1, deadline_ms=0, on_budget="raise")
    exc = info.value
    assert isinstance(exc, TimeoutError)
    assert exc.reasons
    assert isinstance(exc.partial, PartialResult)
    assert exc.partial.reasons == exc.reasons


def test_query_argument_validation(govtrack_engine, q1):
    with pytest.raises(ValueError, match="on_budget"):
        govtrack_engine.query(q1, on_budget="bogus")
    with pytest.raises(ValueError, match="not both"):
        govtrack_engine.query(q1, deadline_ms=5, budget=Budget())


def test_forest_honours_budget(govtrack_engine, q1):
    prepared = govtrack_engine.prepare(q1)
    clusters = govtrack_engine.clusters(prepared)
    full = PathForest(clusters, prepared.ig)
    assert full.edges, "q1 should produce a non-trivial forest"
    budget = Budget(deadline_ms=0)
    truncated = PathForest(clusters, prepared.ig, budget=budget)
    assert truncated.truncated
    assert len(truncated.edges) < len(full.edges)
    assert budget.degraded


# -- Budget / PartialResult units ---------------------------------------------


def test_budget_zero_deadline_trips_first_poll():
    budget = Budget(deadline_ms=0)
    reason = budget.poll("prepare")
    assert reason is not None
    assert reason.cause is DegradationCause.DEADLINE
    assert reason.phase == "prepare"
    assert budget.degraded


def test_budget_poll_strides_clock_reads():
    calls = [0]

    def clock():
        calls[0] += 1
        return 0.0

    budget = Budget(deadline_ms=1_000, clock=clock, check_stride=10)
    before = calls[0]
    for _ in range(100):
        assert budget.poll("search") is None
    # First poll always checks, then every 10th: 1 + 10 clock reads.
    assert calls[0] - before == 11


def test_budget_notes_deduplicate_per_cause_and_phase():
    budget = Budget()
    first = budget.note(DegradationCause.DEADLINE, "search", "a")
    second = budget.note(DegradationCause.DEADLINE, "search", "b")
    other = budget.note(DegradationCause.DEADLINE, "cluster")
    assert first is second
    assert other is not first
    assert len(budget.reasons) == 2


def test_budget_charge_caps():
    """A cap of N admits N: the charge that takes the total past it trips."""
    budget = Budget(max_expansions=3, max_candidates=4)
    for _ in range(3):
        assert budget.charge_expansion() is None
    reason = budget.charge_expansion()
    assert reason.cause is DegradationCause.EXPANSION_CAP
    assert budget.charge_candidates(4) is None
    reason = budget.charge_candidates(1)
    assert reason.cause is DegradationCause.CLUSTER_TRUNCATION
    assert budget.expansions == 4
    assert budget.candidates == 5


def test_budget_defaults_to_the_search_cap():
    from repro.resilience.budget import DEFAULT_MAX_EXPANSIONS
    assert Budget().max_expansions == DEFAULT_MAX_EXPANSIONS == 100_000
    unlimited = Budget(max_expansions=None)
    for _ in range(3):
        assert unlimited.charge_expansion() is None


@pytest.mark.parametrize("count", [3, 64, 100, 130])
def test_candidate_cap_keeps_exactly_cap_candidates(count):
    """``_charge`` keeps every candidate of a list that has exactly the
    cap; one more trips at the block that crosses it, keeping the
    whole 64-candidate blocks before that block."""
    from repro.engine.clustering import _CHARGE_BLOCK, _charge
    offsets = list(range(count))
    assert _charge(offsets, Budget(max_candidates=count)) == (offsets, False)
    kept, tripped = _charge(offsets + [count],
                            Budget(max_candidates=count))
    assert tripped
    assert kept == offsets[:count // _CHARGE_BLOCK * _CHARGE_BLOCK]


def test_budget_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Budget(deadline_ms=-1)
    with pytest.raises(ValueError):
        Budget(check_stride=0)


def test_budget_restart_rearms_deadline():
    now = [0.0]
    budget = Budget(deadline_ms=100, clock=lambda: now[0])
    now[0] = 1.0
    assert budget.expired()
    budget.restart()
    assert not budget.expired()
    assert budget.remaining_ms() == pytest.approx(100.0)


def test_partial_result_is_a_plain_list_with_reasons():
    reason = DegradationReason(DegradationCause.DEADLINE, "search")
    partial = PartialResult([1, 2], reasons=[reason])
    assert partial == [1, 2]
    assert partial[0] == 1
    assert partial.degraded and not partial.complete
    assert partial.causes() == {DegradationCause.DEADLINE}
    complete = PartialResult([3])
    assert complete.complete and not complete.degraded


# -- retry policy units --------------------------------------------------------


def test_retry_call_heals_transient_blip():
    sleeps = []
    policy = RetryPolicy(max_attempts=3, sleep=sleeps.append)
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise TransientStorageError("blip")
        return "ok"

    assert retry_call(flaky, policy=policy) == "ok"
    assert len(attempts) == 3
    assert sleeps == [policy.delay_for(1), policy.delay_for(2)]


def test_retry_call_exhausts_then_raises():
    policy = RetryPolicy(max_attempts=2, sleep=lambda _s: None)
    calls = []

    def broken():
        calls.append(1)
        raise TransientStorageError("still down")

    with pytest.raises(TransientStorageError):
        retry_call(broken, policy=policy)
    assert len(calls) == 2


def test_retry_call_does_not_mask_other_errors():
    def broken():
        raise KeyError("not retryable")

    with pytest.raises(KeyError):
        retry_call(broken,
                   policy=RetryPolicy(sleep=lambda _s: None))


def test_no_retry_is_a_single_attempt():
    calls = []

    def broken():
        calls.append(1)
        raise TransientStorageError("x")

    with pytest.raises(TransientStorageError):
        retry_call(broken, policy=NO_RETRY)
    assert len(calls) == 1


def test_backoff_grows_then_caps():
    policy = RetryPolicy(base_delay=0.01, multiplier=4.0, max_delay=0.05)
    assert policy.delay_for(1) == pytest.approx(0.01)
    assert policy.delay_for(2) == pytest.approx(0.04)
    assert policy.delay_for(3) == pytest.approx(0.05)


def test_default_retry_covers_corruption_too():
    assert TransientStorageError in DEFAULT_RETRY.retry_on
    assert PageCorruptError in DEFAULT_RETRY.retry_on


def test_bufferpool_counts_retries(tmp_path):
    with PageStore(tmp_path / "pages.db", page_size=128) as store:
        page = store.allocate()
        store.write_page(page, b"resilient")
        install(store, FaultPlan(seed=21, fail_reads=(0,), max_failures=1))
        pool = BufferPool(store, capacity=4,
                          retry=RetryPolicy(sleep=lambda _s: None))
        data = pool.read_page(page)
        assert data.startswith(b"resilient")
        assert pool.stats.retries == 1


# -- query validation (satellite b) -------------------------------------------


def test_empty_query_rejected(govtrack_engine):
    with pytest.raises(InvalidQueryError):
        govtrack_engine.query(QueryGraph(name="empty"))


def test_unbound_only_query_rejected(govtrack_engine):
    query = QueryGraph(name="unbound")
    query.add_triples([("?s", "?p", "?o")])
    with pytest.raises(InvalidQueryError, match="no constants"):
        govtrack_engine.query(query)


def test_disconnected_query_rejected(govtrack_engine):
    query = QueryGraph(name="disconnected")
    query.add_triples([
        ("?a", "http://example.org/p", "one"),
        ("?b", "http://example.org/q", "two"),
    ])
    with pytest.raises(InvalidQueryError, match="disconnected"):
        govtrack_engine.query(query)


# -- parse diagnostics (satellite a) ------------------------------------------


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as info:
        parse_select("SELECT ?x WHERE { ?x")
    exc = info.value
    assert isinstance(exc, ValueError)
    assert exc.line == 1 and isinstance(exc.column, int)
    assert exc.one_line().startswith(f"parse error at {exc.location}")


def test_unterminated_string_reports_its_start():
    with pytest.raises(ParseError) as info:
        parse_select('SELECT ?x WHERE { ?x <http://p> "oops . }')
    assert info.value.line == 1
    assert "unterminated string" in str(info.value)


# -- error taxonomy ------------------------------------------------------------


def test_error_hierarchy_preserves_builtin_bases():
    from repro.resilience import errors
    assert issubclass(errors.ParseError, ReproError)
    assert issubclass(errors.ParseError, ValueError)
    assert issubclass(errors.InvalidQueryError, ReproError)
    assert issubclass(errors.InvalidQueryError, ValueError)
    assert issubclass(errors.QueryTimeout, ReproError)
    assert issubclass(errors.QueryTimeout, TimeoutError)
    assert issubclass(errors.StorageError, ReproError)
    assert issubclass(errors.StorageError, RuntimeError)
    assert issubclass(errors.TransientStorageError, errors.StorageError)
    assert issubclass(errors.PageCorruptError, errors.StorageError)
    assert issubclass(errors.IndexCorruptError, ReproError)
    assert issubclass(errors.IndexCorruptError, RuntimeError)


def test_legacy_import_locations_still_work():
    from repro.index.pathindex import IndexCorruptError as legacy_index
    from repro.storage.pagestore import StorageError as legacy_storage
    assert legacy_index is IndexCorruptError
    assert legacy_storage is StorageError


# -- CLI surface (satellites a + tentpole flags) ------------------------------


def test_cli_deadline_without_partial_ok_exits_4(shared_index_dir, capsys):
    code = cli_main(["query", shared_index_dir, "-e", Q1_SPARQL,
                     "--deadline-ms", "0"])
    assert code == 4
    err = capsys.readouterr().err
    assert "budget exhausted" in err
    assert "--partial-ok" in err


def test_cli_partial_ok_prints_degradation(shared_index_dir, capsys):
    code = cli_main(["query", shared_index_dir, "-e", Q1_SPARQL,
                     "--deadline-ms", "0", "--partial-ok"])
    captured = capsys.readouterr()
    # A 0 ms budget finds nothing: "no answers", exit 1, reasons on stderr.
    assert code == 1
    assert "no answers" in captured.out
    assert "partial: deadline in prepare" in captured.err


def test_cli_full_deadline_query_succeeds(shared_index_dir, capsys):
    code = cli_main(["query", shared_index_dir, "-e", Q1_SPARQL,
                     "--deadline-ms", "60000", "--partial-ok"])
    captured = capsys.readouterr()
    assert code == 0
    assert "score=" in captured.out
    assert "partial:" not in captured.err


def test_cli_parse_error_is_one_line(shared_index_dir, capsys):
    code = cli_main(["query", shared_index_dir, "-e", "SELECT ?x WHERE { ?x"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse error at 1:")
    assert "Traceback" not in err


def test_cli_negative_deadline_rejected_by_argparse(shared_index_dir, capsys):
    # A bare ValueError from Budget must not escape as a traceback; the
    # flag validates at the argparse layer (usage error, exit 2).
    with pytest.raises(SystemExit) as info:
        cli_main(["query", shared_index_dir, "-e", Q1_SPARQL,
                  "--deadline-ms", "-5"])
    assert info.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_cli_invalid_query_exits_3(shared_index_dir, capsys):
    code = cli_main(["query", shared_index_dir, "-e",
                     "SELECT * WHERE { ?s ?p ?o . }"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidQueryError:")
