"""Chaos harness: fault-isolated scatter-gather under seeded fault plans.

The contract under test is the tentpole of the resilience work: a
sharded index keeps answering when shards die.  A hard-failed shard
yields a *partial* result naming the lost shards (``SHARD_FAILED``)
whose rankings are bit-identical to what the surviving shards alone
would produce; circuit breakers take the dead shard out of rotation so
it costs one probe per cooldown window instead of a storage timeout
per query, at every cluster size; and the serving layer drains
gracefully on shutdown.  Every fault here
comes from a seeded :class:`FaultPlan`, so each failure is replayable.
"""

from __future__ import annotations

import os
import shutil
import time
from concurrent.futures import Future

import pytest

from repro.engine import EngineConfig, SamaEngine
from repro.index import (IndexCorruptError, PathIndex, ShardedIndex,
                         build_index, is_sharded_dir, open_index)
from repro.resilience import (BreakerConfig, FaultPlan, ShardBreaker,
                              ShardFaultSet, ShardHealth, install, uninstall)
from repro.resilience.budget import DegradationCause
from repro.resilience.errors import (OverloadedError, StorageError,
                                     TransientStorageError)
from repro.resilience.health import CLOSED, HALF_OPEN, OPEN, QUARANTINED
from repro.resilience.retry import DEFAULT_RETRY, JITTERED_RETRY, RetryPolicy
from repro.serving import ServingConfig, ServingEngine, serve_async
from repro.storage.atomic import atomic_write_json, sweep_tmp_debris

SHARDS = 4

Q1_SPARQL = """
    PREFIX gov: <http://example.org/govtrack/>
    SELECT ?v1 ?v2 ?v3 WHERE {
        gov:CarlaBunes gov:sponsor ?v1 .
        ?v1 gov:aTo ?v2 .
        ?v2 gov:subject "Health Care" .
        ?v3 gov:sponsor ?v2 .
        ?v3 gov:gender "Male" .
    }"""


def ranking(result) -> list:
    return [(round(answer.score, 9), str(answer)) for answer in result]


def shard_failed_reasons(result):
    return [reason for reason in result.reasons
            if reason.cause is DegradationCause.SHARD_FAILED]


def open_engine(directory, recover: bool = False, **overrides) -> SamaEngine:
    """A chaos-ready engine over a sharded index."""
    config = EngineConfig(**overrides)
    return SamaEngine.open(directory, config=config, recover=recover)


@pytest.fixture(scope="module")
def chaos_dir(tmp_path_factory, govtrack):
    """A persistent 4-shard GovTrack index shared by this module."""
    directory = tmp_path_factory.mktemp("chaos") / "sharded4"
    index, _ = build_index(govtrack, str(directory), shards=SHARDS)
    index.close()
    return str(directory)


#: A LUBM query whose largest cluster holds more than 64 candidates.
LUBM_QUERY = """
    PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
    SELECT * WHERE { ?x a ub:GraduateStudent . ?x ub:takesCourse ?c . }"""


@pytest.fixture(scope="module")
def lubm_chaos_dir(tmp_path_factory, lubm_small):
    """A 4-shard LUBM index: clusters large enough to matter."""
    directory = tmp_path_factory.mktemp("chaos-lubm") / "sharded4"
    index, _ = build_index(lubm_small, str(directory), shards=SHARDS)
    index.close()
    return str(directory)


@pytest.fixture(scope="module")
def baseline(chaos_dir, q1, q2):
    """Fault-free rankings of the module's canonical queries."""
    with open_engine(chaos_dir) as engine:
        return {"q1": ranking(engine.query(q1, k=10)),
                "q2": ranking(engine.query(q2, k=10))}


def damaged_copy(source: str, destination, shard: int = 1) -> str:
    """Copy a sharded index and tear one shard's metadata."""
    destination = str(destination)
    shutil.copytree(source, destination)
    manifest = os.path.join(destination, f"shard-{shard:02d}", "maps.json")
    with open(manifest, "w") as handle:
        handle.write('{"torn": ')  # a crash mid-write, pre-atomic-rename
    return destination


# -- fault isolation: dead shards degrade, never fail -------------------------


class TestFaultIsolation:
    def test_dead_shard_yields_shard_failed_partial(self, chaos_dir, q1):
        with open_engine(chaos_dir) as engine:
            faults = install(engine, FaultPlan(fail_shards=(1,), seed=7))
            engine.cold_cache()       # warm pages never touch the injector
            result = engine.query(q1, k=10)
            assert faults.failures_injected > 0
            assert not result.complete
            reasons = shard_failed_reasons(result)
            assert reasons and "1" in reasons[0].detail

    def test_rankings_equal_surviving_shards_reference(
            self, chaos_dir, tmp_path, q1):
        # The reference is an index opened *around* shard 1 (quarantined
        # at open over a damaged copy): its candidate set is exactly
        # "every shard but 1", which is what fault isolation must match.
        reference_dir = damaged_copy(chaos_dir, tmp_path / "ref")
        with open_engine(reference_dir, recover=True) as reference, \
                open_engine(chaos_dir) as engine:
            install(engine, FaultPlan(fail_shards=(1,), seed=7))
            engine.cold_cache()
            faulted = engine.query(q1, k=10)
            expected = reference.query(q1, k=10)
            assert not faulted.complete
            assert ranking(faulted) == ranking(expected)

    def test_no_fault_rankings_bit_identical_to_unsharded(
            self, chaos_dir, govtrack_engine, q1, q2, baseline):
        for query, key in ((q1, "q1"), (q2, "q2")):
            sharded = baseline[key]
            unsharded = ranking(govtrack_engine.query(query, k=10))
            assert sharded == unsharded

    def test_no_fault_result_is_complete(self, chaos_dir, q1):
        with open_engine(chaos_dir) as engine:
            result = engine.query(q1, k=10)
            assert result.complete and not shard_failed_reasons(result)

    def test_unsharded_index_still_propagates(self, tmp_path, govtrack, q1):
        # Fault isolation is a sharded-index contract: a single-file
        # index has no surviving shards to fall back on, so persistent
        # storage failure must surface as the typed error, not as a
        # silently empty partial result.
        index, _ = build_index(govtrack, str(tmp_path / "flat"))
        index.close()
        with SamaEngine.open(str(tmp_path / "flat")) as engine:
            install(engine, FaultPlan(read_failure_rate=1.0, seed=3))
            engine.cold_cache()
            with pytest.raises(StorageError):
                engine.query(q1, k=10)

    def test_availability_under_one_dead_shard(self, chaos_dir, q1, q2):
        # The ISSUE acceptance bar: 1/4 shards hard-down, >= 99% of
        # queries still answer (degraded, never raising).
        with open_engine(chaos_dir) as engine:
            install(engine, FaultPlan(fail_shards=(1,), seed=7))
            attempts, answered, degraded = 0, 0, 0
            for round_no in range(10):
                for query in (q1, q2):
                    engine.cold_cache()
                    attempts += 1
                    result = engine.query(query, k=10)
                    answered += 1
                    degraded += 0 if result.complete else 1
            assert answered / attempts >= 0.99
            assert degraded > 0


# -- deterministic shard-scoped fault plans -----------------------------------


class TestShardFaultPlans:
    def test_failed_shard_set_is_seeded_and_stable(self):
        plan = FaultPlan(seed=11, shard_fail_rate=0.5)
        again = FaultPlan(seed=11, shard_fail_rate=0.5)
        assert plan.failed_shards(16) == again.failed_shards(16)
        assert FaultPlan(seed=11, shard_fail_rate=1.0).failed_shards(4) \
            == (0, 1, 2, 3)
        assert FaultPlan(seed=11).failed_shards(4) == ()

    def test_explicit_fail_shards_override_rate(self):
        plan = FaultPlan(fail_shards=(2,))
        assert plan.shard_is_failed(2) and not plan.shard_is_failed(0)

    def test_install_on_sharded_returns_fault_set(self, chaos_dir):
        with open_engine(chaos_dir) as engine:
            faults = install(engine, FaultPlan(fail_shards=(1,)))
            assert isinstance(faults, ShardFaultSet)
            assert len(faults) == SHARDS
            assert [injector.shard for injector in faults] == [0, 1, 2, 3]
            assert faults.reads == faults.failures_injected == 0
            uninstall(engine)
            assert all(shard.page_store.fault_injector is None
                       for shard in engine.index.shards)

    def test_dead_shard_ignores_max_failures(self):
        plan = FaultPlan(fail_shards=(0,), max_failures=1)
        injector = plan.injector(shard=0)
        for _ in range(3):   # a dead partition never heals into reads
            with pytest.raises(TransientStorageError):
                injector.on_read(0, b"page")
        assert injector.failures_injected == 3

    def test_slow_shard_sleeps_per_read(self):
        naps = []
        plan = FaultPlan(slow_shards=(2,), slow_shard_ms=40.0)
        injector = plan.injector(shard=2)
        injector._sleep = naps.append
        assert injector.on_read(0, b"page") == b"page"
        assert naps == [0.04] and injector.slow_reads_injected == 1
        untouched = plan.injector(shard=0)
        untouched._sleep = naps.append
        untouched.on_read(0, b"page")
        assert len(naps) == 1


# -- the circuit breaker state machine ----------------------------------------


class TestShardBreaker:
    CONFIG = BreakerConfig(failure_threshold=3, cooldown_s=2.0,
                           backoff_multiplier=2.0, max_cooldown_s=10.0,
                           jitter=0.0)

    def test_trips_only_on_consecutive_failures(self):
        breaker = ShardBreaker(self.CONFIG)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)          # resets the streak
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state == CLOSED and breaker.allow(0.5)
        breaker.record_failure(0.5)
        assert breaker.state == OPEN and breaker.trips_total == 1
        assert not breaker.allow(0.6)

    def test_half_open_admits_one_probe_then_closes(self):
        breaker = ShardBreaker(self.CONFIG)
        for moment in (0.0, 0.1, 0.2):
            breaker.record_failure(moment)
        assert breaker.allow(3.0)            # past cooldown: the probe
        assert breaker.state == HALF_OPEN and breaker.probes_total == 1
        assert not breaker.allow(3.0)        # only one probe at a time
        breaker.record_success(3.1)
        assert breaker.state == CLOSED and breaker.allow(3.2)

    def test_failed_probe_backs_off_exponentially_capped(self):
        breaker = ShardBreaker(self.CONFIG)
        for moment in (0.0, 0.1, 0.2):
            breaker.record_failure(moment)
        now = 0.2
        for expected in (4.0, 8.0, 10.0, 10.0):   # doubled, then capped
            now = breaker.retry_at + 0.01
            assert breaker.allow(now)
            breaker.record_failure(now)
            assert breaker.state == OPEN
            assert breaker.cooldown_s == expected
        assert breaker.allow(breaker.retry_at + 0.01)
        breaker.record_success(now)
        assert breaker.cooldown_s == self.CONFIG.cooldown_s

    def test_jitter_is_seeded_per_shard(self):
        config = BreakerConfig(failure_threshold=1, jitter=0.5, seed=9)
        first, second = ShardBreaker(config, 3), ShardBreaker(config, 3)
        other = ShardBreaker(config, 4)
        for breaker in (first, second, other):
            breaker.record_failure(0.0)
        assert first.retry_at == second.retry_at
        assert first.retry_at != other.retry_at

    def test_quarantine_outranks_everything_until_readmit(self):
        breaker = ShardBreaker(self.CONFIG)
        breaker.quarantine("manifest torn")
        assert not breaker.allow(1e9)
        breaker.record_success(0.0)          # success does not readmit
        assert breaker.state == QUARANTINED
        breaker.record_failure(0.1)          # nor do failures re-trip
        assert breaker.state == QUARANTINED and breaker.trips_total == 0
        breaker.readmit()
        assert breaker.state == CLOSED and breaker.allow(0.2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_s=-1.0)


class TestShardHealth:
    def test_board_tracks_degraded_and_failed_shards(self):
        clock = FakeClock()
        health = ShardHealth(3, BreakerConfig(failure_threshold=1),
                             clock=clock)
        assert not health.degraded and health.failed_shards() == []
        health.record_failure(1, "boom")
        assert health.degraded
        assert health.state(1) == OPEN and health.failed_shards() == [1]
        health.quarantine(2, "damaged at open")
        assert health.failed_shards() == [1, 2]
        assert health.quarantined_shards() == [(2, "damaged at open")]
        health.readmit(2)
        clock.advance(60.0)
        assert health.allow(1)               # the probe
        health.record_success(1)
        assert not health.degraded

    def test_snapshot_is_json_ready(self):
        health = ShardHealth(2)
        health.record_failure(0, "io timeout")
        rows = health.snapshot()
        assert [row["shard"] for row in rows] == [0, 1]
        assert rows[0]["failures"] == 1
        assert rows[0]["last_error"] == "io timeout"

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            ShardHealth(0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- breaker integration: quarantine beats paying the failure again -----------


class TestBreakerIntegration:
    def test_repeated_failures_trip_the_breaker_open(self, chaos_dir, q1):
        with open_engine(chaos_dir) as engine:
            faults = install(engine, FaultPlan(fail_shards=(1,), seed=7))
            for _ in range(3):
                engine.cold_cache()
                engine.query(q1, k=10)
            health = engine.index.health
            assert health.state(1) == OPEN
            assert health.snapshot()[1]["trips"] >= 1

            # While open, dispatch skips the shard: still degraded, but
            # the dead shard is not paid for again (no new reads).
            paid = faults[1].failures_injected
            engine.cold_cache()
            result = engine.query(q1, k=10)
            assert shard_failed_reasons(result)
            assert faults[1].failures_injected == paid

    def test_half_open_probe_readmits_recovered_shard(self, chaos_dir, q1,
                                                      baseline):
        with open_engine(chaos_dir) as engine:
            install(engine, FaultPlan(fail_shards=(1,), seed=7))
            for _ in range(3):
                engine.cold_cache()
                engine.query(q1, k=10)
            health = engine.index.health
            assert health.state(1) == OPEN

            uninstall(engine)                 # the shard "comes back"
            health.clock = lambda: time.monotonic() + 3600.0
            engine.cold_cache()
            result = engine.query(q1, k=10)   # the admitted probe succeeds
            assert health.state(1) == CLOSED
            assert result.complete
            assert ranking(result) == baseline["q1"]


    @pytest.mark.parametrize("layout", ["govtrack", "lubm"])
    def test_open_breaker_is_honoured_at_every_cluster_size(
            self, layout, chaos_dir, lubm_chaos_dir, q1):
        """Regression: only the threaded scatter (clusters of 64+
        candidates) used to consult the breaker, so on the other path an
        open shard was read — and failed — again on every query and its
        breaker never closed.  GovTrack's clusters are all below 64
        candidates, LUBM's largest above; the default config decides."""
        directory, query = ((chaos_dir, q1) if layout == "govtrack"
                            else (lubm_chaos_dir, LUBM_QUERY))
        with open_engine(directory) as engine:
            largest = max(len(cluster) for cluster
                          in engine.clusters(engine.prepare(query)))
            assert (largest < 64) == (layout == "govtrack")
            baseline = ranking(engine.query(query, k=10))
            faults = install(engine, FaultPlan(fail_shards=(1,), seed=7))
            for _ in range(3):
                engine.cold_cache()
                engine.query(query, k=10)
            health = engine.index.health
            assert health.state(1) == OPEN

            paid = faults[1].failures_injected
            engine.cold_cache()
            result = engine.query(query, k=10)
            assert shard_failed_reasons(result)
            assert faults[1].failures_injected == paid

            uninstall(engine)
            health.clock = lambda: time.monotonic() + 3600.0
            engine.cold_cache()
            result = engine.query(query, k=10)
            assert health.state(1) == CLOSED and not health.degraded
            assert result.complete
            assert ranking(result) == baseline


# -- startup recovery scan and quarantine -------------------------------------


class TestQuarantineOpen:
    def test_default_open_raises_on_damage(self, chaos_dir, tmp_path):
        directory = damaged_copy(chaos_dir, tmp_path / "strict")
        with pytest.raises(IndexCorruptError):
            ShardedIndex.open(directory)

    def test_recover_open_quarantines_and_degrades(self, chaos_dir,
                                                   tmp_path, q1):
        directory = damaged_copy(chaos_dir, tmp_path / "recover")
        with open_engine(directory, recover=True) as engine:
            quarantined = engine.index.health.quarantined_shards()
            assert [shard for shard, _ in quarantined] == [1]
            result = engine.query(q1, k=10)
            assert not result.complete
            reasons = shard_failed_reasons(result)
            assert reasons and "1" in reasons[0].detail

    def test_probe_quarantines_corrupt_records(self, chaos_dir, tmp_path):
        directory = str(tmp_path / "rotten")
        shutil.copytree(chaos_dir, directory)
        log = os.path.join(directory, "shard-02", "paths.log")
        size = os.path.getsize(log)
        with open(log, "wb") as handle:     # bit rot over the whole shard
            handle.write(b"\xa5" * size)
        index = ShardedIndex.open(directory, on_damage="quarantine")
        try:
            assert [shard for shard, _
                    in index.health.quarantined_shards()] == [2]
        finally:
            index.close()

    def test_shard_without_sink_map_is_quarantined(self, tmp_path):
        """A shard whose ``maps.json`` lost its ``sink`` map is damage
        like any other: a strict open names it, a recovering open
        quarantines that shard (it used to escape as ``KeyError``)."""
        import json

        from repro.datasets import dataset

        directory = str(tmp_path / "no-sink")
        build_index(dataset("lubm").build(1500, seed=1), directory,
                    shards=2)[0].close()
        maps_path = os.path.join(directory, "shard-01", "maps.json")
        with open(maps_path, encoding="utf-8") as handle:
            maps = json.load(handle)
        del maps["sink"]
        with open(maps_path, "w", encoding="utf-8") as handle:
            json.dump(maps, handle)
        with pytest.raises(IndexCorruptError, match="sink"):
            open_index(directory)
        index = open_index(directory, on_damage="quarantine")
        try:
            assert [shard for shard, _
                    in index.health.quarantined_shards()] == [1]
        finally:
            index.close()

    def test_every_shard_damaged_is_fatal_even_recovering(self, chaos_dir,
                                                          tmp_path):
        directory = str(tmp_path / "hopeless")
        shutil.copytree(chaos_dir, directory)
        for shard in range(SHARDS):
            manifest = os.path.join(directory, f"shard-{shard:02d}",
                                    "maps.json")
            with open(manifest, "w") as handle:
                handle.write("{")
        with pytest.raises(IndexCorruptError):
            ShardedIndex.open(directory, on_damage="quarantine")

    def test_invalid_on_damage_rejected(self, chaos_dir):
        with pytest.raises(ValueError):
            ShardedIndex.open(chaos_dir, on_damage="shrug")

    def test_is_sharded_dir_surfaces_torn_manifest(self, tmp_path):
        assert not is_sharded_dir(str(tmp_path / "nowhere"))
        plain = tmp_path / "plain"
        plain.mkdir()
        assert not is_sharded_dir(str(plain))
        torn = tmp_path / "torn"
        torn.mkdir()
        (torn / "manifest.json").write_text('{"shards": ')
        with pytest.raises(IndexCorruptError):
            is_sharded_dir(str(torn))


# -- crash recovery: atomic-write debris --------------------------------------


class TestCrashRecovery:
    def test_pathindex_open_sweeps_staging_debris(self, tmp_path, govtrack):
        directory = str(tmp_path / "flat")
        index, _ = build_index(govtrack, directory)
        paths = index.path_count
        index.close()
        debris = os.path.join(directory, "maps.json.k3j2a9.tmp")
        with open(debris, "w") as handle:   # a crash mid-atomic-write
            handle.write('{"half": ')
        reopened = PathIndex.open(directory)
        try:
            assert not os.path.exists(debris)
            assert reopened.path_count == paths
        finally:
            reopened.close()

    def test_sharded_open_sweeps_root_and_shard_debris(self, chaos_dir,
                                                       tmp_path):
        directory = str(tmp_path / "crashed")
        shutil.copytree(chaos_dir, directory)
        root_debris = os.path.join(directory, "manifest.json.x1.tmp")
        shard_debris = os.path.join(directory, "shard-00",
                                    "maps.json.y2.tmp")
        for path in (root_debris, shard_debris):
            with open(path, "w") as handle:
                handle.write("junk")
        index = ShardedIndex.open(directory)
        try:
            assert not os.path.exists(root_debris)
            assert not os.path.exists(shard_debris)
        finally:
            index.close()

    def test_interrupted_write_leaves_target_and_debris_sweepable(
            self, tmp_path):
        target = tmp_path / "maps.json"
        atomic_write_json(str(target), {"epoch": 1})
        # Simulate the crash window: staging file exists, replace never
        # ran.  The target must read back intact, and the sweep must
        # remove exactly the debris.
        debris = tmp_path / "maps.json.zz.tmp"
        debris.write_text('{"epoch": 2')
        survivor = tmp_path / "keep.json"
        survivor.write_text("{}")
        (tmp_path / "directory.tmp").mkdir()   # never swept: not a file
        removed = sweep_tmp_debris(str(tmp_path))
        assert removed == [str(debris)]
        assert target.read_text() == '{"epoch": 1}'
        assert survivor.exists()
        assert (tmp_path / "directory.tmp").is_dir()

    def test_sweep_of_missing_directory_is_quiet(self, tmp_path):
        assert sweep_tmp_debris(str(tmp_path / "gone")) == []


# -- seeded full-jitter retry backoff -----------------------------------------


class TestJitteredRetry:
    def test_default_policy_stays_deterministic(self):
        assert DEFAULT_RETRY.rng() is None
        assert DEFAULT_RETRY.delay_for(1) == DEFAULT_RETRY.delay_for(1)
        assert DEFAULT_RETRY.delay_for(2) == 0.002

    def test_jittered_draws_are_seeded_and_bounded(self):
        first, second = JITTERED_RETRY.rng(), JITTERED_RETRY.rng()
        assert first is not None
        for attempt in range(1, 8):
            cap = min(JITTERED_RETRY.base_delay
                      * JITTERED_RETRY.multiplier ** (attempt - 1),
                      JITTERED_RETRY.max_delay)
            delay = JITTERED_RETRY.delay_for(attempt, first)
            assert delay == JITTERED_RETRY.delay_for(attempt, second)
            assert 0.0 <= delay <= cap

    def test_seed_changes_the_schedule(self):
        policy = RetryPolicy(jitter=True, seed=1)
        other = RetryPolicy(jitter=True, seed=2)
        schedule = [policy.delay_for(a, policy.rng()) for a in (3, 3)]
        assert schedule[0] == schedule[1]
        assert policy.delay_for(3, policy.rng()) \
            != other.delay_for(3, other.rng())


# -- the serving layer under chaos --------------------------------------------


class TestServingChaos:
    def test_healthz_reports_degraded_with_failed_shards(self, chaos_dir,
                                                         tmp_path, q1):
        directory = damaged_copy(chaos_dir, tmp_path / "served")
        engine = open_engine(directory, recover=True)
        serving = ServingEngine(engine, ServingConfig(workers=2,
                                                      cache_bytes=0))
        try:
            payload = serving.health_payload()
            assert payload["status"] == "degraded"
            assert payload["failed_shards"] == [1]
            assert payload["shards"] == SHARDS
            stats = serving.stats_payload()
            states = {row["shard"]: row["state"]
                      for row in stats["shard_health"]}
            assert states[1] == QUARANTINED
            metrics = serving.render_metrics()
            assert 'sama_shard_healthy{shard="1"} 0' in metrics
            assert 'sama_shard_healthy{shard="0"} 1' in metrics
            served = serving.query(q1, k=10)
            assert not served.payload["complete"]
            assert any("shard_failed" in reason
                       for reason in served.payload["reasons"])
        finally:
            serving.close()

    def test_served_availability_with_dead_shard(self, chaos_dir, q1, q2):
        engine = open_engine(chaos_dir)
        install(engine, FaultPlan(fail_shards=(1,), seed=7))
        serving = ServingEngine(engine, ServingConfig(workers=2,
                                                      cache_bytes=0))
        try:
            attempts, answered = 0, 0
            for _ in range(5):
                for query in (q1, q2):
                    engine.cold_cache()
                    attempts += 1
                    serving.query(query, k=10)
                    answered += 1
            assert answered / attempts >= 0.99
        finally:
            serving.close()


class TestGracefulDrain:
    def test_drain_refuses_new_work_and_finishes_in_flight(self, chaos_dir,
                                                           q1, q2):
        engine = open_engine(chaos_dir)
        install(engine, FaultPlan(slow_shards=(0, 1, 2, 3),
                                  slow_shard_ms=150.0))
        engine.cold_cache()
        serving = ServingEngine(engine, ServingConfig(workers=2,
                                                      cache_bytes=0))
        try:
            in_flight: Future = serving.submit(q1, k=10)
            time.sleep(0.05)                 # let the worker pick it up
            serving.start_drain()
            assert serving.draining
            assert serving.health_payload()["status"] == "draining"
            with pytest.raises(OverloadedError):
                serving.submit(q2, k=10)
            assert serving.drain(deadline_s=30.0)
            result = in_flight.result(timeout=1.0)
            assert ranking(result.answers)   # the held request completed
            stats = serving.stats_payload()
            assert stats["draining"] and stats["drain_rejected"] == 1
        finally:
            serving.close()

    def test_draining_outranks_degraded_in_healthz(self, chaos_dir,
                                                   tmp_path):
        directory = damaged_copy(chaos_dir, tmp_path / "both")
        engine = open_engine(directory, recover=True)
        serving = ServingEngine(engine, ServingConfig(workers=1))
        try:
            assert serving.health_payload()["status"] == "degraded"
            serving.start_drain()
            assert serving.health_payload()["status"] == "draining"
        finally:
            serving.close()

    def test_http_layer_maps_drain_to_503(self, chaos_dir, q1):
        import json
        import urllib.error
        import urllib.request

        engine = open_engine(chaos_dir)
        serving = ServingEngine(engine, ServingConfig(workers=2))
        server = serve_async(serving, port=0).serve_background()
        try:
            with urllib.request.urlopen(f"{server.url}/healthz",
                                        timeout=5) as response:
                assert response.status == 200
            serving.start_drain()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/healthz", timeout=5)
            assert excinfo.value.code == 503
            body = json.dumps({"query": Q1_SPARQL})
            request = urllib.request.Request(
                f"{server.url}/query", data=body.encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "5"
            assert json.loads(excinfo.value.read())["draining"] is True
        finally:
            server.shutdown()

    def test_graceful_shutdown_drains_then_closes(self, chaos_dir, q1):
        engine = open_engine(chaos_dir)
        serving = ServingEngine(engine, ServingConfig(workers=2))
        server = serve_async(serving, port=0).serve_background()
        assert server.graceful_shutdown(drain_deadline_s=5.0)
        # The engine underneath is released with it.
        with pytest.raises(RuntimeError):
            serving.query(q1, k=10)
