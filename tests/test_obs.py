"""The observability layer: registry, spans, slow-query log, /metrics.

Covers the `repro.obs` subsystem in isolation (instrument semantics,
Prometheus rendering, the ``SAMA_OBS=off`` null mode) and its edges
(the HTTP ``/metrics`` endpoint, ``/stats`` merge, ``sama profile``).
"""

from __future__ import annotations

import io
import json
import threading
import urllib.request

import pytest

from repro import cli
from repro.obs import (DEFAULT_LATENCY_BUCKETS, MetricsRegistry,
                       NullRegistry, Sample, SlowQueryLog, configure,
                       enabled, get_registry, parse_prometheus, span,
                       start_trace)
from repro.serving import ServingConfig, ServingEngine, serve_async

QUERY = ('PREFIX gov: <http://example.org/govtrack/> '
         'SELECT ?v WHERE { ?v gov:gender "Male" . }')


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "help text")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_instruments_are_memoised_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", labels={"kind": "a"})
        again = registry.counter("hits_total", labels={"kind": "a"})
        other = registry.counter("hits_total", labels={"kind": "b"})
        assert a is again and a is not other

    def test_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x_total", labels={"stage": "s"})

    def test_invalid_names_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok_total", labels={"bad-label": "x"})

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        cumulative, total, count = hist.snapshot()
        assert cumulative == [1, 3, 4]          # <=0.1, <=1.0, +Inf
        assert count == 4 and total == pytest.approx(6.05)

    def test_histogram_boundary_is_inclusive(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        hist.observe(1.0)
        cumulative, _total, _count = hist.snapshot()
        assert cumulative == [1, 1], "le is <=, so 1.0 lands in le=1.0"

    def test_counter_is_thread_safe(self):
        counter = MetricsRegistry().counter("c_total")
        threads = [threading.Thread(
            target=lambda: [counter.inc() for _ in range(10_000)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000


class TestRendering:
    def test_render_parses_and_has_one_header_per_family(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests").inc(7)
        for stage in ("prepare", "cluster"):
            registry.histogram("stage_seconds", "per stage",
                               labels={"stage": stage}).observe(0.01)
        text = registry.render()
        samples = parse_prometheus(text)
        assert samples["req_total"] == 7
        assert samples['stage_seconds_count{stage="cluster"}'] == 1
        assert text.count("# TYPE stage_seconds histogram") == 1
        inf_lines = [line for line in text.splitlines()
                     if 'le="+Inf"' in line]
        assert len(inf_lines) == 2

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("e_total", labels={"q": 'a"b\\c'}).inc()
        parse_prometheus(registry.render())

    def test_collectors_feed_the_scrape(self):
        registry = MetricsRegistry()

        def collect():
            yield Sample("pool_hits_total", "counter", "pool hits", 3)

        registry.register_collector(collect)
        assert parse_prometheus(registry.render())["pool_hits_total"] == 3
        assert registry.snapshot()["pool_hits_total"] == 3
        registry.unregister_collector(collect)
        assert "pool_hits_total" not in registry.snapshot()

    def test_duplicate_collector_samples_are_summed(self):
        registry = MetricsRegistry()
        for _ in range(2):
            registry.register_collector(lambda: [
                Sample("dup_total", "counter", "", 5)])
        assert parse_prometheus(registry.render())["dup_total"] == 10

    def test_dead_owner_prunes_its_collector(self):
        registry = MetricsRegistry()

        class Owner:
            pass

        owner = Owner()
        registry.register_collector(
            lambda: [Sample("owned_total", "counter", "", 1)], owner=owner)
        assert "owned_total" in registry.snapshot()
        del owner
        import gc
        gc.collect()
        assert "owned_total" not in registry.snapshot()

    def test_parser_rejects_garbage(self):
        for bad in ("name 1 2 3 4", "{} 1", "name{a=b} 1", "name one"):
            with pytest.raises(ValueError):
                parse_prometheus(bad)


class TestTraceAndSpans:
    def test_spans_record_into_the_active_trace(self):
        with start_trace() as trace:
            with span("outer"):
                with span("inner"):
                    pass
            with span("outer"):
                pass
        names = [(r.name, r.depth) for r in trace.records]
        assert ("inner", 1) in names and ("outer", 0) in names
        breakdown = dict((name, calls)
                         for name, calls, _s in trace.breakdown())
        assert breakdown == {"inner": 1, "outer": 2}
        assert set(trace.stage_ms()) == {"inner", "outer"}

    def test_total_seconds_counts_only_top_level(self):
        with start_trace() as trace:
            with span("outer"):
                with span("inner"):
                    pass
        outer = next(s for n, _c, s in trace.breakdown() if n == "outer")
        assert trace.total_seconds == pytest.approx(outer)

    def test_spans_observe_the_stage_histogram(self):
        previous = configure(enabled=True, registry=MetricsRegistry())
        try:
            with span("teststage"):
                pass
            flat = get_registry().snapshot()
            assert flat['sama_stage_seconds_count{stage="teststage"}'] == 1
        finally:
            configure(enabled=previous[0], registry=previous[1])

    def test_disabled_obs_keeps_traces_but_not_metrics(self):
        previous = configure(enabled=False)
        try:
            assert not enabled()
            assert isinstance(get_registry(), NullRegistry)
            with start_trace() as trace:
                with span("dark"):
                    pass
            assert [r.name for r in trace.records] == ["dark"]
            assert get_registry().snapshot() == {}
            parse_prometheus(get_registry().render())
        finally:
            configure(enabled=previous[0], registry=previous[1])

    def test_null_registry_instruments_are_inert(self):
        registry = NullRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(3)
        registry.histogram("c").observe(1)
        assert registry.snapshot() == {}


class TestSlowQueryLog:
    def test_only_requests_over_threshold_are_logged(self):
        buffer = io.StringIO()
        log = SlowQueryLog(100.0, stream=buffer)
        assert log.note(latency_ms=50.0, query="fast") is False
        assert log.note(latency_ms=150.0, query="slow", k=5,
                        stages_ms={"cluster": 120.0}) is True
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 1 and log.logged == 1
        record = json.loads(lines[0])
        assert record["query"] == "slow"
        assert record["latency_ms"] == 150.0
        assert record["stages_ms"] == {"cluster": 120.0}
        assert "ts" in record

    def test_file_destination_appends_json_lines(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(0.0, path=str(path))
        log.note(latency_ms=1.0, query="a")
        log.note(latency_ms=2.0, query="b")
        log.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["query"] for line in lines] == ["a", "b"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            SlowQueryLog(-1.0)


@pytest.fixture
def server(govtrack_engine):
    serving = ServingEngine(govtrack_engine, ServingConfig(workers=2))
    http = serve_async(serving, port=0).serve_background()
    yield http
    http.shutdown(close_engine=False)


class TestMetricsEndpoint:
    def test_metrics_is_valid_prometheus_text(self, server):
        with urllib.request.urlopen(server.url + "/query", data=json.dumps(
                {"query": QUERY, "k": 5}).encode()) as response:
            assert response.status == 200
        with urllib.request.urlopen(server.url + "/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        samples = parse_prometheus(text)
        assert samples["sama_serving_requests_total"] >= 1
        assert samples["sama_serving_served_total"] >= 1
        assert samples['sama_stage_seconds_count{stage="cluster"}'] >= 1
        assert samples["sama_request_seconds_count"] >= 1
        assert 'sama_buffer_pool_accesses_total{result="hit"}' in samples
        assert "sama_record_decodes_total" in samples

    def test_stats_carries_registry_scalars(self, server):
        with urllib.request.urlopen(server.url + "/stats") as response:
            stats = json.loads(response.read())
        assert "obs" in stats
        assert "sama_request_seconds_count" in stats["obs"]

    def test_slow_query_log_records_stage_breakdown(self, govtrack_engine):
        serving = ServingEngine(govtrack_engine, ServingConfig(
            workers=1, slow_query_ms=0.0))
        buffer = io.StringIO()
        serving.slow_log = SlowQueryLog(0.0, stream=buffer)
        try:
            serving.query(QUERY, k=5)
        finally:
            serving.close(close_engine=False)
        record = json.loads(buffer.getvalue().splitlines()[0])
        assert record["cached"] is False and record["k"] == 5
        assert "cluster" in record["stages_ms"]


class TestProfileCli:
    def test_profile_prints_stage_breakdown(self, govtrack_engine, capsys):
        exit_code = cli.main(["profile", govtrack_engine.index.directory,
                              "-e", QUERY, "--repeat", "2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "profiled 2 run(s)" in captured
        for stage in ("prepare", "cluster", "search", "wall"):
            assert stage in captured
        assert "page reads" in captured and "records decoded" in captured

    def test_profile_requires_a_query(self, govtrack_engine, capsys):
        exit_code = cli.main(["profile", govtrack_engine.index.directory])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err
