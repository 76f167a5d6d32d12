"""Span self time, including children that overlap each other."""

import pytest

from tracing import Span, Tracer, covered, self_time_by_name, self_times


def test_covered_counts_overlap_once():
    assert covered([(0, 4), (2, 6), (10, 11)]) == 7
    assert covered([(0, 10), (2, 3)]) == 10
    assert covered([]) == 0


def test_self_time_with_overlapping_children():
    spans = [Span(0, 1, "op", None, 0.0, 10.0),
             Span(1, 1, "a", 0, 1.0, 5.0),
             Span(2, 1, "b", 0, 3.0, 7.0),      # overlaps a by 2
             Span(3, 1, "a.inner", 1, 2.0, 3.0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0)   # children cover [1, 7]
    assert own[1] == pytest.approx(4.0 - 1.0)
    assert own[2] == pytest.approx(4.0)
    assert own[3] == pytest.approx(1.0)


def test_child_outside_its_parent_is_clipped():
    spans = [Span(0, 1, "op", None, 0.0, 4.0),
             Span(1, 1, "late", 0, 3.0, 9.0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_builds_the_tree_and_numbers_ops():
    tracer = Tracer()
    for _ in range(2):
        with tracer.span("op"):
            with tracer.span("stage"):
                pass
            with tracer.span("stage"):
                pass
    assert [s.parent for s in tracer.spans] == [None, 0, 0, None, 3, 3]
    assert [s.op_id for s in tracer.spans] == [1, 1, 1, 2, 2, 2]
    assert all(s.end >= s.start for s in tracer.spans)
    totals = self_time_by_name(tracer.spans)
    assert set(totals) == {"op", "stage"}
    assert all(seconds >= 0 for seconds in totals.values())


def test_trace_file_has_one_span_per_line(tmp_path):
    import json
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("stage"):
            pass
    path = tmp_path / "trace.jsonl"
    tracer.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == ["op", "stage"]
    assert set(rows[0]) == {"span_id", "op_id", "name", "parent",
                            "start", "end"}
