"""Seeded inputs are deterministic, distinct, and well-formed."""

import collections

import adapter
import spec
import traffic

FACTS = {"University": ["University0", "University1", "University2"],
         "Department": [f"Department{n}" for n in range(6)],
         "interest": ["Databases", "Graph Theory", "Networks"],
         "rank": list(traffic.RANKS)}

NT = """\
<{ub}University0> <{t}> <{ub}University> .
<{ub}Department0> <{t}> <{ub}Department> .
<{ub}Department1> <{t}> <{ub}Department> .
<{ub}Faculty0> <{t}> <{ub}FullProfessor> .
<{ub}Faculty0> <{ub}researchInterest> "Databases" .
<{ub}Faculty1> <{ub}researchInterest> "Networks" .
""".format(ub=traffic.UB, t=traffic.RDF_TYPE)


def templates():
    adapter.check()
    texts = adapter.templates()
    return {qid: texts[qid] for qid in spec.TEMPLATE_IDS}


def test_graph_facts_reads_the_constants_templates_mention():
    facts = traffic.graph_facts(NT)
    assert facts["University"] == ["University0"]
    assert facts["Department"] == ["Department0", "Department1"]
    assert facts["interest"] == ["Databases", "Networks"]


def test_variants_are_deterministic_and_seeded():
    for text in templates().values():
        assert traffic.variants(text, FACTS, 7) == traffic.variants(
            text, FACTS, 7)
        assert sorted(traffic.variants(text, FACTS, 7)) == sorted(
            traffic.variants(text, FACTS, 8))
    q7 = templates()["Q7"]
    assert traffic.variants(q7, FACTS, 7) != traffic.variants(q7, FACTS, 8)


def test_variants_have_distinct_canonical_forms():
    for qid, text in templates().items():
        texts = traffic.variants(text, FACTS, 1)
        assert len(texts) >= 9, qid
        forms = {adapter.canonical(variant) for variant in texts}
        assert len(forms) == len(texts), qid


def test_variants_of_different_templates_never_collide():
    forms = collections.Counter(
        adapter.canonical(variant)
        for text in templates().values()
        for variant in traffic.variants(text, FACTS, 1))
    assert max(forms.values()) == 1


def test_zipf_sampler_is_deterministic_and_skewed():
    ranks = traffic.zipf_ranks(32, 4000, seed=3)
    assert ranks == traffic.zipf_ranks(32, 4000, seed=3)
    assert ranks != traffic.zipf_ranks(32, 4000, seed=4)
    assert set(ranks) <= set(range(32))
    counts = collections.Counter(ranks)
    assert counts[0] > counts[7] > counts[31]


def test_write_schedule_removes_only_what_it_added():
    schedule = traffic.write_schedule(FACTS["Department"], 400, seed=5)
    assert schedule == traffic.write_schedule(FACTS["Department"], 400, 5)
    assert len(schedule) == 400
    live = set()
    for kind, payload in schedule:
        if kind == "add":
            assert len(payload) == 2
            for triple in payload:
                assert "BenchStudent" in triple[0]
                assert triple not in live
                live.add(triple)
        else:
            assert payload in live          # added earlier, not yet removed
            live.remove(payload)
    kinds = collections.Counter(kind for kind, _ in schedule)
    assert kinds == {"add": 300, "remove": 100}
