"""Seeded inputs: query variants, Zipf ranks, the write schedule.

Everything here is a pure function of its arguments and a seed; the
program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import itertools
import random
import re

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RANKS = ("FullProfessor", "AssociateProfessor", "AssistantProfessor",
         "Lecturer")

_TYPED = re.compile(
    r"^<" + re.escape(UB) + r"(\w+)> <" + re.escape(RDF_TYPE) + r"> <"
    + re.escape(UB) + r"(University|Department)> \.$", re.M)
_INTEREST = re.compile(
    r"<" + re.escape(UB) + r'researchInterest> "([^"]+)" \.$', re.M)


def graph_facts(ntriples_text: str) -> dict:
    """The constants of a generated LUBM graph that templates mention."""
    facts = {"University": [], "Department": []}
    for name, kind in _TYPED.findall(ntriples_text):
        facts[kind].append(name)
    facts["interest"] = sorted(set(_INTEREST.findall(ntriples_text)))
    facts["rank"] = list(RANKS)
    return facts


#: slot name -> the pattern a template mentions it by.  All mentions of
#: one slot in a template take the same value.
_SLOTS = {
    "University": re.compile(r"ub:University\d+"),
    "Department": re.compile(r"ub:Department\d+"),
    "rank": re.compile(r"ub:(?:" + "|".join(RANKS) + r")\b"),
    "interest": re.compile(r'(?<=ub:researchInterest )"[^"]+"'),
}


def _render(slot: str, value: str) -> str:
    return f'"{value}"' if slot == "interest" else f"ub:{value}"


#: Variants are shuffled within consecutive chunks of this many.
VARIANT_CHUNK = 10


def variants(template: str, facts: dict, seed: int) -> "list[str]":
    """Every constant-variant of ``template``, in seeded order.

    The variants of one template differ from each other in at least one
    constant, so no two share a canonical form.  Constants change what a
    query costs (one department's Q3 takes 2 ms, another's 190), so the
    seed shuffles only within chunks of the enumeration: two runs that
    consume the first ``n`` variants get the same requests, up to one
    chunk, in different orders — and the run-to-run spread says
    something about the program, not about the draw.
    """
    slots = [slot for slot, pattern in _SLOTS.items()
             if pattern.search(template)]
    texts = []
    for values in itertools.product(*(facts[slot] for slot in slots)):
        text = template
        for slot, value in zip(slots, values):
            text = _SLOTS[slot].sub(_render(slot, value), text)
        texts.append(text)
    rng = random.Random(f"variants:{seed}")
    shuffled = []
    for start in range(0, len(texts), VARIANT_CHUNK):
        chunk = texts[start:start + VARIANT_CHUNK]
        rng.shuffle(chunk)
        shuffled += chunk
    return shuffled


def zipf_ranks(pool_size: int, draws: int, seed: int,
               exponent: float = 1.1) -> "list[int]":
    """``draws`` indices into a pool, index r-1 with weight r**-s.

    Stratified: every index appears as often as its Zipf share of
    ``draws`` says (largest remainders make up the total) and the seed
    decides only the order.  Independent draws would give the hottest
    entry anything from a fifth to a third of 128 requests, and the run
    a different mean cost with every seed.
    """
    weights = [1.0 / (rank ** exponent) for rank in range(1, pool_size + 1)]
    shares = [draws * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(pool_size),
                          key=lambda i: (counts[i] - shares[i], i))
    for index in by_remainder[:draws - sum(counts)]:
        counts[index] += 1
    ranks = [index for index, count in enumerate(counts)
             for _ in range(count)]
    random.Random(f"zipf:{seed}").shuffle(ranks)
    return ranks


def write_schedule(departments, rounds: int, seed: int) -> "list[tuple]":
    """``rounds`` write rounds: ``("add", [t1, t2])`` or ``("remove", t)``.

    Three rounds in four add a new graduate student (two triples); the
    fourth, at a seeded place in its group of four, removes the
    ``memberOf`` triple of a student added earlier.  The student's type
    triple stays, so its node keeps its id and the removal is repaired
    incrementally; nothing the generated graph held at the start is
    ever removed.
    """
    rng = random.Random(f"writes:{seed}")
    schedule, removable, minted = [], [], 0
    while len(schedule) < rounds:
        group = ["add", "add", "add", "remove"]
        rng.shuffle(group)
        if not removable and group[0] == "remove":
            group[0], group[1] = group[1], group[0]
        for kind in group:
            if kind == "add":
                student = f"{UB}BenchStudent{seed}x{minted}"
                minted += 1
                rows = [(student, RDF_TYPE, f"{UB}GraduateStudent"),
                        (student, f"{UB}memberOf",
                         f"{UB}{rng.choice(departments)}")]
                removable.append(rows[1])
                schedule.append(("add", rows))
            else:
                victim = removable.pop(rng.randrange(len(removable)))
                schedule.append(("remove", victim))
    return schedule[:rounds]
