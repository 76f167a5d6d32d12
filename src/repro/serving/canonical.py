"""Canonical forms for BGP queries: the result cache's key function.

Two SPARQL basic graph patterns that differ only in variable names or
in the order of their triple patterns describe the same query and must
hit the same cache entry; two patterns that differ in *any* constant,
in structure, or in how variables are shared must never collide.  The
canonical form delivers both:

- triple patterns are treated as a set (the engine evaluates the query
  graph, which already has RDF set semantics) and emitted sorted;
- variables are alpha-renamed to ``?_0, ?_1, ...`` by the numbering
  that minimises the rendered form, so the canonical text depends only
  on the *structure* of variable sharing, never on the author's names.

Minimisation searches over variable numberings.  To keep that cheap
for real queries (the paper's workload tops out at 7 variables) the
variables are first partitioned by iterated structural refinement —
only orderings that respect the refinement classes are tried, and
within-class permutations are capped at :data:`PERMUTATION_CAP`.
Queries whose symmetric variable groups exceed the cap (degenerate,
highly regular patterns) fall back to a deterministic in-class order;
the form is then still stable per process but may distinguish two
renamings of such a query — a cache miss, never a false hit.
"""

from __future__ import annotations

import itertools

from ..rdf.graph import DataGraph, QueryGraph
from ..rdf.sparql import SelectQuery, parse_select
from ..rdf.terms import Term, Variable
from ..rdf.triples import Triple

#: Upper bound on the variable numberings tried during minimisation.
PERMUTATION_CAP = 40_320  # 8!


def canonical_form(query) -> str:
    """The canonical text of ``query`` (SPARQL text, a parsed
    :class:`SelectQuery`, or a query/data graph).

    One sorted, alpha-renamed triple pattern per line.  Equal strings
    ⇔ same BGP up to variable renaming and pattern order (modulo the
    permutation cap documented above).
    """
    triples = _pattern_set(query)
    variables = sorted({term for triple in triples for term in triple
                        if isinstance(term, Variable)})
    if not variables:
        return "\n".join(sorted(_render(t, {}) for t in triples))
    best = None
    for naming in _candidate_namings(triples, variables):
        rendered = "\n".join(sorted(_render(t, naming) for t in triples))
        if best is None or rendered < best:
            best = rendered
    return best


def cache_key(query, k: int, epoch: int, mode: str = "off") -> str:
    """The result-cache key: canonical query text + ``k`` + data epoch
    + retrieval mode.

    ``mode`` is the engine's two-stage retrieval mode (``off`` /
    ``safe`` / ``approx``).  Safe mode returns the exhaustive rankings
    by construction, but approximate mode may not — keying the cache
    by mode guarantees staged and exhaustive results never alias, even
    across a config flip on a reused cache."""
    return key_of_form(canonical_form(query), k, epoch, mode)


def key_of_form(form: str, k: int, epoch: int, mode: str = "off") -> str:
    """:func:`cache_key` for a query whose canonical form is already
    known (the serving engine's request memo keeps forms by text)."""
    return f"epoch={epoch}|k={k}|mode={mode}|{form}"


def _pattern_set(query) -> list[Triple]:
    if isinstance(query, str):
        query = parse_select(query)
    if isinstance(query, SelectQuery):
        query = query.graph()
    if isinstance(query, (QueryGraph, DataGraph)):
        return sorted(set(query.triples()),
                      key=lambda t: _render(t, {}, blank_variables=True))
    raise TypeError(f"cannot canonicalise {type(query).__name__} as a query")


def _render(triple: Triple, naming: dict, blank_variables: bool = False) -> str:
    parts = []
    for term in triple:
        if isinstance(term, Variable):
            parts.append("?_" if blank_variables else f"?_{naming[term]}")
        else:
            parts.append(term.n3())
    return " ".join(parts)


def _candidate_namings(triples: list[Triple], variables: list[Variable]):
    """Yield variable → id dicts worth trying, refinement classes first.

    Classes are ordered by their (rename-invariant) structural
    signature; ids are dealt to classes in that order and permuted only
    within each class.  The cross-product of in-class permutations is
    capped — beyond the cap the remaining orderings are cut off, which
    can only split (never merge) cache entries.
    """
    classes = _refinement_classes(triples, variables)
    per_class = [itertools.islice(itertools.permutations(group),
                                  PERMUTATION_CAP)
                 for group in classes]
    produced = 0
    for combo in itertools.product(*per_class):
        naming = {}
        for group in combo:
            for variable in group:
                naming[variable] = len(naming)
        yield naming
        produced += 1
        if produced >= PERMUTATION_CAP:
            return


def _refinement_classes(triples: list[Triple],
                        variables: list[Variable]) -> list[list[Variable]]:
    """Partition variables by iterated structural refinement.

    Each round, a variable's signature is the sorted multiset of its
    occurrence contexts: the triple rendered with constants verbatim,
    every variable replaced by its current class colour, plus the
    positions the variable itself occupies.  Classes are returned
    ordered by final signature — an ordering invariant under renaming,
    because signatures never mention variable names.
    """
    colors = dict.fromkeys(variables, 0)
    while True:
        signatures = {}
        for variable in variables:
            contexts = []
            for triple in triples:
                if variable not in triple:
                    continue
                shape = tuple(
                    ("var", colors[term]) if isinstance(term, Variable)
                    else ("const", term.n3())
                    for term in triple)
                positions = tuple(i for i, term in enumerate(triple)
                                  if term == variable)
                contexts.append((shape, positions))
            signatures[variable] = tuple(sorted(contexts))
        ordered = sorted(set(signatures.values()))
        refined = {v: ordered.index(signatures[v]) for v in variables}
        if refined == colors:
            break
        colors = refined
    classes: dict[int, list[Variable]] = {}
    for variable in variables:
        classes.setdefault(colors[variable], []).append(variable)
    return [sorted(classes[color]) for color in sorted(classes)]
