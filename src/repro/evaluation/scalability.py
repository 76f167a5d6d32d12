"""Scalability sweeps (Fig. 7): Sama's runtime versus I, |Q| and #vars.

Fig. 7 plots Sama's cold-cache response time against (a) the number
``I`` of paths extracted from ``G`` for the query, (b) the number of
nodes in the query graph (3–23) and (c) the number of variables (1–7),
each with a quadratic trendline — supporting the O(h·I²) analysis.

The sweeps here regenerate those series: (a) scales the data graph,
(b) grows a query chain through the LUBM schema, (c) progressively
widens one fixed query's constants into variables.  A least-squares
quadratic fit (plain linear algebra, no numpy needed at runtime) is
reported with each series, mirroring the figure's trendline equations.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

from ..datasets import lubm
from ..engine.sama import EngineConfig, SamaEngine
from ..index.builder import build_index
from ..rdf.graph import QueryGraph
from ..rdf.namespaces import RDF, UB
from ..rdf.terms import Term, Variable
from .timing import time_callable


@dataclass(frozen=True)
class SweepPoint:
    """One x/y point of a Fig. 7 series."""

    x: float
    mean_ms: float


@dataclass(frozen=True)
class QuadraticFit:
    """y = a·x² + b·x + c — the trendline the figure displays."""

    a: float
    b: float
    c: float

    def __call__(self, x: float) -> float:
        return self.a * x * x + self.b * x + self.c

    def equation(self) -> str:
        return f"y = {self.a:.3g}x^2 + {self.b:.3g}x + {self.c:.3g}"


def quadratic_fit(points: list[SweepPoint]) -> QuadraticFit:
    """Least-squares quadratic fit via the normal equations."""
    if len(points) < 3:
        raise ValueError("need at least 3 points for a quadratic fit")
    # Normal equations for [a b c]: minimise ||V·p - y||².
    s = [0.0] * 5       # Σ x^0..x^4
    t = [0.0] * 3       # Σ y·x^0..x^2
    for p in points:
        xs = 1.0
        for power in range(5):
            s[power] += xs
            if power < 3:
                t[power] += p.mean_ms * xs
            xs *= p.x
    # Solve the 3x3 system by Gaussian elimination.
    matrix = [
        [s[4], s[3], s[2], t[2]],
        [s[3], s[2], s[1], t[1]],
        [s[2], s[1], s[0], t[0]],
    ]
    for col in range(3):
        pivot_row = max(range(col, 3), key=lambda r: abs(matrix[r][col]))
        matrix[col], matrix[pivot_row] = matrix[pivot_row], matrix[col]
        pivot = matrix[col][col]
        if abs(pivot) < 1e-12:
            raise ValueError("singular fit (degenerate x values)")
        for row in range(3):
            if row == col:
                continue
            factor = matrix[row][col] / pivot
            for k in range(col, 4):
                matrix[row][k] -= factor * matrix[col][k]
    a = matrix[0][3] / matrix[0][0]
    b = matrix[1][3] / matrix[1][1]
    c = matrix[2][3] / matrix[2][2]
    return QuadraticFit(a, b, c)


def _engine_for(triples: int, seed: int = 0) -> SamaEngine:
    graph = lubm.generate(triples, seed=seed)
    directory = tempfile.mkdtemp(prefix="sama-sweep-")
    index, _stats = build_index(graph, directory)
    engine = SamaEngine(index, config=EngineConfig())
    engine._owned_directory = directory    # close() removes it
    return engine


def retrieved_path_count(engine: SamaEngine, query: QueryGraph) -> int:
    """The I of Fig. 7a: paths retrieved from the index for the query."""
    prepared = engine.prepare(query)
    clusters = engine.clusters(prepared)
    return sum(len(cluster) for cluster in clusters)


def sweep_data_size(sizes: "list[int] | None" = None, runs: int = 3,
                    k: int = 10, seed: int = 0) -> list[SweepPoint]:
    """Fig. 7a: runtime vs I, scaling the LUBM graph."""
    sizes = sizes or [2_000, 4_000, 6_000, 8_000, 10_000, 12_000]
    query = _chain_query(7)
    points = []
    for size in sizes:
        engine = _engine_for(size, seed=seed)
        sample = time_callable(lambda: engine.query(query, k=k), runs=runs,
                               before_each=engine.cold_cache)
        points.append(SweepPoint(x=float(retrieved_path_count(engine, query)),
                                 mean_ms=sample.mean_ms))
        engine.close()
    return points


def sweep_query_nodes(node_counts: "list[int] | None" = None,
                      triples: int = 8_000, runs: int = 3, k: int = 10,
                      seed: int = 0) -> list[SweepPoint]:
    """Fig. 7b: runtime vs |Q| in nodes (the paper sweeps 3–23)."""
    node_counts = node_counts or [3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23]
    engine = _engine_for(triples, seed=seed)
    points = []
    for count in node_counts:
        query = _chain_query(count)
        sample = time_callable(lambda: engine.query(query, k=k), runs=runs,
                               before_each=engine.cold_cache)
        points.append(SweepPoint(x=float(query.node_count()),
                                 mean_ms=sample.mean_ms))
    engine.close()
    return points


def sweep_variable_count(variable_counts: "list[int] | None" = None,
                         triples: int = 8_000, runs: int = 3, k: int = 10,
                         seed: int = 0) -> list[SweepPoint]:
    """Fig. 7c: runtime vs the number of variables (1–7)."""
    variable_counts = variable_counts or [1, 2, 3, 4, 5, 6, 7]
    engine = _engine_for(triples, seed=seed)
    points = []
    for count in variable_counts:
        query = _variable_query(count)
        sample = time_callable(lambda: engine.query(query, k=k), runs=runs,
                               before_each=engine.cold_cache)
        points.append(SweepPoint(x=float(count), mean_ms=sample.mean_ms))
    engine.close()
    return points


def _chain_query(node_count: int) -> QueryGraph:
    """A connected LUBM query with exactly ``node_count`` nodes.

    Grows along the schema: student → advisor → department → university
    plus course/publication branches, adding type constraints until the
    node budget is met.  All shapes are semantically sensible LUBM
    questions, so retrieval work grows with size rather than collapsing
    to empty clusters.
    """
    if node_count < 3:
        raise ValueError("node_count must be >= 3")
    steps = [
        ("?s", UB.advisor, "?p"),
        ("?s", RDF.type, UB.GraduateStudent),
        ("?p", RDF.type, UB.FullProfessor),
        ("?s", UB.takesCourse, "?c"),
        ("?p", UB.teacherOf, "?c"),
        ("?c", RDF.type, UB.GraduateCourse),
        ("?p", UB.worksFor, "?d"),
        ("?d", RDF.type, UB.Department),
        ("?d", UB.subOrganizationOf, "?u"),
        ("?u", RDF.type, UB.University),
        ("?pub", UB.publicationAuthor, "?p"),
        ("?pub", RDF.type, UB.Publication),
        ("?s", UB.memberOf, "?d"),
        ("?s", UB.undergraduateDegreeFrom, "?u2"),
        ("?u2", RDF.type, UB.University),
        ("?p", UB.doctoralDegreeFrom, "?u3"),
        ("?u3", RDF.type, UB.University),
        ("?s2", UB.advisor, "?p"),
        ("?s2", RDF.type, UB.GraduateStudent),
        ("?s2", UB.takesCourse, "?c2"),
        ("?c2", RDF.type, UB.Course),
        ("?pub2", UB.publicationAuthor, "?p"),
        ("?pub2", RDF.type, UB.Publication),
        ("?g", UB.subOrganizationOf, "?d"),
        ("?g", RDF.type, UB.ResearchGroup),
        ("?p", UB.emailAddress, "?email"),
        ("?s", UB.name, "?name"),
        ("?p2", UB.worksFor, "?d"),
        ("?p2", RDF.type, UB.AssociateProfessor),
        ("?p2", UB.teacherOf, "?c3"),
        ("?c3", RDF.type, UB.Course),
        ("?s3", UB.takesCourse, "?c3"),
        ("?s3", RDF.type, UB.UndergraduateStudent),
        ("?s3", UB.memberOf, "?d"),
    ]
    query = QueryGraph(name=f"chain-{node_count}")
    for subject, predicate, object_ in steps:
        query.add_triple(subject, predicate, object_)
        if query.node_count() >= node_count:
            break
    return query


def _variable_query(variable_count: int) -> QueryGraph:
    """A fixed 8-node pattern with 1..7 of its terms left variable.

    Starts fully grounded except one variable and widens one constant
    per step, so the x axis isolates the effect of variables on
    retrieval (more variables ⇒ anchor constants further from sinks ⇒
    larger clusters).
    """
    if not 1 <= variable_count <= 7:
        raise ValueError("variable_count must be in [1, 7]")
    # Terms that are progressively widened (constant → variable).
    widened: list[tuple[str, Term]] = [
        ("?p", UB.Faculty0),
        ("?d", UB.Department0),
        ("?c", UB.Course0),
        ("?u", UB.University0),
        ("?s2", UB.GraduateStudent0),
        ("?g", UB.ResearchGroup0),
    ]

    def term(index: int, default: Term) -> "Term | str":
        name, constant = widened[index]
        # The first `variable_count - 1` widened slots become variables
        # (?s is always variable, accounting for the remaining one).
        return name if index < variable_count - 1 else constant

    query = QueryGraph(name=f"vars-{variable_count}")
    query.add_triple("?s", UB.advisor, term(0, widened[0][1]))
    query.add_triple("?s", RDF.type, UB.GraduateStudent)
    query.add_triple(term(0, widened[0][1]), UB.worksFor,
                     term(1, widened[1][1]))
    query.add_triple("?s", UB.takesCourse, term(2, widened[2][1]))
    query.add_triple(term(1, widened[1][1]), UB.subOrganizationOf,
                     term(3, widened[3][1]))
    query.add_triple(term(4, widened[4][1]), UB.advisor,
                     term(0, widened[0][1]))
    query.add_triple(term(5, widened[5][1]), UB.subOrganizationOf,
                     term(1, widened[1][1]))
    return query
