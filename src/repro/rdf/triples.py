"""RDF triples (statements).

A triple ``(subject, predicate, object)`` is the unit in which RDF data
is exchanged; :class:`~repro.rdf.graph.DataGraph` is built from them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .terms import BlankNode, Literal, Term, Variable, coerce_term


class Triple(NamedTuple):
    """One RDF statement.

    ``subject`` and ``object`` may be any node label (URI, literal or
    blank node — or a variable when the triple belongs to a query
    pattern); ``predicate`` is a URI (or variable in query patterns).
    """

    subject: Term
    predicate: Term
    object: Term

    @classmethod
    def of(cls, subject, predicate, object) -> "Triple":
        """Build a triple, coercing plain strings via :func:`coerce_term`."""
        return cls(coerce_term(subject), coerce_term(predicate), coerce_term(object))

    def n3(self) -> str:
        """Render the triple as one N-Triples line (without newline)."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    @property
    def is_ground(self) -> bool:
        """True when no component is a variable."""
        return not (self.subject.is_variable
                    or self.predicate.is_variable
                    or self.object.is_variable)

    def validate_pattern(self) -> None:
        """Raise ``ValueError`` if the triple is not a valid query pattern.

        Query patterns additionally allow variables in every position
        (Definition 2), but literals still cannot be subjects.
        """
        if isinstance(self.subject, Literal):
            raise ValueError("query pattern subject cannot be a literal")
        if isinstance(self.predicate, (Literal, BlankNode)):
            raise ValueError(f"query pattern predicate must be URI or variable, "
                             f"got {self.predicate!r}")

    def variables(self) -> set[Variable]:
        """All variables mentioned by the triple."""
        return {t for t in self if isinstance(t, Variable)}


def triples_of(rows: Iterable[tuple]) -> Iterator[Triple]:
    """Coerce an iterable of 3-tuples (terms or strings) into triples."""
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"expected 3-tuples, got {row!r}")
        yield Triple.of(*row)
