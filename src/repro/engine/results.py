"""SELECT result sets: SPARQL-shaped rows over ranked answers.

:meth:`SamaEngine.query` returns :class:`~repro.engine.answers.Answer`
objects — the full structural view.  SPARQL users expect *bindings
rows* shaped by the ``SELECT`` projection; this module provides that
view: each answer contributes one row of projected variable bindings,
annotated with the answer's score, with ``DISTINCT`` deduplication when
the query asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..rdf.sparql import SelectQuery
from ..rdf.terms import Term, Variable
from .answers import Answer


@dataclass(frozen=True)
class ResultRow:
    """One solution row: projected bindings plus provenance."""

    bindings: tuple[tuple[Variable, "Term | None"], ...]
    score: float
    answer: Answer

    def __getitem__(self, variable) -> "Term | None":
        if isinstance(variable, str):
            variable = Variable(variable)
        for bound, value in self.bindings:
            if bound == variable:
                return value
        raise KeyError(variable)

    def get(self, variable, default=None):
        try:
            return self[variable]
        except KeyError:
            return default

    def __str__(self):
        cells = ", ".join(
            f"?{var.value}={value if value is not None else '—'}"
            for var, value in self.bindings)
        return f"[{cells}] (score {self.score:.2f})"


class ResultSet:
    """The rows of a SELECT query, best answer first."""

    def __init__(self, variables: list[Variable], rows: list[ResultRow],
                 distinct: bool = False):
        self.variables = variables
        self.rows = rows
        self.distinct = distinct

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index) -> ResultRow:
        return self.rows[index]

    def column(self, variable) -> list["Term | None"]:
        """All values of one projected variable, in rank order."""
        if isinstance(variable, str):
            variable = Variable(variable)
        return [row.get(variable) for row in self.rows]

    def to_table(self) -> str:
        """A text rendering in SPARQL-results style."""
        headers = [f"?{v.value}" for v in self.variables] + ["score"]
        widths = [len(h) for h in headers]
        body = []
        for row in self.rows:
            cells = []
            for position, variable in enumerate(self.variables):
                value = row.get(variable)
                text = str(value) if value is not None else "—"
                widths[position] = max(widths[position], len(text))
                cells.append(text)
            cells.append(f"{row.score:.2f}")
            widths[-1] = max(widths[-1], len(cells[-1]))
            body.append(cells)
        lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)),
                 "-+-".join("-" * w for w in widths)]
        for cells in body:
            lines.append(" | ".join(c.ljust(w)
                                    for c, w in zip(cells, widths)))
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The W3C SPARQL 1.1 Query Results JSON structure.

        Scores travel in each binding object's non-standard
        ``sama:score`` key (consumers that follow the spec ignore
        unknown keys).  Unbound projected variables are simply absent
        from their row, per the spec.
        """
        from ..rdf.terms import BlankNode, Literal, URI

        def term_json(value) -> dict:
            if isinstance(value, URI):
                return {"type": "uri", "value": value.value}
            if isinstance(value, BlankNode):
                return {"type": "bnode", "value": value.value}
            if isinstance(value, Literal):
                out = {"type": "literal", "value": value.value}
                if value.language:
                    out["xml:lang"] = value.language
                elif value.datatype:
                    out["datatype"] = value.datatype.value
                return out
            return {"type": "literal", "value": str(value)}

        bindings = []
        for row in self.rows:
            entry: dict = {"sama:score": row.score}
            for variable, value in row.bindings:
                if value is not None:
                    entry[variable.value] = term_json(value)
            bindings.append(entry)
        return {
            "head": {"vars": [v.value for v in self.variables]},
            "results": {"bindings": bindings},
        }

    def __repr__(self):
        return f"<ResultSet: {len(self.rows)} rows x {len(self.variables)} vars>"


def result_set(select: SelectQuery, answers: list[Answer]) -> ResultSet:
    """Project ranked answers through a SELECT clause.

    ``SELECT *`` projects every variable of the pattern, sorted by
    name.  An answer that leaves a projected variable unbound (an
    uncovered query path) yields ``None`` in that column.  With
    ``DISTINCT``, later rows whose projected bindings repeat an earlier
    row are dropped (the earlier row has the better score).
    """
    if select.select_all:
        variables = sorted(select.all_variables(), key=lambda v: v.value)
    else:
        variables = list(select.variables)
    rows: list[ResultRow] = []
    seen: set[tuple] = set()
    for answer in answers:
        substitution = answer.substitution() or {}
        bindings = tuple((variable, substitution.get(variable))
                         for variable in variables)
        if select.distinct:
            key = tuple(value for _var, value in bindings)
            if key in seen:
                continue
            seen.add(key)
        rows.append(ResultRow(bindings=bindings, score=answer.score,
                              answer=answer))
    return ResultSet(variables, rows, distinct=select.distinct)
