"""N-Triples parsing and serialisation (W3C line-based RDF syntax).

Implemented from scratch (no rdflib in this environment).  The parser
covers the full N-Triples grammar used by the benchmark datasets:
IRIREF, blank node labels, plain / language-tagged / datatyped literals,
``\\u``/``\\U`` escapes, comments and blank lines.
"""

from __future__ import annotations

import io
import re
from typing import Iterable, Iterator, TextIO

from .terms import BlankNode, Literal, Term, URI
from .triples import Triple


class NTriplesError(ValueError):
    """Raised on malformed N-Triples input; carries the line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_STRING_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}

# Runs the cursor takes in one step: the longest stretch that needs no
# escape handling and no error check.  Each stops where the character
# loop has work to do (a ``\``, a closing delimiter, a forbidden
# character or the end of the line).  ``\w`` is exactly ``str.isalnum``
# or ``_``, so ``[^\W_]`` is ``str.isalnum``.
_WHITESPACE_RUN = re.compile(r"[ \t\r\n]*")
_IRI_RUN = re.compile(r'[^\x00-\x20>"{}|^`\\]*')
_STRING_RUN = re.compile(r'[^"\\]*')
_BLANK_RUN = re.compile(r"[\w.-]*")
_LANGUAGE_RUN = re.compile(r"(?:[^\W_]|-)*")
_HEX = re.compile(r"[0-9A-Fa-f]+")


class _LineParser:
    """A cursor over one N-Triples line."""

    def __init__(self, line: str, lineno: int):
        self.line = line
        self.pos = 0
        self.lineno = lineno

    def error(self, message: str) -> NTriplesError:
        return NTriplesError(f"{message} (at column {self.pos})", self.lineno)

    def skip_whitespace(self) -> None:
        self.pos = _WHITESPACE_RUN.match(self.line, self.pos).end()

    def take_run(self, run: "re.Pattern", out: list) -> None:
        end = run.match(self.line, self.pos).end()
        out.append(self.line[self.pos:end])
        self.pos = end

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def peek(self) -> str:
        return self.line[self.pos] if self.pos < len(self.line) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}, found {self.peek()!r}")
        self.pos += 1

    # -- term productions ------------------------------------------------

    def parse_subject(self) -> Term:
        char = self.peek()
        if char == "<":
            return self.parse_iri()
        if char == "_":
            return self.parse_blank()
        raise self.error("subject must be an IRI or blank node")

    def parse_predicate(self) -> URI:
        if self.peek() != "<":
            raise self.error("predicate must be an IRI")
        return self.parse_iri()

    def parse_object(self) -> Term:
        char = self.peek()
        if char == "<":
            return self.parse_iri()
        if char == "_":
            return self.parse_blank()
        if char == '"':
            return self.parse_literal()
        raise self.error("object must be an IRI, blank node or literal")

    def parse_iri(self) -> URI:
        self.expect("<")
        start = self.pos
        out = []
        while True:
            self.take_run(_IRI_RUN, out)
            if self.at_end():
                raise self.error("unterminated IRI")
            char = self.line[self.pos]
            if char == ">":
                self.pos += 1
                return URI("".join(out))
            if char != "\\":
                raise self.error(f"illegal character {char!r} in IRI "
                                 f"starting at column {start}")
            out.append(self._unicode_escape())

    def parse_blank(self) -> BlankNode:
        self.expect("_")
        self.expect(":")
        start = self.pos
        self.pos = _BLANK_RUN.match(self.line, start).end()
        label = self.line[start:self.pos].rstrip(".")
        self.pos -= len(self.line[start:self.pos]) - len(label)
        if not label:
            raise self.error("empty blank node label")
        return BlankNode(label)

    def parse_literal(self) -> Literal:
        self.expect('"')
        out = []
        while True:
            self.take_run(_STRING_RUN, out)
            if self.at_end():
                raise self.error("unterminated string literal")
            if self.line[self.pos] == '"':
                self.pos += 1
                break
            self.pos += 1               # past the backslash the run stopped at
            if self.at_end():
                raise self.error("dangling escape")
            esc = self.line[self.pos]
            if esc in _STRING_ESCAPES:
                out.append(_STRING_ESCAPES[esc])
                self.pos += 1
            elif esc in "uU":
                self.pos -= 1
                out.append(self._unicode_escape())
            else:
                raise self.error(f"unknown escape \\{esc}")
        value = "".join(out)
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            self.pos = _LANGUAGE_RUN.match(self.line, start).end()
            tag = self.line[start:self.pos]
            if not tag:
                raise self.error("empty language tag")
            return Literal(value, language=tag)
        if self.line[self.pos:self.pos + 2] == "^^":
            self.pos += 2
            return Literal(value, datatype=self.parse_iri())
        return Literal(value)

    def _unicode_escape(self) -> str:
        self.expect("\\")
        kind = self.peek()
        if kind not in "uU":
            raise self.error(f"unknown escape \\{kind}")
        self.pos += 1
        width = 4 if kind == "u" else 8
        digits = self.line[self.pos:self.pos + width]
        if len(digits) != width:
            raise self.error(f"truncated \\{kind} escape")
        # ``int`` alone would take a sign, ``_``, spaces and non-ASCII
        # digits, and ``chr`` refuses code points past U+10FFFF.
        if not _HEX.fullmatch(digits) or int(digits, 16) > 0x10FFFF:
            raise self.error(f"invalid \\{kind} escape {digits!r}")
        self.pos += width
        return chr(int(digits, 16))


def parse_term(text: str) -> Term:
    """Parse a single term from its N-Triples / SPARQL surface form.

    Accepts ``<iri>``, ``_:label``, quoted literals (with optional
    language tag or datatype) and ``?variable`` — the forms produced by
    ``Term.n3()``, whose inverse it is.
    """
    from .terms import Variable

    stripped = text.strip()
    if stripped.startswith("?"):
        if stripped == "?":
            raise NTriplesError(f"empty variable name in term {text!r}", 1)
        return Variable(stripped)
    parser = _LineParser(stripped, 1)
    if stripped.startswith("<"):
        term = parser.parse_iri()
    elif stripped.startswith("_"):
        term = parser.parse_blank()
    elif stripped.startswith('"'):
        term = parser.parse_literal()
    else:
        raise NTriplesError(f"cannot parse term {text!r}", 1)
    parser.skip_whitespace()
    if not parser.at_end():
        raise NTriplesError(f"trailing content in term {text!r}", 1)
    return term


def parse_line(line: str, lineno: int = 1) -> Triple | None:
    """Parse one N-Triples line; returns ``None`` for blanks/comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parser = _LineParser(line, lineno)
    parser.skip_whitespace()
    subject = parser.parse_subject()
    parser.skip_whitespace()
    predicate = parser.parse_predicate()
    parser.skip_whitespace()
    obj = parser.parse_object()
    parser.skip_whitespace()
    parser.expect(".")
    parser.skip_whitespace()
    if not parser.at_end() and not parser.line[parser.pos:].lstrip().startswith("#"):
        raise parser.error("trailing content after '.'")
    return Triple(subject, predicate, obj)


def parse(source: "str | TextIO") -> Iterator[Triple]:
    """Parse N-Triples from a string or text stream, yielding triples."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    for lineno, line in enumerate(stream, start=1):
        triple = parse_line(line, lineno)
        if triple is not None:
            yield triple


def parse_file(path) -> Iterator[Triple]:
    """Parse an ``.nt`` file from disk."""
    with open(path, encoding="utf-8") as handle:
        yield from parse(handle)


def serialize(triples: Iterable[Triple]) -> str:
    """Serialise triples to an N-Triples document string."""
    return "".join(t.n3() + "\n" for t in triples)


def write_file(triples: Iterable[Triple], path) -> int:
    """Write triples to an ``.nt`` file; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for triple in triples:
            handle.write(triple.n3() + "\n")
            count += 1
    return count
