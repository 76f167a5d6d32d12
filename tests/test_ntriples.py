"""Unit tests for the N-Triples parser/serializer."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import ntriples
from repro.rdf.ntriples import (_BLANK_RUN, _LANGUAGE_RUN, _STRING_ESCAPES,
                                NTriplesError, parse, parse_line, parse_term)
from repro.rdf.terms import BlankNode, Literal, URI
from repro.rdf.triples import Triple


class TestParseLine:
    def test_simple_triple(self):
        t = parse_line("<http://x/a> <http://x/p> <http://x/b> .")
        assert t == Triple(URI("http://x/a"), URI("http://x/p"),
                           URI("http://x/b"))

    def test_literal_object(self):
        t = parse_line('<http://x/a> <http://x/p> "Health Care" .')
        assert t.object == Literal("Health Care")

    def test_language_tagged(self):
        t = parse_line('<http://x/a> <http://x/p> "chat"@fr .')
        assert t.object == Literal("chat", language="fr")

    def test_datatyped(self):
        t = parse_line('<http://x/a> <http://x/p> '
                       '"5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
        assert t.object.datatype.value.endswith("integer")

    def test_blank_nodes(self):
        t = parse_line("_:s <http://x/p> _:o .")
        assert t.subject == BlankNode("s")
        assert t.object == BlankNode("o")

    def test_string_escapes(self):
        t = parse_line(r'<http://x/a> <http://x/p> "tab\there\nline" .')
        assert t.object.value == "tab\there\nline"

    def test_unicode_escape(self):
        t = parse_line(r'<http://x/a> <http://x/p> "é" .')
        assert t.object.value == "é"

    def test_long_unicode_escape(self):
        t = parse_line(r'<http://x/a> <http://x/p> "\U0001F600" .')
        assert t.object.value == "\U0001F600"

    def test_comment_and_blank_lines_skipped(self):
        assert parse_line("# a comment") is None
        assert parse_line("   ") is None

    def test_trailing_comment_allowed(self):
        t = parse_line("<http://x/a> <http://x/p> <http://x/b> . # note")
        assert t is not None

    @pytest.mark.parametrize("bad", [
        "<http://x/a> <http://x/p> <http://x/b>",         # missing dot
        '"literal" <http://x/p> <http://x/b> .',          # literal subject
        "<http://x/a> _:b <http://x/o> .",                # blank predicate
        '<http://x/a> <http://x/p> "open .',              # unterminated string
        "<http://x/a> <http://x/p .",                     # unterminated IRI
        "<http://x/a> <http://x/p> <http://x/b> . junk",  # trailing content
        r'<http://x/a> <http://x/p> "\q" .',              # unknown escape
    ])
    def test_malformed_lines_raise(self, bad):
        with pytest.raises(NTriplesError):
            parse_line(bad)

    def test_error_carries_line_number(self):
        with pytest.raises(NTriplesError) as info:
            parse_line("garbage", lineno=42)
        assert info.value.lineno == 42

    def test_iri_illegal_character(self):
        with pytest.raises(NTriplesError):
            parse_line("<http://x/a b> <http://x/p> <http://x/c> .")


class TestDocuments:
    DOC = """\
# two triples
<http://x/a> <http://x/p> <http://x/b> .

<http://x/b> <http://x/p> "done" .
"""

    def test_parse_document(self):
        triples = list(parse(self.DOC))
        assert len(triples) == 2

    def test_roundtrip(self):
        triples = list(parse(self.DOC))
        again = list(parse(ntriples.serialize(triples)))
        assert triples == again

    def test_file_roundtrip(self, tmp_path):
        triples = list(parse(self.DOC))
        path = tmp_path / "data.nt"
        written = ntriples.write_file(triples, path)
        assert written == 2
        assert list(ntriples.parse_file(path)) == triples


class TestParseTerm:
    @pytest.mark.parametrize("text, expected", [
        ("<http://x/a>", URI("http://x/a")),
        ('"plain"', Literal("plain")),
        ('"v"@en', Literal("v", language="en")),
        ("_:b7", BlankNode("b7")),
    ])
    def test_forms(self, text, expected):
        assert parse_term(text) == expected

    def test_variable_form(self):
        from repro.rdf.terms import Variable
        assert parse_term("?v2") == Variable("v2")

    def test_n3_inverse(self):
        for term in (URI("http://x/a"), Literal("x y"),
                     Literal("v", language="en"), BlankNode("b")):
            assert parse_term(term.n3()) == term

    def test_garbage_raises(self):
        with pytest.raises(NTriplesError):
            parse_term("not a term")

    def test_trailing_content_raises(self):
        with pytest.raises(NTriplesError):
            parse_term("<http://x/a> extra")

    def test_bare_question_mark_raises(self):
        with pytest.raises(NTriplesError):
            parse_term(" ? ")


# -- the run-scanning cursor: properties and pinned diagnostics ---------------


def _iri_needs_escape(char):
    """Whether an IRI must spell ``char`` as a ``\\u``/``\\U`` escape
    (everything else may appear raw, ``<`` included)."""
    return char in ' "{}|^`>\\' or ord(char) <= 0x20


def _escape(char):
    code = ord(char)
    return f"\\u{code:04X}" if code <= 0xFFFF else f"\\U{code:08X}"


_SHORT_ESCAPE = {value: "\\" + key for key, value in _STRING_ESCAPES.items()}
_TRICKY = '<>\\"\'{}|^` \t\n\r\b\f@#._-:/é\u00a0\u2028\U0001F600'
_chars = st.one_of(st.sampled_from(_TRICKY), st.characters())


@st.composite
def _spelled_iri(draw, escapes=True):
    """``(URI, spelling)``; with ``escapes`` any character may be
    spelled as a ``\\u``/``\\U`` escape, and forbidden ones must be."""
    alphabet = _chars if escapes else _chars.filter(
        lambda c: not _iri_needs_escape(c))
    chars = draw(st.lists(alphabet, max_size=10))
    spelled = [_escape(c) if _iri_needs_escape(c)
               or (escapes and draw(st.booleans())) else c for c in chars]
    value = "http://x/" + "".join(chars)
    return URI(value), "<http://x/" + "".join(spelled) + ">"


_blank = st.text(st.characters().filter(lambda c: c.isalnum() or c in "_-."),
                 min_size=1, max_size=8).filter(
                     lambda label: not label.endswith(".")).map(BlankNode)
_language = st.from_regex(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8}){0,2}",
                          fullmatch=True)


@st.composite
def _spelled_literal(draw, escapes=True):
    """``(Literal, spelling)``; with ``escapes`` each character is raw,
    its ``_STRING_ESCAPES`` escape or a ``\\u``/``\\U`` escape."""
    value = "".join(draw(st.lists(_chars, max_size=10)))
    if escapes:
        body = []
        for char in value:
            options = [_escape(char)]
            if char in _SHORT_ESCAPE:
                options.append(_SHORT_ESCAPE[char])
            if char not in '"\\\n\r':
                options.append(char)
            body.append(draw(st.sampled_from(options)))
        body = '"' + "".join(body) + '"'
    else:
        body = Literal(value).n3()
    kind = draw(st.sampled_from(["plain", "language", "datatype"]))
    if kind == "language":
        tag = draw(_language)
        return Literal(value, language=tag), f"{body}@{tag}"
    if kind == "datatype":
        datatype, spelling = draw(_spelled_iri(escapes))
        return Literal(value, datatype=datatype), f"{body}^^{spelling}"
    return Literal(value), body


def _spelled_term(escapes, literals=False):
    options = [_spelled_iri(escapes), _blank.map(lambda b: (b, b.n3()))]
    if literals:
        options.append(_spelled_literal(escapes))
    return st.one_of(options)


@st.composite
def _spelled_triple(draw, escapes):
    subject, s_text = draw(_spelled_term(escapes))
    predicate, p_text = draw(_spelled_iri(escapes))
    obj, o_text = draw(_spelled_term(escapes, literals=True))
    gap = draw(st.sampled_from([" ", "\t", "  "]))
    line = gap.join([s_text, p_text, o_text, "."])
    return Triple(subject, predicate, obj), line


#: Text that looks like N-Triples often enough to reach every branch.
_lines = st.one_of(
    st.text(),
    st.text(st.sampled_from('<>_:"\\@^. #uU0aF-\t\n'), max_size=40),
    st.builds(lambda spelled, cut, junk: spelled[1][:cut] + junk
              + spelled[1][cut:],
              _spelled_triple(True), st.integers(0, 80),
              st.text(st.sampled_from('<>"\\@^. #u_:'), max_size=3)),
)


class TestRunScanning:
    @settings(max_examples=150, deadline=None)
    @given(_spelled_triple(escapes=False))
    def test_n3_round_trip(self, spelled):
        triple, _line = spelled
        assert parse_line(triple.n3()) == triple

    @settings(max_examples=200, deadline=None)
    @given(_spelled_triple(escapes=True))
    def test_every_escape_spelling_parses_to_its_triple(self, spelled):
        triple, line = spelled
        assert parse_line(line) == triple
        assert parse_line(line + "\n", lineno=9) == triple

    @settings(max_examples=300, deadline=None)
    @given(_lines)
    def test_any_line_is_a_triple_nothing_or_an_ntriples_error(self, line):
        try:
            result = parse_line(line)
        except NTriplesError:
            return
        assert result is None or isinstance(result, Triple)

    @settings(max_examples=150, deadline=None)
    @given(_lines)
    def test_any_term_text_is_a_term_or_an_ntriples_error(self, text):
        try:
            parse_term(text)
        except NTriplesError:
            pass

    @pytest.mark.parametrize("line, message", [
        ("<http://a b> <http://p> <http://o> .",
         "line 3: illegal character ' ' in IRI starting at column 1 "
         "(at column 9)"),
        ("<http://a> <http://p> <http://o",
         "line 3: unterminated IRI (at column 31)"),
        ('<http://a> <http://p> "abc',
         "line 3: unterminated string literal (at column 26)"),
        ('<http://a> <http://p> "abc\\',
         "line 3: dangling escape (at column 27)"),
        ('<http://a> <http://p> "a\\qb" .',
         "line 3: unknown escape \\q (at column 25)"),
        ("<http://a> <http://p> <http://o\\u00> .",
         "line 3: invalid \\u escape '00> ' (at column 33)"),
        ('<http://a> <http://p> "x"@ .',
         "line 3: empty language tag (at column 26)"),
        ("_: <http://p> <http://o> .",
         "line 3: empty blank node label (at column 2)"),
    ])
    def test_diagnostics_keep_their_text_and_column(self, line, message):
        with pytest.raises(NTriplesError) as info:
            parse_line(line, lineno=3)
        assert str(info.value) == message

    @pytest.mark.parametrize("escape", [
        "\\u-001", "\\u+041", "\\u 123", "\\u0_41", "\\UFFFFFFFF",
        "\\U00110000", "\\u\u0661\u0662\u0663\u0664"])
    def test_malformed_unicode_escapes_are_ntriples_errors(self, escape):
        """``int(.., 16)`` alone accepted a sign, ``_``, spaces and
        non-ASCII digits, and ``chr`` raised a bare ``ValueError`` or
        ``OverflowError`` past U+10FFFF."""
        for line in (f'<http://a> <http://p> "{escape}" .',
                     f"<http://a{escape}> <http://p> <http://o> ."):
            with pytest.raises(NTriplesError, match="invalid"):
                parse_line(line)

    def test_label_and_tag_runs_are_exactly_isalnum(self):
        """The blank-label and language-tag runs take one step where
        the character loop they replaced tested ``str.isalnum``."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert (set("".join(_BLANK_RUN.findall(every)))
                == {c for c in every if c.isalnum() or c in "_-."})
        assert (set("".join(_LANGUAGE_RUN.findall(every)))
                == {c for c in every if c.isalnum() or c == "-"})

    def test_every_lubm_label_key_round_trips(self, tmp_path):
        """Every label of a LUBM index's ``labels.dict`` spells out in
        N-Triples and parses back to itself."""
        from repro.datasets import dataset
        from repro.index import build_index
        from repro.index.labels import LABELS_FILE, LabelInterner

        directory = tmp_path / "lubm"
        build_index(dataset("lubm").build(1500, seed=1),
                    str(directory))[0].close()
        interner = LabelInterner.load(directory / LABELS_FILE)
        assert len(interner) > 500
        for label_id in range(len(interner)):
            term = interner.lookup(label_id)
            assert parse_term(term.n3()) == term
            assert parse_term(term.n3()).n3() == term.n3()
