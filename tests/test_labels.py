"""Unit tests for the label index and the semantic matcher."""

import pytest

from repro.index.labels import LabelIndex, LabelInterner, SemanticMatcher
from repro.index.thesaurus import Thesaurus, default_thesaurus
from repro.rdf.terms import Literal, URI, Variable


def post(index: LabelIndex, label, entry_id: int) -> None:
    """File ``entry_id`` under ``label`` the way a writer does: intern
    the label, then post under its id."""
    index.add(index.interner.intern(label), entry_id)


class TestLabelIndex:
    @pytest.fixture
    def index(self):
        idx = LabelIndex(LabelInterner(), default_thesaurus())
        post(idx, URI("http://x#FullProfessor"), 1)
        post(idx, URI("http://x#AssistantProfessor"), 2)
        post(idx, Literal("Health Care"), 3)
        post(idx, Literal("Databases"), 4)
        return idx

    def test_exact_lookup(self, index):
        assert index.lookup_exact(URI("http://x#FullProfessor")) == {1}
        assert index.lookup_exact(Literal("nope")) == set()

    def test_token_lookup(self, index):
        assert index.lookup_token("professor") == {1, 2}
        assert index.lookup_token("PROFESSOR") == {1, 2}
        # Stems are tokens too: "Databases" is filed under "database".
        assert index.lookup_token("database") == {4}

    def test_lookup_prefers_exact(self, index):
        assert index.lookup(URI("http://x#FullProfessor")) == {1}

    def test_lookup_token_conjunction(self, index):
        # "full professor" matches only the FullProfessor label.
        assert index.lookup(Literal("full professor")) == {1}

    def test_lookup_semantic_fallback(self, index):
        # "teacher" is a thesaurus synonym of "professor".
        assert index.lookup(Literal("Teacher")) == {1, 2}

    def test_lookup_semantic_disabled(self, index):
        assert index.lookup(Literal("Teacher"), semantic=False) == set()

    def test_lookup_no_thesaurus(self):
        idx = LabelIndex(LabelInterner())
        post(idx, Literal("Movie"), 1)
        assert idx.lookup(Literal("Film")) == set()

    def test_multiple_entries_per_label(self):
        idx = LabelIndex(LabelInterner())
        post(idx, Literal("x"), 1)
        post(idx, Literal("x"), 2)
        assert idx.lookup_exact(Literal("x")) == {1, 2}

    def test_counts(self, index):
        assert index.label_count == 4
        assert index.interner.ids_with_token("professor") == [0, 1]

    def test_add_all(self):
        interner = LabelInterner()
        idx = LabelIndex(interner)
        idx.add_all([interner.intern(Literal("a")),
                     interner.intern(Literal("b"))], 9)
        assert idx.lookup_exact(Literal("a")) == {9}
        assert idx.lookup_exact(Literal("b")) == {9}

    def test_one_token_view_serves_every_map(self):
        """Two maps over one dictionary: a label interned for one map is
        filed once, and the other map's tiers see only its own postings."""
        interner = LabelInterner()
        sink, contains = LabelIndex(interner), LabelIndex(interner)
        post(contains, Literal("Health Policy"), 1)
        post(sink, Literal("Health Care"), 2)
        post(contains, Literal("Health Care"), 2)
        assert interner.ids_with_token("health") == [0, 1]
        assert sink.lookup(Literal("health")) == {2}
        assert contains.lookup(Literal("health")) == {1, 2}

    def test_labels_without_postings_add_nothing(self):
        """A dictionary label this map never posted (another map's, or
        only a query's) widens no tier."""
        interner = LabelInterner()
        idx = LabelIndex(interner)
        interner.intern(Literal("Care Home"))
        post(idx, Literal("Health Care"), 5)
        assert idx.lookup(Literal("care")) == {5}
        assert idx.lookup(Literal("home")) == set()


class TestSemanticMatcher:
    @pytest.fixture
    def thesaurus(self):
        return default_thesaurus()

    def test_exact_level(self):
        matcher = SemanticMatcher(level="exact")
        assert matcher(Literal("x"), Literal("x"))
        assert not matcher(Literal("Movie"), Literal("Film"))

    def test_lexical_level_token_equality(self, thesaurus):
        matcher = SemanticMatcher(thesaurus, level="lexical")
        assert matcher(URI("http://x#FullProfessor"),
                       Literal("full professor"))
        assert not matcher(Literal("Movie"), Literal("Film"))

    def test_semantic_level_synonyms(self, thesaurus):
        matcher = SemanticMatcher(thesaurus, level="semantic")
        assert matcher(Literal("Movie"), Literal("Film"))
        assert matcher(Literal("Male"), Literal("Man"))
        assert not matcher(Literal("Male"), Literal("Female"))

    def test_semantic_multi_token(self, thesaurus):
        matcher = SemanticMatcher(thesaurus, level="semantic")
        # every query token must find a related data token
        assert matcher(Literal("Health Care"), Literal("healthcare care"))
        assert not matcher(Literal("Health Care"), Literal("Health Taxes"))

    def test_variables_never_match(self, thesaurus):
        matcher = SemanticMatcher(thesaurus, level="semantic")
        assert not matcher(Variable("v"), Literal("x"))

    def test_semantic_requires_thesaurus(self):
        with pytest.raises(ValueError):
            SemanticMatcher(None, level="semantic")

    def test_bad_level_rejected(self, thesaurus):
        with pytest.raises(ValueError):
            SemanticMatcher(thesaurus, level="psychic")

    def test_cache_stability(self, thesaurus):
        matcher = SemanticMatcher(thesaurus, level="semantic")
        first = matcher(Literal("Movie"), Literal("Film"))
        second = matcher(Literal("Movie"), Literal("Film"))
        assert first == second == True  # noqa: E712 — cached path

    def test_empty_labels_do_not_match(self, thesaurus):
        matcher = SemanticMatcher(thesaurus, level="semantic")
        assert not matcher(Literal(""), Literal("x"))
