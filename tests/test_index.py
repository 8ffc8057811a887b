"""Positional inverted index: phrase and proximity matching."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web.index import InvertedIndex, _within_window
from repro.web.searchexpr import parse_search_expression


def build(docs):
    index = InvertedIndex()
    for i, text in enumerate(docs):
        index.add_document(i, text.split())
    return index


class TestPhrases:
    def test_single_term(self):
        index = build(["a b c", "b c d", "x y"])
        assert set(index.phrase_occurrences(("b",))) == {0, 1}

    def test_term_positions(self):
        index = build(["a b a b a"])
        assert index.phrase_occurrences(("a",))[0] == [0, 2, 4]

    def test_phrase_requires_adjacency(self):
        index = build(["new york city", "new jersey york"])
        assert set(index.phrase_occurrences(("new", "york"))) == {0}

    def test_phrase_multiple_occurrences(self):
        index = build(["four corners x four corners"])
        assert index.phrase_occurrences(("four", "corners"))[0] == [0, 3]

    def test_missing_word(self):
        index = build(["a b"])
        assert index.phrase_occurrences(("a", "zzz")) == {}


class TestMatching:
    def test_and_semantics(self):
        index = build(["colorado skiing", "colorado", "skiing"])
        expr = parse_search_expression('"colorado" "skiing"')
        assert index.matching_documents(expr) == {0}

    def test_near_within_window(self):
        index = build(["colorado w1 w2 corners"])
        expr = parse_search_expression('"colorado" near "corners"')
        assert index.matching_documents(expr, near_window=2) == {0}
        assert index.matching_documents(expr, near_window=1) == set()

    def test_near_is_symmetric(self):
        index = build(["corners x colorado"])
        expr = parse_search_expression('"colorado" near "corners"')
        assert index.matching_documents(expr, near_window=1) == {0}

    def test_near_measured_between_phrase_edges(self):
        # "four corners" spans two words; gap to "utah" is 1 word.
        index = build(["four corners gap utah"])
        expr = parse_search_expression('"four corners" near "utah"')
        assert index.matching_documents(expr, near_window=1) == {0}

    def test_near_chain(self):
        index = build(["a x b y c", "a x b", "b y c"])
        expr = parse_search_expression('"a" near "b" near "c"')
        assert index.matching_documents(expr, near_window=2) == {0}

    def test_count(self):
        index = build(["apple", "apple pie", "pear"])
        assert index.count(parse_search_expression("apple")) == 2

    def test_no_matches(self):
        index = build(["a"])
        assert index.count(parse_search_expression("zebra")) == 0


class TestWindowHelper:
    def test_overlapping_spans_gap_zero(self):
        assert _within_window([0], 3, [1], 1, 0)

    def test_adjacent_gap_zero(self):
        assert _within_window([0], 1, [1], 1, 0)

    def test_gap_counted(self):
        assert not _within_window([0], 1, [2], 1, 0)
        assert _within_window([0], 1, [2], 1, 1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=5),
        st.lists(st.integers(0, 50), min_size=1, max_size=5),
        st.integers(0, 10),
    )
    def test_window_matches_bruteforce(self, left, right, window):
        expected = any(
            abs(a - b) - 1 <= window if a != b else True
            for a in left
            for b in right
        )
        assert _within_window(sorted(left), 1, sorted(right), 1, window) == expected
