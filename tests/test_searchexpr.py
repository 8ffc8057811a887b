"""Search-expression language: parsing, templates, defaults."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.errors import VirtualTableError
from repro.web.searchexpr import (
    AND,
    NEAR,
    default_template,
    instantiate_template,
    parse_search_expression,
)


class TestParsing:
    def test_single_word(self):
        expr = parse_search_expression("Colorado")
        assert expr.phrases == [("colorado",)]
        assert expr.operators == []

    def test_quoted_phrase(self):
        expr = parse_search_expression('"four corners"')
        assert expr.phrases == [("four", "corners")]

    def test_near(self):
        expr = parse_search_expression('"Colorado" near "four corners"')
        assert expr.operators == [NEAR]
        assert expr.has_near()

    def test_implicit_and(self):
        expr = parse_search_expression('"scuba diving" "Florida"')
        assert expr.operators == [AND]
        assert not expr.has_near()

    def test_bare_words_are_separate_terms(self):
        expr = parse_search_expression("red green blue")
        assert expr.phrases == [("red",), ("green",), ("blue",)]
        assert expr.operators == [AND, AND]

    def test_near_chain(self):
        expr = parse_search_expression('"a" near "b" near "c"')
        assert expr.operators == [NEAR, NEAR]

    def test_mixed_operators(self):
        expr = parse_search_expression('"a" "b" near "c"')
        assert expr.operators == [AND, NEAR]

    def test_case_folding(self):
        assert parse_search_expression("COLORADO") == parse_search_expression("colorado")

    def test_punctuation_inside_phrase(self):
        expr = parse_search_expression('"O\'Brien co."')
        assert expr.phrases == [("o", "brien", "co")]

    def test_empty_expression_rejected(self):
        with pytest.raises(VirtualTableError):
            parse_search_expression("   ")

    def test_trailing_near_rejected(self):
        with pytest.raises(VirtualTableError):
            parse_search_expression('"a" near')

    def test_leading_near_rejected(self):
        with pytest.raises(VirtualTableError):
            parse_search_expression('near "a"')

    def test_empty_quoted_phrase_rejected(self):
        with pytest.raises(VirtualTableError):
            parse_search_expression('""')

    def test_canonical_is_stable(self):
        a = parse_search_expression('"Colorado"  near  "four corners"')
        b = parse_search_expression('"colorado" near "FOUR CORNERS"')
        assert a.canonical() == b.canonical()


class TestTemplates:
    def test_instantiate_simple(self):
        assert instantiate_template("%1", ("Colorado",)) == '"Colorado"'

    def test_instantiate_near(self):
        result = instantiate_template("%1 near %2", ("Colorado", "four corners"))
        assert result == '"Colorado" near "four corners"'

    def test_instantiate_ten_plus_params_no_clobber(self):
        template = " ".join("%{}".format(i) for i in range(1, 12))
        terms = tuple("t{}".format(i) for i in range(1, 12))
        result = instantiate_template(template, terms)
        assert '"t11"' in result
        assert '"t1"' in result

    def test_missing_marker_rejected(self):
        with pytest.raises(VirtualTableError, match="no parameter"):
            instantiate_template("%1", ("a", "b"))

    def test_unbound_marker_rejected(self):
        with pytest.raises(VirtualTableError, match="was not bound"):
            instantiate_template("%1 near %2", ("a",))

    def test_a_term_holding_a_marker_is_substituted_as_before(self):
        # A lower marker's substitution reaches into an earlier term.
        assert instantiate_template("%2 %1", ("x", "%1")) == '""x"" "x"'
        with pytest.raises(VirtualTableError, match=r"parameter %3 was not bound"):
            instantiate_template("%1", ("%3",))

    def test_default_template_near(self):
        assert default_template(3) == "%1 near %2 near %3"

    def test_default_template_plain(self):
        # Google-style default (paper footnote 1).
        assert default_template(3, near_supported=False) == "%1 %2 %3"

    def test_default_template_requires_terms(self):
        with pytest.raises(VirtualTableError):
            default_template(0)


class TestOrAndExclusion:
    """AltaVista-era simple syntax: OR clauses and -exclusions."""

    def test_or_clauses(self):
        expr = parse_search_expression('"Utah" OR "Ohio"')
        assert len(expr.clauses) == 2
        assert expr.phrases == [("utah",), ("ohio",)]

    def test_or_case_insensitive(self):
        assert len(parse_search_expression('"a" or "b"').clauses) == 2

    def test_exclusion_phrase(self):
        expr = parse_search_expression('"Washington" -"four corners"')
        assert expr.clauses[0].exclusions == [("four", "corners")]

    def test_exclusion_bare_word(self):
        expr = parse_search_expression('"Washington" -capital')
        assert expr.clauses[0].exclusions == [("capital",)]

    def test_or_with_near_inside_clauses(self):
        expr = parse_search_expression('"a" near "b" OR "c"')
        assert expr.clauses[0].has_near()
        assert not expr.clauses[1].has_near()
        assert expr.has_near()

    def test_canonical_includes_or_and_exclusions(self):
        expr = parse_search_expression('"a" -"x" OR "b"')
        assert expr.canonical() == '"a" -"x" OR "b"'

    def test_trailing_or_rejected(self):
        with pytest.raises(VirtualTableError):
            parse_search_expression('"a" OR')

    def test_leading_or_rejected(self):
        with pytest.raises(VirtualTableError):
            parse_search_expression('OR "a"')

    def test_exclusion_only_rejected(self):
        with pytest.raises(VirtualTableError):
            parse_search_expression('-"a"')

    def test_operators_property_guards_or(self):
        expr = parse_search_expression('"a" OR "b"')
        with pytest.raises(VirtualTableError):
            expr.operators


class TestOrAndExclusionMatching:
    def test_or_unions_results(self, web):
        av = web.engine("AV")
        utah = av.count('"Utah"')
        ohio = av.count('"Ohio"')
        both = av.count('"Utah" OR "Ohio"')
        assert both == utah + ohio  # disjoint mention sets in the corpus

    def test_exclusion_subtracts(self, web):
        av = web.engine("AV")
        total = av.count('"Colorado"')
        without = av.count('"Colorado" -"four corners"')
        near_fc = av.count('"Colorado" near "four corners"')
        assert without == total - near_fc  # all co-mentions are NEAR pages

    def test_excluded_results_gone_from_search(self, web):
        av = web.engine("AV")
        hits = av.search('"Colorado" -"four corners"', 10)
        for hit in hits:
            doc = web.corpus.lookup_url(hit.url)
            assert "corners" not in doc.tokens or "four" not in " ".join(doc.tokens)

    def test_or_search_ranks_across_clauses(self, web):
        hits = web.engine("AV").search('"Wyoming" OR "Vermont"', 15)
        assert len(hits) == 15


def _reference_instantiate(template, terms):
    """The replace-then-search substitution, as it stood before templates
    were compiled: the definition of the output and of every error."""
    result = template
    for i in range(len(terms), 0, -1):
        marker = "%{}".format(i)
        if marker not in result:
            raise VirtualTableError(
                "search template {!r} has no parameter {}".format(template, marker)
            )
        result = result.replace(marker, '"{}"'.format(terms[i - 1]))
    leftover = re.search(r"%\d+", result)
    if leftover:
        raise VirtualTableError(
            "search template {!r} parameter {} was not bound".format(
                template, leftover.group(0)
            )
        )
    return result


def _outcome(function, *args):
    try:
        return "value", function(*args)
    except VirtualTableError as exc:
        return "error", str(exc)


_PIECES = st.sampled_from(
    ["%1", "%2", "%3", "%12", "%", "%%", "1", "2", " ", " near ", "{", "}", "{0}", '"', "a", "é"]
)
_TEMPLATES = st.lists(_PIECES, max_size=8).map("".join)
_TERMS = st.lists(st.lists(_PIECES, max_size=4).map("".join), max_size=4)


@settings(max_examples=400, deadline=None)
@given(_TEMPLATES, _TERMS)
@example("%1 near %2", ["Colorado", "four corners"])
@example("%1%2", ["%2", "b"])
@example("{%1}", ["{}"])
@example("%12", ["a"])
def test_compiled_templates_match_the_substitution(template, terms):
    """Byte-identical output and the same error text, for any template and
    terms, ``%`` and braces in either included; a template is compiled
    once, so each is asked twice."""
    expected = _outcome(_reference_instantiate, template, terms)
    assert _outcome(instantiate_template, template, terms) == expected
    assert _outcome(instantiate_template, template, tuple(terms)) == expected
