"""The search-engine query language.

A search expression is what WSQ's virtual tables send to an engine after
template substitution (Section 3).  The dialect is AltaVista's "simple
search" of the era::

    expr      := clause ( 'OR' clause )*
    clause    := unit ( ('near')? unit )*     # adjacency = AND
    unit      := '-' operand | operand        # '-' excludes
    operand   := '"' words '"' | word

A *quoted* operand is a phrase that must appear verbatim (consecutive
tokens); WSQ always quotes substituted parameters, so multi-word values
like ``New Mexico`` or ``four corners`` stay atomic.  Adjacent operands
without an explicit ``near`` are AND-ed; ``near`` chains associate
pairwise: ``a near b near c`` requires ``a`` within the window of ``b``
and ``b`` within the window of ``c``.  ``-operand`` excludes pages
containing the operand; ``OR`` unions clauses.
"""

import functools
import re

from repro.util.errors import VirtualTableError
from repro.web.tokenizer import phrase_tokens

AND = "and"
NEAR = "near"
OR = "or"

_QUOTED_RE = re.compile(r'-?"[^"]*"|\S+')


class SearchClause:
    """One OR-free conjunct: phrases, the operators between them, exclusions."""

    __slots__ = ("phrases", "operators", "exclusions")

    def __init__(self, phrases, operators, exclusions=()):
        self.phrases = list(phrases)  # token tuples that must appear
        self.operators = list(operators)  # len(phrases)-1 of AND/NEAR
        self.exclusions = list(exclusions)  # token tuples that must NOT appear

    def has_near(self):
        return NEAR in self.operators

    def canonical(self):
        parts = []
        for i, phrase in enumerate(self.phrases):
            if i > 0:
                parts.append(self.operators[i - 1])
            parts.append('"{}"'.format(" ".join(phrase)))
        for excluded in self.exclusions:
            parts.append('-"{}"'.format(" ".join(excluded)))
        return " ".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, SearchClause)
            and self.phrases == other.phrases
            and self.operators == other.operators
            and self.exclusions == other.exclusions
        )

    def __hash__(self):
        return hash(
            (tuple(self.phrases), tuple(self.operators), tuple(self.exclusions))
        )


class SearchExpression:
    """A parsed search expression: the OR of one or more clauses."""

    __slots__ = ("clauses", "text")

    def __init__(self, clauses, text):
        self.clauses = list(clauses)
        self.text = text

    # -- single-clause compatibility views (the common WSQ case) ----------------

    @property
    def phrases(self):
        """Every positive phrase across clauses (used for tf ranking)."""
        seen = []
        for clause in self.clauses:
            for phrase in clause.phrases:
                if phrase not in seen:
                    seen.append(phrase)
        return seen

    @property
    def operators(self):
        if len(self.clauses) == 1:
            return self.clauses[0].operators
        raise VirtualTableError(
            "expression with OR has no single operator chain"
        )

    def has_near(self):
        return any(clause.has_near() for clause in self.clauses)

    def canonical(self):
        """A normalized rendering usable as a cache key."""
        return " OR ".join(clause.canonical() for clause in self.clauses)

    def __repr__(self):
        return "SearchExpression({!r})".format(self.text)

    def __eq__(self, other):
        return (
            isinstance(other, SearchExpression) and self.clauses == other.clauses
        )

    def __hash__(self):
        return hash(tuple(self.clauses))


def parse_search_expression(text):
    """Parse *text* into a :class:`SearchExpression`.

    Raises :class:`~repro.util.errors.VirtualTableError` for an empty or
    malformed expression (leading/trailing ``near``/``OR``, exclusion-only
    clauses, empty quoted phrases).
    """
    clauses = []
    phrases = []
    operators = []
    exclusions = []
    expect_operand = True

    def finish_clause():
        nonlocal phrases, operators, exclusions
        if not phrases:
            raise VirtualTableError(
                "search clause in {!r} has no positive phrases".format(text)
            )
        clauses.append(SearchClause(phrases, operators, exclusions))
        phrases, operators, exclusions = [], [], []

    for match in _QUOTED_RE.finditer(text):
        token_text = match.group(0)
        lowered = token_text.lower()
        if lowered == NEAR:
            if expect_operand:
                raise VirtualTableError(
                    "misplaced 'near' in search expression {!r}".format(text)
                )
            operators.append(NEAR)
            expect_operand = True
            continue
        if lowered == OR:
            if expect_operand:
                raise VirtualTableError(
                    "misplaced 'OR' in search expression {!r}".format(text)
                )
            finish_clause()
            expect_operand = True
            continue
        negated = token_text.startswith("-") and len(token_text) > 1
        raw = token_text[1:] if negated else token_text
        quoted = raw.startswith('"')
        if quoted:
            raw = raw[1:-1]
        tokens = tuple(phrase_tokens(raw))
        if not tokens:
            if quoted:
                raise VirtualTableError(
                    "empty phrase in search expression {!r}".format(text)
                )
            continue
        if negated:
            # Exclusions attach to the clause; they are not chain operands.
            exclusions.append(tokens)
            continue
        if not expect_operand:
            operators.append(AND)  # implicit conjunction
        if quoted:
            phrases.append(tokens)
        else:
            for j, token in enumerate(tokens):
                if j > 0:
                    operators.append(AND)
                phrases.append((token,))
        expect_operand = False
    if expect_operand and not phrases and not exclusions:
        raise VirtualTableError(
            "search expression {!r} has no phrases".format(text)
        )
    if expect_operand and (operators or (not phrases and exclusions)):
        raise VirtualTableError(
            "search expression {!r} ends in an operator or is exclusion-"
            "only".format(text)
        )
    finish_clause()
    return SearchExpression(clauses, text)


def instantiate_template(template, terms):
    """Substitute ``%1..%n`` in *template* with quoted *terms*.

    This is the paper's printf-style ``SearchExp`` mechanism: with
    ``template='%1 near %2'`` and ``terms=('Colorado', 'four corners')``
    the result is ``'"Colorado" near "four corners"'``.  Every parameter is
    quoted so multi-word values stay atomic phrases.

    A template is compiled once per term count into one format call
    (:func:`_compiled`); a result that holds a ``%`` (a term brought it)
    is made again by :func:`_substitute`, which defines the output and
    every error.
    """
    compiled = _compiled(template, len(terms))
    if compiled is not None:
        result = compiled.format(*terms)
        if "%" not in result:
            return result
    return _substitute(template, terms)


@functools.lru_cache(maxsize=256)
def _compiled(template, n):
    """*template* as a format string with one field per ``%i``, or None.

    It is :func:`_substitute` run on the template with fields for terms:
    where no ``%`` is left, no term that holds none can change which
    markers the substitution finds or what it leaves behind, so the
    format's output is the substitution's.  A template with a ``%`` left
    (an error, or a literal ``%``) compiles to None.
    """
    if not isinstance(template, str):
        return None
    text = template.replace("{", "{{").replace("}", "}}")
    for i in range(n, 0, -1):
        marker = "%{}".format(i)
        if marker not in text:
            return None
        text = text.replace(marker, '"{%d}"' % (i - 1))
    return None if "%" in text else text


def _substitute(template, terms):
    result = template
    # Substitute the highest numbers first so %12 is not clobbered by %1.
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


def default_template(n, near_supported=True):
    """The paper's default ``SearchExp`` for *n* bound terms.

    ``"%1 near %2 near ... near %n"`` for engines with a ``near`` operator,
    ``"%1 %2 ... %n"`` otherwise (the Google case, paper footnote 1).
    """
    if n < 1:
        raise VirtualTableError("a search needs at least one bound term")
    joiner = " near " if near_supported else " "
    return joiner.join("%{}".format(i) for i in range(1, n + 1))
