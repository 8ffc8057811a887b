"""Bound (executable) expressions.

These trees reference row positions by integer index, so evaluation is a
plain tuple lookup.  The planner produces them by resolving the SQL AST
against operator schemas; the plan rewriter remaps indexes when it moves
operators around (ReqSync percolation pulls selections and projections up).

NULL semantics are SQL-ish three-valued logic: comparisons involving NULL
yield NULL, conjunction/disjunction propagate unknown, and filters treat a
non-True result as "drop the row".
"""

import collections
import itertools
import operator
import threading
from array import array

from repro.relational.placeholder import Placeholder, require_concrete
from repro.relational.types import DataType, common_numeric_type, infer_literal_type
from repro.util.codegen import compile_function
from repro.util.errors import TypeMismatchError


class BoundExpr:
    """Base class for bound expressions.

    A subclass names its constructor's parameters, in order, in
    ``_fields``, and keeps each as the attribute of that name.  The tree
    methods below are defined once from those fields: a field holding a
    ``BoundExpr``, or a tuple of them, holds children; any other field
    is carried as it is.
    """

    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def eval(self, row):
        raise NotImplementedError

    def children(self):
        """The sub-expressions, in field order."""
        found = []
        for value in self._values():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, BoundExpr):
                    found.append(item)
        return found

    def referenced_columns(self):
        """Set of row indexes this expression reads."""
        return set().union(*(child.referenced_columns() for child in self.children()))

    def remap(self, index_map):
        """Return a copy with column indexes translated via *index_map*."""
        return type(self)(*(_remap(value, index_map) for value in self._values()))

    def result_type(self, schema):
        """Static type of the expression over *schema* (may be ``None``)."""
        raise NotImplementedError

    def sql(self, schema=None):
        """A human-readable rendering, used in plan explanations."""
        raise NotImplementedError

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self):
        return hash((type(self),) + self._values())

    def __repr__(self):
        return "{}({})".format(type(self).__name__, self.sql())


def _remap(value, index_map):
    if isinstance(value, BoundExpr):
        return value.remap(index_map)
    if isinstance(value, tuple):
        return tuple(_remap(item, index_map) for item in value)
    return value


class Literal(BoundExpr):
    """A constant value."""

    _fields = __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def eval(self, row):
        return self.value

    def result_type(self, schema):
        return infer_literal_type(self.value)

    def sql(self, schema=None):
        if isinstance(self.value, str):
            return "'{}'".format(self.value.replace("'", "''"))
        return str(self.value)


class ColumnRef(BoundExpr):
    """A reference to a row position.  ``display`` is the original name."""

    _fields = __slots__ = ("index", "display")

    def __init__(self, index, display=None):
        self.index = index
        self.display = display

    def eval(self, row):
        value = row[self.index]
        if isinstance(value, Placeholder):
            require_concrete(value, context=self.sql())
        return value

    def raw(self, row):
        """Read the value without the placeholder guard (for projections)."""
        return row[self.index]

    def referenced_columns(self):
        return {self.index}

    def remap(self, index_map):
        return ColumnRef(index_map[self.index], self.display)

    def result_type(self, schema):
        if schema is None:
            return None
        return schema[self.index].type

    def sql(self, schema=None):
        if schema is not None:
            return schema[self.index].qualified_name()
        return self.display or "#{}".format(self.index)

    def __eq__(self, other):
        return isinstance(other, ColumnRef) and self.index == other.index

    def __hash__(self):
        return hash((ColumnRef, self.index))


_ARITH_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": None,  # handled specially: SQL-style division
}


class BinaryOp(BoundExpr):
    """Arithmetic over numeric operands (``+ - * /``).

    Division follows SQL conventions loosely: any division produces a FLOAT
    (the paper's Query 2 computes ``Count/Population`` as a ratio), and
    division by zero yields NULL rather than an error.
    """

    _fields = __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _ARITH_OPS:
            raise TypeMismatchError("unknown arithmetic operator {!r}".format(op))
        self.op = op
        self.left = left
        self.right = right

    def eval(self, row):
        lhs = self.left.eval(row)
        rhs = self.right.eval(row)
        if lhs is None or rhs is None:
            return None
        if self.op == "/":
            if rhs == 0:
                return None
            return lhs / rhs
        return _ARITH_OPS[self.op](lhs, rhs)

    def result_type(self, schema):
        lt = self.left.result_type(schema)
        rt = self.right.result_type(schema)
        if lt is None or rt is None:
            return None
        if self.op == "/":
            common_numeric_type(lt, rt)  # validate numeric
            return DataType.FLOAT
        return common_numeric_type(lt, rt)

    def sql(self, schema=None):
        return "({} {} {})".format(self.left.sql(schema), self.op, self.right.sql(schema))


_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Comparison(BoundExpr):
    """A comparison predicate; NULL operands yield NULL (unknown)."""

    _fields = __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _COMPARATORS:
            raise TypeMismatchError("unknown comparison operator {!r}".format(op))
        self.op = "!=" if op == "<>" else op
        self.left = left
        self.right = right

    def eval(self, row):
        lhs = self.left.eval(row)
        rhs = self.right.eval(row)
        if lhs is None or rhs is None:
            return None
        if isinstance(lhs, str) != isinstance(rhs, str):
            raise TypeMismatchError(
                "cannot compare {!r} with {!r}".format(lhs, rhs)
            )
        return _COMPARATORS[self.op](lhs, rhs)

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return "{} {} {}".format(self.left.sql(schema), self.op, self.right.sql(schema))

    def is_equijoin(self):
        """True when this is ``col = col`` (the dependent-join feeder shape)."""
        return (
            self.op == "="
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
        )


class Conjunction(BoundExpr):
    """AND over one or more predicates, with 3-valued logic."""

    _fields = __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)
        if not self.terms:
            raise TypeMismatchError("empty conjunction")

    def eval(self, row):
        saw_null = False
        for term in self.terms:
            value = term.eval(row)
            if value is False:
                return False
            if value is None:
                saw_null = True
        return None if saw_null else True

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return " AND ".join(t.sql(schema) for t in self.terms)


class Disjunction(BoundExpr):
    """OR over one or more predicates, with 3-valued logic."""

    _fields = __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)
        if not self.terms:
            raise TypeMismatchError("empty disjunction")

    def eval(self, row):
        saw_null = False
        for term in self.terms:
            value = term.eval(row)
            if value is True:
                return True
            if value is None:
                saw_null = True
        return None if saw_null else False

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return " OR ".join("({})".format(t.sql(schema)) for t in self.terms)


class Negation(BoundExpr):
    """NOT, with 3-valued logic (NOT NULL is NULL)."""

    _fields = __slots__ = ("term",)

    def __init__(self, term):
        self.term = term

    def eval(self, row):
        value = self.term.eval(row)
        if value is None:
            return None
        return not value

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return "NOT ({})".format(self.term.sql(schema))


def conjunction_terms(expr):
    """Flatten *expr* into a list of AND-ed terms (identity for non-AND)."""
    if isinstance(expr, Conjunction):
        terms = []
        for term in expr.terms:
            terms.extend(conjunction_terms(term))
        return terms
    return [expr]


def make_conjunction(terms):
    """Build the smallest expression equal to AND-ing *terms*.

    Returns ``None`` for an empty list and the single term for length one.
    """
    terms = list(terms)
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    return Conjunction(terms)


class LikePredicate(BoundExpr):
    """SQL LIKE matching: ``%`` = any run, ``_`` = any single character.

    The pattern is compiled once; NULL input yields NULL.
    """

    _fields = ("expr", "pattern", "negated")
    __slots__ = _fields + ("_regex",)

    def __init__(self, expr, pattern, negated=False):
        import re

        self.expr = expr
        self.pattern = pattern
        self.negated = negated
        translated = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        )
        self._regex = re.compile("^(?:{})$".format(translated))

    def eval(self, row):
        value = self.expr.eval(row)
        if value is None:
            return None
        if not isinstance(value, str):
            raise TypeMismatchError("LIKE requires a string, got {!r}".format(value))
        matched = self._regex.match(value) is not None
        return (not matched) if self.negated else matched

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return "{} {}LIKE '{}'".format(
            self.expr.sql(schema),
            "NOT " if self.negated else "",
            self.pattern.replace("'", "''"),
        )


class NullCheck(BoundExpr):
    """``IS NULL`` / ``IS NOT NULL`` — the only two-valued predicate."""

    _fields = __slots__ = ("expr", "negated")

    def __init__(self, expr, negated=False):
        self.expr = expr
        self.negated = negated

    def eval(self, row):
        # Evaluate via raw access where possible: IS NULL must not trip
        # the placeholder guard differently from other value reads, but a
        # placeholder is still "unknown", so the guard stays.
        value = self.expr.eval(row)
        is_null = value is None
        return (not is_null) if self.negated else is_null

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return "{} IS {}NULL".format(
            self.expr.sql(schema), "NOT " if self.negated else ""
        )


class SubqueryMixin:
    """Shared lazy materialization for subquery predicates.

    The binder gives the predicate its subquery's *logical* tree;
    :func:`repro.plan.physical.lower` lowers it with the query that
    evaluates the predicate (:meth:`set_subplan`), so its calls use that
    query's pump, deadline and context.  The subplan is executed
    once, on first evaluation, and its result is cached until the next
    lowering — sound because only *uncorrelated* subqueries are bound
    into these nodes.
    """

    def set_subplan(self, subplan):
        self.subplan = subplan
        self._rows = None

    def _subplan_rows(self):
        if self._rows is None:
            from repro.exec.operator import collect

            self._rows = collect(self.subplan)
        return self._rows


class InSubqueryPredicate(BoundExpr, SubqueryMixin):
    """``expr [NOT] IN (subquery)`` with SQL NULL semantics.

    ``x IN (...)`` is True on a match, NULL if no match but the subquery
    produced a NULL, else False; NOT IN negates through 3-valued logic.
    A row probes a hash set of the subquery's first column, built once
    per lowering.
    """

    _fields = ("expr", "logical", "negated")
    __slots__ = _fields + ("subplan", "_rows", "_members")

    def __init__(self, expr, logical, negated=False):
        self.expr = expr
        self.logical = logical
        self.negated = negated
        self.set_subplan(None)

    def set_subplan(self, subplan):
        SubqueryMixin.set_subplan(self, subplan)
        self._members = None

    def eval(self, row):
        value = self.expr.eval(row)
        if value is None:
            return None
        if self._members is None:
            values = {candidate[0] for candidate in self._subplan_rows()}
            self._members = values, None in values
        values, saw_null = self._members
        if value in values:
            return not self.negated
        if saw_null:
            return None
        return self.negated

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return "{} {}IN (<subquery>)".format(
            self.expr.sql(schema), "NOT " if self.negated else ""
        )

    def __eq__(self, other):
        return self is other  # subplans have identity semantics

    def __hash__(self):
        return id(self)


# -- compiled evaluation: one generator ----------------------------------------
#
# Operators do not walk the tree per row.  :func:`_generate` writes the
# source of one function around one per-row Python expression, compiled
# once per distinct text (literals, error contexts and opaque
# sub-expressions are its globals, not text).  It is the only
# implementation below ``BoundExpr.eval``, which stays the reference
# tests compare it with: same values, same exception with the same
# message at the same logical row.
#
# The generator is told which referenced columns are typed arrays *in
# this batch* (:func:`repro.relational.batch.type_column`: a proof of
# "clean numbers only") and carries for every node what is proven about
# its value: may be NULL, may raise, is a number / bool / str.  It spends
# a NULL test, a placeholder guard, a str-number check or three-valued
# AND/OR bookkeeping only where that proof does not reach.
#
# Evaluation order is ``eval``'s by construction — Python evaluates the
# emitted conditionals left to right and short-circuits per row — with
# one licence: evaluating an operand that can neither be NULL nor raise
# (a typed column, a non-NULL literal, comparisons and logic over those)
# cannot be observed, so it may be read late, twice, or not at all on a
# row whose result is already NULL.

#: Process-wide counters.  Counting is one atomic ``next()``: query
#: threads share them and ``+=`` is a read-modify-write.
_TICKS = {"compiled": itertools.count(), "invoked": itertools.count()}
_READ_LOCK = threading.Lock()
_reads = 0


def kernel_stats():
    """A snapshot of the process-wide kernel compile/invoke counters."""
    global _reads
    with _READ_LOCK:  # reading takes a tick too: subtract the reads so far
        stats = {name: next(ticks) - _reads for name, ticks in _TICKS.items()}
        _reads += 1
    return stats


def _mismatch(lhs, rhs):
    raise TypeMismatchError("cannot compare {!r} with {!r}".format(lhs, rhs))


#: What generated text may name besides its arguments and constants.
_NAMESPACE = {"Placeholder": Placeholder, "unresolved": require_concrete, "mismatch": _mismatch}

#: One emitted node.  ``code`` evaluates it (spending its guards);
#: ``again`` re-reads the result once ``code`` has run (``None``: nothing
#: holds it yet); ``kind`` is ``"num"``/``"bool"``/``"str"`` when every
#: non-NULL value provably is one.
_Value = collections.namedtuple("_Value", "code again nullable raises kind")

_LITERAL_KINDS = ((bool, "bool"), ((int, float), "num"), (str, "str"))

#: kind -> whether its values are ``str`` (an unproven kind is absent).
_IS_STR = {"str": True, "num": False, "bool": False}


class _Emitter:
    """Emits expressions over one set of proven columns."""

    def __init__(self, refs, proven, row):
        self.names = {index: "v{}".format(j) for j, index in enumerate(refs)}
        #: index -> (may be NULL, kind) of the columns that hold neither a
        #: placeholder nor a value of another kind: a typed array's, or a
        #: stored fixed-width field's.
        self.proven = proven
        self.row = row  # what an opaque node's eval is handed, if not a pivot
        self.constants = dict(_NAMESPACE)  # the generated function's globals
        self.temps = itertools.count()

    def constant(self, value):
        name = "k{}".format(len(self.constants))
        self.constants[name] = value
        return name

    def twice(self, value):
        """``(first read, later reads)`` of a value that is read repeatedly."""
        if value.again is not None:
            return value.code, value.again
        name = "t{}".format(next(self.temps))
        return "({} := {})".format(name, value.code), name

    def emit(self, expr):
        if isinstance(expr, Literal):
            value, name = expr.value, self.constant(expr.value)
            kind = next((k for types, k in _LITERAL_KINDS if isinstance(value, types)), None)
            return _Value(name, name, value is None, False, kind)
        if isinstance(expr, ColumnRef):
            name = self.names[expr.index]
            if expr.index in self.proven:
                nullable, kind = self.proven[expr.index]
                return _Value(name, name, nullable, False, kind)
            guarded = "(unresolved({0}, {1}) if isinstance({0}, Placeholder) else {0})".format(
                name, self.constant(expr.sql())
            )
            return _Value(guarded, name, True, True, None)
        if isinstance(expr, (Comparison, BinaryOp)):
            return self.binary(expr)
        if isinstance(expr, (Conjunction, Disjunction)):
            return self.logic(expr)
        if isinstance(expr, Negation):
            term = self.emit(expr.term)
            code = "(not {})".format(term.code)
            if term.nullable:
                code = "(None if {} is None else not {})".format(*self.twice(term))
            return _Value(code, None, term.nullable, term.raises, "bool")
        # LIKE, IS NULL, subqueries, anything new: the node's own eval over
        # a row holding the columns it reads.
        width = max(expr.referenced_columns(), default=-1) + 1
        row = self.row or "({})".format(
            "".join(self.names.get(i, "None") + ", " for i in range(width))
        )
        return _Value("{}({})".format(self.constant(expr.eval), row), None, True, True, None)

    def binary(self, expr):
        """A comparison or an arithmetic node: operands left first, NULL in
        → NULL out, then the str-number check or the zero-divisor test."""
        left, right = self.emit(expr.left), self.emit(expr.right)
        op = "==" if expr.op == "=" else expr.op
        nullable = left.nullable or right.nullable
        is_str = _IS_STR.get(left.kind), _IS_STR.get(right.kind)
        check = zero_test = False
        if isinstance(expr, Comparison):
            check = None in is_str or is_str[0] != is_str[1]
            result = _Value(None, None, nullable, left.raises or right.raises or check, "bool")
        else:
            zero_test = op == "/" and not (
                isinstance(expr.right, Literal) and is_str[1] is False and expr.right.value != 0
            )
            result = _Value(None, None, nullable or zero_test, True,
                            "num" if is_str == (False, False) else None)
        if not (nullable or check or zero_test):
            return result._replace(code="({} {} {})".format(left.code, op, right.code))
        # Anything but the plain ``L op R``: what may be NULL or may raise
        # is evaluated up front, in order, by its NULL test (dead for a
        # non-NULL operand, but it pins the order); the rest is read in place.
        tests, names = [], []
        for value in (left, right):
            name = value.code
            if value.nullable or value.raises:
                first, name = self.twice(value)
                tests.append("({} is None)".format(first))
            names.append(name)
        code = "{} {} {}".format(names[0], op, names[1])
        if check:
            same = " is ".join(
                "isinstance({}, str)".format(name) if known is None else str(known)
                for name, known in zip(names, is_str)
            )
            code = "{} if {} else mismatch({}, {})".format(code, same, *names)
        elif zero_test:
            code = "None if {} == 0 else {}".format(names[1], code)
        if tests:
            code = "None if {} else {}".format(" | ".join(tests), code)
        return result._replace(code="({})".format(code))

    def logic(self, expr):
        """AND/OR: stop at the first False (True), else NULL if any term was."""
        is_and = isinstance(expr, Conjunction)
        terms = [self.emit(term) for term in expr.terms]
        stop, other = ("False", "True") if is_and else ("True", "False")
        plain = [term.kind == "bool" and not term.nullable for term in terms]
        if all(plain):
            code = (" and " if is_and else " or ").join(term.code for term in terms)
        else:
            code, unknown = "", []
            for term, is_plain in zip(terms, plain):
                if is_plain:
                    test = ("not " if is_and else "") + term.code
                else:
                    first, name = self.twice(term)
                    test = "{} is {}".format(first, stop)
                    if term.nullable:
                        unknown.append(name + " is None")
                code += "{} if {} else ".format(stop, test)
            if unknown:
                code += "None if {} else ".format(" or ".join(unknown))
            code += other
        return _Value(
            "({})".format(code), None,
            any(term.nullable for term in terms), any(term.raises for term in terms), "bool",
        )


def _columns_read(expr, shape):
    """The sorted row indexes the function generated for *expr* reads."""
    exprs = [expr]
    if shape == "groups":
        exprs = expr[0] + [fold[0] for fold in expr[1] if fold[0] is not None]
    return sorted(set().union(*(e.referenced_columns() for e in exprs)))


def _generate(expr, shape, proven=None):
    """The function computing *expr* in *shape*, given that each column
    *proven* maps to ``(may hold NULL, kind)`` holds only values of that
    kind (and ``None``): never a placeholder.

    Shapes: ``"values"`` and ``"selection"`` are ``run(n, *columns)``, one
    column per referenced index in order, returning the value vector /
    the positions where the value is True; ``"scalar"`` is ``run(row)``;
    ``"groups"`` is ``run(n, groups, *columns)`` for *expr* = ``(keys,
    folds)``, see :func:`compile_grouping`.
    """
    refs = _columns_read(expr, shape)
    proven = proven or {}
    emitter = _Emitter(refs, proven, "row" if shape == "scalar" else None)
    names = [emitter.names[index] for index in refs]
    columns = ["c{}".format(j) for j in range(len(refs))]
    head = "def run(n, {}):".format(", ".join(columns))
    if not refs:
        each, source = "_", "range(n)"
    elif len(refs) == 1:
        each, source = names[0], columns[0]
    else:
        each, source = ", ".join(names), "zip({})".format(", ".join(columns))
    if shape == "values" and isinstance(expr, ColumnRef):
        # A bare column as a value is the column itself, after one
        # placeholder scan if it is unproven: no per-value copy.
        body = ["return " + source]
        if not proven:
            body.insert(0, "for {} in {}: {}".format(each, source, emitter.emit(expr).code))
    elif shape == "values":
        body = ["return [{} for {} in {}]".format(emitter.emit(expr).code, each, source)]
    elif shape == "selection":
        value = emitter.emit(expr)
        wanted = value.code if value.kind == "bool" else value.code + " is True"
        body = ["return [i for i, ({}) in enumerate({}) if {}]".format(each, source, wanted)]
    elif shape == "groups":
        head = "def run(n, groups, {}):".format(", ".join(columns))
        body = _group_loop(emitter, expr[0], expr[1], "for {} in {}:".format(each, source))
    else:
        head = "def run(row):"
        body = ["{} = row[{}]".format(name, index) for name, index in zip(names, refs)]
        body.append("return " + emitter.emit(expr).code)
    source = "".join([head + "\n"] + ["    {}\n".format(line) for line in body])
    return compile_function(source, "expr", emitter.constants, "run")


def _group_loop(emitter, keys, folds, loop):
    """The body of the ``"groups"`` shape: per row, in ``eval``'s order, the
    key (a lone key expression's value, else a tuple), its slots (made at
    the group's first row: the row count, then ``[NULLs skipped,
    accumulator]`` per fold), then each fold's input into its slots.  A
    fold whose input cannot be NULL skips nothing, so it counts nothing:
    its count is the row count."""
    initial = "".join(", 0, {!r}".format(start) for _, start, _ in folds)
    codes = [emitter.emit(key).code for key in keys]
    probe = [
        "slot = get(key := {})".format(
            codes[0] if len(codes) == 1 else "({})".format("".join(c + ", " for c in codes))
        ),
        "if slot is None: slot = groups[key] = [0{}]".format(initial),
    ]
    steps = []
    for j, (argument, _, update) in enumerate(folds):
        if argument is None:  # COUNT(*)
            continue
        skipped, accumulator = "slot[{}]".format(2 * j + 1), "slot[{}]".format(2 * j + 2)
        value = emitter.emit(argument)
        first, name = emitter.twice(value)
        fold = [update.format(acc=accumulator, x=name)] if update else []
        if value.nullable:  # aggregates skip NULLs
            steps.append("if {} is None: {} += 1".format(first, skipped))
            if fold:
                steps += ["else:"] + ["    " + line for line in fold]
        else:
            steps += ([first] if first != name else []) + fold
    if keys:
        return ["get = groups.get", loop] + ["    " + line for line in probe + ["slot[0] += 1"] + steps]
    body = ["get = groups.get"] + probe + ["slot[0] += n"]
    return body + ([loop] + ["    " + line for line in steps] if steps else [])


#: The value-type sets of a list column that prove its kind, tried in
#: order (an empty or all-NULL list is proven ``str``, as it always was).
#: ``bool`` is not an ``int`` here: a list mixing them proves nothing.
_LIST_KINDS = (
    (frozenset((str, type(None))), "str"),
    (frozenset((bool, type(None))), "bool"),
    (frozenset((int, float, type(None))), "num"),
)


def _proof(refs, types):
    """``{index: (may hold NULL, kind)}`` for the columns *types* prove:
    a typed array clean numbers, a list whose value types lie within one
    of :data:`_LIST_KINDS` that kind (NULLs only if ``NoneType`` is one).
    Any other list, a placeholder in it included, keeps every guard."""
    proven = {}
    for index, kind in zip(refs, types):
        if kind is array:
            proven[index] = (False, "num")
        elif type(kind) is frozenset:
            for allowed, name in _LIST_KINDS:
                if kind <= allowed:
                    proven[index] = (type(None) in kind, name)
                    break
    return proven


def _kernel(expr, shape):
    """``(batch, *state) -> result`` for *expr*: one generated variant per
    proof (:func:`_proof`), chosen from what each batch's columns are."""
    refs = _columns_read(expr, shape)
    variants = {}

    def run(batch, *state):
        columns = [batch.column(index) for index in refs]
        types = tuple(frozenset(map(type, c)) if type(c) is list else type(c) for c in columns)
        function = variants.get(types)
        if function is None:
            function = variants[types] = _generate(expr, shape, _proof(refs, types))
        return function(len(batch), *state, *columns)

    return run


def _counted(run):
    """*run*, counted: one compile now, one invocation per call."""
    next(_TICKS["compiled"])
    tick = _TICKS["invoked"].__next__

    def kernel(*args):
        tick()
        return run(*args)

    return kernel


def compile_scalar_eval(expr):
    """Compile *expr* into a ``row -> value`` function (exact semantics)."""
    return _generate(expr, "scalar")


def compile_column_eval(expr):
    """Compile *expr* into a ``batch -> values`` column evaluator.

    Compile once per operator.  Exact row-at-a-time semantics (same
    values, same error at the same logical row); a bare column reference
    returns the batch's column itself — do not mutate.
    """
    return _counted(_kernel(expr, "values"))


def compile_column_predicate(expr):
    """Compile a predicate into ``batch -> selection`` (positions where True).

    SQL filter semantics: rows whose predicate is False *or NULL* are
    dropped, exactly like a per-row ``eval(row) is True`` check.
    """
    return _counted(_kernel(expr, "selection"))


def compile_column_projection(expressions):
    """Compile projections into ``batch -> [column vectors]``.

    Bare column references are passed through *raw* (zero-copy on dense
    batches, placeholders flow, mirroring :meth:`ColumnRef.raw`);
    computed expressions are evaluated with the usual guards.
    """
    slots = [
        expr.index if isinstance(expr, ColumnRef) else _kernel(expr, "values")
        for expr in expressions
    ]

    def project(batch):
        return [
            batch.column(slot) if isinstance(slot, int) else slot(batch)
            for slot in slots
        ]

    return _counted(project)


def compile_grouping(keys, folds):
    """Compile GROUP BY accumulation into ``(batch, groups) -> None``.

    *keys* are the group expressions; each of *folds* is ``(input
    expression or None for ``*``, initial accumulator, update statement
    over ``{acc}`` and ``{x}`` or None)``.  *groups* maps a key, in
    first-seen order, to flat slots ``[rows, skipped, accumulator, ...]``:
    the group's row count, then two per fold, the NULL inputs it skipped
    and what the updates made of the others.  The key is the value of a
    lone key expression, else the tuple of the keys' values.
    """
    return _counted(_kernel((list(keys), list(folds)), "groups"))


def compile_row_test(expr, kinds):
    """*expr* as a test over one stored record, for the page decoder.

    *kinds* maps each position whose stored type proves its kind
    (a fixed-width field holds a ``"num"`` or a ``"bool"``, never a
    placeholder) to it.  Returns ``None`` unless that proves *expr*
    cannot raise; otherwise ``(positions read, tests, {name: literal})``
    with the test of a record without NULLs, then of one with — each
    source over ``v<position>`` and the literal names, true where
    ``eval`` is ``True``.
    """
    refs = sorted(expr.referenced_columns())
    emitter = _Emitter(refs, None, None)
    emitter.names = {index: "v{}".format(index) for index in refs}
    tests = []
    for nullable in (False, True):
        emitter.proven = {i: (nullable, kinds[i]) for i in refs if i in kinds}
        value = emitter.emit(expr)
        if value.raises:
            return None
        tests.append(value.code if value.kind == "bool" else value.code + " is True")
    literals = {k: v for k, v in emitter.constants.items() if k not in _NAMESPACE}
    return tuple(refs), tuple(tests), literals


class ExistsPredicate(BoundExpr, SubqueryMixin):
    """``EXISTS (subquery)``: true iff the subquery returns any row."""

    _fields = ("logical",)
    __slots__ = _fields + ("subplan", "_rows")

    def __init__(self, logical):
        self.logical = logical
        self.set_subplan(None)

    def eval(self, row):
        return len(self._subplan_rows()) > 0

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return "EXISTS (<subquery>)"

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)


def subqueries(expr):
    """The subquery predicates (``IN``/``EXISTS``) inside *expr*.

    Their own subqueries are not included: lowering one subquery lowers
    what it holds.
    """
    found, stack = [], [expr] if expr is not None else []
    while stack:
        node = stack.pop()
        if isinstance(node, SubqueryMixin):
            found.append(node)
        stack.extend(node.children())
    return found
