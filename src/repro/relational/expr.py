"""Bound (executable) expressions.

These trees reference row positions by integer index, so evaluation is a
plain tuple lookup.  The planner produces them by resolving the SQL AST
against operator schemas; the plan rewriter remaps indexes when it moves
operators around (ReqSync percolation pulls selections and projections up).

NULL semantics are SQL-ish three-valued logic: comparisons involving NULL
yield NULL, conjunction/disjunction propagate unknown, and filters treat a
non-True result as "drop the row".
"""

import operator
from array import array
from itertools import repeat

from repro.relational.placeholder import Placeholder, require_concrete
from repro.relational.types import DataType, common_numeric_type, infer_literal_type
from repro.util.errors import TypeMismatchError


class BoundExpr:
    """Base class for bound expressions."""

    def eval(self, row):
        raise NotImplementedError

    def referenced_columns(self):
        """Set of row indexes this expression reads."""
        raise NotImplementedError

    def remap(self, index_map):
        """Return a copy with column indexes translated via *index_map*."""
        raise NotImplementedError

    def result_type(self, schema):
        """Static type of the expression over *schema* (may be ``None``)."""
        raise NotImplementedError

    def sql(self, schema=None):
        """A human-readable rendering, used in plan explanations."""
        raise NotImplementedError

    def __repr__(self):
        return "{}({})".format(type(self).__name__, self.sql())


class Literal(BoundExpr):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def eval(self, row):
        return self.value

    def referenced_columns(self):
        return set()

    def remap(self, index_map):
        return self

    def result_type(self, schema):
        return infer_literal_type(self.value)

    def sql(self, schema=None):
        if isinstance(self.value, str):
            return "'{}'".format(self.value.replace("'", "''"))
        return str(self.value)

    def __eq__(self, other):
        return isinstance(other, Literal) and self.value == other.value

    def __hash__(self):
        return hash((Literal, self.value))


class ColumnRef(BoundExpr):
    """A reference to a row position.  ``display`` is the original name."""

    __slots__ = ("index", "display")

    def __init__(self, index, display=None):
        self.index = index
        self.display = display

    def eval(self, row):
        return require_concrete(row[self.index], context=self.sql())

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

    __slots__ = ("op", "left", "right")

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

    def referenced_columns(self):
        return self.left.referenced_columns() | self.right.referenced_columns()

    def remap(self, index_map):
        return BinaryOp(self.op, self.left.remap(index_map), self.right.remap(index_map))

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

    def __eq__(self, other):
        return (
            isinstance(other, BinaryOp)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((BinaryOp, self.op, self.left, self.right))


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

    __slots__ = ("op", "left", "right")

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

    def referenced_columns(self):
        return self.left.referenced_columns() | self.right.referenced_columns()

    def remap(self, index_map):
        return Comparison(self.op, self.left.remap(index_map), self.right.remap(index_map))

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

    def __eq__(self, other):
        return (
            isinstance(other, Comparison)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((Comparison, self.op, self.left, self.right))


class Conjunction(BoundExpr):
    """AND over one or more predicates, with 3-valued logic."""

    __slots__ = ("terms",)

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

    def referenced_columns(self):
        refs = set()
        for term in self.terms:
            refs |= term.referenced_columns()
        return refs

    def remap(self, index_map):
        return Conjunction(tuple(t.remap(index_map) for t in self.terms))

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return " AND ".join(t.sql(schema) for t in self.terms)

    def __eq__(self, other):
        return isinstance(other, Conjunction) and self.terms == other.terms

    def __hash__(self):
        return hash((Conjunction, self.terms))


class Disjunction(BoundExpr):
    """OR over one or more predicates, with 3-valued logic."""

    __slots__ = ("terms",)

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

    def referenced_columns(self):
        refs = set()
        for term in self.terms:
            refs |= term.referenced_columns()
        return refs

    def remap(self, index_map):
        return Disjunction(tuple(t.remap(index_map) for t in self.terms))

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return " OR ".join("({})".format(t.sql(schema)) for t in self.terms)

    def __eq__(self, other):
        return isinstance(other, Disjunction) and self.terms == other.terms

    def __hash__(self):
        return hash((Disjunction, self.terms))


class Negation(BoundExpr):
    """NOT, with 3-valued logic (NOT NULL is NULL)."""

    __slots__ = ("term",)

    def __init__(self, term):
        self.term = term

    def eval(self, row):
        value = self.term.eval(row)
        if value is None:
            return None
        return not value

    def referenced_columns(self):
        return self.term.referenced_columns()

    def remap(self, index_map):
        return Negation(self.term.remap(index_map))

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return "NOT ({})".format(self.term.sql(schema))

    def __eq__(self, other):
        return isinstance(other, Negation) and self.term == other.term

    def __hash__(self):
        return hash((Negation, self.term))


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

    __slots__ = ("expr", "pattern", "negated", "_regex")

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

    def referenced_columns(self):
        return self.expr.referenced_columns()

    def remap(self, index_map):
        return LikePredicate(self.expr.remap(index_map), self.pattern, self.negated)

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return "{} {}LIKE '{}'".format(
            self.expr.sql(schema),
            "NOT " if self.negated else "",
            self.pattern.replace("'", "''"),
        )

    def __eq__(self, other):
        return (
            isinstance(other, LikePredicate)
            and self.expr == other.expr
            and self.pattern == other.pattern
            and self.negated == other.negated
        )

    def __hash__(self):
        return hash((LikePredicate, self.expr, self.pattern, self.negated))


class NullCheck(BoundExpr):
    """``IS NULL`` / ``IS NOT NULL`` — the only two-valued predicate."""

    __slots__ = ("expr", "negated")

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

    def referenced_columns(self):
        return self.expr.referenced_columns()

    def remap(self, index_map):
        return NullCheck(self.expr.remap(index_map), self.negated)

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return "{} IS {}NULL".format(
            self.expr.sql(schema), "NOT " if self.negated else ""
        )

    def __eq__(self, other):
        return (
            isinstance(other, NullCheck)
            and self.expr == other.expr
            and self.negated == other.negated
        )

    def __hash__(self):
        return hash((NullCheck, self.expr, self.negated))


class SubqueryMixin:
    """Shared lazy materialization for subquery predicates.

    The subplan is executed once, on first evaluation, and its result is
    cached for the lifetime of the expression — sound because only
    *uncorrelated* subqueries are planned into these nodes.
    """

    def _subplan_rows(self):
        if self._rows is None:
            from repro.exec.operator import collect

            self._rows = collect(self.subplan)
        return self._rows


class InSubqueryPredicate(BoundExpr, SubqueryMixin):
    """``expr [NOT] IN (subplan)`` with SQL NULL semantics.

    ``x IN (...)`` is True on a match, NULL if no match but the subquery
    produced a NULL, else False; NOT IN negates through 3-valued logic.
    """

    __slots__ = ("expr", "subplan", "negated", "_rows")

    def __init__(self, expr, subplan, negated=False):
        self.expr = expr
        self.subplan = subplan
        self.negated = negated
        self._rows = None

    def eval(self, row):
        value = self.expr.eval(row)
        if value is None:
            return None
        candidates = self._subplan_rows()
        has_null = False
        for candidate in candidates:
            if candidate[0] is None:
                has_null = True
            elif candidate[0] == value:
                return False if self.negated else True
        if has_null:
            return None
        return True if self.negated else False

    def referenced_columns(self):
        return self.expr.referenced_columns()

    def remap(self, index_map):
        clone = InSubqueryPredicate(self.expr.remap(index_map), self.subplan, self.negated)
        clone._rows = self._rows
        return clone

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


# -- compiled row-wise evaluation ------------------------------------------------
#
# ``compile_scalar_eval`` compiles a BoundExpr tree once into a
# ``row -> value`` closure over plain Python locals, removing the per-row
# virtual dispatch through the expression tree.  It is the exact
# fallback under the column kernels below.  Semantics are mirrored exactly:
# evaluation order (left operand first), three-valued logic including
# per-row short-circuiting of AND/OR (a row whose first conjunct is False
# must never evaluate — and possibly raise on — the second), placeholder
# guards, and the string/number comparison type check.


def _scalar_operand(expr):
    """A fast ``row -> value`` getter for comparison/arithmetic operands."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        index = expr.index
        context = expr.sql()

        def read(row):
            value = row[index]
            if isinstance(value, Placeholder):
                require_concrete(value, context=context)
            return value

        return read
    return compile_scalar_eval(expr)


def compile_scalar_eval(expr):
    """Compile *expr* into a ``row -> value`` closure (exact semantics)."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        return _scalar_operand(expr)
    if isinstance(expr, Comparison):
        compare = _COMPARATORS[expr.op]
        left = _scalar_operand(expr.left)
        right = _scalar_operand(expr.right)

        def comparison(row):
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            if isinstance(lhs, str) != isinstance(rhs, str):
                raise TypeMismatchError(
                    "cannot compare {!r} with {!r}".format(lhs, rhs)
                )
            return compare(lhs, rhs)

        return comparison
    if isinstance(expr, Conjunction):
        terms = [compile_scalar_eval(term) for term in expr.terms]

        def conjunction(row):
            saw_null = False
            for term in terms:
                value = term(row)
                if value is False:
                    return False
                if value is None:
                    saw_null = True
            return None if saw_null else True

        return conjunction
    if isinstance(expr, Disjunction):
        terms = [compile_scalar_eval(term) for term in expr.terms]

        def disjunction(row):
            saw_null = False
            for term in terms:
                value = term(row)
                if value is True:
                    return True
                if value is None:
                    saw_null = True
            return None if saw_null else False

        return disjunction
    if isinstance(expr, Negation):
        term = compile_scalar_eval(expr.term)

        def negation(row):
            value = term(row)
            if value is None:
                return None
            return not value

        return negation
    # Arithmetic, LIKE, NULL checks, subqueries, ...: the tree's own eval
    # is already correct; compiling buys nothing beyond the dispatch we
    # save at the shapes above.
    return expr.eval


# -- column-at-a-time (kernel) evaluation -------------------------------------
#
# The columnar executor compiles a BoundExpr tree once per operator
# ``open()`` into a *kernel*: a closure ``(cols, n) -> values`` over
# dense column vectors instead of row tuples.  Typed ``array`` columns
# (see :func:`repro.relational.batch.type_column`) structurally prove
# "only clean numbers here", so the hot loops drop every per-value
# guard; anything else (NULLs, placeholders, strings, mixed types) takes
# a guarded per-element loop or — for short-circuit-sensitive shapes —
# falls back to the exact row-wise evaluator over ``zip(*cols)``.
# Semantics are identical to row-at-a-time evaluation either way: same
# results, same error type at the same logical row.

#: Process-global kernel counters, surfaced as ``batch.kernel_compiled``
#: / ``batch.kernel_invoked`` metrics by the engine (see
#: :meth:`repro.wsq.engine.WsqEngine._drain_batches`).
_KERNEL_STATS = {"compiled": 0, "invoked": 0}


def kernel_stats():
    """A snapshot of the process-wide kernel compile/invoke counters."""
    return dict(_KERNEL_STATS)


def _guard_value(value, context):
    """The exact per-value read semantics of :meth:`ColumnRef.eval`."""
    if isinstance(value, Placeholder):
        require_concrete(value, context=context)
    return value


def _clean_literal(expr):
    """The literal's value when it can never NULL- or type-surprise a
    numeric array operand, else ``None`` (as a no-match marker)."""
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float)):
        return expr.value
    return None


def _rowwise_kernel(expr):
    """Exact fallback: pivot columns back to rows, run the scalar closure.

    Used for shapes where column-at-a-time evaluation could change which
    error fires first (per-row AND/OR short-circuit, LIKE, subqueries).
    The caller gathers only ``expr.referenced_columns()`` — a complete
    contract on every expression type — so unmaterialized slots can
    never be read and are pivoted as ``None`` streams.
    """
    scalar = compile_scalar_eval(expr)

    def kernel(cols, n):
        if not cols:
            empty = ()
            return [scalar(empty) for _ in range(n)]
        pivot = [repeat(None, n) if col is None else col for col in cols]
        return [scalar(row) for row in zip(*pivot)]

    return kernel


def _columnref_kernel(expr):
    index = expr.index
    context = expr.sql()

    def kernel(cols, n):
        col = cols[index]
        if isinstance(col, array):
            return col
        for value in col:
            if isinstance(value, Placeholder):
                require_concrete(value, context=context)
        return col

    return kernel


def _comparison_kernel(expr):
    """Kernel + safe column refs for a comparison, or ``(None, None)``.

    The second element lists the referenced column indexes when the
    comparison is *array-safe*: operands are column refs / numeric
    literals, so if every referenced column is a typed array the kernel
    can neither raise nor return NULL — which is what lets AND/OR
    combine term masks without observable short-circuit differences.
    """
    compare = _COMPARATORS[expr.op]
    left, right = expr.left, expr.right

    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        li, ri = left.index, right.index
        lctx, rctx = left.sql(), right.sql()

        def colcol(cols, n):
            a, b = cols[li], cols[ri]
            if isinstance(a, array) and isinstance(b, array):
                return [compare(x, y) for x, y in zip(a, b)]
            out = []
            append = out.append
            for x, y in zip(a, b):
                x = _guard_value(x, lctx)
                y = _guard_value(y, rctx)
                if x is None or y is None:
                    append(None)
                elif isinstance(x, str) != isinstance(y, str):
                    raise TypeMismatchError(
                        "cannot compare {!r} with {!r}".format(x, y)
                    )
                else:
                    append(compare(x, y))
            return out

        return colcol, (li, ri)

    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        index, context = left.index, left.sql()
        value = right.value
        clean = _clean_literal(right) is not None
        value_is_str = isinstance(value, str)

        def collit(cols, n):
            col = cols[index]
            if clean and isinstance(col, array):
                return [compare(x, value) for x in col]
            out = []
            append = out.append
            for x in col:
                x = _guard_value(x, context)
                if x is None or value is None:
                    append(None)
                elif isinstance(x, str) != value_is_str:
                    raise TypeMismatchError(
                        "cannot compare {!r} with {!r}".format(x, value)
                    )
                else:
                    append(compare(x, value))
            return out

        return collit, ((index,) if clean else None)

    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        value = left.value
        index, context = right.index, right.sql()
        clean = _clean_literal(left) is not None
        value_is_str = isinstance(value, str)

        def litcol(cols, n):
            col = cols[index]
            if clean and isinstance(col, array):
                return [compare(value, y) for y in col]
            out = []
            append = out.append
            for y in col:
                y = _guard_value(y, context)
                if value is None or y is None:
                    append(None)
                elif value_is_str != isinstance(y, str):
                    raise TypeMismatchError(
                        "cannot compare {!r} with {!r}".format(value, y)
                    )
                else:
                    append(compare(value, y))
            return out

        return litcol, ((index,) if clean else None)

    return None, None


def _binaryop_kernel(expr):
    """Kernel for arithmetic over column/literal operands, or ``None``."""
    op = expr.op
    arith = _ARITH_OPS[op]
    left, right = expr.left, expr.right

    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        li, ri = left.index, right.index
        lctx, rctx = left.sql(), right.sql()

        def colcol(cols, n):
            a, b = cols[li], cols[ri]
            fast = isinstance(a, array) and isinstance(b, array)
            if fast and op != "/":
                return [arith(x, y) for x, y in zip(a, b)]
            if fast:
                return [None if y == 0 else x / y for x, y in zip(a, b)]
            out = []
            append = out.append
            for x, y in zip(a, b):
                x = _guard_value(x, lctx)
                y = _guard_value(y, rctx)
                if x is None or y is None:
                    append(None)
                elif op == "/":
                    append(None if y == 0 else x / y)
                else:
                    append(arith(x, y))
            return out

        return colcol

    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        index, context = left.index, left.sql()
        value = right.value
        clean = _clean_literal(right) is not None

        def collit(cols, n):
            col = cols[index]
            if clean and isinstance(col, array):
                if op == "/":
                    if value == 0:
                        return [None] * n
                    return [x / value for x in col]
                return [arith(x, value) for x in col]
            out = []
            append = out.append
            for x in col:
                x = _guard_value(x, context)
                if x is None or value is None:
                    append(None)
                elif op == "/":
                    append(None if value == 0 else x / value)
                else:
                    append(arith(x, value))
            return out

        return collit

    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        value = left.value
        index, context = right.index, right.sql()
        clean = _clean_literal(left) is not None

        def litcol(cols, n):
            col = cols[index]
            if clean and isinstance(col, array):
                if op == "/":
                    return [None if y == 0 else value / y for y in col]
                return [arith(value, y) for y in col]
            out = []
            append = out.append
            for y in col:
                y = _guard_value(y, context)
                if value is None or y is None:
                    append(None)
                elif op == "/":
                    append(None if y == 0 else value / y)
                else:
                    append(arith(value, y))
            return out

        return litcol

    return None


def _logic_kernel(expr):
    """Mask-combining kernel for AND/OR, or ``None``.

    Row-at-a-time AND/OR short-circuits *per row* — a row whose first
    conjunct is False must never evaluate (and possibly raise on) the
    second.  Combining term masks evaluates every term for every row, so
    it is only used when that difference is unobservable: every term is
    an array-safe comparison (see :func:`_comparison_kernel`) *and*, at
    runtime, every referenced column actually is a typed array — then no
    term can raise or produce NULL, and the combine is pure boolean
    algebra.  Otherwise the kernel defers to the exact row-wise path.
    """
    is_and = isinstance(expr, Conjunction)
    terms = []
    refs = set()
    for term in expr.terms:
        kernel, safe = _comparison_kernel(term) if isinstance(term, Comparison) else (None, None)
        if kernel is None or safe is None:
            return None
        terms.append(kernel)
        refs.update(safe)
    refs = sorted(refs)
    rowwise = _rowwise_kernel(expr)

    def kernel(cols, n):
        for i in refs:
            if not isinstance(cols[i], array):
                return rowwise(cols, n)
        out = list(terms[0](cols, n))
        for term in terms[1:]:
            mask = term(cols, n)
            if is_and:
                out = [a and b for a, b in zip(out, mask)]
            else:
                out = [a or b for a, b in zip(out, mask)]
        return out

    return kernel


def _column_kernel(expr):
    """The best column kernel for *expr* (exact; falls back to row-wise)."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda cols, n: [value] * n
    if isinstance(expr, ColumnRef):
        return _columnref_kernel(expr)
    if isinstance(expr, Comparison):
        kernel, _ = _comparison_kernel(expr)
        if kernel is not None:
            return kernel
        return _rowwise_kernel(expr)
    if isinstance(expr, BinaryOp):
        kernel = _binaryop_kernel(expr)
        if kernel is not None:
            return kernel
        return _rowwise_kernel(expr)
    if isinstance(expr, (Conjunction, Disjunction)):
        kernel = _logic_kernel(expr)
        if kernel is not None:
            return kernel
        return _rowwise_kernel(expr)
    if isinstance(expr, Negation):
        term = _column_kernel(expr.term)

        def negation(cols, n):
            return [None if v is None else not v for v in term(cols, n)]

        return negation
    return _rowwise_kernel(expr)


def _gather_columns(batch, refs, width):
    """A sparse column list for *batch*: only *refs* are materialized.

    Kernels index columns by absolute position, but a predicate usually
    touches a few of them — unreferenced slots stay ``None`` so a
    narrowed batch never gathers columns nobody reads.
    """
    cols = [None] * width
    for i in refs:
        cols[i] = batch.column(i)
    return cols


def _kernel_width(expr_refs, batch):
    if batch.schema is not None:
        return len(batch.schema)
    return (max(expr_refs) + 1) if expr_refs else 0


def compile_column_eval(expr):
    """Compile *expr* into a ``batch -> [values]`` column evaluator.

    Call once per operator ``open()``.  Exact row-at-a-time semantics
    (same values, same error at the same logical row) with typed-array
    fast paths when the batch's columns allow them.
    """
    _KERNEL_STATS["compiled"] += 1
    kernel = _column_kernel(expr)
    refs = sorted(expr.referenced_columns())

    def evaluate(batch):
        _KERNEL_STATS["invoked"] += 1
        cols = _gather_columns(batch, refs, _kernel_width(refs, batch))
        return kernel(cols, len(batch))

    return evaluate


def compile_column_predicate(expr):
    """Compile a predicate into ``batch -> selection`` (positions where True).

    SQL filter semantics: rows whose predicate is False *or NULL* are
    dropped, exactly like a per-row ``eval(row) is True`` check.  The
    common hot shape —
    a comparison of a typed array column against a numeric literal —
    emits the selection vector directly from the array, skipping the
    intermediate truth-value list.
    """
    _KERNEL_STATS["compiled"] += 1
    kernel = _column_kernel(expr)
    refs = sorted(expr.referenced_columns())

    direct = None
    if isinstance(expr, Comparison):
        if isinstance(expr.left, ColumnRef):
            value = _clean_literal(expr.right)
            if value is not None:
                direct = (_COMPARATORS[expr.op], expr.left.index, value, False)
        elif isinstance(expr.right, ColumnRef):
            value = _clean_literal(expr.left)
            if value is not None:
                direct = (_COMPARATORS[expr.op], expr.right.index, value, True)

    def predicate(batch):
        _KERNEL_STATS["invoked"] += 1
        cols = _gather_columns(batch, refs, _kernel_width(refs, batch))
        if direct is not None:
            compare, index, value, flipped = direct
            col = cols[index]
            if isinstance(col, array):
                if flipped:
                    return [i for i, v in enumerate(col) if compare(value, v)]
                return [i for i, v in enumerate(col) if compare(v, value)]
        values = kernel(cols, len(batch))
        return [i for i, v in enumerate(values) if v is True]

    return predicate


def compile_column_projection(expressions):
    """Compile projections into ``batch -> [column vectors]``.

    Bare column references are passed through *raw* (zero-copy on dense batches,
    placeholders flow, mirroring :meth:`ColumnRef.raw`), computed
    expressions run as column kernels with the usual guards.
    """
    _KERNEL_STATS["compiled"] += 1
    plans = []
    refs = set()
    for expr in expressions:
        if isinstance(expr, ColumnRef):
            plans.append((expr.index, None))
        else:
            plans.append((None, _column_kernel(expr)))
            refs |= expr.referenced_columns()
    refs = sorted(refs)

    def project(batch):
        _KERNEL_STATS["invoked"] += 1
        n = len(batch)
        cols = None
        out = []
        for raw_index, kernel in plans:
            if kernel is None:
                out.append(batch.column(raw_index))
            else:
                if cols is None:
                    cols = _gather_columns(batch, refs, _kernel_width(refs, batch))
                out.append(kernel(cols, n))
        return out

    return project


class ExistsPredicate(BoundExpr, SubqueryMixin):
    """``EXISTS (subplan)``: true iff the subquery returns any row."""

    __slots__ = ("subplan", "_rows")

    def __init__(self, subplan):
        self.subplan = subplan
        self._rows = None

    def eval(self, row):
        return len(self._subplan_rows()) > 0

    def referenced_columns(self):
        return set()

    def remap(self, index_map):
        clone = ExistsPredicate(self.subplan)
        clone._rows = self._rows
        return clone

    def result_type(self, schema):
        return DataType.BOOL

    def sql(self, schema=None):
        return "EXISTS (<subquery>)"

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)
