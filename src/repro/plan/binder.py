"""Name binding: SQL AST expressions -> bound (index-based) expressions."""

from repro.relational.expr import (
    BinaryOp,
    ColumnRef,
    Comparison,
    Conjunction,
    Disjunction,
    LikePredicate,
    Literal,
    Negation,
    NullCheck,
)
from repro.sql import ast
from repro.util.errors import PlanError


class Binder:
    """Resolves column names against one schema.

    *subquery_planner*, when provided, binds uncorrelated subqueries
    (``IN (SELECT ...)`` / ``EXISTS (SELECT ...)``) to their logical
    trees, which are lowered with the query; contexts that cannot host
    subqueries leave it unset.
    """

    def __init__(self, schema, subquery_planner=None):
        self.schema = schema
        self.subquery_planner = subquery_planner

    def bind(self, node):
        """Bind *node*; aggregate calls are rejected (handled separately)."""
        if isinstance(node, ast.Const):
            return Literal(node.value)
        if isinstance(node, ast.Name):
            index = self.schema.resolve(node.name, node.qualifier)
            return ColumnRef(index, node.sql())
        if isinstance(node, ast.Arith):
            return BinaryOp(node.op, self.bind(node.left), self.bind(node.right))
        if isinstance(node, ast.Cmp):
            return Comparison(node.op, self.bind(node.left), self.bind(node.right))
        if isinstance(node, ast.LogicalAnd):
            return Conjunction([self.bind(t) for t in node.terms])
        if isinstance(node, ast.LogicalOr):
            return Disjunction([self.bind(t) for t in node.terms])
        if isinstance(node, ast.LogicalNot):
            return Negation(self.bind(node.term))
        if isinstance(node, ast.Like):
            return LikePredicate(self.bind(node.expr), node.pattern, node.negated)
        if isinstance(node, ast.IsNull):
            return NullCheck(self.bind(node.expr), node.negated)
        if isinstance(node, ast.InList):
            # Desugared: x IN (a, b) == (x = a OR x = b); NOT IN negates.
            bound = self.bind(node.expr)
            terms = [Comparison("=", bound, Literal(v)) for v in node.values]
            disjunction = Disjunction(terms) if len(terms) > 1 else terms[0]
            return Negation(disjunction) if node.negated else disjunction
        if isinstance(node, ast.Between):
            bound = self.bind(node.expr)
            window = Conjunction(
                [
                    Comparison(">=", bound, self.bind(node.low)),
                    Comparison("<=", bound, self.bind(node.high)),
                ]
            )
            return Negation(window) if node.negated else window
        if isinstance(node, ast.InSelect):
            from repro.relational.expr import InSubqueryPredicate

            logical = self._plan_subquery(node.subquery)
            if len(logical.schema) != 1:
                raise PlanError("IN subquery must produce exactly one column")
            return InSubqueryPredicate(
                self.bind(node.expr), logical, negated=node.negated
            )
        if isinstance(node, ast.Exists):
            from repro.relational.expr import ExistsPredicate

            return ExistsPredicate(self._plan_subquery(node.subquery))
        if isinstance(node, ast.FuncCall):
            raise PlanError(
                "aggregate {} is not allowed in this clause".format(node.sql())
            )
        raise PlanError("cannot bind expression {!r}".format(node))

    def _plan_subquery(self, subquery):
        if self.subquery_planner is None:
            raise PlanError("subqueries are not supported in this clause")
        return self.subquery_planner(subquery)

    def can_bind(self, node):
        """True when every name in *node* resolves against this schema."""
        try:
            self.bind(node)
        except PlanError:
            return False
        return True


def conjuncts_of(node):
    """Split a WHERE AST into top-level AND-ed conjuncts."""
    if node is None:
        return []
    if isinstance(node, ast.LogicalAnd):
        result = []
        for term in node.terms:
            result.extend(conjuncts_of(term))
        return result
    return [node]


def collect_names(node):
    """All :class:`~repro.sql.ast.Name` nodes inside an AST expression."""
    names = []

    def walk(n):
        if isinstance(n, ast.Name):
            names.append(n)
        elif isinstance(n, ast.Arith):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, ast.Cmp):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, (ast.LogicalAnd, ast.LogicalOr)):
            for t in n.terms:
                walk(t)
        elif isinstance(n, ast.LogicalNot):
            walk(n.term)
        elif isinstance(n, ast.FuncCall):
            if n.argument is not None:
                walk(n.argument)
        elif isinstance(n, (ast.Like, ast.IsNull, ast.InList)):
            walk(n.expr)
        elif isinstance(n, ast.Between):
            walk(n.expr)
            walk(n.low)
            walk(n.high)
        elif isinstance(n, ast.InSelect):
            # Names inside the subquery resolve against ITS OWN FROM list,
            # not the outer schema; only the probe expression is outer.
            walk(n.expr)
        elif isinstance(n, ast.Exists):
            pass
        elif isinstance(n, (ast.Const, ast.Star)):
            pass
        elif n is not None:
            raise PlanError("unexpected AST node {!r}".format(n))

    walk(node)
    return names


def collect_aggregates(node):
    """All aggregate :class:`~repro.sql.ast.FuncCall` nodes inside *node*."""
    calls = []

    def walk(n):
        if isinstance(n, ast.FuncCall):
            calls.append(n)
        elif isinstance(n, ast.Arith):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, ast.Cmp):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, (ast.LogicalAnd, ast.LogicalOr)):
            for t in n.terms:
                walk(t)
        elif isinstance(n, ast.LogicalNot):
            walk(n.term)
        elif isinstance(n, (ast.Like, ast.IsNull, ast.InList)):
            walk(n.expr)
        elif isinstance(n, ast.Between):
            walk(n.expr)
            walk(n.low)
            walk(n.high)
        elif isinstance(n, ast.InSelect):
            walk(n.expr)

    if node is not None:
        walk(node)
    return calls
