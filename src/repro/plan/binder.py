"""Name binding: SQL AST expressions -> bound (index-based) expressions."""

from repro.relational.expr import (
    BinaryOp,
    ColumnRef,
    Comparison,
    Conjunction,
    Disjunction,
    ExistsPredicate,
    InSubqueryPredicate,
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

    *outputs*, when provided, binds over an aggregate's output: it maps
    each GROUP BY expression and aggregate call (as ASTs) to its column
    of *schema*.  A node it lists is that column; any other column name
    is an error, and everything else binds as usual.
    """

    def __init__(self, schema, subquery_planner=None, outputs=None):
        self.schema = schema
        self.subquery_planner = subquery_planner
        self.outputs = outputs

    def bind(self, node):
        """Bind *node*; aggregate calls are rejected unless *outputs* lists them."""
        if self.outputs is not None:
            index = self.outputs.get(node)
            if index is not None:
                return ColumnRef(index, node.sql())
            if isinstance(node, ast.Name):
                raise PlanError(
                    "expression {} must be a GROUP BY expression or an "
                    "aggregate".format(node.sql())
                )
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
            logical = self._plan_subquery(node.subquery)
            if len(logical.schema) != 1:
                raise PlanError("IN subquery must produce exactly one column")
            return InSubqueryPredicate(
                self.bind(node.expr), logical, negated=node.negated
            )
        if isinstance(node, ast.Exists):
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


def _walk(node):
    """*node* and every AST node under it, pre-order, through each node's
    ``_key()``.  A subquery's SELECT is not entered: its names resolve
    against its own FROM list."""
    if isinstance(node, ast.AstNode) and not isinstance(node, ast.SelectQuery):
        yield node
        for part in node._key():
            yield from _walk(part)


def collect_names(node):
    """All :class:`~repro.sql.ast.Name` nodes inside an AST expression."""
    return [n for n in _walk(node) if isinstance(n, ast.Name)]


def collect_aggregates(node):
    """All aggregate :class:`~repro.sql.ast.FuncCall` nodes inside *node*."""
    return [n for n in _walk(node) if isinstance(n, ast.FuncCall)]
