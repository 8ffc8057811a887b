"""Abstract syntax tree for the SQL dialect.

These nodes are *unbound*: column references are ``(qualifier, name)`` pairs
that the planner resolves against schemas.  Every node renders back to SQL
via ``sql()`` (useful for diagnostics and round-trip tests).
"""


class AstNode:
    def sql(self):
        raise NotImplementedError

    def __repr__(self):
        return "{}<{}>".format(type(self).__name__, self.sql())

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self), self._key()))

    def _key(self):
        raise NotImplementedError


# -- expressions -------------------------------------------------------------


class Name(AstNode):
    """A column reference, optionally qualified: ``States.Name`` or ``Count``."""

    def __init__(self, name, qualifier=None):
        self.name = name
        self.qualifier = qualifier

    def sql(self):
        if self.qualifier:
            return "{}.{}".format(self.qualifier, self.name)
        return self.name

    def _key(self):
        return (self.name.lower(), self.qualifier.lower() if self.qualifier else None)


class Const(AstNode):
    """A literal: integer, float, string, boolean, or NULL."""

    def __init__(self, value):
        self.value = value

    def sql(self):
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            return "'{}'".format(self.value.replace("'", "''"))
        return str(self.value)

    def _key(self):
        return (type(self.value), self.value)


class Arith(AstNode):
    """Arithmetic: ``+ - * /``."""

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def sql(self):
        return "({} {} {})".format(self.left.sql(), self.op, self.right.sql())

    def _key(self):
        return (self.op, self.left, self.right)


class Cmp(AstNode):
    """Comparison: ``= <> != < <= > >=``."""

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def sql(self):
        return "{} {} {}".format(self.left.sql(), self.op, self.right.sql())

    def _key(self):
        return (self.op, self.left, self.right)


class LogicalAnd(AstNode):
    def __init__(self, terms):
        self.terms = tuple(terms)

    def sql(self):
        return " AND ".join(t.sql() for t in self.terms)

    def _key(self):
        return self.terms


class LogicalOr(AstNode):
    def __init__(self, terms):
        self.terms = tuple(terms)

    def sql(self):
        return " OR ".join("({})".format(t.sql()) for t in self.terms)

    def _key(self):
        return self.terms


class LogicalNot(AstNode):
    def __init__(self, term):
        self.term = term

    def sql(self):
        return "NOT ({})".format(self.term.sql())

    def _key(self):
        return (self.term,)


class FuncCall(AstNode):
    """Aggregate call: ``COUNT(*)``, ``SUM(expr)``, ``AVG/MIN/MAX``."""

    def __init__(self, func, argument=None, star=False):
        self.func = func.upper()
        self.argument = argument
        self.star = star

    def sql(self):
        inner = "*" if self.star else self.argument.sql()
        return "{}({})".format(self.func, inner)

    def _key(self):
        return (self.func, self.argument, self.star)


class Star(AstNode):
    """``*`` or ``alias.*`` in a select list."""

    def __init__(self, qualifier=None):
        self.qualifier = qualifier

    def sql(self):
        if self.qualifier:
            return "{}.*".format(self.qualifier)
        return "*"

    def _key(self):
        return (self.qualifier,)


# -- query structure ----------------------------------------------------------


class SelectItem(AstNode):
    """One select-list entry: an expression with an optional output alias."""

    def __init__(self, expr, alias=None):
        self.expr = expr
        self.alias = alias

    def sql(self):
        if self.alias:
            return "{} As {}".format(self.expr.sql(), self.alias)
        return self.expr.sql()

    def _key(self):
        return (self.expr, self.alias.lower() if self.alias else None)


class TableRef(AstNode):
    """A FROM-list entry: table name plus optional alias.

    ``WebPages_AV AV`` parses to ``TableRef("WebPages_AV", "AV")``.
    """

    def __init__(self, table, alias=None):
        self.table = table
        self.alias = alias

    @property
    def binding_name(self):
        """The name other clauses use to refer to this relation."""
        return self.alias or self.table

    def sql(self):
        if self.alias:
            return "{} {}".format(self.table, self.alias)
        return self.table

    def _key(self):
        return (self.table.lower(), self.alias.lower() if self.alias else None)


class OrderItem(AstNode):
    def __init__(self, expr, descending=False):
        self.expr = expr
        self.descending = descending

    def sql(self):
        return "{}{}".format(self.expr.sql(), " Desc" if self.descending else "")

    def _key(self):
        return (self.expr, self.descending)


class SelectQuery(AstNode):
    """A parsed SELECT statement."""

    def __init__(
        self,
        select_items,
        from_tables,
        where=None,
        group_by=None,
        having=None,
        order_by=None,
        limit=None,
        distinct=False,
    ):
        self.select_items = list(select_items)
        self.from_tables = list(from_tables)
        self.where = where
        self.group_by = list(group_by) if group_by else []
        self.having = having
        self.order_by = list(order_by) if order_by else []
        self.limit = limit
        self.distinct = distinct

    def sql(self):
        parts = ["Select "]
        if self.distinct:
            parts.append("Distinct ")
        parts.append(", ".join(item.sql() for item in self.select_items))
        parts.append(" From ")
        parts.append(", ".join(t.sql() for t in self.from_tables))
        if self.where is not None:
            parts.append(" Where ")
            parts.append(self.where.sql())
        if self.group_by:
            parts.append(" Group By ")
            parts.append(", ".join(e.sql() for e in self.group_by))
        if self.having is not None:
            parts.append(" Having ")
            parts.append(self.having.sql())
        if self.order_by:
            parts.append(" Order By ")
            parts.append(", ".join(o.sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(" Limit {}".format(self.limit))
        return "".join(parts)

    def _key(self):
        return (
            tuple(self.select_items),
            tuple(self.from_tables),
            self.where,
            tuple(self.group_by),
            self.having,
            tuple(self.order_by),
            self.limit,
            self.distinct,
        )


# -- DDL / DML ----------------------------------------------------------------


class CreateTable(AstNode):
    """``CREATE TABLE name (col type, ...)``."""

    def __init__(self, table, columns):
        self.table = table
        self.columns = list(columns)  # (name, DataType)

    _TYPE_NAMES = {"str": "string"}  # DataType.value -> SQL keyword

    def sql(self):
        cols = ", ".join(
            "{} {}".format(n, self._TYPE_NAMES.get(t.value, t.value))
            for n, t in self.columns
        )
        return "Create Table {} ({})".format(self.table, cols)

    def _key(self):
        return (self.table.lower(), tuple(self.columns))


class DropTable(AstNode):
    def __init__(self, table):
        self.table = table

    def sql(self):
        return "Drop Table {}".format(self.table)

    def _key(self):
        return (self.table.lower(),)


class Insert(AstNode):
    """``INSERT INTO name VALUES (...), (...)``."""

    def __init__(self, table, rows):
        self.table = table
        self.rows = [tuple(r) for r in rows]

    def sql(self):
        values = ", ".join(
            "({})".format(", ".join(Const(v).sql() for v in row)) for row in self.rows
        )
        return "Insert Into {} Values {}".format(self.table, values)

    def _key(self):
        return (self.table.lower(), tuple(self.rows))


class Delete(AstNode):
    """``DELETE FROM name [WHERE expr]``."""

    def __init__(self, table, where=None):
        self.table = table
        self.where = where

    def sql(self):
        suffix = " Where {}".format(self.where.sql()) if self.where else ""
        return "Delete From {}{}".format(self.table, suffix)

    def _key(self):
        return (self.table.lower(), self.where)


class Like(AstNode):
    """``expr [NOT] LIKE 'pattern'`` with SQL ``%``/``_`` wildcards."""

    def __init__(self, expr, pattern, negated=False):
        self.expr = expr
        self.pattern = pattern
        self.negated = negated

    def sql(self):
        return "{} {}Like {}".format(
            self.expr.sql(), "Not " if self.negated else "", Const(self.pattern).sql()
        )

    def _key(self):
        return (self.expr, self.pattern, self.negated)


class InList(AstNode):
    """``expr [NOT] IN (v1, v2, ...)`` over literal values."""

    def __init__(self, expr, values, negated=False):
        self.expr = expr
        self.values = tuple(values)
        self.negated = negated

    def sql(self):
        rendered = ", ".join(Const(v).sql() for v in self.values)
        return "{} {}In ({})".format(
            self.expr.sql(), "Not " if self.negated else "", rendered
        )

    def _key(self):
        return (self.expr, self.values, self.negated)


class Between(AstNode):
    """``expr [NOT] BETWEEN low AND high`` (inclusive)."""

    def __init__(self, expr, low, high, negated=False):
        self.expr = expr
        self.low = low
        self.high = high
        self.negated = negated

    def sql(self):
        return "{} {}Between {} And {}".format(
            self.expr.sql(), "Not " if self.negated else "",
            self.low.sql(), self.high.sql(),
        )

    def _key(self):
        return (self.expr, self.low, self.high, self.negated)


class IsNull(AstNode):
    """``expr IS [NOT] NULL``."""

    def __init__(self, expr, negated=False):
        self.expr = expr
        self.negated = negated

    def sql(self):
        return "{} Is {}Null".format(self.expr.sql(), "Not " if self.negated else "")

    def _key(self):
        return (self.expr, self.negated)


class CreateIndex(AstNode):
    """``CREATE INDEX name ON table (column)``."""

    def __init__(self, name, table, column):
        self.name = name
        self.table = table
        self.column = column

    def sql(self):
        return "Create Index {} On {} ({})".format(self.name, self.table, self.column)

    def _key(self):
        return (self.name.lower(), self.table.lower(), self.column.lower())


class DropIndex(AstNode):
    """``DROP INDEX name``."""

    def __init__(self, name):
        self.name = name

    def sql(self):
        return "Drop Index {}".format(self.name)

    def _key(self):
        return (self.name.lower(),)


class InSelect(AstNode):
    """``expr [NOT] IN (SELECT ...)`` — an uncorrelated subquery."""

    def __init__(self, expr, subquery, negated=False):
        self.expr = expr
        self.subquery = subquery
        self.negated = negated

    def sql(self):
        return "{} {}In ({})".format(
            self.expr.sql(), "Not " if self.negated else "", self.subquery.sql()
        )

    def _key(self):
        return (self.expr, self.subquery, self.negated)


class Exists(AstNode):
    """``EXISTS (SELECT ...)`` — an uncorrelated existence test."""

    def __init__(self, subquery):
        self.subquery = subquery

    def sql(self):
        return "Exists ({})".format(self.subquery.sql())

    def _key(self):
        return (self.subquery,)


class Analyze(AstNode):
    """``ANALYZE [table]`` — report each table's row and column counts."""

    def __init__(self, table=None):
        self.table = table

    def sql(self):
        return "Analyze{}".format(" " + self.table if self.table else "")

    def _key(self):
        return (self.table.lower() if self.table else None,)
