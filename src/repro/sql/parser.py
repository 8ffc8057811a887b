"""Recursive-descent parser for the SQL dialect.

Entry points:

- :func:`parse_select` — parse exactly one SELECT statement.
- :func:`parse` — parse any supported statement (SELECT / CREATE TABLE /
  DROP TABLE / INSERT / DELETE), as used by the REPL.
"""

from repro.relational.types import DataType
from repro.sql.ast import (
    Analyze,
    Arith,
    Between,
    Cmp,
    Const,
    CreateIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
    Exists,
    InSelect,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Like,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Name,
    OrderItem,
    SelectItem,
    SelectQuery,
    Star,
    TableRef,
)
from repro.sql.lexer import TokenType, tokenize
from repro.util.errors import SqlSyntaxError

AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

_TYPE_KEYWORDS = {
    "int": DataType.INT,
    "integer": DataType.INT,
    "float": DataType.FLOAT,
    "real": DataType.FLOAT,
    "varchar": DataType.STR,
    "string": DataType.STR,
    "date": DataType.DATE,
    "bool": DataType.BOOL,
}


def parse_select(text):
    """Parse *text* as a single SELECT statement and return its AST."""
    statement = parse(text)
    if not isinstance(statement, SelectQuery):
        raise SqlSyntaxError("expected a SELECT statement")
    return statement


def parse(text):
    """Parse one statement of any supported kind."""
    parser = _Parser(text)
    statement = parser.statement()
    parser.expect_end()
    return statement


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing -------------------------------------------------------

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def accept_keyword(self, *words):
        token = self.current
        if token.type is TokenType.KEYWORD and token.value in words:
            return self.advance()
        return None

    def accept_symbol(self, symbol):
        if self.current.is_symbol(symbol):
            return self.advance()
        return None

    def expect_keyword(self, word):
        token = self.accept_keyword(word)
        if token is None:
            self.fail("expected keyword {!r}".format(word.upper()))
        return token

    def expect_symbol(self, symbol):
        token = self.accept_symbol(symbol)
        if token is None:
            self.fail("expected {!r}".format(symbol))
        return token

    def expect_ident(self):
        if self.current.type is TokenType.IDENT:
            return self.advance().value
        self.fail("expected identifier")

    def expect_end(self):
        self.accept_symbol(";")
        if self.current.type is not TokenType.EOF:
            self.fail("unexpected trailing input")

    def fail(self, message):
        raise SqlSyntaxError(
            "{} (got {!r})".format(message, self.current.value),
            position=self.current.position,
            text=self.text,
        )

    # -- statements -----------------------------------------------------------

    def statement(self):
        if self.current.is_keyword("select"):
            return self.select_query()
        if self.current.is_keyword("create"):
            return self.create_table()
        if self.current.is_keyword("drop"):
            return self.drop_table()
        if self.current.is_keyword("insert"):
            return self.insert()
        if self.current.is_keyword("delete"):
            return self.delete()
        if self.current.is_keyword("analyze"):
            self.advance()
            table = None
            if self.current.type is TokenType.IDENT:
                table = self.advance().value
            return Analyze(table)
        self.fail("expected a statement")

    def select_query(self):
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct") is not None
        select_items = self.select_list()
        self.expect_keyword("from")
        from_tables = self.from_list()
        where = None
        if self.accept_keyword("where"):
            where = self.expression()
        group_by = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by = self.expression_list()
        having = None
        if self.accept_keyword("having"):
            having = self.expression()
        order_by = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by = self.order_list()
        limit = None
        if self.accept_keyword("limit"):
            token = self.advance()
            if token.type is not TokenType.INT:
                self.fail("LIMIT requires an integer")
            limit = token.value
        return SelectQuery(
            select_items,
            from_tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def create_table(self):
        self.expect_keyword("create")
        if self.accept_keyword("index"):
            name = self.expect_ident()
            self.expect_keyword("on")
            table = self.expect_ident()
            self.expect_symbol("(")
            column = self.expect_ident()
            self.expect_symbol(")")
            return CreateIndex(name, table, column)
        self.expect_keyword("table")
        table = self.expect_ident()
        self.expect_symbol("(")
        columns = []
        while True:
            name = self.expect_ident()
            type_token = self.advance()
            if (
                type_token.type is not TokenType.IDENT
                or type_token.value.lower() not in _TYPE_KEYWORDS
            ):
                self.fail("expected a column type")
            data_type = _TYPE_KEYWORDS[type_token.value.lower()]
            if data_type is DataType.STR and self.accept_symbol("("):
                self.advance()  # ignore VARCHAR length
                self.expect_symbol(")")
            columns.append((name, data_type))
            if not self.accept_symbol(","):
                break
        self.expect_symbol(")")
        return CreateTable(table, columns)

    def drop_table(self):
        self.expect_keyword("drop")
        if self.accept_keyword("index"):
            return DropIndex(self.expect_ident())
        self.expect_keyword("table")
        return DropTable(self.expect_ident())

    def insert(self):
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_ident()
        self.expect_keyword("values")
        rows = []
        while True:
            self.expect_symbol("(")
            row = []
            while True:
                row.append(self.literal_value())
                if not self.accept_symbol(","):
                    break
            self.expect_symbol(")")
            rows.append(tuple(row))
            if not self.accept_symbol(","):
                break
        return Insert(table, rows)

    def delete(self):
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_ident()
        where = None
        if self.accept_keyword("where"):
            where = self.expression()
        return Delete(table, where)

    def literal_value(self):
        negative = self.accept_symbol("-") is not None
        token = self.advance()
        if token.type in (TokenType.INT, TokenType.FLOAT):
            return -token.value if negative else token.value
        if negative:
            self.fail("expected a number after '-'")
        if token.type is TokenType.STRING:
            return token.value
        if token.type is TokenType.KEYWORD and token.value == "null":
            return None
        if token.type is TokenType.KEYWORD and token.value in ("true", "false"):
            return token.value == "true"
        self.fail("expected a literal value")

    # -- clauses ----------------------------------------------------------------

    def select_list(self):
        items = []
        while True:
            items.append(self.select_item())
            if not self.accept_symbol(","):
                break
        return items

    def select_item(self):
        if self.accept_symbol("*"):
            return SelectItem(Star())
        # "alias.*" needs two-token lookahead before falling into expressions.
        if (
            self.current.type is TokenType.IDENT
            and self.tokens[self.pos + 1].is_symbol(".")
            and self.tokens[self.pos + 2].is_symbol("*")
        ):
            qualifier = self.advance().value
            self.advance()
            self.advance()
            return SelectItem(Star(qualifier))
        expr = self.expression()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return SelectItem(expr, alias)

    def from_list(self):
        tables = []
        while True:
            table = self.expect_ident()
            alias = None
            if self.accept_keyword("as"):
                alias = self.expect_ident()
            elif self.current.type is TokenType.IDENT:
                alias = self.advance().value
            tables.append(TableRef(table, alias))
            if not self.accept_symbol(","):
                break
        return tables

    def order_list(self):
        items = []
        while True:
            expr = self.expression()
            descending = False
            if self.accept_keyword("desc"):
                descending = True
            elif self.accept_keyword("asc"):
                descending = False
            items.append(OrderItem(expr, descending))
            if not self.accept_symbol(","):
                break
        return items

    def expression_list(self):
        items = [self.expression()]
        while self.accept_symbol(","):
            items.append(self.expression())
        return items

    # -- expressions --------------------------------------------------------------

    def expression(self):
        return self.or_expr()

    def or_expr(self):
        terms = [self.and_expr()]
        while self.accept_keyword("or"):
            terms.append(self.and_expr())
        if len(terms) == 1:
            return terms[0]
        return LogicalOr(terms)

    def and_expr(self):
        terms = [self.not_expr()]
        while self.accept_keyword("and"):
            terms.append(self.not_expr())
        if len(terms) == 1:
            return terms[0]
        return LogicalAnd(terms)

    def not_expr(self):
        if self.accept_keyword("not"):
            return LogicalNot(self.not_expr())
        if self.current.is_keyword("exists"):
            self.advance()
            self.expect_symbol("(")
            subquery = self.select_query()
            self.expect_symbol(")")
            return Exists(subquery)
        return self.comparison()

    def comparison(self):
        left = self.additive()
        for op in ("<=", ">=", "<>", "!=", "=", "<", ">"):
            if self.accept_symbol(op):
                right = self.additive()
                return Cmp(op, left, right)
        negated = self.accept_keyword("not") is not None
        if self.accept_keyword("like"):
            token = self.advance()
            if token.type is not TokenType.STRING:
                self.fail("LIKE requires a string pattern")
            return Like(left, token.value, negated=negated)
        if self.accept_keyword("in"):
            self.expect_symbol("(")
            if self.current.is_keyword("select"):
                subquery = self.select_query()
                self.expect_symbol(")")
                return InSelect(left, subquery, negated=negated)
            values = [self.literal_value()]
            while self.accept_symbol(","):
                values.append(self.literal_value())
            self.expect_symbol(")")
            return InList(left, values, negated=negated)
        if self.accept_keyword("between"):
            low = self.additive()
            self.expect_keyword("and")
            high = self.additive()
            return Between(left, low, high, negated=negated)
        if negated:
            self.fail("expected LIKE, IN, or BETWEEN after NOT")
        if self.accept_keyword("is"):
            is_negated = self.accept_keyword("not") is not None
            self.expect_keyword("null")
            return IsNull(left, negated=is_negated)
        return left

    def additive(self):
        expr = self.multiplicative()
        while True:
            if self.accept_symbol("+"):
                expr = Arith("+", expr, self.multiplicative())
            elif self.accept_symbol("-"):
                expr = Arith("-", expr, self.multiplicative())
            else:
                return expr

    def multiplicative(self):
        expr = self.unary()
        while True:
            if self.accept_symbol("*"):
                expr = Arith("*", expr, self.unary())
            elif self.accept_symbol("/"):
                expr = Arith("/", expr, self.unary())
            else:
                return expr

    def unary(self):
        if self.accept_symbol("-"):
            operand = self.unary()
            if isinstance(operand, Const) and isinstance(operand.value, (int, float)):
                return Const(-operand.value)
            return Arith("-", Const(0), operand)
        return self.primary()

    def primary(self):
        token = self.current
        if token.type in (TokenType.INT, TokenType.FLOAT, TokenType.STRING):
            self.advance()
            return Const(token.value)
        if token.type is TokenType.KEYWORD and token.value == "null":
            self.advance()
            return Const(None)
        if token.type is TokenType.KEYWORD and token.value in ("true", "false"):
            self.advance()
            return Const(token.value == "true")
        if self.accept_symbol("("):
            expr = self.expression()
            self.expect_symbol(")")
            return expr
        if token.type is TokenType.IDENT:
            name = self.advance().value
            if name.upper() in AGGREGATE_FUNCTIONS and self.current.is_symbol("("):
                return self.aggregate_call(name)
            if self.accept_symbol("."):
                column = self.expect_ident()
                return Name(column, qualifier=name)
            return Name(name)
        self.fail("expected an expression")

    def aggregate_call(self, func):
        self.expect_symbol("(")
        if self.accept_symbol("*"):
            self.expect_symbol(")")
            return FuncCall(func, star=True)
        argument = self.expression()
        self.expect_symbol(")")
        return FuncCall(func, argument=argument)
