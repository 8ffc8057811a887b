"""SQL lexer.

Produces a flat token stream with source positions (for caret diagnostics).
Keywords are case-insensitive; identifiers keep their original spelling.
String literals use single quotes with ``''`` as the escape for a quote.
"""

import enum

from repro.util.errors import SqlSyntaxError


class TokenType(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "eof"


# Type names (int, date, ...) are deliberately NOT keywords: they collide
# with legitimate column names (WebPages has a Date column).  CREATE TABLE
# recognizes them as plain identifiers.
KEYWORDS = {
    "select", "distinct", "from", "where", "and", "or", "not",
    "order", "group", "by", "asc", "desc", "limit", "having", "as",
    "insert", "into", "values", "create", "table", "drop", "delete",
    "null", "like", "in", "is", "true", "false", "between", "index", "on",
    "exists", "analyze",
}

# Multi-character symbols must be listed before their prefixes.
SYMBOLS = ["<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", "*", "+", "-", "/", ";", "%"]


class Token:
    __slots__ = ("type", "value", "position")

    def __init__(self, token_type, value, position):
        self.type = token_type
        self.value = value
        self.position = position

    def is_keyword(self, word):
        """Is this the keyword *word* (given in lower case, as KEYWORDS is)?"""
        return self.type is TokenType.KEYWORD and self.value == word

    def is_symbol(self, symbol):
        return self.type is TokenType.SYMBOL and self.value == symbol

    def __repr__(self):
        return "Token({}, {!r})".format(self.type.value, self.value)


def tokenize(text):
    """Tokenize *text*, returning a list ending in an EOF token."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text.startswith("--", i):  # line comment
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":
            value, i = _read_string(text, i)
            tokens.append(Token(TokenType.STRING, value, i))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            token, i = _read_number(text, i)
            tokens.append(token)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word.lower() in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, word.lower(), start))
            else:
                tokens.append(Token(TokenType.IDENT, word, start))
            continue
        for symbol in SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(Token(TokenType.SYMBOL, symbol, i))
                i += len(symbol)
                break
        else:
            raise SqlSyntaxError(
                "unexpected character {!r}".format(ch), position=i, text=text
            )
    tokens.append(Token(TokenType.EOF, None, n))
    return tokens


def _read_string(text, start):
    i = start + 1
    parts = []
    while True:
        if i >= len(text):
            raise SqlSyntaxError(
                "unterminated string literal", position=start, text=text
            )
        ch = text[i]
        if ch == "'":
            if text.startswith("''", i):
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1


def _read_number(text, start):
    i = start
    n = len(text)
    seen_dot = False
    while i < n and (text[i].isdigit() or (text[i] == "." and not seen_dot)):
        if text[i] == ".":
            # A dot not followed by a digit terminates the number (so that
            # "1.foo" lexes as INT DOT IDENT rather than a malformed float).
            if i + 1 >= n or not text[i + 1].isdigit():
                break
            seen_dot = True
        i += 1
    literal = text[start:i]
    if seen_dot:
        return Token(TokenType.FLOAT, float(literal), start), i
    return Token(TokenType.INT, int(literal), start), i
