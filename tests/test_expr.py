"""Bound expression evaluation, three-valued logic, placeholder guards."""

import inspect

import pytest

from repro.relational.expr import (
    BinaryOp,
    BoundExpr,
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
    conjunction_terms,
    make_conjunction,
)
from repro.relational.placeholder import Placeholder, is_placeholder, row_pending_calls
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.util.errors import PlaceholderError, TypeMismatchError

ROW = ("Colorado", 3971, 109)
SCHEMA = Schema(
    [
        Column("Name", DataType.STR, "S"),
        Column("Population", DataType.INT, "S"),
        Column("Count", DataType.INT, "W"),
    ]
)


class TestLiteralAndColumnRef:
    def test_literal(self):
        assert Literal(5).eval(ROW) == 5

    def test_literal_sql_escapes_quotes(self):
        assert Literal("O'Brien").sql() == "'O''Brien'"

    def test_column_ref(self):
        assert ColumnRef(0).eval(ROW) == "Colorado"

    def test_column_ref_sql_with_schema(self):
        assert ColumnRef(1).sql(SCHEMA) == "S.Population"

    def test_remap(self):
        assert ColumnRef(1).remap({1: 4}).index == 4

    def test_referenced_columns(self):
        expr = BinaryOp("/", ColumnRef(2), ColumnRef(1))
        assert expr.referenced_columns() == {1, 2}


class TestArithmetic:
    def test_division_is_float(self):
        expr = BinaryOp("/", ColumnRef(2), ColumnRef(1))
        assert expr.eval(ROW) == pytest.approx(109 / 3971)
        assert expr.result_type(SCHEMA) is DataType.FLOAT

    def test_division_by_zero_is_null(self):
        assert BinaryOp("/", Literal(1), Literal(0)).eval(()) is None

    def test_null_propagates(self):
        assert BinaryOp("+", Literal(None), Literal(1)).eval(()) is None

    def test_add_sub_mul(self):
        assert BinaryOp("+", Literal(2), Literal(3)).eval(()) == 5
        assert BinaryOp("-", Literal(2), Literal(3)).eval(()) == -1
        assert BinaryOp("*", Literal(2), Literal(3)).eval(()) == 6

    def test_unknown_operator(self):
        with pytest.raises(TypeMismatchError):
            BinaryOp("%", Literal(1), Literal(2))

    def test_string_arithmetic_fails_typing(self):
        expr = BinaryOp("+", ColumnRef(0), Literal(1))
        with pytest.raises(TypeMismatchError):
            expr.result_type(SCHEMA)


class TestComparison:
    @pytest.mark.parametrize(
        "op,expected",
        [("=", False), ("!=", True), ("<", True), ("<=", True), (">", False), (">=", False)],
    )
    def test_operators(self, op, expected):
        assert Comparison(op, Literal(1), Literal(2)).eval(()) is expected

    def test_diamond_normalized(self):
        assert Comparison("<>", Literal(1), Literal(2)).op == "!="

    def test_null_comparison_is_unknown(self):
        assert Comparison("=", Literal(None), Literal(1)).eval(()) is None

    def test_string_number_comparison_rejected(self):
        with pytest.raises(TypeMismatchError):
            Comparison("=", ColumnRef(0), Literal(1)).eval(ROW)

    def test_is_equijoin(self):
        assert Comparison("=", ColumnRef(0), ColumnRef(1)).is_equijoin()
        assert not Comparison("<", ColumnRef(0), ColumnRef(1)).is_equijoin()
        assert not Comparison("=", ColumnRef(0), Literal(1)).is_equijoin()


class TestLogic:
    def test_conjunction_short_circuit_false(self):
        expr = Conjunction([Literal(False), Literal(None)])
        assert expr.eval(()) is False

    def test_conjunction_null(self):
        assert Conjunction([Literal(True), Literal(None)]).eval(()) is None

    def test_conjunction_true(self):
        assert Conjunction([Literal(True), Literal(True)]).eval(()) is True

    def test_disjunction_true_wins_over_null(self):
        assert Disjunction([Literal(None), Literal(True)]).eval(()) is True

    def test_disjunction_null(self):
        assert Disjunction([Literal(False), Literal(None)]).eval(()) is None

    def test_negation(self):
        assert Negation(Literal(True)).eval(()) is False
        assert Negation(Literal(None)).eval(()) is None

    def test_empty_conjunction_rejected(self):
        with pytest.raises(TypeMismatchError):
            Conjunction([])

    def test_conjunction_terms_flattens(self):
        inner = Conjunction([Literal(True), Literal(False)])
        outer = Conjunction([inner, Literal(None)])
        assert len(conjunction_terms(outer)) == 3

    def test_make_conjunction(self):
        assert make_conjunction([]) is None
        single = Literal(True)
        assert make_conjunction([single]) is single
        assert isinstance(make_conjunction([Literal(True), Literal(False)]), Conjunction)


class TestPlaceholders:
    def test_placeholder_identity(self):
        p = Placeholder(7, "count")
        assert is_placeholder(p)
        assert p == Placeholder(7, "count")
        assert p != Placeholder(8, "count")

    def test_row_pending_calls(self):
        row = ("x", Placeholder(1, "count"), Placeholder(2, "url"), Placeholder(1, "rank"))
        assert row_pending_calls(row) == {1, 2}

    def test_column_ref_guards_placeholders(self):
        row = ("x", Placeholder(3, "count"), 1)
        with pytest.raises(PlaceholderError):
            ColumnRef(1).eval(row)

    def test_raw_access_allows_placeholders(self):
        row = ("x", Placeholder(3, "count"), 1)
        assert is_placeholder(ColumnRef(1).raw(row))

    def test_comparison_over_placeholder_raises(self):
        row = (Placeholder(1, "count"),)
        with pytest.raises(PlaceholderError):
            Comparison("=", ColumnRef(0), Literal(1)).eval(row)


def _expression_classes(base=BoundExpr):
    found = []
    for cls in base.__subclasses__():
        found += [cls] + _expression_classes(cls)
    return found


#: One instance of every expression class, with the columns it reads
#: (``logical`` is opaque to the tree methods, so any object stands in
#: for a subquery's tree).
SAMPLES = [
    (Literal("x"), set()),
    (ColumnRef(1, "S.Population"), {1}),
    (BinaryOp("+", ColumnRef(1), Literal(1)), {1}),
    (Comparison("<>", ColumnRef(1), ColumnRef(2)), {1, 2}),
    (Conjunction([Comparison("=", ColumnRef(0), Literal("x")), NullCheck(ColumnRef(2))]), {0, 2}),
    (Disjunction([Literal(True), Negation(Comparison(">", ColumnRef(2), Literal(3)))]), {2}),
    (Negation(LikePredicate(ColumnRef(0), "C%")), {0}),
    (LikePredicate(ColumnRef(0), "C%", negated=True), {0}),
    (NullCheck(ColumnRef(2), negated=True), {2}),
    (InSubqueryPredicate(ColumnRef(1), object(), negated=True), {1}),
    (ExistsPredicate(object()), set()),
]
IDENTITY = {i: i for i in range(3)}


class TestFieldProtocol:
    """The tree methods come from each class's ``_fields``."""

    def test_every_class_has_a_sample(self):
        assert {type(sample) for sample, _ in SAMPLES} == set(_expression_classes())

    @pytest.mark.parametrize("cls", _expression_classes(), ids=lambda c: c.__name__)
    def test_fields_are_the_constructor_parameters(self, cls):
        assert cls._fields == tuple(inspect.signature(cls).parameters)

    def test_only_column_ref_and_subqueries_keep_their_own_methods(self):
        own = {
            name: sorted(cls.__name__ for cls in _expression_classes() if name in vars(cls))
            for name in ("children", "referenced_columns", "remap", "__eq__", "__hash__")
        }
        subqueries = ["ColumnRef", "ExistsPredicate", "InSubqueryPredicate"]
        assert own == {
            "children": [],
            "referenced_columns": ["ColumnRef"],
            "remap": ["ColumnRef"],
            "__eq__": subqueries,
            "__hash__": subqueries,
        }

    @pytest.mark.parametrize("sample", [sample for sample, _ in SAMPLES], ids=repr)
    def test_identity_remap_is_an_equal_copy(self, sample):
        copy = sample.remap(IDENTITY)
        assert type(copy) is type(sample)
        assert copy.children() == sample.children()
        if not isinstance(sample, (InSubqueryPredicate, ExistsPredicate)):
            assert copy == sample and hash(copy) == hash(sample)
            assert copy.sql() == sample.sql()

    @pytest.mark.parametrize("sample, columns", SAMPLES, ids=repr)
    def test_referenced_columns_are_the_union_over_children(self, sample, columns):
        assert sample.referenced_columns() == columns
        if not isinstance(sample, ColumnRef):
            union = set().union(*(child.referenced_columns() for child in sample.children()))
            assert union == columns
        shifted = sample.remap({i: i + 3 for i in range(3)})
        assert shifted.referenced_columns() == {i + 3 for i in columns}

    def test_equality_is_by_class_and_fields(self):
        assert Comparison("<>", ColumnRef(1), Literal(2)) == Comparison(
            "!=", ColumnRef(1, "other display"), Literal(2)
        )
        assert Comparison("<", ColumnRef(1), Literal(2)) != BinaryOp(
            "+", ColumnRef(1), Literal(2)
        )
        assert LikePredicate(ColumnRef(0), "C%") != LikePredicate(ColumnRef(0), "C%", True)
        exists = ExistsPredicate(object())
        assert exists == exists and exists != exists.remap(IDENTITY)
