"""The kernels' per-batch type proof is exact.

A list column whose value types lie within ``{str, NoneType}`` is proven
a string column, within ``{bool, NoneType}`` a bool column, and within
``{int, float, NoneType}`` a number column (nullable only if it holds a
``None``); each runs unguarded text.  Any other list, a placeholder in
it included, keeps every guard.  Over each kind of list column, the
``values``, ``selection`` and ``groups`` kernels give what row-at-a-time
``eval`` gives: the same values, or the same error raised at the same
row (each failing row's message names its own value).
"""

import pytest

import repro.relational.expr as expr_module
from repro.exec import Aggregate, AggregateSpec, RowsScan, collect
from repro.relational.batch import ColumnBatch
from repro.relational.expr import (
    BinaryOp,
    ColumnRef,
    Comparison,
    Conjunction,
    Literal,
    Negation,
    NullCheck,
    compile_column_predicate,
)
from repro.relational.placeholder import Placeholder
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from test_column_batch import _assert_exact, _outcome
from test_generated_loops import _out, reference_aggregate

#: kind -> (the column's values, the proof the kernel must draw from them:
#: ``{0: (may hold NULL, kind)}`` for a proven column, else nothing).
KINDS = {
    "str": (["b", "a", "c", "a", "", "b"], {0: (False, "str")}),
    "str_and_null": (["b", None, "a", "c", None, "a"], {0: (True, "str")}),
    "str_and_placeholder": (["b", "a", Placeholder(2, "value"), "c", Placeholder(4, "value")], {}),
    "str_and_int": (["b", "a", 2, "c", 4], {}),
    "bool": ([True, False, True, True], {0: (False, "bool")}),
    "bool_and_null": ([True, False, None, True], {0: (True, "bool")}),
    "int": ([3, 0, -2, 1], {0: (False, "num")}),
    "int_and_null": ([3, None, 0, -2, None], {0: (True, "num")}),
    "int_float_and_null": ([1, 2.5, None, 0.0, -1], {0: (True, "num")}),
    "bool_and_int": ([True, 2, None, False], {}),
    "int_and_placeholder": ([1, Placeholder(2, "value"), None, 0], {}),
    "bool_and_placeholder": ([True, Placeholder(2, "value"), False], {}),
}

C0 = ColumnRef(0, "s")
EXPRESSIONS = {
    "column": C0,
    "equals_literal": Comparison("=", C0, Literal("a")),
    "less_than_column": Comparison("<", C0, ColumnRef(1, "t")),
    "versus_number": Comparison(">", C0, Literal(1)),
    "concatenation": BinaryOp("+", C0, Literal("x")),
    "negation": Negation(C0),
    "conjunction": Conjunction([Comparison("<>", C0, Literal("c")), NullCheck(C0, negated=True)]),
    "truth": Conjunction([C0, NullCheck(C0, negated=True)]),
    "product": BinaryOp("*", C0, Literal(2)),
    "quotient": BinaryOp("/", Literal(6), C0),
}

SCHEMA = Schema([Column("s", DataType.STR, "t"), Column("t", DataType.STR, "t")])


def _batch(values):
    """Column 0 the *values* as a list; column 1 a clean string column."""
    other = ["b"] * len(values)
    return ColumnBatch.from_columns(SCHEMA, [list(values), other], len(values))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", EXPRESSIONS)
def test_values_and_selection_match_the_row_loop(kind, name):
    _assert_exact(EXPRESSIONS[name], _batch(KINDS[kind][0]))


@pytest.mark.parametrize("kind", KINDS)
def test_the_proof_is_drawn_from_the_value_types(kind, monkeypatch):
    values, proof = KINDS[kind]
    drawn = []
    generate = expr_module._generate

    def recording(expr, shape, proven=None):
        drawn.append(proven)
        return generate(expr, shape, proven)

    monkeypatch.setattr(expr_module, "_generate", recording)
    _outcome(lambda: compile_column_predicate(EXPRESSIONS["equals_literal"])(_batch(values)))
    assert drawn == [proof]


SPECS = {
    "count_star": [AggregateSpec("COUNT", star=True)],
    "count_and_max": [AggregateSpec("COUNT", C0), AggregateSpec("MAX", C0)],
    "min_of_other": [AggregateSpec("MIN", ColumnRef(1, "t")), AggregateSpec("COUNT", star=True)],
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("specs", SPECS)
@pytest.mark.parametrize("keys", [[C0], [C0, ColumnRef(1, "t")], []], ids=["lone", "pair", "none"])
def test_groups_match_the_row_loop(kind, specs, keys):
    rows = [(value, "b") for value in KINDS[kind][0]]
    specs = SPECS[specs]
    for batch_size in (1, 3, 256):
        plan = Aggregate(RowsScan(SCHEMA, rows), keys, specs, _out(keys, specs))
        plan.batch_size = plan.child.batch_size = batch_size
        assert _outcome(lambda: collect(plan)) == _outcome(
            lambda: reference_aggregate(rows, keys, specs)
        )


def test_a_proof_admitting_placeholders_is_caught(monkeypatch):
    """The exactness check above would catch a proof that let a
    placeholder through: under that mutant the kernels read a pending
    value as a number and differ from ``eval``."""
    loose = tuple(
        (allowed | {Placeholder}, kind) if kind == "num" else (allowed, kind)
        for allowed, kind in expr_module._LIST_KINDS
    )
    monkeypatch.setattr(expr_module, "_LIST_KINDS", loose)
    values, _ = KINDS["int_and_placeholder"]
    for name in ("versus_number", "product"):
        with pytest.raises(AssertionError):
            _assert_exact(EXPRESSIONS[name], _batch(values))
