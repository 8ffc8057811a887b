"""Columnar batch core: round-trip oracle, kernels, hash join.

Three layers of guarantees:

- **Round-trip oracle** (hypothesis): ``ColumnBatch.from_rows`` /
  ``to_rows`` are exact inverses over arbitrary schemas, values (NULLs,
  strings, floats), and selection vectors.
- **Kernel exactness**: the compiled column-at-a-time evaluators agree
  with per-row ``Expr.eval`` on results *and* on which error fires
  (3-valued logic, per-row short-circuit, type mismatches, placeholder
  guards, division by zero).
- **Hash join**: the equi-join upgrade agrees with the nested loop it
  replaces — a selection over a cross product — on rows, order and
  errors, demotes itself on every input that could change nested-loop
  semantics, and the kernel counters surface through the engine's
  metrics registry.
"""

import inspect
import sys
import threading
import traceback
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    CrossProduct,
    Filter,
    NestedLoopJoin,
    RowsScan,
    collect_batches,
    open_plan,
    set_batch_size,
)
from repro.relational.batch import ColumnBatch
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
    _generate,
    compile_column_eval,
    compile_column_predicate,
    compile_column_projection,
    compile_scalar_eval,
    kernel_stats,
)
from repro.relational.placeholder import Placeholder
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.util.errors import PlaceholderError, TypeMismatchError

# ---------------------------------------------------------------------------
# Round-trip oracle: from_rows(to_rows(b)) == b
# ---------------------------------------------------------------------------


_VALUE_STRATEGIES = {
    DataType.INT: st.one_of(st.none(), st.integers(-(2**40), 2**40)),
    DataType.FLOAT: st.one_of(
        st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32)
    ),
    DataType.STR: st.one_of(st.none(), st.text(max_size=8)),
}


@st.composite
def batches(draw):
    """A random (schema, rows, selection) triple."""
    types = draw(
        st.lists(
            st.sampled_from([DataType.INT, DataType.FLOAT, DataType.STR]),
            min_size=1,
            max_size=4,
        )
    )
    schema = Schema(
        [Column("c{}".format(i), t) for i, t in enumerate(types)],
        allow_duplicates=True,
    )
    n = draw(st.integers(0, 12))
    rows = [
        tuple(draw(_VALUE_STRATEGIES[t]) for t in types) for _ in range(n)
    ]
    selection = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(0, n - 1), max_size=n) if n else st.just([]),
        )
    )
    return schema, rows, selection


class TestRoundTripOracle:
    @given(batches())
    @settings(max_examples=200, deadline=None)
    def test_from_rows_to_rows_identity(self, case):
        schema, rows, selection = case
        batch = ColumnBatch.from_rows(schema, rows)
        assert batch.to_rows() == rows
        if selection is not None:
            narrowed = batch.narrow(selection)
            expected = [rows[i] for i in selection]
            assert narrowed.to_rows() == expected
            assert len(narrowed) == len(expected)
            # A second hop through rows must reproduce the narrowed view.
            again = ColumnBatch.from_rows(schema, narrowed.to_rows())
            assert again.to_rows() == expected
            for i in range(len(schema)):
                assert list(again.column(i)) == [r[i] for r in expected]

    @given(batches())
    @settings(max_examples=100, deadline=None)
    def test_columns_match_row_pivot(self, case):
        schema, rows, _ = case
        batch = ColumnBatch.from_rows(schema, rows)
        for i in range(len(schema)):
            assert list(batch.column(i)) == [r[i] for r in rows]

    @given(batches())
    @settings(max_examples=100, deadline=None)
    def test_typed_storage_only_when_clean(self, case):
        schema, rows, _ = case
        batch = ColumnBatch.from_rows(schema, rows)
        for i, column in enumerate(schema):
            vec = batch.column(i)
            values = [r[i] for r in rows]
            if isinstance(vec, array):
                # The structural proof: a typed array can never hold
                # NULLs, strings, or placeholders.
                assert column.type in (DataType.INT, DataType.FLOAT)
                assert all(v is not None for v in values)


# ---------------------------------------------------------------------------
# Kernel exactness vs per-row evaluation
# ---------------------------------------------------------------------------


def _batch(rows, types):
    schema = Schema(
        [Column("c{}".format(i), t) for i, t in enumerate(types)],
        allow_duplicates=True,
    )
    return ColumnBatch.from_rows(schema, rows)


def _rowwise(expr, batch):
    """Reference semantics: per-row eval, first error wins."""
    return [expr.eval(row) for row in batch.to_rows()]


KERNEL_CASES = {
    "cmp_col_lit": (
        Comparison(">", ColumnRef(0), Literal(5)),
        [(i,) for i in range(12)],
        [DataType.INT],
    ),
    "cmp_lit_col": (
        Comparison(">=", Literal(5), ColumnRef(0)),
        [(i,) for i in range(12)],
        [DataType.INT],
    ),
    "cmp_col_col": (
        Comparison("=", ColumnRef(0), ColumnRef(1)),
        [(i, i % 3) for i in range(12)],
        [DataType.INT, DataType.INT],
    ),
    "cmp_with_nulls": (
        Comparison("<", ColumnRef(0), Literal(4)),
        [(0,), (None,), (7,), (None,), (2,)],
        [DataType.INT],
    ),
    "cmp_strings": (
        Comparison("=", ColumnRef(0), Literal("b")),
        [("a",), ("b",), (None,), ("c",)],
        [DataType.STR],
    ),
    "arith": (
        BinaryOp("*", ColumnRef(0), Literal(3)),
        [(i,) for i in range(9)],
        [DataType.INT],
    ),
    "arith_col_col": (
        BinaryOp("+", ColumnRef(0), ColumnRef(1)),
        [(i, 10 * i) for i in range(9)],
        [DataType.INT, DataType.INT],
    ),
    "div_by_zero_col": (
        BinaryOp("/", Literal(10), ColumnRef(0)),
        [(1,), (0,), (2,), (0,)],
        [DataType.INT],
    ),
    "div_by_zero_lit": (
        BinaryOp("/", ColumnRef(0), Literal(0)),
        [(1,), (2,)],
        [DataType.INT],
    ),
    "conjunction": (
        Conjunction(
            [
                Comparison(">", ColumnRef(0), Literal(2)),
                Comparison("<", ColumnRef(0), Literal(8)),
            ]
        ),
        [(i,) for i in range(12)],
        [DataType.INT],
    ),
    "disjunction": (
        Disjunction(
            [
                Comparison("<", ColumnRef(0), Literal(2)),
                Comparison(">", ColumnRef(0), Literal(8)),
            ]
        ),
        [(i,) for i in range(12)],
        [DataType.INT],
    ),
    "conjunction_with_nulls": (
        Conjunction(
            [
                Comparison(">", ColumnRef(0), Literal(2)),
                Comparison("<", ColumnRef(1), Literal(5)),
            ]
        ),
        [(1, None), (5, 2), (None, 1), (6, None), (7, 9)],
        [DataType.INT, DataType.INT],
    ),
    "negation": (
        Negation(Comparison(">", ColumnRef(0), Literal(5))),
        [(3,), (None,), (9,)],
        [DataType.INT],
    ),
    "literal": (Literal(7), [(1,), (2,)], [DataType.INT]),
    "colref": (ColumnRef(0), [(4,), (None,), (6,)], [DataType.INT]),
}


def _outcome(compute):
    """What *compute* did: its value (by ``repr``: 1, 1.0, True and NaN
    all stay distinct) or the exception's type and message."""
    try:
        return "value", repr(compute())
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)


def _assert_exact(expr, batch):
    """All three compiled shapes do what the row loop over ``eval`` does:
    the same values, or the exception the loop raises first."""
    rows = batch.to_rows()
    expected = _outcome(lambda: [expr.eval(row) for row in rows])
    assert _outcome(lambda: list(compile_column_eval(expr)(batch))) == expected
    selected = _outcome(
        lambda: [i for i, row in enumerate(rows) if expr.eval(row) is True]
    )
    assert _outcome(lambda: compile_column_predicate(expr)(batch)) == selected
    scalar = compile_scalar_eval(expr)
    for row in rows:
        assert _outcome(lambda: scalar(row)) == _outcome(lambda: expr.eval(row))


#: Column flavours of the differential fuzz: schema type + value strategy.
_MARKER = Placeholder(7, "value")
_FLAVOURS = {
    "int": (DataType.INT, st.integers(-4, 4)),
    "float": (DataType.FLOAT, st.sampled_from([-1.5, 0.0, 0.5, 2.0, 1e300])),
    "int_nulls": (DataType.INT, st.one_of(st.none(), st.integers(-4, 4))),
    "str": (DataType.STR, st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b"]))),
    "lying": (DataType.INT, st.one_of(st.integers(-4, 4), st.just("a"))),
    "pending": (DataType.INT, st.one_of(st.integers(-4, 4), st.just(_MARKER))),
}
_LITERALS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0, 0.0, 2.5, 10**400, "", "a", "b"]),
)


def _trees(width, depth):
    """Expression trees nested at most *depth* deep over *width* columns."""
    leaves = st.one_of(
        st.builds(Literal, _LITERALS),
        st.builds(ColumnRef, st.integers(0, width - 1)),
    )
    if depth == 0:
        return leaves
    child = _trees(width, depth - 1)
    terms = st.lists(child, min_size=1, max_size=3)
    return st.one_of(
        leaves,
        st.builds(Comparison, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), child, child),
        st.builds(BinaryOp, st.sampled_from(["+", "-", "*", "/"]), child, child),
        st.builds(Conjunction, terms),
        st.builds(Disjunction, terms),
        st.builds(Negation, child),
        st.builds(LikePredicate, child, st.sampled_from(["a%", "_", "%b"]), st.booleans()),
        st.builds(NullCheck, child, st.booleans()),
    )


@st.composite
def _fuzz_cases(draw):
    """(expression, batch): random tree x column flavours x batch form."""
    flavours = draw(st.lists(st.sampled_from(sorted(_FLAVOURS)), min_size=1, max_size=3))
    n = draw(st.sampled_from([0, 1, 3, 6]))  # empty, one-row, small
    rows = [tuple(draw(_FLAVOURS[f][1]) for f in flavours) for _ in range(n)]
    batch = _batch(rows, [_FLAVOURS[f][0] for f in flavours])
    if n and draw(st.booleans()):
        batch = batch.narrow(
            draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        )
    return draw(_trees(len(flavours), 3)), batch


_HUGE = Literal(10**400)  # meets a float: OverflowError from a typed column

#: Shapes where *which* operand is evaluated, and when, can be seen:
#: (expression, rows, types); the last row is the one that decides.
ORDER_CASES = {
    "null_left_still_reads_right": (
        Comparison("<", ColumnRef(0), ColumnRef(1)),
        [(1, 2), (None, _MARKER)],
        [DataType.INT, DataType.INT],
    ),
    "raising_left_beats_placeholder_right": (
        Comparison("<", BinaryOp("+", ColumnRef(0), _HUGE), ColumnRef(1)),
        [(0.5, _MARKER)],
        [DataType.FLOAT, DataType.INT],
    ),
    "null_left_still_computes_right": (
        BinaryOp("+", ColumnRef(1), BinaryOp("+", ColumnRef(0), _HUGE)),
        [(0.5, None)],
        [DataType.FLOAT, DataType.INT],
    ),
    "dividend_raises_before_divisor": (
        BinaryOp(
            "/",
            BinaryOp("+", ColumnRef(0), _HUGE),
            BinaryOp("-", ColumnRef(1), Literal("a")),
        ),
        [(0.5, 1)],
        [DataType.FLOAT, DataType.INT],
    ),
    "zero_divisor_is_null_for_any_dividend": (
        BinaryOp("/", ColumnRef(0), Literal(0)),
        [(1,), ("a",), (None,)],
        [DataType.INT],
    ),
    "false_conjunct_hides_the_second": (
        Conjunction(
            [
                Comparison(">", ColumnRef(0), Literal(100)),
                Comparison("=", ColumnRef(1), Literal("x")),
            ]
        ),
        [(1, 5), (2, _MARKER)],
        [DataType.INT, DataType.INT],
    ),
    "null_conjunct_does_not_hide_the_second": (
        Conjunction(
            [
                Comparison(">", ColumnRef(0), Literal(1)),
                Comparison(">", ColumnRef(1), Literal(1)),
            ]
        ),
        [(5, 5), (None, _MARKER)],
        [DataType.INT, DataType.INT],
    ),
    "true_disjunct_hides_the_second": (
        Disjunction(
            [
                Comparison(">", ColumnRef(0), Literal(1)),
                Comparison(">", ColumnRef(1), Literal(1)),
            ]
        ),
        [(5, _MARKER), (0, 0), (None, 5)],
        [DataType.INT, DataType.INT],
    ),
    "terms_that_are_not_bools": (
        Conjunction([Literal(1), ColumnRef(0), Negation(Literal(0))]),
        [(0,), (None,), (3,)],
        [DataType.INT],
    ),
    "like_over_a_number_raises_at_its_row": (
        Disjunction([NullCheck(ColumnRef(0)), LikePredicate(ColumnRef(1), "a%")]),
        [(None, 5), (1, "ab"), (2, 7)],
        [DataType.INT, DataType.STR],
    ),
}


_kernel_cases = pytest.mark.parametrize(
    "case", KERNEL_CASES.values(), ids=KERNEL_CASES.keys()
)


class TestKernelExactness:
    @_kernel_cases
    def test_eval_matches_rowwise(self, case):
        expr, rows, types = case
        batch = _batch(rows, types)
        assert list(compile_column_eval(expr)(batch)) == _rowwise(expr, batch)

    @_kernel_cases
    def test_eval_matches_on_narrowed_batch(self, case):
        expr, rows, types = case
        batch = _batch(rows, types).narrow(
            [i for i in range(len(rows)) if i % 2 == 0]
        )
        assert list(compile_column_eval(expr)(batch)) == _rowwise(expr, batch)

    @_kernel_cases
    def test_predicate_selects_true_rows_only(self, case):
        expr, rows, types = case
        batch = _batch(rows, types)
        values = _rowwise(expr, batch)
        expected = [i for i, v in enumerate(values) if v is True]
        assert compile_column_predicate(expr)(batch) == expected

    @pytest.mark.parametrize("case", ORDER_CASES.values(), ids=ORDER_CASES.keys())
    def test_evaluation_order_matches_the_row_loop(self, case):
        expr, rows, types = case
        _assert_exact(expr, _batch(rows, types))
        _assert_exact(expr, _batch(rows + rows, types).narrow([len(rows) - 1]))

    @given(_fuzz_cases())
    @settings(max_examples=400, deadline=None)
    def test_random_trees_match_the_row_loop(self, case):
        _assert_exact(*case)

    def test_elision_is_structural(self):
        # What a typed column proves is left out of the text, not
        # skipped at run time; what it does not prove is still there.
        expr = Conjunction(
            [
                Comparison("<", ColumnRef(0), Literal(5)),
                Comparison(">", ColumnRef(1), Literal(5)),
            ]
        )
        clean = (False, "num")
        typed = inspect.getsource(_generate(expr, "selection", {0: clean, 1: clean}))
        assert "isinstance" not in typed and "is None" not in typed
        guarded = inspect.getsource(_generate(expr, "selection", {0: clean}))
        assert "isinstance" in guarded and "is None" in guarded
        rows = [(i, 10 - i) for i in range(10)]
        for types in ([DataType.INT, DataType.INT], [DataType.INT, DataType.STR]):
            _assert_exact(expr, _batch(rows, types))


class TestKernelErrors:
    def test_type_mismatch_matches_row_semantics(self):
        expr = Comparison(">", ColumnRef(0), Literal(5))
        batch = _batch([(1,), ("oops",), (9,)], [DataType.INT])
        with pytest.raises(TypeMismatchError, match="cannot compare"):
            compile_column_eval(expr)(batch)

    def test_placeholder_guard_names_the_column(self):
        expr = Comparison(">", ColumnRef(0), Literal(5))
        batch = _batch(
            [(1,), (Placeholder(0, "value"),)], [DataType.INT]
        )
        with pytest.raises(PlaceholderError):
            compile_column_eval(expr)(batch)

    def test_traceback_shows_the_generated_line(self):
        expr = Comparison(">", ColumnRef(0), Literal(5))
        batch = _batch([(1,), ("oops",)], [DataType.INT])
        with pytest.raises(TypeMismatchError) as info:
            compile_column_eval(expr)(batch)
        generated = [
            frame
            for frame in traceback.extract_tb(info.tb)
            if frame.filename.startswith("<expr ")
        ]
        assert generated and "mismatch(" in generated[0].line

    def test_short_circuit_suppresses_second_term_error(self):
        # Per-row AND must not evaluate (and raise on) the second term
        # for rows whose first term is already False — the mask-combine
        # fast path is only legal when nothing can raise, so this shape
        # (string literal comparison) must take the exact row-wise path.
        expr = Conjunction(
            [
                Comparison(">", ColumnRef(0), Literal(100)),
                Comparison("=", ColumnRef(1), Literal("x")),
            ]
        )
        batch = _batch(
            [(1, 5), (2, 7)], [DataType.INT, DataType.INT]
        )  # second column would mismatch 'x' if ever compared
        assert list(compile_column_eval(expr)(batch)) == [False, False]
        assert compile_column_predicate(expr)(batch) == []

    def test_mask_combine_requires_typed_arrays(self):
        # Same AND over a column that *lost* typed storage (a NULL): the
        # runtime check must fall back to row-wise and keep 3VL exact.
        expr = Conjunction(
            [
                Comparison(">", ColumnRef(0), Literal(1)),
                Comparison("<", ColumnRef(0), Literal(9)),
            ]
        )
        batch = _batch([(0,), (None,), (5,)], [DataType.INT])
        assert list(compile_column_eval(expr)(batch)) == [False, None, True]


class TestProjectionKernel:
    def test_raw_columnref_passthrough_keeps_placeholders(self):
        marker = Placeholder(3, "value")
        batch = _batch([(1, "a"), (marker, "b")], [DataType.INT, DataType.STR])
        project = compile_column_projection([ColumnRef(1), ColumnRef(0)])
        cols = project(batch)
        assert list(cols[0]) == ["a", "b"]
        assert cols[1][1] is marker  # oblivious: placeholders flow through

    def test_computed_expression_column(self):
        batch = _batch([(2,), (3,)], [DataType.INT])
        project = compile_column_projection(
            [BinaryOp("*", ColumnRef(0), Literal(10))]
        )
        assert list(project(batch)[0]) == [20, 30]

    def test_kernel_stats_counters_move(self):
        before = kernel_stats()
        evaluate = compile_column_eval(Comparison(">", ColumnRef(0), Literal(1)))
        batch = _batch([(0,), (2,)], [DataType.INT])
        evaluate(batch)
        evaluate(batch)
        after = kernel_stats()
        assert after["compiled"] == before["compiled"] + 1
        assert after["invoked"] == before["invoked"] + 2


# ---------------------------------------------------------------------------
# Hash equi-join upgrade: equivalence and demotion
# ---------------------------------------------------------------------------


def _scan(name, rows, types):
    schema = Schema(
        [Column("{}{}".format(name, i), t, name) for i, t in enumerate(types)],
        allow_duplicates=True,
    )
    return RowsScan(schema, rows, name=name)


def _join(
    left_rows, right_rows, op="=", left_types=None, right_types=None, hash_join=True
):
    """The join under test, or (``hash_join=False``) the nested loop it
    must agree with: the same predicate as a selection over the cross
    product, which evaluates every combined row in outer-major order."""
    left = _scan("l", left_rows, left_types or [DataType.INT])
    right = _scan("r", right_rows, right_types or [DataType.INT])
    predicate = Comparison(op, ColumnRef(0), ColumnRef(len(left.schema)))
    if hash_join:
        return NestedLoopJoin(left, right, predicate)
    return Filter(CrossProduct(left, right), predicate)


def _hash_and_nested_loop(batch_size=4, **join_args):
    """(hash-join rows, nested-loop rows) for the same inputs."""
    return [
        collect_batches(
            set_batch_size(_join(hash_join=hash_join, **join_args), batch_size),
            batch_size,
        )
        for hash_join in (True, False)
    ]


class TestHashJoin:
    def test_equijoin_matches_nested_loop(self):
        left = [(i,) for i in range(10)]
        right = [(i % 4, i * 100) for i in range(12)]
        hashed, looped = _hash_and_nested_loop(
            left_rows=left, right_rows=right, right_types=[DataType.INT, DataType.INT]
        )
        assert hashed == looped
        assert len(hashed) == sum(1 for l, in left for r, _ in right if l == r)

    def test_string_keys(self):
        hashed, looped = _hash_and_nested_loop(
            left_rows=[("a",), ("b",), ("c",)],
            right_rows=[("b",), ("c",), ("c",)],
            left_types=[DataType.STR],
            right_types=[DataType.STR],
        )
        assert hashed == looped == [("b", "b"), ("c", "c"), ("c", "c")]

    def test_null_inner_keys_demote_exactly(self):
        # NULL = x is NULL, never True: those inner rows silently match
        # nothing under the nested loop, and the demoted path must agree.
        hashed, looped = _hash_and_nested_loop(
            left_rows=[(1,), (2,)], right_rows=[(1,), (None,), (2,)]
        )
        assert hashed == looped == [(1, 1), (2, 2)]

    def test_null_outer_keys_skip_without_error(self):
        hashed, looped = _hash_and_nested_loop(
            left_rows=[(1,), (None,), (2,)], right_rows=[(1,), (2,)]
        )
        assert hashed == looped == [(1, 1), (2, 2)]

    def test_mixed_type_outer_key_raises_like_nested_loop(self):
        def run(hash_join):
            plan = _join([(1,), ("oops",)], [(1,), (2,)], hash_join=hash_join)
            with pytest.raises(TypeMismatchError) as info:
                collect_batches(set_batch_size(plan, 4), 4)
            return str(info.value)

        # Same error, same operand order as the per-row comparison.
        assert run(True) == run(False)

    def test_mixed_type_inner_keys_demote_and_raise(self):
        for hash_join in (True, False):
            plan = _join([(1,)], [(1,), ("oops",)], hash_join=hash_join)
            with pytest.raises(TypeMismatchError):
                collect_batches(set_batch_size(plan, 4), 4)

    def test_empty_inner_never_probes_dirty_outer_keys(self):
        # The nested loop never evaluates the predicate when the inner
        # side is empty, so even a mistyped outer key must not raise.
        hashed, looped = _hash_and_nested_loop(
            left_rows=[(1,), ("oops",)], right_rows=[]
        )
        assert hashed == looped == []

    def test_empty_outer_leaves_inner_unopened(self):
        opens = []
        right = _scan("r", [(1,)], [DataType.INT])
        original_open = right.open
        right.open = lambda *a, **k: (opens.append(True), original_open(*a, **k))
        left = _scan("l", [], [DataType.INT])
        plan = NestedLoopJoin(
            left, right, Comparison("=", ColumnRef(0), ColumnRef(1))
        )
        assert collect_batches(plan, 4) == []
        assert not opens

    def test_non_equijoin_keeps_cross_product_pipeline(self):
        rows = [(i,) for i in range(6)]
        hashed, looped = _hash_and_nested_loop(left_rows=rows, right_rows=rows, op="<")
        assert hashed == looped
        assert len(hashed) == sum(1 for a in range(6) for b in range(6) if a < b)

    def test_row_protocol_drains_hash_result(self):
        # next() pulls the hash result one row at a time: probe output
        # larger than the pull stays pending across calls, in order.
        join_args = dict(
            left_rows=[(i,) for i in range(8)],
            right_rows=[(i % 3, i) for i in range(9)],
            right_types=[DataType.INT, DataType.INT],
        )
        with open_plan(_join(**join_args)) as plan:
            via_rows = list(iter(plan.next, None))
        assert via_rows == collect_batches(_join(hash_join=False, **join_args), 4)


class TestKernelMetrics:
    def test_reopened_operators_compile_once(self):
        # A DependentJoin re-opens its inner subtree per outer row: the
        # kernels are the operator's, not the open()'s.
        from repro.exec import Aggregate, AggregateSpec, Project, Sort

        scan = _scan("t", [(i, i % 3) for i in range(10)], [DataType.INT, DataType.INT])
        double = BinaryOp("*", ColumnRef(0), Literal(2))
        out = Schema([Column("d", DataType.INT)])
        plans = [
            Filter(scan, Comparison(">", ColumnRef(0), Literal(4))),
            Project(scan, [double], out),
            Sort(scan, [(double, True)]),
            Aggregate(scan, [], [AggregateSpec("SUM", double)], out),
        ]
        for plan in plans:
            before = kernel_stats()["compiled"]
            runs = [collect_batches(plan, 4) for _ in range(3)]
            assert runs[0] == runs[1] == runs[2] and runs[0]
            assert kernel_stats()["compiled"] == before + 1

    def test_kernel_metrics_surface_in_registry(self, web, paper_db, monkeypatch):
        # Query threads share the process-wide counters: under eight
        # concurrent sessions the snapshot must report every invocation
        # exactly once — no lost update, and no overlapping query's
        # kernels counted again.  A repeat runs the statement's kept plan,
        # so only a copy lowered for a concurrent run compiles anything.
        from repro.serve import QueryService
        from repro.wsq import WsqEngine
        from repro.wsq import engine as engine_module

        lowered = []

        def counting_lower(*args):
            lowered.append(args)
            return lower(*args)

        lower = engine_module.lower
        monkeypatch.setattr(engine_module, "lower", counting_lower)
        engine = WsqEngine(database=paper_db, web=web)
        sql = "Select Name From States Where Population > 5000"

        def moved(run):
            before = engine.metrics_snapshot()["kernels_process_wide"]
            run()
            after = engine.metrics_snapshot()["kernels_process_wide"]
            return {name: after[name] - before[name] for name in after}

        def storm():
            # Eight clients submit six queries each and wait for them: the
            # service runs each query on a thread that waits.
            service = QueryService(engine, max_workers=8)
            pending = []

            def client():
                mine = [service.submit(sql, timeout=60.0) for _ in range(6)]
                pending.extend(mine)
                for query in mine:
                    query.exception(timeout=60.0)

            clients = [threading.Thread(target=client) for _ in range(8)]
            try:
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=120.0)
                    assert not thread.is_alive()
                for query in pending:
                    assert len(query.result(timeout=60.0).rows) == len(expected.rows)
            finally:
                service.close()

        results = []
        first = moved(lambda: results.append(engine.execute(sql)))
        (expected,) = results
        one = moved(lambda: engine.execute(sql))
        assert first["compiled"] > 0 and one["invoked"] > 0
        assert one["compiled"] == 0 and len(lowered) == 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            many = moved(storm)
        finally:
            sys.setswitchinterval(interval)
        assert many["invoked"] == 48 * one["invoked"]
        assert many["compiled"] <= (len(lowered) - 1) * first["compiled"]
        assert engine.metrics_snapshot()["kernels_process_wide"] == kernel_stats()
