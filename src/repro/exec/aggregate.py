"""Hash aggregation (GROUP BY and plain aggregates).

Aggregation is the paper's clash rule 3: it "requires an accurate tally of
incoming tuples", so it must sit above any ReqSync that could cancel or
proliferate tuples.  Its input expressions raise on placeholders.
"""

from repro.exec.operator import Operator
from repro.relational.expr import compile_column_eval
from repro.relational.placeholder import require_concrete
from repro.relational.types import DataType
from repro.util.errors import ExecutionError, TypeMismatchError

AGG_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


class AggregateSpec:
    """One aggregate in the output: function + input expression (or *)."""

    __slots__ = ("func", "expr", "star")

    def __init__(self, func, expr=None, star=False):
        func = func.upper()
        if func not in AGG_FUNCTIONS:
            raise TypeMismatchError("unknown aggregate {!r}".format(func))
        if star and func != "COUNT":
            raise TypeMismatchError("* argument is only valid for COUNT")
        self.func = func
        self.expr = expr
        self.star = star

    def result_type(self, schema):
        if self.func == "COUNT":
            return DataType.INT
        if self.func == "AVG":
            return DataType.FLOAT
        return self.expr.result_type(schema)

    def sql(self, schema=None):
        inner = "*" if self.star else self.expr.sql(schema)
        return "{}({})".format(self.func, inner)


class _Accumulator:
    __slots__ = ("func", "count", "total", "best")

    def __init__(self, func):
        self.func = func
        self.count = 0
        self.total = 0
        self.best = None

    def add(self, value):
        if self.func == "COUNT":
            if value is not _STAR and value is None:
                return
            self.count += 1
            return
        if value is None:  # SQL aggregates skip NULLs
            return
        self.count += 1
        if self.func in ("SUM", "AVG"):
            self.total += value
        elif self.func == "MIN":
            self.best = value if self.best is None or value < self.best else self.best
        elif self.func == "MAX":
            self.best = value if self.best is None or value > self.best else self.best

    def result(self):
        if self.func == "COUNT":
            return self.count
        if self.count == 0:
            return None  # SUM/AVG/MIN/MAX of no rows is NULL
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return self.total / self.count
        return self.best


_STAR = object()


class Aggregate(Operator):
    """GROUP BY *group_exprs* computing *specs*.

    Output rows are the group keys followed by the aggregate values.  With
    no group expressions, emits exactly one row (even over empty input,
    per SQL).
    """

    def __init__(self, child, group_exprs, specs, schema):
        assert len(schema) == len(group_exprs) + len(specs)
        self.child = child
        self.group_exprs = list(group_exprs)
        self.specs = list(specs)
        self.schema = schema
        self.children = (child,)
        self._results = None
        self._position = 0
        self._evaluators = None

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self.child.open()
        groups = {}
        order = []
        # Gather group keys and aggregate inputs as whole columns per
        # batch (kernel-compiled), then accumulate from the vectors — no
        # per-row expression-tree dispatch.  Compiled once per operator.
        if self._evaluators is None:
            self._evaluators = (
                [compile_column_eval(e) for e in self.group_exprs],
                [None if s.star else compile_column_eval(s.expr) for s in self.specs],
            )
        group_evals, spec_evals = self._evaluators
        labels = [s.sql() for s in self.specs]  # error context, once per open
        while True:
            batch = self.child.next_batch(self.batch_size)
            if batch is None:
                break
            key_columns = [evaluate(batch) for evaluate in group_evals]
            input_columns = [
                evaluate(batch) if evaluate is not None else None
                for evaluate in spec_evals
            ]
            for i in range(len(batch)):
                key = tuple(
                    require_concrete(column[i], "GROUP BY")
                    for column in key_columns
                )
                accumulators = groups.get(key)
                if accumulators is None:
                    accumulators = [_Accumulator(s.func) for s in self.specs]
                    groups[key] = accumulators
                    order.append(key)
                for label, acc, column in zip(labels, accumulators, input_columns):
                    if column is None:
                        acc.add(_STAR)
                    else:
                        acc.add(require_concrete(column[i], label))
        self.child.close()
        if not self.group_exprs and not groups:
            groups[()] = [_Accumulator(s.func) for s in self.specs]
            order.append(())
        self._results = [
            key + tuple(acc.result() for acc in groups[key]) for key in order
        ]
        self._position = 0

    def next_batch(self, max_rows=None):
        if self._results is None:
            raise ExecutionError("Aggregate.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        start = self._position
        if start >= len(self._results):
            return None
        rows = self._results[start : start + limit]
        self._position = start + len(rows)
        return self.make_batch(rows)

    def close(self):
        self._results = None
        self._position = 0

    def label(self):
        parts = [spec.sql(self.child.schema) for spec in self.specs]
        if self.group_exprs:
            parts.append(
                "Group By {}".format(
                    ", ".join(e.sql(self.child.schema) for e in self.group_exprs)
                )
            )
        return "Aggregate: {}".format("; ".join(parts))
