"""Hash aggregation (GROUP BY and plain aggregates).

Aggregation is the paper's clash rule 3: it "requires an accurate tally of
incoming tuples", so it must sit above any ReqSync that could cancel or
proliferate tuples.  Its input expressions raise on placeholders.
"""

from repro.exec.operator import Operator
from repro.relational.expr import compile_grouping
from repro.relational.types import DataType
from repro.util.errors import ExecutionError, TypeMismatchError

#: func -> (initial accumulator, its update by one non-NULL input,
#: the result from the non-NULL count and the accumulator).  COUNT has
#: no accumulator; SUM/AVG/MIN/MAX of no non-NULL input is NULL.
_FOLDS = {
    "COUNT": (0, None, lambda count, acc: count),
    "SUM": (0, "{acc} += {x}", lambda count, acc: acc if count else None),
    "AVG": (0, "{acc} += {x}", lambda count, acc: acc / count if count else None),
    "MIN": (None, "if {acc} is None or {x} < {acc}: {acc} = {x}", lambda count, acc: acc),
    "MAX": (None, "if {acc} is None or {x} > {acc}: {acc} = {x}", lambda count, acc: acc),
}

AGG_FUNCTIONS = tuple(_FOLDS)


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
        self._accumulate = None

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self.child.open()
        # One generated loop per proven-column variant evaluates the keys
        # and the inputs inline and accumulates into flat per-group slots
        # (first-seen order is the dict's).  Compiled once per operator.
        folds = [_FOLDS[spec.func] for spec in self.specs]
        if self._accumulate is None:
            self._accumulate = compile_grouping(
                self.group_exprs,
                [
                    (None if spec.star else spec.expr, start, update)
                    for spec, (start, update, _) in zip(self.specs, folds)
                ],
            )
        groups = {}
        try:  # a failed drain closes the child too: a ReqSync below cancels its calls
            while True:
                batch = self.child.next_batch(self.batch_size)
                if batch is None:
                    break
                self._accumulate(batch, groups)
        finally:
            self.child.close()
        if not self.group_exprs and not groups:
            groups[()] = [0] + [value for start, _, _ in folds for value in (0, start)]
        lone = len(self.group_exprs) == 1  # its key is the value, not a tuple
        self._results = [
            ((key,) if lone else key) + tuple(
                result(slots[0] - skipped, acc)
                for (_, _, result), skipped, acc in zip(folds, slots[1::2], slots[2::2])
            )
            for key, slots in groups.items()
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
