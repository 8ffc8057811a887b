"""Selection."""

from repro.exec.operator import Operator
from repro.relational.expr import compile_column_predicate


class Filter(Operator):
    """Emit child rows for which the predicate evaluates to True.

    SQL semantics: rows whose predicate is False *or NULL* are dropped.
    The predicate *depends on* the attributes it reads, so evaluating it
    over a placeholder raises — by the paper's clash rule 1, ReqSync
    percolation must pull this operator above the ReqSync (or vice versa)
    whenever the predicate touches placeholder-carrying columns.

    The predicate is compiled once per operator, at the first pull (a
    Filter re-opened per outer row of a dependent join keeps it), into a
    kernel (:func:`compile_column_predicate`) that emits the survivors as
    a *selection vector* straight from the child's columns — no copying.
    """

    def __init__(self, child, predicate):
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        self.children = (child,)
        self._column_predicate = None

    def open(self, bindings=None):
        # Pass-through: a Filter may sit between a dependent join and the
        # scan it parameterizes (e.g. after percolation rewrites).
        self.child.open(bindings)

    def next_batch(self, max_rows=None):
        limit = max_rows if max_rows is not None else self.batch_size
        if self._column_predicate is None:
            self._column_predicate = compile_column_predicate(self.predicate)
        predicate = self._column_predicate
        while True:
            batch = self.child.next_batch(limit)
            if batch is None:
                return None
            selection = predicate(batch)
            if not selection:
                continue  # whole batch filtered out; keep pulling
            if len(selection) == len(batch):
                return batch  # nothing dropped: pass the batch through
            return batch.narrow(selection)

    def close(self):
        self.child.close()

    def label(self):
        return "Select: {}".format(self.predicate.sql(self.schema))
