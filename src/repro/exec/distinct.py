"""Duplicate elimination."""

from repro.exec.operator import Operator
from repro.relational.placeholder import require_concrete


class Distinct(Operator):
    """Hash-based duplicate elimination.

    Distinct must examine complete tuples (the paper classifies it with
    the existential clash rule: duplicate elimination over placeholders
    would be wrong), so it checks every value it hashes.
    """

    def __init__(self, child):
        self.child = child
        self.schema = child.schema
        self.children = (child,)
        self._seen = None

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self.child.open()
        self._seen = set()

    def next_batch(self, max_rows=None):
        limit = max_rows if max_rows is not None else self.batch_size
        seen = self._seen
        while True:
            batch = self.child.next_batch(limit)
            if batch is None:
                return None
            selection = []
            keep = selection.append
            for i, row in enumerate(batch.to_rows()):
                key = tuple(require_concrete(v, "DISTINCT") for v in row)
                if key not in seen:
                    seen.add(key)
                    keep(i)
            if not selection:
                continue  # whole batch duplicated; keep pulling
            if len(selection) == len(batch):
                return batch
            return batch.narrow(selection)

    def close(self):
        self.child.close()
        self._seen = None

    def label(self):
        return "Distinct"
