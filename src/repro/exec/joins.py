"""Join operators: nested-loop join, cross product, and the dependent join.

The paper's host system offers only nested-loop joins; the dependent join
is the nested-loop variant whose inner side requires bindings from the
current outer tuple (it feeds the virtual tables' input columns).

:class:`NestedLoopJoin` upgrades the common ``col = col`` equi-join
shape to a hash join: the inner side is materialized once into a key
table and each outer batch probes it by column gather, replacing the
outer×inner predicate evaluations with one dict lookup per outer row.
The upgrade is strictly an execution strategy — any input that could
make the nested-loop schedule raise or NULL differently (placeholder
keys, mixed key types) demotes to an exact materialized nested loop,
and every other predicate runs as a selection over a
:class:`CrossProduct`.
"""

from array import array

from repro.exec.filter import Filter
from repro.exec.operator import Operator
from repro.relational.expr import Comparison, compile_scalar_eval
from repro.relational.placeholder import Placeholder, require_concrete
from repro.util.errors import ExecutionError, TypeMismatchError


class CrossProduct(Operator):
    """Nested-loop cross product (inner side re-opened per outer tuple)."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.schema = left.schema.concat(right.schema)
        self.children = (left, right)
        self._outer_row = None
        self._opened = False

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self.left.open()
        self._outer_row = None
        self._opened = True

    def next_batch(self, max_rows=None):
        if not self._opened:
            raise ExecutionError("CrossProduct.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        out = []
        while len(out) < limit:
            if self._outer_row is None:
                # One outer row per pull: reading a batch ahead would
                # issue external calls below ``left`` for outer rows a
                # LIMIT above never emits.
                self._outer_row = self.left.next()
                if self._outer_row is None:
                    break
                self.right.open()
            batch = self.right.next_batch(limit - len(out))
            if batch is None:
                self.right.close()
                self._outer_row = None
                continue
            outer = self._outer_row
            out.extend(outer + inner for inner in batch)
        if not out:
            return None
        return self.make_batch(out)

    def close(self):
        if self._opened:
            self.left.close()
            if self._outer_row is not None:
                self.right.close()
            self._outer_row = None
            self._opened = False

    def label(self):
        return "Cross-Product"


class NestedLoopJoin(Operator):
    """Cross product plus a join predicate evaluated per combined row."""

    def __init__(self, left, right, predicate):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.schema = left.schema.concat(right.schema)
        self.children = (left, right)
        self._nested_loop = None
        self._reset_hash_state()

    def _equijoin_split(self):
        """``(outer index, inner-local index, outer is lhs)`` or ``None``.

        The hash upgrade applies only to ``col = col`` predicates whose
        two references land on opposite sides of the join.
        """
        predicate = self.predicate
        if not (isinstance(predicate, Comparison) and predicate.is_equijoin()):
            return None
        split = len(self.left.schema)
        li, ri = predicate.left.index, predicate.right.index
        if li < split <= ri:
            return li, ri - split, True
        if ri < split <= li:
            return ri, li - split, False
        return None

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self._reset_hash_state()
        split = self._equijoin_split()
        if split is not None:
            self._hashing = True
            self._outer_key, self._inner_key, self._outer_is_lhs = split
            self._outer_context = (
                self.predicate.left if self._outer_is_lhs else self.predicate.right
            ).sql()
            self.left.open()
            return
        # Built per open() so plan rewrites that swap children stay honest.
        product = CrossProduct(self.left, self.right)
        self._nested_loop = Filter(product, self.predicate)
        product.batch_size = self._nested_loop.batch_size = self.batch_size
        self._nested_loop.open()

    def _reset_hash_state(self):
        self._hashing = False
        self._inner_rows = None
        self._table = None
        self._inner_str = None
        self._first_inner_key = None
        self._fallback_scalar = None
        self._pending = []
        self._pending_pos = 0

    # -- hash strategy --------------------------------------------------------

    def _build_inner(self):
        """Materialize the inner side once and index it by join key.

        The nested-loop schedule would re-open the (deterministic, local)
        inner subtree per outer row; one scan produces the same rows.
        Keys must be uniformly clean — concrete, non-NULL, and all of one
        str-ness — for dict equality to mirror the comparison exactly;
        any surprise demotes to the materialized nested loop, whose
        per-combined-row evaluation is the original semantics verbatim.
        """
        rows = []
        self.right.open()
        try:
            while True:
                batch = self.right.next_batch(self.batch_size)
                if batch is None:
                    break
                rows.extend(batch.to_rows())
        finally:
            self.right.close()
        self._inner_rows = rows
        if not rows:
            self._table = {}
            return
        key_index = self._inner_key
        first = rows[0][key_index]
        if isinstance(first, Placeholder):
            self._fallback_scalar = compile_scalar_eval(self.predicate)
            return
        inner_str = isinstance(first, str)
        table = {}
        for position, row in enumerate(rows):
            key = row[key_index]
            if (
                key is None
                or isinstance(key, Placeholder)
                or isinstance(key, str) != inner_str
            ):
                self._fallback_scalar = compile_scalar_eval(self.predicate)
                return
            table.setdefault(key, []).append(position)
        self._table = table
        self._inner_str = inner_str
        self._first_inner_key = first

    def _probe(self, left_batch):
        """All surviving combined rows for one outer batch, in order."""
        inner_rows = self._inner_rows
        out = []
        if self._table is None:
            # Demoted: exact per-combined-row evaluation over the
            # materialized inner (outer-major, inner scan order).
            scalar = self._fallback_scalar
            append = out.append
            for outer in left_batch.to_rows():
                for inner in inner_rows:
                    row = outer + inner
                    if scalar(row) is True:
                        append(row)
            return out
        if not inner_rows:
            # Empty inner: the nested loop never evaluates the predicate,
            # so even placeholder/mistyped outer keys must not raise.
            return out
        keys = left_batch.column(self._outer_key)
        get = self._table.get
        append = out.append
        if self._inner_str is False and isinstance(keys, array):
            # Typed outer column + numeric inner keys: nothing can raise
            # or be NULL, probe straight from the array.
            outer_rows = left_batch.to_rows()
            for i, key in enumerate(keys):
                matches = get(key)
                if matches:
                    outer = outer_rows[i]
                    for position in matches:
                        append(outer + inner_rows[position])
            return out
        inner_str = self._inner_str
        outer_rows = left_batch.to_rows()
        for i, key in enumerate(keys):
            if isinstance(key, Placeholder):
                require_concrete(key, context=self._outer_context)
            if key is None:
                continue
            if isinstance(key, str) != inner_str:
                # The nested loop raises at this outer row's first
                # combined evaluation; mirror its operand order.
                lhs, rhs = (
                    (key, self._first_inner_key)
                    if self._outer_is_lhs
                    else (self._first_inner_key, key)
                )
                raise TypeMismatchError(
                    "cannot compare {!r} with {!r}".format(lhs, rhs)
                )
            matches = get(key)
            if matches:
                outer = outer_rows[i]
                for position in matches:
                    append(outer + inner_rows[position])
        return out

    def _next_batch_hash(self, limit):
        while True:
            pending = self._pending
            if self._pending_pos < len(pending):
                chunk = pending[self._pending_pos : self._pending_pos + limit]
                self._pending_pos += len(chunk)
                if self._pending_pos >= len(pending):
                    self._pending = []
                    self._pending_pos = 0
                return self.make_batch(chunk)
            # The caller's limit bounds the outer pull too: a LIMIT above
            # must not draw (and pay external calls for) outer rows whose
            # matches it never emits.
            left_batch = self.left.next_batch(limit)
            if left_batch is None:
                return None
            if self._inner_rows is None:
                # Lazily, only once the outer side proved non-empty: an
                # empty outer must leave the inner subtree unopened,
                # exactly like the nested-loop schedule.
                self._build_inner()
            out = self._probe(left_batch)
            if out:
                self._pending = out
                self._pending_pos = 0

    # -- protocol -------------------------------------------------------------

    def next_batch(self, max_rows=None):
        limit = max_rows if max_rows is not None else self.batch_size
        if self._hashing:
            return self._next_batch_hash(limit)
        return self._nested_loop.next_batch(limit)

    def close(self):
        if self._nested_loop is not None:
            self._nested_loop.close()
            self._nested_loop = None
        elif self._hashing:
            self.left.close()
        self._reset_hash_state()

    def label(self):
        return "Join: {}".format(self.predicate.sql(self.schema))


class DependentJoin(Operator):
    """Nested-loop join whose inner side needs outer-tuple bindings.

    ``binding_columns`` maps each inner input-parameter name (``"T1"``,
    ``"SearchExp"``, ``"Url"``, ...) to the outer-row index that supplies
    its value.  The equi-join predicate is implicit: the inner scan echoes
    its bound inputs as columns, so output rows already satisfy it.

    The operator is oblivious to asynchronous iteration, exactly as in the
    paper: it combines whatever (possibly placeholder-carrying) tuples the
    inner scan returns.

    When the inner side supports batched parameterization
    (``open_batch(bindings_list)``, i.e. an :class:`AEVScan`, which emits
    exactly one tuple per binding), a whole outer batch is bound in one
    call — this is what registers a *batch* of external calls with the
    request pump in one go.  Otherwise the inner side may yield 0..n rows
    per outer tuple and we fall back to a per-outer-row nested loop that
    still pulls the inner side batch-at-a-time.
    """

    def __init__(self, left, right, binding_columns):
        self.left = left
        self.right = right
        self.binding_columns = dict(binding_columns)
        self.schema = left.schema.concat(right.schema)
        self.children = (left, right)
        self._outer_row = None
        self._opened = False

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self.left.open()
        self._outer_row = None
        self._opened = True

    def next_batch(self, max_rows=None):
        if not self._opened:
            raise ExecutionError("DependentJoin.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        open_batch = getattr(self.right, "open_batch", None)
        if callable(open_batch) and self._outer_row is None:
            return self._next_batch_bound(open_batch, limit)
        return self._next_batch_looped(limit)

    def _next_batch_bound(self, open_batch, limit):
        """Fast path: bind one whole outer batch into the inner scan.

        The inner scan contract here is *exactly one row per binding* (an
        ``AEVScan`` emits a placeholder or resolved tuple per outer row),
        so output order is identical to the tuple-at-a-time schedule.
        """
        left_batch = self.left.next_batch(limit)
        if left_batch is None:
            return None
        outer_rows = left_batch.to_rows()
        items = tuple(self.binding_columns.items())
        bindings_list = [
            {param: row[index] for param, index in items} for row in outer_rows
        ]
        open_batch(bindings_list)
        try:
            inner_batch = self.right.next_batch(len(bindings_list))
            inner_rows = [] if inner_batch is None else inner_batch.to_rows()
            if len(inner_rows) != len(outer_rows):
                raise ExecutionError(
                    "dependent-join batch binding expected {} inner rows, "
                    "got {}".format(len(outer_rows), len(inner_rows))
                )
        finally:
            self.right.close()
        return self.make_batch(
            [outer + inner for outer, inner in zip(outer_rows, inner_rows)]
        )

    def _next_batch_looped(self, limit):
        """Fallback: per-outer-row rebinding, inner pulled batch-wise."""
        out = []
        while len(out) < limit:
            if self._outer_row is None:
                # One outer row per pull, as in CrossProduct: chained
                # dependent joins must not call out for unemitted rows.
                self._outer_row = self.left.next()
                if self._outer_row is None:
                    break
                inner_bindings = {
                    param: self._outer_row[index]
                    for param, index in self.binding_columns.items()
                }
                self.right.open(inner_bindings)
            batch = self.right.next_batch(limit - len(out))
            if batch is None:
                self.right.close()
                self._outer_row = None
                continue
            outer = self._outer_row
            out.extend(outer + inner for inner in batch)
        if not out:
            return None
        return self.make_batch(out)

    def close(self):
        if self._opened:
            self.left.close()
            if self._outer_row is not None:
                self.right.close()
            self._outer_row = None
            self._opened = False

    def label(self):
        pairs = ", ".join(
            "{} <- {}".format(param, self.left.schema[index].qualified_name())
            for param, index in sorted(self.binding_columns.items())
        )
        return "Dependent Join: {}".format(pairs)
