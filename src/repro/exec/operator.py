"""Base operator contract and execution helpers.

Batch-at-a-time Volcano model
-----------------------------

Every operator implements one pull protocol over an ``open()``/``close()``
lifecycle: ``next_batch(max_rows)`` returns a
:class:`~repro.relational.batch.ColumnBatch` of 1..max_rows rows, or
``None`` at end of stream.  It never returns an empty batch.

``next()`` is the row view of that protocol and exists once, on
:class:`Operator`: it pulls ``next_batch(1)`` and returns the row tuple
(or ``None``).  With ``max_rows=1`` the batch path *is* the paper's
tuple-at-a-time schedule — one child pull, one row, identical
side-effect order — so ``next()`` never reads ahead, holds no state of
its own between calls, and may be mixed freely with ``next_batch()``.

``batch_size`` is a per-operator attribute (class default
:data:`~repro.relational.batch.DEFAULT_BATCH_SIZE`) used for
``next_batch(max_rows=None)`` and for internal child pulls; lowering
stamps the configured size (``EngineConfig.batch_size``, which is what
``REPRO_BATCH_SIZE`` overrides) over a whole plan with
:func:`set_batch_size`.  ``batch_size=1`` runs a whole plan on the
tuple-at-a-time schedule.
"""

from contextlib import contextmanager

from repro.relational.batch import DEFAULT_BATCH_SIZE, ColumnBatch
from repro.util.errors import ExecutionError


class Operator:
    """Base class for all physical query-plan operators.

    Lifecycle: ``open() -> next_batch()* -> close()``; operators are
    re-openable after ``close()`` (nested-loop joins rely on this), and
    a re-open restarts at the first row even when the previous run was
    abandoned mid-stream.  Subclasses implement ``next_batch()``;
    ``next()`` is inherited.

    ``open(bindings)``: only operators that sit on the inner side of a
    dependent join accept a bindings dict (external virtual-table scans,
    and pass-through operators that forward it).  Everything else must be
    opened with ``bindings=None``.
    """

    #: Subclasses set these in __init__.
    schema = None
    children = ()

    #: Default batch granularity for ``next_batch(max_rows=None)`` and
    #: for internal child pulls; lowering overrides it per plan via
    #: :func:`set_batch_size`.
    batch_size = DEFAULT_BATCH_SIZE

    def make_batch(self, rows):
        """Pivot dense *rows* into a batch typed by this operator's schema."""
        return ColumnBatch.from_rows(self.schema, rows)

    def open(self, bindings=None):
        raise NotImplementedError

    def next_batch(self, max_rows=None):
        """Return a batch of up to *max_rows* rows, or ``None`` at EOS."""
        raise NotImplementedError

    def close(self):
        raise NotImplementedError

    def next(self):
        """Return the next row tuple, or ``None`` at end of stream."""
        batch = self.next_batch(1)
        if batch is None:
            return None
        return batch.to_rows()[0]

    # -- conveniences ---------------------------------------------------------

    def label(self):
        """One-line description used by plan explanation."""
        return type(self).__name__

    def explain(self, indent=0, annotate=None):
        """Nested textual rendering of the plan tree.

        *annotate* is an optional callback ``operator -> str``; a
        non-empty return value is appended to that operator's line (the
        unified renderer behind cost-annotated explains — see
        :meth:`repro.plan.cost.CostModel.annotated_explain`).
        """
        line = "{}{}".format("  " * indent, self.label())
        if annotate is not None:
            extra = annotate(self)
            if extra:
                line = "{}  [{}]".format(line, extra)
        lines = [line]
        for child in self.children:
            lines.append(child.explain(indent + 1, annotate))
        return "\n".join(lines)

    def _reject_bindings(self, bindings):
        if bindings:
            raise ExecutionError(
                "{} does not accept dependent-join bindings".format(type(self).__name__)
            )


def set_batch_size(plan, batch_size):
    """Stamp *batch_size* over every operator in *plan* (returns *plan*).

    Walks ``children`` plus any ``inner`` wrapper attribute (profiled
    plans), so the whole tree pulls with one granularity.
    """
    if batch_size is None:
        return plan
    if batch_size < 1:
        raise ExecutionError("batch_size must be >= 1, got {!r}".format(batch_size))
    plan.batch_size = batch_size
    inner = getattr(plan, "inner", None)
    if inner is not None:
        set_batch_size(inner, batch_size)
    for child in plan.children:
        set_batch_size(child, batch_size)
    return plan


@contextmanager
def open_plan(plan, bindings=None):
    """Context manager driving the ``open``/``close`` lifecycle of *plan*.

    This is how engines must run plans: an abandoned ``execute()``
    generator only closes its plan at GC time, which can leak pump
    registrations from an ``AEVScan`` when the consumer ``break``s early.
    ``close()`` is exception-safe even when ``open()`` itself failed
    after partially opening children (the partial state is torn down
    best-effort before the original error propagates).
    """
    try:
        plan.open(bindings)
    except BaseException:
        # open() may have opened some children (and registered external
        # calls) before failing; close what we can, keep the real error.
        try:
            plan.close()
        except Exception:  # noqa: BLE001 - teardown must not mask open()'s error
            pass
        raise
    try:
        yield plan
    finally:
        plan.close()


def execute(plan, bindings=None):
    """Open *plan*, yield every row, and close it (even on error).

    A row view over the batch protocol at the plan's own
    ``batch_size``.  Prefer :func:`open_plan` (or fully consuming this
    generator): if the consumer abandons the generator mid-stream,
    ``close()`` only runs when the generator is finalized.
    """
    with open_plan(plan, bindings):
        while True:
            batch = plan.next_batch()
            if batch is None:
                return
            yield from batch.to_rows()


def execute_batches(plan, batch_size=None, bindings=None):
    """Open *plan*, yield :class:`ColumnBatch` chunks, and close it.

    Each pull asks for *batch_size* rows (``None`` = the plan's own
    ``batch_size``).  Same abandonment caveat as :func:`execute` —
    engines wrap consumption in :func:`open_plan`.
    """
    with open_plan(plan, bindings):
        while True:
            batch = plan.next_batch(batch_size)
            if batch is None:
                return
            yield batch


def collect(plan):
    """Run *plan* to completion and return all rows as a list."""
    return list(execute(plan))


def collect_batches(plan, batch_size=None):
    """Run *plan* to completion pulling *batch_size* rows at a time."""
    rows = []
    for batch in execute_batches(plan, batch_size):
        rows.extend(batch)
    return rows
