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

from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

from repro.obs.trace import OP_CLOSE, OP_NEXT_BATCH, OP_OPEN
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

    def explain(self, indent=0):
        """Nested textual rendering of the plan tree."""
        lines = ["{}{}".format("  " * indent, self.label())]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _reject_bindings(self, bindings):
        if bindings:
            raise ExecutionError(
                "{} does not accept dependent-join bindings".format(type(self).__name__)
            )


def set_batch_size(plan, batch_size):
    """Stamp *batch_size* over every operator in *plan* (returns *plan*)."""
    if batch_size is None:
        return plan
    if batch_size < 1:
        raise ExecutionError("batch_size must be >= 1, got {!r}".format(batch_size))
    plan.batch_size = batch_size
    for child in plan.children:
        set_batch_size(child, batch_size)
    return plan


_SPANS = {"open": OP_OPEN, "open_batch": OP_OPEN, "next_batch": OP_NEXT_BATCH,
          "close": OP_CLOSE}


def instrument(plan, clock, tracer=None, query_id=None, depth=0):
    """Count and time every operator of *plan* where it stands.

    Each operator's ``open``/``open_batch``/``next_batch``/``close`` is
    shadowed by an instance attribute that counts the call and adds its
    time on *clock*, inside an ``op.*`` span when *tracer* is given.
    Nothing is rewired, and an operator's calls to its own methods
    (``AEVScan.open`` runs ``open_batch``) count once.  The shadows stay:
    instrument only a plan that runs once.  Returns one record per
    operator in pre-order (``label``, ``depth``, ``children``, ``opens``,
    ``pulls``, ``closes``, ``rows``, ``seconds``): ``pulls`` counts
    ``next_batch()`` calls, ``rows`` what they and ``open_batch``
    returned, and ``seconds`` is cumulative, ``close()`` included.
    """
    stats = SimpleNamespace(label=plan.label(), depth=depth, children=[], opens=0,
                            pulls=0, closes=0, rows=0, seconds=0.0)
    collected = [stats]
    for child in plan.children:
        below = instrument(child, clock, tracer, query_id, depth + 1)
        stats.children.append(below[0])
        collected.extend(below)
    busy = []  # non-empty while one of this operator's own methods runs

    def shadow(name, method):
        def timed(*args):
            if busy:
                return method(*args)
            busy.append(name)
            started = clock.now()
            try:
                with nullcontext() if tracer is None else tracer.span(
                    _SPANS[name], query_id=query_id, operator=stats.label
                ):
                    result = method(*args)
            finally:
                stats.seconds += clock.now() - started
                busy.pop()
            if name == "next_batch":
                stats.pulls += 1
                stats.rows += 0 if result is None else len(result)
            elif name == "close":
                stats.closes += 1
            else:
                stats.opens += 1
                stats.rows += sum(map(len, result)) if name == "open_batch" else 0
            return result

        setattr(plan, name, timed)

    for name in _SPANS:
        if hasattr(plan, name):
            shadow(name, getattr(plan, name))
    return collected


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
