"""Lowering: logical algebra -> the executable operator tree.

Layer 3 of the planning stack (see :mod:`repro.plan.logical`).
:func:`lower` walks a logical tree and instantiates the
existing exec operators 1:1 — but for a selection a stored scan's page
decoder can run, which becomes that ``TableScan``'s.  Payloads (table
handles, bound expressions, virtual-table instances, binding maps) were
carried by reference through the logical layer.

Execution knobs arrive as one :class:`~repro.config.EngineConfig`; the
per-query :class:`~repro.serve.deadline.Deadline` travels on the
context, not here.  A subquery predicate's logical tree is lowered here
too, under the same config and context as the query that evaluates it.
"""

from repro.config import EngineConfig
from repro.exec.operator import set_batch_size
from repro.relational.expr import subqueries
from repro.util.errors import PlanError

from repro.plan import logical as L


def lower(node, config=None, context=None):
    """Lower *node* (a logical tree) to an executable operator tree.

    *config* is the :class:`~repro.config.EngineConfig` to lower under
    (``None`` resolves one from the environment); the finished tree is
    stamped with its ``batch_size``.  *context* is the query's
    :class:`~repro.asynciter.context.AsyncContext`: required when the
    tree scans a virtual table (EVScan, AEVScan) or holds a ReqSync, and
    unused otherwise.  Each subquery in a predicate gets a
    subplan lowered under the same *config* and *context*, with an empty
    row memo.
    """
    if config is None:
        config = EngineConfig.resolve()
    return set_batch_size(_lower(node, config, context, None), config.batch_size)


def _refs(expressions):
    return set().union(*(e.referenced_columns() for e in expressions))


def child_columns(node, needed):
    """The output positions each child of *node* must produce.

    *needed* is the set of *node*'s own output positions its ancestors
    read (``None`` = all of them: the root's answer).  Each child gets
    the positions *node* reads itself plus the ones it hands through.
    The sets only ever reach a ``TableScan``, which skips decoding the
    stored columns outside them; ``None`` is always a safe answer.
    """
    if isinstance(node, L.LogicalProject):
        return [_refs(node.expressions)]
    if isinstance(node, L.LogicalAggregate):
        return [
            _refs(node.group_exprs + [s.expr for s in node.specs if not s.star])
        ]
    if needed is not None:
        if isinstance(node, (L.LogicalLimit, L.LogicalReqSync)):
            return [needed]
        if isinstance(node, L.LogicalFilter):
            return [needed | node.predicate.referenced_columns()]
        if isinstance(node, L.LogicalSort):
            return [needed | _refs(expr for expr, _ in node.keys)]
        if isinstance(
            node, (L.LogicalJoin, L.LogicalCrossProduct, L.LogicalDependentJoin)
        ):
            if isinstance(node, L.LogicalJoin):
                needed = needed | node.predicate.referenced_columns()
            width = len(node.left.schema)
            left = {i for i in needed if i < width}
            if isinstance(node, L.LogicalDependentJoin):
                left.update(node.binding_columns.values())
            return [left, {i - width for i in needed if i >= width}]
    # Distinct compares whole rows, and a node this analysis does not
    # know may read anything: every column of every child.
    return [None] * len(node.children)


def _lower(node, config, context, needed):
    """Lower *node*, whose ancestors read its output positions *needed*."""
    # Imports are local so `repro.plan` stays importable without pulling
    # the full exec/asynciter stack at module-import time.
    from repro.exec.aggregate import Aggregate
    from repro.exec.distinct import Distinct
    from repro.exec.filter import Filter
    from repro.exec.indexscan import IndexScan
    from repro.exec.joins import CrossProduct, DependentJoin, NestedLoopJoin
    from repro.exec.limit import Limit
    from repro.exec.project import Project
    from repro.exec.scans import TableScan
    from repro.exec.sort import Sort

    for subquery in subqueries(getattr(node, "predicate", None)):
        subquery.set_subplan(lower(subquery.logical, config, context))
    columns = None if needed is None else tuple(sorted(needed))
    if (
        isinstance(node, L.LogicalFilter)
        and isinstance(node.child, L.LogicalScan)
        and node.child.index is None
    ):
        # A selection that provably cannot raise is the scan's: the page
        # decoder reads the predicate's columns without keeping them, so
        # *needed* is the scan's as well.
        scan = TableScan(node.child.table, node.child.alias, columns, node.predicate)
        if scan.decode is not None:
            return scan
    needs = child_columns(node, needed)

    def child(position=0):
        return _lower(node.children[position], config, context, needs[position])

    if isinstance(node, L.LogicalScan):
        if node.index is not None:
            return IndexScan(
                node.table,
                node.index,
                qualifier=node.alias,
                low=node.low,
                high=node.high,
                include_low=node.include_low,
                include_high=node.include_high,
            )
        return TableScan(node.table, node.alias, columns)
    if isinstance(node, L.LogicalVTableScan):
        return _lower_vtable_scan(node, config, context)
    if isinstance(node, L.LogicalReqSync):
        return _lower_reqsync(node, config, context, child)
    if isinstance(node, L.LogicalFilter):
        return Filter(child(), node.predicate)
    if isinstance(node, L.LogicalProject):
        return Project(child(), node.expressions, node.schema)
    if isinstance(node, L.LogicalAggregate):
        return Aggregate(child(), node.group_exprs, node.specs, node.schema)
    if isinstance(node, L.LogicalDistinct):
        return Distinct(child())
    if isinstance(node, L.LogicalSort):
        return Sort(child(), node.keys)
    if isinstance(node, L.LogicalLimit):
        return Limit(child(), node.count)
    if isinstance(node, L.LogicalJoin):
        return NestedLoopJoin(child(0), child(1), node.predicate)
    if isinstance(node, L.LogicalDependentJoin):
        return DependentJoin(child(0), child(1), node.binding_columns)
    if isinstance(node, L.LogicalCrossProduct):
        return CrossProduct(child(0), child(1))
    raise PlanError("cannot lower logical node {!r}".format(node))


def _lower_vtable_scan(node, config, context):
    if context is None:
        raise PlanError("lowering an external scan requires an AsyncContext")
    if node.asynchronous:
        from repro.asynciter.aevscan import AEVScan

        return AEVScan(node.instance, context)
    from repro.vtables.evscan import EVScan

    return EVScan(node.instance, context, on_error=config.on_error)


def _lower_reqsync(node, config, context, child):
    from repro.asynciter.reqsync import ReqSync

    if context is None:
        raise PlanError("lowering a ReqSync requires an AsyncContext")
    return ReqSync(child(), context, on_error=config.on_error)
