"""Lowering: logical algebra -> the executable operator tree.

Layer 3 of the planning stack (see :mod:`repro.plan.logical`).
:func:`lower` walks an (optimized) logical tree and instantiates the
existing exec operators 1:1 — payloads (table handles, bound
expressions, virtual-table instances, binding maps) were carried by
reference through the logical layer, so the produced plan is
structurally identical to what the pre-IR pipeline built.

Execution knobs arrive as one :class:`~repro.config.EngineConfig`; the
per-query :class:`~repro.serve.deadline.Deadline` travels on the
context, not here.
"""

from repro.config import EngineConfig
from repro.exec.operator import set_batch_size
from repro.util.errors import PlanError

from repro.plan import logical as L


def lower(node, config=None, context=None):
    """Lower *node* (a logical tree) to an executable operator tree.

    *config* is the :class:`~repro.config.EngineConfig` to lower under
    (``None`` resolves one from the environment); the finished tree is
    stamped with its ``batch_size``.  *context* is the query's
    :class:`~repro.asynciter.context.AsyncContext`: required when the
    tree contains asynchronous nodes (AEVScan / ReqSync), optional
    otherwise (an EVScan lowered without one waits on a private context
    over the shared default pump).
    """
    if config is None:
        config = EngineConfig.resolve()
    return set_batch_size(_lower(node, config, context), config.batch_size)


def _lower(node, config, context):
    # Imports are local so `repro.plan` stays importable without pulling
    # the full exec/asynciter stack at module-import time.
    from repro.exec.aggregate import Aggregate
    from repro.exec.distinct import Distinct
    from repro.exec.filter import Filter
    from repro.exec.indexscan import IndexScan
    from repro.exec.joins import CrossProduct, DependentJoin, NestedLoopJoin
    from repro.exec.limit import Limit
    from repro.exec.project import Project
    from repro.exec.scans import RowsScan, TableScan
    from repro.exec.sort import Sort
    from repro.exec.union import UnionAll

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
        return TableScan(node.table, node.alias)
    if isinstance(node, L.LogicalRowsScan):
        return RowsScan(node.schema, node.rows_data, node.name)
    if isinstance(node, L.LogicalVTableScan):
        return _lower_vtable_scan(node, config, context)
    if isinstance(node, L.LogicalReqSync):
        return _lower_reqsync(node, config, context)
    if isinstance(node, L.LogicalFilter):
        return Filter(_lower(node.child, config, context), node.predicate)
    if isinstance(node, L.LogicalProject):
        return Project(
            _lower(node.child, config, context), node.expressions, node.schema
        )
    if isinstance(node, L.LogicalAggregate):
        return Aggregate(
            _lower(node.child, config, context),
            node.group_exprs,
            node.specs,
            node.schema,
        )
    if isinstance(node, L.LogicalDistinct):
        return Distinct(_lower(node.child, config, context))
    if isinstance(node, L.LogicalSort):
        return Sort(_lower(node.child, config, context), node.keys)
    if isinstance(node, L.LogicalLimit):
        return Limit(_lower(node.child, config, context), node.count)
    if isinstance(node, L.LogicalJoin):
        return NestedLoopJoin(
            _lower(node.left, config, context),
            _lower(node.right, config, context),
            node.predicate,
        )
    if isinstance(node, L.LogicalDependentJoin):
        return DependentJoin(
            _lower(node.left, config, context),
            _lower(node.right, config, context),
            node.binding_columns,
        )
    if isinstance(node, L.LogicalCrossProduct):
        return CrossProduct(
            _lower(node.left, config, context),
            _lower(node.right, config, context),
        )
    if isinstance(node, L.LogicalUnion):
        return UnionAll(
            _lower(node.left, config, context),
            _lower(node.right, config, context),
        )
    raise PlanError("cannot lower logical node {!r}".format(node))


def _lower_vtable_scan(node, config, context):
    if node.asynchronous:
        from repro.asynciter.aevscan import AEVScan

        if context is None:
            raise PlanError(
                "lowering an asynchronous plan requires an AsyncContext"
            )
        return AEVScan(node.instance, context)
    from repro.vtables.evscan import EVScan

    on_error = node.on_error if node.on_error is not None else config.on_error
    return EVScan(node.instance, context, on_error=on_error)


def _lower_reqsync(node, config, context):
    from repro.asynciter.reqsync import ReqSync

    if context is None:
        raise PlanError("lowering a ReqSync requires an AsyncContext")
    return ReqSync(
        _lower(node.child, config, context),
        context,
        stream=node.stream,
        preserve_order=node.preserve_order,
        wait_timeout=config.wait_timeout,
        on_error=config.on_error,
    )
