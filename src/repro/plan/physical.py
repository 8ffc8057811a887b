"""Lowering: logical algebra -> the executable operator tree.

Layer 3 of the planning stack (see :mod:`repro.plan.logical`).
:func:`lower` walks an (optimized) logical tree and instantiates the
existing exec operators 1:1 — payloads (table handles, bound
expressions, virtual-table instances, binding maps) were carried by
reference through the logical layer, so the produced plan is
structurally identical to what the pre-IR pipeline built.

Execution knobs live in one place here: :class:`ExecOptions`.
Historically ``on_error`` / ``batch_size`` / ``wait_timeout`` were
threaded redundantly through ``PlannerOptions``, ``RewriteSettings``,
and the engine, with drifting defaults (``RewriteSettings(on_error=None)``
deferred to the operator default while ``PlannerOptions`` said
``"raise"`` explicitly).  :meth:`ExecOptions.from_knobs` is now the
single resolution point with a documented precedence, so the sync and
async paths always agree.
"""

from repro.util.errors import PlanError

from repro.plan import logical as L

#: Default graceful-degradation policy (matches the operator defaults).
DEFAULT_ON_ERROR = "raise"


class ExecOptions:
    """Consolidated execution knobs applied while lowering a plan.

    ``on_error``
        Graceful-degradation policy (``"raise"``/``"drop"``/``"null"``)
        stamped on every external scan and ReqSync.
    ``batch_size``
        Row granularity stamped over the lowered tree (``None`` = the
        operator default, see :func:`repro.exec.operator.set_batch_size`).
    ``wait_timeout``
        Per-wave ReqSync timeout in seconds (``None`` = operator
        default).
    ``stream``
        Default streaming mode for ReqSyncs whose logical node does not
        pin one (the rule pack always pins it, so this mostly serves
        hand-built plans).
    ``cache_tier`` / ``cache_ttl``
        The result-cache configuration the plan will execute under
        (``"off"``/``"memory"``/``"tiered"``/``"disk"`` and the default
        TTL in seconds).  Carried for introspection — ``explain`` output,
        cost models, and tests can see which cache the engine resolved —
        lowering itself never reads them (the cache is semantically
        transparent; wiring lives in the web clients and the engine).
    ``deadline``
        The query's end-to-end :class:`~repro.serve.deadline.Deadline`
        (duck-typed; ``None`` = unbounded).  Stamped on every ReqSync so
        the blocking wait loop observes expiry/cancellation; external
        calls of either mode carry it through the query's context.
    ``shards``
        Search-tier shard count the engine resolved (carried for
        introspection and cost pricing; the web clients — not lowering —
        implement the scatter).  ``1`` = the unsharded monolith.
    ``parallelism``
        Intra-query worker count.  At ``> 1`` lowering fans eligible
        local scan chains out over an
        :class:`~repro.exec.exchange.Exchange` (order-preserving
        :class:`~repro.exec.exchange.MergeExchange` under a Sort); at
        ``1`` the produced plan is byte-identical to the sequential
        lowering.
    """

    __slots__ = (
        "on_error", "batch_size", "wait_timeout", "stream", "cache_tier",
        "cache_ttl", "deadline", "shards", "parallelism",
    )

    def __init__(
        self,
        on_error=DEFAULT_ON_ERROR,
        batch_size=None,
        wait_timeout=None,
        stream=False,
        cache_tier=None,
        cache_ttl=None,
        deadline=None,
        shards=1,
        parallelism=1,
    ):
        if on_error not in ("raise", "drop", "null"):
            raise PlanError(
                "unknown on_error policy {!r}; expected raise/drop/null".format(
                    on_error
                )
            )
        if shards is not None and shards < 1:
            raise PlanError("shards must be >= 1, got {!r}".format(shards))
        if parallelism is not None and parallelism < 1:
            raise PlanError(
                "parallelism must be >= 1, got {!r}".format(parallelism)
            )
        self.on_error = on_error
        self.batch_size = batch_size
        self.wait_timeout = wait_timeout
        self.stream = stream
        self.cache_tier = cache_tier
        self.cache_ttl = cache_ttl
        self.deadline = deadline
        self.shards = shards if shards is not None else 1
        self.parallelism = parallelism if parallelism is not None else 1

    @classmethod
    def from_knobs(
        cls,
        planner_options=None,
        rewrite_settings=None,
        on_error=None,
        batch_size=None,
        cache=None,
        deadline=None,
        shards=None,
        parallelism=None,
    ):
        """Resolve the historical knob triplet into one struct.

        Precedence (most specific wins):

        1. explicit ``on_error`` / ``batch_size`` / ``shards`` /
           ``parallelism`` arguments (engine-level overrides);
        2. ``RewriteSettings`` values, when set (non-``None``);
        3. ``PlannerOptions`` values, when set;
        4. the defaults (``"raise"`` / operator-default batch size /
           ``shards=1`` / ``parallelism=1``).

        This fixes the historical drift where
        ``RewriteSettings(on_error=None)`` silently meant "operator
        default" while ``PlannerOptions`` defaulted to an explicit
        ``"raise"`` — both entry points now resolve identically.
        """
        resolved_on_error = None
        resolved_batch = None
        resolved_shards = None
        resolved_parallelism = None
        wait_timeout = None
        stream = False
        if planner_options is not None:
            resolved_on_error = getattr(planner_options, "on_error", None)
            resolved_batch = getattr(planner_options, "batch_size", None)
            resolved_shards = getattr(planner_options, "shards", None)
            resolved_parallelism = getattr(planner_options, "parallelism", None)
        if rewrite_settings is not None:
            if getattr(rewrite_settings, "on_error", None) is not None:
                resolved_on_error = rewrite_settings.on_error
            if getattr(rewrite_settings, "batch_size", None) is not None:
                resolved_batch = rewrite_settings.batch_size
            if getattr(rewrite_settings, "shards", None) is not None:
                resolved_shards = rewrite_settings.shards
            if getattr(rewrite_settings, "parallelism", None) is not None:
                resolved_parallelism = rewrite_settings.parallelism
            wait_timeout = getattr(rewrite_settings, "wait_timeout", None)
            stream = bool(getattr(rewrite_settings, "stream", False))
        if on_error is not None:
            resolved_on_error = on_error
        if batch_size is not None:
            resolved_batch = batch_size
        if shards is not None:
            resolved_shards = shards
        if parallelism is not None:
            resolved_parallelism = parallelism
        cache_tier = None
        cache_ttl = None
        if cache is not None:
            cache_tier = getattr(cache, "tier_name", "memory")
            policy = getattr(cache, "policy", None)
            if policy is not None:
                cache_ttl = getattr(policy, "default_ttl", None)
        return cls(
            on_error=resolved_on_error or DEFAULT_ON_ERROR,
            batch_size=resolved_batch,
            wait_timeout=wait_timeout,
            stream=stream,
            cache_tier=cache_tier if cache is not None else "off",
            cache_ttl=cache_ttl,
            deadline=deadline,
            shards=resolved_shards if resolved_shards is not None else 1,
            parallelism=(
                resolved_parallelism if resolved_parallelism is not None else 1
            ),
        )

    def __repr__(self):
        return (
            "ExecOptions(on_error={!r}, batch_size={!r}, wait_timeout={!r}, "
            "stream={!r}, cache_tier={!r}, cache_ttl={!r}, deadline={!r}, "
            "shards={!r}, parallelism={!r})".format(
                self.on_error, self.batch_size, self.wait_timeout,
                self.stream, self.cache_tier, self.cache_ttl, self.deadline,
                self.shards, self.parallelism,
            )
        )


def lower(node, options=None, context=None):
    """Lower *node* (a logical tree) to an executable operator tree.

    *context* is the query's :class:`~repro.asynciter.context.AsyncContext`:
    required when the tree contains asynchronous nodes (AEVScan /
    ReqSync), optional otherwise (an EVScan lowered without one waits on
    a private context over the shared default pump).  When
    ``options.batch_size`` is set the finished tree is stamped with it
    (exactly as the legacy pipeline did after planning + rewriting).
    """
    options = options or ExecOptions()
    plan = _lower(node, options, context)
    if options.batch_size is not None:
        from repro.exec.operator import set_batch_size

        set_batch_size(plan, options.batch_size)
    return plan


def _lower(node, options, context):
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

    if options.parallelism > 1:
        fanned = _try_parallel_lower(node, options, context)
        if fanned is not None:
            return fanned

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
        return _lower_vtable_scan(node, options, context)
    if isinstance(node, L.LogicalReqSync):
        return _lower_reqsync(node, options, context)
    if isinstance(node, L.LogicalFilter):
        return Filter(_lower(node.child, options, context), node.predicate)
    if isinstance(node, L.LogicalProject):
        return Project(
            _lower(node.child, options, context), node.expressions, node.schema
        )
    if isinstance(node, L.LogicalAggregate):
        return Aggregate(
            _lower(node.child, options, context),
            node.group_exprs,
            node.specs,
            node.schema,
        )
    if isinstance(node, L.LogicalDistinct):
        return Distinct(_lower(node.child, options, context))
    if isinstance(node, L.LogicalSort):
        return Sort(_lower(node.child, options, context), node.keys)
    if isinstance(node, L.LogicalLimit):
        return Limit(_lower(node.child, options, context), node.count)
    if isinstance(node, L.LogicalJoin):
        # Join right sides are re-opened once per outer row; fanning a
        # worker pool out per open would churn threads without covering
        # any new data, so the right subtree lowers sequentially.
        return NestedLoopJoin(
            _lower(node.left, options, context),
            _lower(node.right, _sequential(options), context),
            node.predicate,
        )
    if isinstance(node, L.LogicalDependentJoin):
        return DependentJoin(
            _lower(node.left, options, context),
            _lower(node.right, _sequential(options), context),
            node.binding_columns,
        )
    if isinstance(node, L.LogicalCrossProduct):
        return CrossProduct(
            _lower(node.left, options, context),
            _lower(node.right, _sequential(options), context),
        )
    if isinstance(node, L.LogicalUnion):
        return UnionAll(
            _lower(node.left, options, context),
            _lower(node.right, options, context),
        )
    raise PlanError("cannot lower logical node {!r}".format(node))


def _sequential(options):
    """*options* with parallelism pinned to 1 (for re-opened subtrees)."""
    if options.parallelism == 1:
        return options
    return ExecOptions(
        on_error=options.on_error,
        batch_size=options.batch_size,
        wait_timeout=options.wait_timeout,
        stream=options.stream,
        cache_tier=options.cache_tier,
        cache_ttl=options.cache_ttl,
        deadline=options.deadline,
        shards=options.shards,
        parallelism=1,
    )


def _parallel_eligible(node):
    """True when *node* is a Filter/Project chain over a plain heap scan.

    Only full-table scans partition (index scans already prune pages and
    read in key order, which page partitioning would scramble).
    """
    if isinstance(node, L.LogicalScan):
        return node.index is None
    if isinstance(node, (L.LogicalFilter, L.LogicalProject)):
        return _parallel_eligible(node.child)
    return False


def _lower_chain_partition(node, options, context, partition):
    """Lower one per-partition replica of an eligible chain.

    Filter/Project carry no cross-row state, so replicating them per
    partition over a partitioned leaf scan computes exactly the rows the
    sequential chain would — Exchange's partition-major gather then
    restores the sequential order.
    """
    from repro.exec.filter import Filter
    from repro.exec.project import Project
    from repro.exec.scans import TableScan

    if isinstance(node, L.LogicalScan):
        return TableScan(node.table, node.alias, partition=partition)
    if isinstance(node, L.LogicalFilter):
        return Filter(
            _lower_chain_partition(node.child, options, context, partition),
            node.predicate,
        )
    if isinstance(node, L.LogicalProject):
        return Project(
            _lower_chain_partition(node.child, options, context, partition),
            node.expressions,
            node.schema,
        )
    raise PlanError(
        "node {!r} is not part of a partitionable chain".format(node)
    )


def _try_parallel_lower(node, options, context):
    """Fan an eligible subtree across ``options.parallelism`` partitions.

    Returns the Exchange-rooted operator tree, or ``None`` when *node*
    is not an eligible shape (the caller then lowers it normally and
    recurses — inner eligible subtrees still get fanned out).
    """
    from repro.exec.exchange import Exchange, MergeExchange
    from repro.exec.sort import Sort

    workers = options.parallelism
    if isinstance(node, L.LogicalSort) and _parallel_eligible(node.child):
        # Per-partition sorts + order-preserving merge: partitions are
        # contiguous page runs and Sort is stable, so merging with a
        # partition-index tie-break reproduces the global stable sort.
        partitions = [
            Sort(
                _lower_chain_partition(
                    node.child, options, context, (index, workers)
                ),
                node.keys,
            )
            for index in range(workers)
        ]
        return MergeExchange(partitions, node.keys)
    if _parallel_eligible(node):
        partitions = [
            _lower_chain_partition(node, options, context, (index, workers))
            for index in range(workers)
        ]
        return Exchange(partitions)
    return None


def _lower_vtable_scan(node, options, context):
    if node.asynchronous:
        from repro.asynciter.aevscan import AEVScan

        if context is None:
            raise PlanError(
                "lowering an asynchronous plan requires an AsyncContext"
            )
        return AEVScan(node.instance, context)
    from repro.vtables.evscan import EVScan

    on_error = node.on_error if node.on_error is not None else options.on_error
    return EVScan(node.instance, context, on_error=on_error)


def _lower_reqsync(node, options, context):
    from repro.asynciter.reqsync import ReqSync

    if context is None:
        raise PlanError("lowering a ReqSync requires an AsyncContext")
    kwargs = {"stream": node.stream, "preserve_order": node.preserve_order}
    if options.wait_timeout is not None:
        kwargs["wait_timeout"] = options.wait_timeout
    kwargs["on_error"] = options.on_error
    if options.deadline is not None:
        kwargs["deadline"] = options.deadline
    reqsync = ReqSync(_lower(node.child, options, context), context, **kwargs)
    if options.batch_size is not None:
        reqsync.batch_size = options.batch_size
    return reqsync
