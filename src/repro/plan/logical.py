"""The logical plan algebra (IR) that sits between SQL and execution.

Three-layer planning stack
--------------------------

1. **Logical** (this module): :class:`LogicalNode` trees built by
   :meth:`repro.plan.planner.Planner.plan_logical`.  Nodes carry their
   output :class:`~repro.relational.schema.Schema`, structural
   equality/hashing, free-form per-node ``annotations``, and a
   *placeholder-attribute* analysis (:func:`placeholder_columns`) — the
   paper's "filled attribute set" A_i that drives every ReqSync clash
   rule.
2. **Rules** (:mod:`repro.plan.rules`): a fixed-point rule engine
   running the cost-gated relational pipeline and the paper's full
   ReqSync Insertion → Percolation → Consolidation algorithm as
   :class:`~repro.plan.rules.Rule` objects over this algebra.
3. **Physical** (:mod:`repro.plan.physical`): :func:`~repro.plan.physical.lower`
   maps an optimized logical tree onto the existing exec operators,
   configured by one :class:`~repro.config.EngineConfig`.

The logical layer deliberately *carries* catalog handles (table objects,
virtual-table instances) and already-bound expression trees, so lowering
is a 1:1 structural mapping and the physical plan produced through the
stack is bit-identical in shape to what the pre-IR pipeline built.

Tree conventions mirror the physical operators: unary nodes expose
``child``, binary nodes ``left``/``right``, and every node keeps a
``children`` tuple — so analyses and rewrites can be ported between the
two layers mechanically.
"""

from repro.relational.expr import ColumnRef
from repro.util.errors import PlanError

_CHILD_SLOTS = ("child", "left", "right")


def _expr_key(expr):
    """A structural fingerprint for a bound expression (or None)."""
    if expr is None:
        return None
    try:
        return (type(expr).__name__, expr.sql())
    except Exception:  # pragma: no cover - exotic expression payloads
        return (type(expr).__name__, id(expr))


class LogicalNode:
    """Base class for all logical-plan nodes.

    Structural identity: two nodes are equal when they have the same
    class, the same :meth:`payload_key`, and structurally equal children.
    ``annotations`` is a free-form per-node dict (rule bookkeeping, cost
    notes, ...) excluded from identity.
    """

    #: Short name used by :func:`render` (defaults to the class name
    #: without the ``Logical`` prefix).
    kind = None

    def __init__(self):
        self.children = ()
        self.schema = None
        self.annotations = {}

    # -- tree plumbing (mirrors the physical operators) -----------------------

    def replace_child(self, old, new):
        """Swap *old* for *new* among this node's children (slots + tuple)."""
        replaced = False
        for slot in _CHILD_SLOTS:
            if hasattr(self, slot) and getattr(self, slot) is old:
                setattr(self, slot, new)
                replaced = True
                break
        if not replaced:
            raise PlanError(
                "logical rewrite error: child not found on {}".format(self.label())
            )
        self.children = tuple(new if c is old else c for c in self.children)
        self._refresh_schema()

    def _refresh_schema(self):
        """Recompute a derived schema after a child swap (default: none)."""

    # -- structural identity ---------------------------------------------------

    def payload_key(self):
        """Hashable payload identifying this node beyond class/children."""
        return ()

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        if self.payload_key() != other.payload_key():
            return False
        if len(self.children) != len(other.children):
            return False
        return all(a == b for a, b in zip(self.children, other.children))

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self):
        return hash(
            (type(self).__name__, self.payload_key(), tuple(hash(c) for c in self.children))
        )

    # -- rendering -------------------------------------------------------------

    def label(self):
        """One-line description used by the logical explain form."""
        return self.kind or type(self).__name__.replace("Logical", "")

    def __repr__(self):
        return "<{} {}>".format(type(self).__name__, self.label())


# -- leaves ---------------------------------------------------------------------


class LogicalScan(LogicalNode):
    """Scan of a stored table, optionally through a secondary index.

    ``index`` (plus the bound window) records the access path chosen by
    the planner; lowering maps it to ``IndexScan`` vs ``TableScan``.
    """

    def __init__(
        self,
        table,
        alias=None,
        index=None,
        low=None,
        high=None,
        include_low=True,
        include_high=True,
    ):
        super().__init__()
        self.table = table
        self.alias = alias or table.name
        self.index = index
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high
        self.schema = table.schema.with_qualifier(self.alias)

    def payload_key(self):
        return (
            self.table.name,
            self.alias,
            self.index.column_name if self.index is not None else None,
            self.low,
            self.high,
            self.include_low,
            self.include_high,
        )

    def label(self):
        if self.index is not None:
            bounds = []
            if self.low is not None:
                bounds.append(
                    "{}{}".format(">=" if self.include_low else ">", self.low)
                )
            if self.high is not None:
                bounds.append(
                    "{}{}".format("<=" if self.include_high else "<", self.high)
                )
            return "IndexScan {} via {}({})".format(
                self.alias, self.index.column_name, ", ".join(bounds) or "all"
            )
        return "Scan {}".format(self.alias)


class LogicalRowsScan(LogicalNode):
    """Scan of in-memory rows (bench/DSQ helper plans)."""

    def __init__(self, schema, rows, name="rows"):
        super().__init__()
        self.schema = schema
        self.rows_data = rows
        self.name = name

    def payload_key(self):
        return (self.name, len(self.rows_data))

    def label(self):
        return "Rows {} ({})".format(self.name, len(self.rows_data))


class LogicalVTableScan(LogicalNode):
    """Scan of one external virtual-table instance.

    ``asynchronous`` selects the lowered operator: ``False`` is the
    paper's blocking ``EVScan``; ``True`` (set by the ReqSync insertion
    rule) lowers to ``AEVScan`` and *introduces* placeholder attributes —
    its result columns form the filled set consumed by the clash rules.
    """

    def __init__(self, instance, asynchronous=False, on_error=None):
        super().__init__()
        self.instance = instance
        self.asynchronous = asynchronous
        #: Explicit per-scan degradation policy (``None`` = take the
        #: :class:`~repro.config.EngineConfig` policy).
        self.on_error = on_error
        self.schema = instance.schema

    def payload_key(self):
        return (self.instance.describe(), self.asynchronous, self.on_error)

    def label(self):
        prefix = "AVTableScan" if self.asynchronous else "VTableScan"
        return "{}: {}".format(prefix, self.instance.describe())


# -- unary ----------------------------------------------------------------------


class LogicalFilter(LogicalNode):
    def __init__(self, child, predicate):
        super().__init__()
        self.child = child
        self.predicate = predicate
        self.children = (child,)
        self.schema = child.schema

    def _refresh_schema(self):
        self.schema = self.child.schema

    def payload_key(self):
        return _expr_key(self.predicate)

    def label(self):
        return "Filter: {}".format(self.predicate.sql(self.schema))


class LogicalProject(LogicalNode):
    def __init__(self, child, expressions, schema):
        super().__init__()
        self.child = child
        self.expressions = list(expressions)
        self.children = (child,)
        self.schema = schema

    def payload_key(self):
        return (
            tuple(_expr_key(e) for e in self.expressions),
            tuple(self.schema.names()),
        )

    def label(self):
        return "Project [{}]".format(", ".join(self.schema.names()))


class LogicalAggregate(LogicalNode):
    def __init__(self, child, group_exprs, specs, schema):
        super().__init__()
        self.child = child
        self.group_exprs = list(group_exprs)
        self.specs = list(specs)
        self.children = (child,)
        self.schema = schema

    def payload_key(self):
        return (
            tuple(_expr_key(e) for e in self.group_exprs),
            tuple(spec.sql() for spec in self.specs),
        )

    def label(self):
        parts = [spec.sql(self.children[0].schema) for spec in self.specs]
        if self.group_exprs:
            parts.append(
                "group by {}".format(
                    ", ".join(
                        e.sql(self.children[0].schema) for e in self.group_exprs
                    )
                )
            )
        return "Aggregate: {}".format("; ".join(parts))


class LogicalDistinct(LogicalNode):
    def __init__(self, child):
        super().__init__()
        self.child = child
        self.children = (child,)
        self.schema = child.schema

    def _refresh_schema(self):
        self.schema = self.child.schema

    def label(self):
        return "Distinct"


class LogicalSort(LogicalNode):
    def __init__(self, child, keys):
        super().__init__()
        self.child = child
        self.keys = list(keys)
        self.children = (child,)
        self.schema = child.schema

    def _refresh_schema(self):
        self.schema = self.child.schema

    def payload_key(self):
        return tuple((_expr_key(e), bool(desc)) for e, desc in self.keys)

    def label(self):
        rendered = ", ".join(
            "{}{}".format(expr.sql(self.schema), " desc" if desc else "")
            for expr, desc in self.keys
        )
        return "Sort: {}".format(rendered)


class LogicalLimit(LogicalNode):
    def __init__(self, child, count):
        super().__init__()
        self.child = child
        self.count = count
        self.children = (child,)
        self.schema = child.schema

    def _refresh_schema(self):
        self.schema = self.child.schema

    def payload_key(self):
        return (self.count,)

    def label(self):
        return "Limit {}".format(self.count)


class LogicalReqSync(LogicalNode):
    """The logical request synchronizer (placed by the ReqSync rule pack).

    Schema-transparent; resolves every placeholder below it, so its own
    placeholder set is empty.  Lowering configures the physical
    :class:`~repro.asynciter.reqsync.ReqSync` from the node's flags plus
    the :class:`~repro.config.EngineConfig`.
    """

    def __init__(self, child, stream=False, preserve_order=False):
        super().__init__()
        self.child = child
        self.stream = stream
        self.preserve_order = preserve_order
        self.children = (child,)
        self.schema = child.schema

    def _refresh_schema(self):
        self.schema = self.child.schema

    def payload_key(self):
        return (self.stream, self.preserve_order)

    def label(self):
        modes = []
        if self.stream:
            modes.append("stream")
        if self.preserve_order:
            modes.append("ordered")
        return "ReqSync{}".format(" [{}]".format(", ".join(modes)) if modes else "")


# -- binary ---------------------------------------------------------------------


class _Binary(LogicalNode):
    def __init__(self, left, right):
        super().__init__()
        self.left = left
        self.right = right
        self.children = (left, right)
        self._refresh_schema()

    def _refresh_schema(self):
        self.schema = self.left.schema.concat(self.right.schema)


class LogicalCrossProduct(_Binary):
    def label(self):
        return "CrossProduct"


class LogicalJoin(_Binary):
    """Inner theta-join (the host system's nested-loop join)."""

    def __init__(self, left, right, predicate):
        self.predicate = predicate
        super().__init__(left, right)

    def payload_key(self):
        return _expr_key(self.predicate)

    def label(self):
        return "Join: {}".format(self.predicate.sql(self.schema))


class LogicalDependentJoin(_Binary):
    """Join whose inner side needs bindings from the current outer tuple."""

    def __init__(self, left, right, binding_columns):
        self.binding_columns = dict(binding_columns)
        super().__init__(left, right)

    def payload_key(self):
        return tuple(sorted(self.binding_columns.items()))

    def label(self):
        pairs = ", ".join(
            "{} <- {}".format(param, self.left.schema[index].qualified_name())
            for param, index in sorted(self.binding_columns.items())
        )
        return "DependentJoin: {}".format(pairs)


class LogicalUnion(_Binary):
    def _refresh_schema(self):
        self.schema = self.left.schema

    def label(self):
        return "UnionAll"


# -- analyses -------------------------------------------------------------------


def placeholder_columns(node):
    """Indexes in ``node.schema`` that may still hold placeholders.

    This is the paper's *filled attribute set* A_i: an asynchronous
    virtual-table scan introduces its result columns; a ReqSync resolves
    everything below it (empty set); joins offset the right side;
    projections translate through pass-through column references;
    aggregates always materialize concrete values.
    """
    if isinstance(node, LogicalVTableScan):
        if not node.asynchronous:
            return set()
        positions = {c.name: i for i, c in enumerate(node.instance.schema)}
        return {positions[col] for col in node.instance.result_fields}
    if isinstance(node, LogicalReqSync):
        return set()
    if isinstance(node, LogicalProject):
        below = placeholder_columns(node.child)
        filled = set()
        for out_index, expr in enumerate(node.expressions):
            if isinstance(expr, ColumnRef) and expr.index in below:
                filled.add(out_index)
        return filled
    if isinstance(node, (LogicalCrossProduct, LogicalJoin, LogicalDependentJoin)):
        left_width = len(node.left.schema)
        return placeholder_columns(node.left) | {
            i + left_width for i in placeholder_columns(node.right)
        }
    if isinstance(node, LogicalUnion):
        return placeholder_columns(node.left) | placeholder_columns(node.right)
    if isinstance(node, LogicalAggregate):
        return set()
    if node.children:
        # Unary pass-through nodes (Filter, Sort, Distinct, Limit).
        return placeholder_columns(node.children[0])
    return set()  # stored-table / rows leaves


def walk(node):
    """Preorder traversal of a logical tree."""
    yield node
    for child in node.children:
        yield from walk(child)


def walk_with_parents(node, parent=None):
    """Preorder traversal yielding ``(parent, node)`` pairs."""
    yield parent, node
    for child in node.children:
        yield from walk_with_parents(child, node)


def node_count(node):
    """Number of nodes in the tree rooted at *node*."""
    return sum(1 for _ in walk(node))


def contains_external_scan(node):
    """Does the tree contain any (sync or async) virtual-table scan?"""
    return any(isinstance(n, LogicalVTableScan) for n in walk(node))


def render(node, annotate=None, indent=0):
    """Nested textual rendering of a logical tree (the ``logical`` form).

    *annotate* is an optional callback ``node -> str`` whose non-empty
    return value is appended to the node's line as a bracketed column
    (cost notes, fired-rule notes, ...) — the same convention as
    :meth:`repro.exec.operator.Operator.explain`.
    """
    line = "{}{}".format("  " * indent, node.label())
    if annotate is not None:
        extra = annotate(node)
        if extra:
            line = "{}  [{}]".format(line, extra)
    lines = [line]
    for child in node.children:
        lines.append(render(child, annotate, indent + 1))
    return "\n".join(lines)


# -- lifting physical plans into the algebra ------------------------------------


def lift(plan):
    """Lift a *physical* operator tree into an equivalent logical tree.

    The inverse of :func:`repro.plan.physical.lower` (up to per-operator
    execution state): payloads — table handles, bound expressions,
    virtual-table instances, binding maps — are carried by reference, so
    ``lower(lift(plan))`` reproduces the exact plan shape.  Used by the
    :func:`repro.asynciter.rewrite.apply_asynchronous_iteration` adapter
    to run the rule-based optimizer over plans built by legacy paths.
    """
    # Imported here: repro.exec imports repro.relational which is
    # dependency-light, but keeping the planner importable without the
    # full exec stack is still good hygiene for this module.
    from repro.asynciter.aevscan import AEVScan
    from repro.asynciter.reqsync import ReqSync
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
    from repro.vtables.evscan import EVScan

    if isinstance(plan, IndexScan):
        return LogicalScan(
            plan.table,
            plan.qualifier,
            index=plan.index,
            low=plan.low,
            high=plan.high,
            include_low=plan.include_low,
            include_high=plan.include_high,
        )
    if isinstance(plan, TableScan):
        scan = LogicalScan(plan.table, plan.qualifier)
        if plan.predicate is not None:  # a fused selection: the Filter it was
            return LogicalFilter(scan, plan.predicate)
        return scan
    if isinstance(plan, RowsScan):
        return LogicalRowsScan(plan.schema, plan.rows_data, plan.name)
    if isinstance(plan, EVScan):
        return LogicalVTableScan(plan.instance, on_error=plan.on_error)
    if isinstance(plan, AEVScan):
        return LogicalVTableScan(plan.instance, asynchronous=True)
    if isinstance(plan, ReqSync):
        return LogicalReqSync(
            lift(plan.child),
            stream=plan.stream,
            preserve_order=plan.preserve_order,
        )
    if isinstance(plan, Filter):
        return LogicalFilter(lift(plan.child), plan.predicate)
    if isinstance(plan, Project):
        return LogicalProject(lift(plan.child), plan.expressions, plan.schema)
    if isinstance(plan, Aggregate):
        return LogicalAggregate(
            lift(plan.child), plan.group_exprs, plan.specs, plan.schema
        )
    if isinstance(plan, Distinct):
        return LogicalDistinct(lift(plan.child))
    if isinstance(plan, Sort):
        return LogicalSort(lift(plan.child), plan.keys)
    if isinstance(plan, Limit):
        return LogicalLimit(lift(plan.child), plan.count)
    if isinstance(plan, NestedLoopJoin):
        return LogicalJoin(lift(plan.left), lift(plan.right), plan.predicate)
    if isinstance(plan, DependentJoin):
        return LogicalDependentJoin(
            lift(plan.left), lift(plan.right), plan.binding_columns
        )
    if isinstance(plan, CrossProduct):
        return LogicalCrossProduct(lift(plan.left), lift(plan.right))
    if isinstance(plan, UnionAll):
        return LogicalUnion(lift(plan.left), lift(plan.right))
    raise PlanError(
        "cannot lift physical operator {!r} into the logical algebra".format(plan)
    )
