"""Rule-driven optimization over the logical algebra.

This is layer 2 of the planning stack (see :mod:`repro.plan.logical`):
a small fixed-point rule engine plus the rules that re-express the
repository's plan transformations — most importantly the paper's full
ReqSync placement algorithm (Section 4.5: *Insertion → Percolation →
Consolidation*, with clash rules 1–3 and the enabling rewrites) — as
:class:`Rule` objects over :class:`~repro.plan.logical.LogicalNode`
trees.

Engine
------

A :class:`RuleEngine` holds an ordered list of *priority groups*; each
group is an ordered list of rules.  One optimization step scans the tree
(preorder for ``top_down`` rules, postorder for ``bottom_up`` rules) and
fires the first rule that matches *and* changes the tree; the engine
then restarts from the highest-priority group.  The run terminates at a
fixed point (no rule in any group fires) or when every rule's fire
budget is exhausted.  This restart discipline reproduces the seed
rewriter's control flow exactly: the ReqSync pack's groups are
``[[insert], [consolidate], [percolation rules]]``, matching the seed's
"consolidate-once eagerly, then advance the first ReqSync found in
preorder, then restart" loop.

Each firing is recorded as a :class:`RuleFiring` (with before/after node
counts — surfaced by ``explain(form="rules")``), emitted on the obs
tracer as a ``plan.rule_fired`` event, and counted on the metrics
registry as ``planner.rules_fired{rule=...}``.

Rules
-----

:func:`reqsync_pack`
    The paper's placement algorithm.  Runs by default on the
    asynchronous path; behavior-preserving with respect to the seed
    implementation (verified by golden snapshots and an A/B structural
    diff against the frozen legacy rewriter in
    ``tests/test_rule_equivalence.py``).
:data:`RELATIONAL_PIPELINE`
    The one relational pipeline ``Planner.optimize`` runs over every
    query: IN-subquery decorrelation, disjunction splitting, derived
    join bounds, dead-DISTINCT removal and projection pruning.  There
    is no switch: each structural rewrite is *gated* by the engine's
    :class:`~repro.plan.cost.CostModel` — the candidate only replaces
    the original when the model prices it strictly cheaper, so
    calibration profiles (measured latencies, ANALYZE statistics, cache
    hit ratios) decide each firing.  Every rule here is reachable from
    SQL (``tests/test_rewrite_packs.py::TestReachability``); custom
    rules are driven through a :class:`RuleEngine` of your own.
:func:`access_path`
    Access-path selection — the one place a sargable predicate becomes
    an index window.  The planner calls it at build time and the
    rewrites call it on the ``Filter(Scan)`` shapes they mint.
"""

from repro.obs.trace import PLAN_RULE_FIRED
from repro.plan import logical as L
from repro.relational.expr import (
    BinaryOp,
    ColumnRef,
    Comparison,
    Conjunction,
    Disjunction,
    InSubqueryPredicate,
    LikePredicate,
    Literal,
    Negation,
    NullCheck,
    make_conjunction,
)
from repro.util.errors import PlanError

TOP_DOWN = "top_down"
BOTTOM_UP = "bottom_up"

#: Default per-rule fire budget; generous, but bounds runaway rewrites.
DEFAULT_FIRE_BUDGET = 1000


class _Root:
    """Sentinel parent above the real root, so every node has a parent."""

    def __init__(self, child):
        self.child = child
        self.children = (child,)
        self.schema = child.schema

    def replace_child(self, old, new):
        assert old is self.child
        self.child = new
        self.children = (new,)
        self.schema = new.schema


class RuleContext:
    """Per-scan state handed to rules: parent links and the knobs.

    ``cost_model`` (a :class:`~repro.plan.cost.CostModel`, or None) is
    what the cost-gated rules consult; without one their gates default
    to permissive (structural guards still apply).
    """

    def __init__(self, root, parents, settings=None, cost_model=None):
        self.root = root
        self._parents = parents
        self.settings = settings
        self.cost_model = cost_model

    def parent_of(self, node):
        return self._parents.get(id(node))

    def grandparent_of(self, node):
        parent = self.parent_of(node)
        if parent is None or isinstance(parent, _Root):
            return None
        return self._parents.get(id(parent))

    def is_left_child(self, parent, node):
        return getattr(parent, "left", None) is node

    def left_arity(self, parent):
        return len(parent.left.schema)


class RuleFiring:
    """Record of one rule application (shown by ``explain(form="rules")``)."""

    __slots__ = ("rule", "before_nodes", "after_nodes")

    def __init__(self, rule, before_nodes, after_nodes):
        self.rule = rule
        self.before_nodes = before_nodes
        self.after_nodes = after_nodes

    def as_dict(self):
        return {
            "rule": self.rule,
            "before_nodes": self.before_nodes,
            "after_nodes": self.after_nodes,
        }

    def __repr__(self):
        return "<RuleFiring {} {}->{}>".format(
            self.rule, self.before_nodes, self.after_nodes
        )


class Rule:
    """One rewrite: ``matches(node, ctx)`` guards ``apply(node, ctx)``.

    ``apply`` mutates the tree through ``replace_child`` and returns
    True when it changed anything (a rule may match yet discover the
    rewrite is not possible — e.g. a clashing selection that cannot be
    hoisted — in which case it returns False and the scan continues).

    ``direction`` chooses the scan order used when driving this rule:
    ``top_down`` (preorder, the default — percolation wants the
    *highest* ReqSync first) or ``bottom_up`` (postorder — composition
    rules that shrink subtrees converge faster bottom-up).
    """

    name = "rule"
    direction = TOP_DOWN

    def matches(self, node, ctx):  # pragma: no cover - interface
        raise NotImplementedError

    def apply(self, node, ctx):  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self):
        return "<Rule {}>".format(self.name)


class RuleEngine:
    """Fixed-point driver over priority groups of rules.

    *groups* is an ordered list of rule lists.  ``run`` returns the
    optimized root; firings accumulate on :attr:`firings`.
    """

    def __init__(
        self,
        groups,
        settings=None,
        fire_budget=DEFAULT_FIRE_BUDGET,
        tracer=None,
        metrics=None,
        query_id=None,
        cost_model=None,
    ):
        self.groups = [list(group) for group in groups]
        self.settings = settings
        self.fire_budget = fire_budget
        self.tracer = tracer
        self.metrics = metrics
        self.query_id = query_id
        self.cost_model = cost_model
        self.firings = []
        self.exhausted = set()
        self._fires = {}

    # -- public API -----------------------------------------------------------

    def run(self, node):
        """Optimize *node* to a fixed point; returns the (new) root node."""
        root = _Root(node)
        while self._step(root):
            pass  # a firing restarts from the highest-priority group
        return root.child

    # -- driver ---------------------------------------------------------------

    def _step(self, root):
        """Fire at most one rule, first group first; True when the tree changed."""
        # One traversal serves every group and both scan orders: a scan
        # that fires returns at once, so the tree each later scan sees is
        # the one walked here.
        pairs = list(L.walk_with_parents(root.child, root))
        parents = {id(child): parent for parent, child in pairs}
        ctx = RuleContext(root, parents, self.settings, self.cost_model)
        preorder = [child for _, child in pairs]
        for group in self.groups:
            active = [r for r in group if not self._budget_spent(r)]
            for direction, order in (
                (TOP_DOWN, preorder),
                (BOTTOM_UP, preorder[::-1]),
            ):
                rules = [r for r in active if r.direction == direction]
                if rules and self._scan(root, ctx, rules, order):
                    return True
        return False

    def _scan(self, root, ctx, rules, order):
        for node in order:
            for rule in rules:
                if rule.matches(node, ctx) and rule.apply(node, ctx):
                    self._record(rule, len(order), L.node_count(root.child))
                    return True
        return False

    def _budget_spent(self, rule):
        if self._fires.get(rule.name, 0) >= self.fire_budget:
            self.exhausted.add(rule.name)
            return True
        return False

    def _record(self, rule, before, after):
        self._fires[rule.name] = self._fires.get(rule.name, 0) + 1
        self.firings.append(RuleFiring(rule.name, before, after))
        if self.tracer is not None:
            self.tracer.emit(
                PLAN_RULE_FIRED,
                query_id=self.query_id,
                rule=rule.name,
                before_nodes=before,
                after_nodes=after,
            )
        if self.metrics is not None:
            self.metrics.inc("planner.rules_fired", rule=rule.name)


# ---------------------------------------------------------------------------
# The ReqSync pack — the paper's Insertion / Percolation / Consolidation.
# ---------------------------------------------------------------------------


def _filled_under(reqsync):
    """The filled-attribute set A_i of *reqsync* (in its child's schema)."""
    return L.placeholder_columns(reqsync.child)


def _filled_in_parent(reqsync, parent, ctx):
    """Translate A_i into *parent*'s output coordinates."""
    filled = _filled_under(reqsync)
    if isinstance(
        parent, (L.LogicalCrossProduct, L.LogicalJoin, L.LogicalDependentJoin)
    ) and not ctx.is_left_child(parent, reqsync):
        offset = ctx.left_arity(parent)
        return {i + offset for i in filled}
    return set(filled)


def _swap_up(grandparent, parent, reqsync):
    """``gp -> parent -> ... reqsync ...`` becomes
    ``gp -> reqsync -> parent -> ...`` (reqsync's old child)."""
    parent.replace_child(reqsync, reqsync.child)
    reqsync.child = parent
    reqsync.children = (parent,)
    reqsync.schema = parent.schema
    # Hand the (now schema-consistent) reqsync to the grandparent last, so
    # its _refresh_schema sees the post-swap schema.
    grandparent.replace_child(parent, reqsync)


class _ReqSyncRule(Rule):
    """Base for percolation rules: match a ReqSync under a movable parent."""

    parent_type = None

    def matches(self, node, ctx):
        if not isinstance(node, L.LogicalReqSync):
            return False
        parent = ctx.parent_of(node)
        if parent is None or isinstance(parent, (_Root, L.LogicalReqSync)):
            return False
        if not isinstance(parent, self.parent_type):
            return False
        return self.admits(node, parent, ctx)

    def admits(self, reqsync, parent, ctx):
        return True

    def apply(self, node, ctx):
        parent = ctx.parent_of(node)
        _swap_up(ctx.parent_of(parent), parent, node)
        return True


class InsertReqSync(Rule):
    """Insertion: EVScan -> ReqSync over AEVScan (paper step 1).

    Matching a *synchronous* virtual-table scan, it flips the scan to
    asynchronous (the lowered AEVScan registers calls and emits
    placeholders) and caps it with a ReqSync that waits for them.
    """

    name = "reqsync.insert"

    def matches(self, node, ctx):
        return isinstance(node, L.LogicalVTableScan) and not node.asynchronous

    def apply(self, node, ctx):
        parent = ctx.parent_of(node)
        scan = L.LogicalVTableScan(node.instance, asynchronous=True)
        scan.annotations.update(node.annotations)
        parent.replace_child(
            node, L.LogicalReqSync(scan, stream=ctx.settings.stream)
        )
        return True


class ConsolidateReqSyncs(Rule):
    """Consolidation: merge ReqSync directly over ReqSync (paper step 3).

    One ReqSync manages any number of pending calls per tuple (Section
    4.4), so stacked synchronizers collapse; order preservation is OR'd.
    """

    name = "reqsync.consolidate"

    def matches(self, node, ctx):
        return isinstance(node, L.LogicalReqSync) and isinstance(
            node.child, L.LogicalReqSync
        )

    def apply(self, node, ctx):
        inner = node.child
        node.preserve_order = node.preserve_order or inner.preserve_order
        node.replace_child(inner, inner.child)
        return True


class PercolateAboveFilter(_ReqSyncRule):
    """Percolation past a non-clashing selection."""

    name = "reqsync.percolate_filter"
    parent_type = L.LogicalFilter

    def admits(self, reqsync, parent, ctx):
        filled = _filled_in_parent(reqsync, parent, ctx)
        return not (parent.predicate.referenced_columns() & filled)


class HoistClashingSelection(_ReqSyncRule):
    """Enabling rewrite: hoist a clashing selection above *its* parent.

    Clash rule 1 blocks ReqSync under a selection that reads a filled
    attribute; but the selection itself may commute upward (through
    filters, sorts, distincts, and — with a predicate remap — past
    binary joins), clearing the way for the next percolation step.
    """

    name = "reqsync.hoist_selection"
    parent_type = L.LogicalFilter

    def admits(self, reqsync, parent, ctx):
        filled = _filled_in_parent(reqsync, parent, ctx)
        return bool(parent.predicate.referenced_columns() & filled)

    def apply(self, node, ctx):
        filter_op = ctx.parent_of(node)
        target = ctx.parent_of(filter_op)
        if target is None or isinstance(target, (_Root, L.LogicalReqSync)):
            return False
        great = ctx.parent_of(target)
        if great is None:
            return False
        if isinstance(
            target, (L.LogicalFilter, L.LogicalSort, L.LogicalDistinct)
        ):
            predicate = filter_op.predicate
        elif isinstance(
            target,
            (L.LogicalCrossProduct, L.LogicalJoin, L.LogicalDependentJoin),
        ):
            if ctx.is_left_child(target, filter_op):
                predicate = filter_op.predicate
            else:
                offset = ctx.left_arity(target)
                refs = filter_op.predicate.referenced_columns()
                predicate = filter_op.predicate.remap(
                    {i: i + offset for i in refs}
                )
        else:
            return False
        # Splice the selection out of its slot, then re-create it (with
        # the remapped predicate) above the operator it commuted past.
        target.replace_child(filter_op, filter_op.child)
        great.replace_child(target, L.LogicalFilter(target, predicate))
        return True


class PercolateAboveProject(_ReqSyncRule):
    """Percolation past a projection, guarded by clash rules 1 and 2."""

    name = "reqsync.percolate_project"
    parent_type = L.LogicalProject

    def admits(self, reqsync, parent, ctx):
        filled = _filled_in_parent(reqsync, parent, ctx)
        kept = {
            e.index for e in parent.expressions if isinstance(e, ColumnRef)
        }
        if not filled <= kept:
            return False  # clash rule 2: projection drops a filled attr
        computed = set()
        for expr in parent.expressions:
            if not isinstance(expr, ColumnRef):
                computed |= expr.referenced_columns()
        # clash rule 1: a computed output depends on a filled attribute.
        return not (computed & filled)


class PercolateAboveDependentJoin(_ReqSyncRule):
    """Percolation past a dependent join (blocked when the inner side's
    bindings read a filled attribute of the outer)."""

    name = "reqsync.percolate_depjoin"
    parent_type = L.LogicalDependentJoin

    def admits(self, reqsync, parent, ctx):
        if ctx.is_left_child(parent, reqsync):
            filled = _filled_in_parent(reqsync, parent, ctx)
            if set(parent.binding_columns.values()) & filled:
                return False
        return True


class JoinToSelectionOverCrossProduct(_ReqSyncRule):
    """Enabling rewrite: clashing join -> selection over cross-product
    (the paper's Example 3).  The ReqSync can then rise through the
    cross-product while the selection stays above."""

    name = "reqsync.join_to_selection"
    parent_type = L.LogicalJoin

    def admits(self, reqsync, parent, ctx):
        filled = _filled_in_parent(reqsync, parent, ctx)
        return bool(parent.predicate.referenced_columns() & filled)

    def apply(self, node, ctx):
        join = ctx.parent_of(node)
        grandparent = ctx.parent_of(join)
        product = L.LogicalCrossProduct(join.left, join.right)
        grandparent.replace_child(join, L.LogicalFilter(product, join.predicate))
        return True


class PercolateAboveJoin(_ReqSyncRule):
    """Percolation past a non-clashing join."""

    name = "reqsync.percolate_join"
    parent_type = L.LogicalJoin

    def admits(self, reqsync, parent, ctx):
        filled = _filled_in_parent(reqsync, parent, ctx)
        return not (parent.predicate.referenced_columns() & filled)


class PercolateAboveCrossProduct(_ReqSyncRule):
    """Percolation past oblivious binary operators (never clash)."""

    name = "reqsync.percolate_product"
    parent_type = (L.LogicalCrossProduct, L.LogicalUnion)


class PullAboveSortOrdered(_ReqSyncRule):
    """Extension: pull ReqSync above a Sort whose keys do not read a
    filled attribute, switching to order-preserving emission so the
    sorted order survives (``pull_above_order_sensitive=True``)."""

    name = "reqsync.pull_above_sort"
    parent_type = L.LogicalSort

    def admits(self, reqsync, parent, ctx):
        if not ctx.settings.pull_above_order_sensitive:
            return False
        filled = _filled_in_parent(reqsync, parent, ctx)
        keys = set()
        for expr, _ in parent.keys:
            keys |= expr.referenced_columns()
        return not (keys & filled)

    def apply(self, node, ctx):
        node.preserve_order = True
        return super().apply(node, ctx)


def reqsync_pack(settings):
    """Priority groups implementing the paper's placement algorithm.

    Group order reproduces the seed rewriter: insertion first, then
    eager consolidation (when enabled), then the percolation rules —
    each firing restarts from the top, so adjacent ReqSyncs merge
    before either floats to the top of the plan as a no-op.
    Aggregate/Distinct (clash rule 3) and Limit (counting) have no
    rule: ReqSync simply never rises past them.
    """
    groups = [[InsertReqSync()]]
    if settings.consolidate:
        groups.append([ConsolidateReqSyncs()])
    groups.append(
        [
            PercolateAboveFilter(),
            HoistClashingSelection(),
            PercolateAboveProject(),
            PercolateAboveDependentJoin(),
            JoinToSelectionOverCrossProduct(),
            PercolateAboveJoin(),
            PercolateAboveCrossProduct(),
            PullAboveSortOrdered(),
        ]
    )
    return groups


# ---------------------------------------------------------------------------
# The relational pipeline (RELATIONAL_PIPELINE, at the end of this module).
# ---------------------------------------------------------------------------


def _split_conjuncts(predicate):
    if isinstance(predicate, Conjunction):
        terms = []
        for term in predicate.terms:
            terms.extend(_split_conjuncts(term))
        return terms
    return [predicate]


class ComposeProjections(Rule):
    """Projection pruning: collapse a pass-through projection over
    another projection by substituting the inner expressions."""

    name = "prune.compose_projections"
    direction = BOTTOM_UP

    def matches(self, node, ctx):
        return (
            isinstance(node, L.LogicalProject)
            and isinstance(node.child, L.LogicalProject)
            and all(isinstance(e, ColumnRef) for e in node.expressions)
        )

    def apply(self, node, ctx):
        parent = ctx.parent_of(node)
        inner = node.child
        composed = [inner.expressions[e.index] for e in node.expressions]
        parent.replace_child(
            node, L.LogicalProject(inner.child, composed, node.schema)
        )
        return True


class RemoveIdentityProject(Rule):
    """Projection pruning: drop a projection that passes every input
    column through unchanged (same order, same names)."""

    name = "prune.identity_project"
    direction = BOTTOM_UP

    def matches(self, node, ctx):
        if not isinstance(node, L.LogicalProject):
            return False
        child_schema = node.child.schema
        if len(node.expressions) != len(child_schema):
            return False
        for i, expr in enumerate(node.expressions):
            if not (isinstance(expr, ColumnRef) and expr.index == i):
                return False
        return list(node.schema.names()) == list(child_schema.names())

    def apply(self, node, ctx):
        ctx.parent_of(node).replace_child(node, node.child)
        return True


# ---------------------------------------------------------------------------
# GOLD-style cost-gated rules: decorrelate / or_to_union / early_filter /
# agg_single_pass.
#
# Shared design: every rule below builds its candidate subtree *without*
# mutating the original, asks `_cheaper` whether the engine's CostModel
# prices the candidate strictly below the current shape (lowering both
# through the physical mapper so calibration, ANALYZE statistics, and
# cache hit ratios all participate), and only then splices it in.  The
# structural guards around each rewrite are exact — a rule that cannot
# prove soundness for a shape must not fire on it — and each guard has a
# negative regression test in tests/test_rewrite_packs.py.
# ---------------------------------------------------------------------------


def _clone_tree(node):
    """Structure-deep copy of a logical tree (payloads by reference).

    Rules that duplicate an input subtree (one copy per UNION-ALL branch)
    need independent child links so later rewrites of one branch cannot
    corrupt a sibling; table handles, bound expressions, and vtable
    instances are shared, exactly like :func:`~repro.plan.logical.lift`.
    """
    if isinstance(node, L.LogicalScan):
        twin = L.LogicalScan(
            node.table,
            node.alias,
            index=node.index,
            low=node.low,
            high=node.high,
            include_low=node.include_low,
            include_high=node.include_high,
        )
    elif isinstance(node, L.LogicalRowsScan):
        twin = L.LogicalRowsScan(node.schema, node.rows_data, node.name)
    elif isinstance(node, L.LogicalVTableScan):
        twin = L.LogicalVTableScan(
            node.instance, asynchronous=node.asynchronous, on_error=node.on_error
        )
    elif isinstance(node, L.LogicalFilter):
        twin = L.LogicalFilter(_clone_tree(node.child), node.predicate)
    elif isinstance(node, L.LogicalProject):
        twin = L.LogicalProject(
            _clone_tree(node.child), list(node.expressions), node.schema
        )
    elif isinstance(node, L.LogicalAggregate):
        twin = L.LogicalAggregate(
            _clone_tree(node.child), node.group_exprs, node.specs, node.schema
        )
    elif isinstance(node, L.LogicalDistinct):
        twin = L.LogicalDistinct(_clone_tree(node.child))
    elif isinstance(node, L.LogicalSort):
        twin = L.LogicalSort(_clone_tree(node.child), node.keys)
    elif isinstance(node, L.LogicalLimit):
        twin = L.LogicalLimit(_clone_tree(node.child), node.count)
    elif isinstance(node, L.LogicalReqSync):
        twin = L.LogicalReqSync(
            _clone_tree(node.child),
            stream=node.stream,
            preserve_order=node.preserve_order,
        )
    elif isinstance(node, L.LogicalJoin):
        twin = L.LogicalJoin(
            _clone_tree(node.left), _clone_tree(node.right), node.predicate
        )
    elif isinstance(node, L.LogicalDependentJoin):
        twin = L.LogicalDependentJoin(
            _clone_tree(node.left), _clone_tree(node.right), node.binding_columns
        )
    elif isinstance(node, L.LogicalCrossProduct):
        twin = L.LogicalCrossProduct(_clone_tree(node.left), _clone_tree(node.right))
    elif isinstance(node, L.LogicalUnion):
        twin = L.LogicalUnion(_clone_tree(node.left), _clone_tree(node.right))
    else:  # pragma: no cover - new node types must be added here
        raise PlanError("cannot clone logical node {!r}".format(node))
    twin.annotations.update(node.annotations)
    return twin


def _pure_predicate(expr):
    """Is *expr* deterministic, local, and safe to re-evaluate/duplicate?

    The whitelist covers exactly the closed expression algebra over
    literals and column references.  Subquery predicates (their subplans
    carry execution state and may reach external calls) and any
    expression class this module does not know — the extension point for
    non-deterministic or external-call predicates — are *impure*, so the
    ``or_to_union`` rewrite refuses to clone them.
    """
    if isinstance(expr, (Literal, ColumnRef)):
        return True
    if isinstance(expr, (Comparison, BinaryOp)):
        return _pure_predicate(expr.left) and _pure_predicate(expr.right)
    if isinstance(expr, (Conjunction, Disjunction)):
        return all(_pure_predicate(term) for term in expr.terms)
    if isinstance(expr, Negation):
        return _pure_predicate(expr.term)
    if isinstance(expr, (LikePredicate, NullCheck)):
        return _pure_predicate(expr.expr)
    return False


def _local_only(node):
    """No external scans, synchronizers, or dependent joins below *node*."""
    return not any(
        isinstance(
            n, (L.LogicalVTableScan, L.LogicalReqSync, L.LogicalDependentJoin)
        )
        for n in L.walk(node)
    )


def _plan_seconds(model, node, config):
    """Price a logical subtree by lowering it through the physical mapper."""
    from repro.plan.physical import lower

    return model.seconds(lower(node, config))


def _cheaper(ctx, before, after):
    """The cost gate: does the model price *after* strictly below *before*?

    Gating prices both shapes under a ``hash_joins``-enabled clone of the
    engine's model, because lowering upgrades clean equi-joins to hash
    joins at runtime and a gate blind to that would never accept a
    decorrelation.  No model on the context (rule engines driven outside
    the planner) means no gate — the structural guards alone decide.
    Pricing failures (subtrees the model cannot walk) refuse the rewrite.
    """
    model = getattr(ctx, "cost_model", None)
    if model is None:
        return True
    gate = model.clone()
    gate.hash_joins = True
    try:
        return _plan_seconds(gate, after, ctx.settings) < _plan_seconds(
            gate, before, ctx.settings
        )
    except Exception:
        return False


_SARGABLE_OPS = ("=", "<", "<=", ">", ">=")
_FLIP_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _term_bound(term):
    """``(column_index, op, constant)`` for a sargable comparison, else None.

    Normalizes ``const op col`` to ``col flip(op) const``; NULL and
    boolean constants are never sargable.
    """
    if not isinstance(term, Comparison) or term.op not in _SARGABLE_OPS:
        return None
    pairs = (
        (term.left, term.right, term.op),
        (term.right, term.left, _FLIP_OP.get(term.op, term.op)),
    )
    for column_side, const_side, op in pairs:
        if (
            isinstance(column_side, ColumnRef)
            and isinstance(const_side, Literal)
            and const_side.value is not None
            and not isinstance(const_side.value, bool)
        ):
            return column_side.index, op, const_side.value
    return None


def _bound_window(op, value):
    """``(low, high, include_low, include_high)`` window for one bound."""
    if op == "=":
        return (value, value, True, True)
    if op == ">":
        return (value, None, False, True)
    if op == ">=":
        return (value, None, True, True)
    if op == "<":
        return (None, value, True, False)
    return (None, value, True, True)  # "<="


def _disjoint_windows(disjunction):
    """Exact duplicate-safety analysis for ``or_to_union``.

    Returns the shared column index when every term of *disjunction* is a
    sargable comparison on the *same* column whose value windows are
    pairwise disjoint.  Then each input row satisfies at most one term
    (no duplicates across UNION-ALL branches, so no unsound compensation
    predicate is ever needed), and a row that makes any term NULL makes
    every term NULL (the whole disjunction was NULL — dropped — and every
    branch drops it too).  Anything the analysis cannot *prove* disjoint
    — different columns, mixed value types, overlapping or double-open
    windows, non-comparison terms, NULL literals — returns None and the
    split never fires.
    """
    if len(disjunction.terms) < 2:
        return None
    column = None
    string_valued = None
    windows = []
    for term in disjunction.terms:
        bound = _term_bound(term)
        if bound is None:
            return None
        index, op, value = bound
        if column is None:
            column, string_valued = index, isinstance(value, str)
        elif index != column or isinstance(value, str) != string_valued:
            return None
        windows.append(_bound_window(op, value))
    windows.sort(key=lambda w: (0,) if w[0] is None else (1, w[0]))
    for (_, ah, _, aih), (bl, _, bil, _) in zip(windows, windows[1:]):
        if ah is None or bl is None:
            return None  # an unbounded side must overlap its neighbor
        if ah > bl or (ah == bl and aih and bil):
            return None
    return column


class _IndexBounds:
    """Accumulates sargable comparisons into one [low, high] window."""

    def __init__(self):
        self.low = None
        self.high = None
        self.include_low = True
        self.include_high = True
        self._have_equality = False

    def tighten(self, op, value):
        """Fold one comparison in; returns False if it cannot be absorbed."""
        if self._have_equality:
            return False  # keep further predicates as ordinary filters
        if op == "=":
            if self.low is not None or self.high is not None:
                return False
            self.low = self.high = value
            self._have_equality = True
            return True
        if op in (">", ">="):
            include = op == ">="
            if self.low is None or value > self.low or (
                value == self.low and self.include_low and not include
            ):
                self.low = value
                self.include_low = include
            return True
        if op in ("<", "<="):
            include = op == "<="
            if self.high is None or value < self.high or (
                value == self.high and self.include_high and not include
            ):
                self.high = value
                self.include_high = include
            return True
        return False


def access_path(scan, predicates):
    """Access-path selection: an index window for a bare stored-table scan.

    *predicates* are bound over *scan*'s own schema.  The first of the
    table's indexes whose column some predicate restricts wins; a
    predicate is absorbed whole or not at all — every conjunct in it
    must be a sargable comparison of that column against a constant of
    the column's kind (so ``BETWEEN`` folds in as one unit) that
    :class:`_IndexBounds` can tighten.  Returns ``(indexed_scan,
    absorbed)`` with one flag per predicate, or None when no index
    applies.
    """
    for index in getattr(scan.table, "indexes", None) or ():
        column = scan.schema.maybe_resolve(index.column_name)
        if column is None:
            continue
        numeric = scan.schema[column].type.is_numeric
        window = _IndexBounds()
        absorbed = []
        for predicate in predicates:
            bounds = [_term_bound(term) for term in _split_conjuncts(predicate)]
            absorbed.append(
                all(
                    bound is not None
                    and bound[0] == column
                    and numeric == isinstance(bound[2], (int, float))
                    for bound in bounds
                )
                and all(window.tighten(op, value) for _, op, value in bounds)
            )
        if any(absorbed):
            indexed = L.LogicalScan(
                scan.table,
                scan.alias,
                index=index,
                low=window.low,
                high=window.high,
                include_low=window.include_low,
                include_high=window.include_high,
            )
            return indexed, absorbed
    return None


def _index_access(filter_node):
    """Replay access-path selection under *filter_node*.

    A rewrite that mints a filter over a bare stored-table scan exposes
    conjuncts the planner never saw at build time; when
    :func:`access_path` absorbs some of them, returns the replacement
    subtree (IndexScan, optionally under a residual filter), else None.
    """
    child = filter_node.child
    if not isinstance(child, L.LogicalScan) or child.index is not None:
        return None
    terms = _split_conjuncts(filter_node.predicate)
    choice = access_path(child, terms)
    if choice is None:
        return None
    scan, absorbed = choice
    remainder = make_conjunction(
        [term for term, taken in zip(terms, absorbed) if not taken]
    )
    return L.LogicalFilter(scan, remainder) if remainder is not None else scan


class DecorrelateInToJoin(Rule):
    """``decorrelate``: an ``x IN (subquery)`` filter conjunct becomes a
    join against the deduplicated subquery — a grouped semi-join.

    ``Filter[x IN S](child)`` rewrites to
    ``Project[child cols](Join[x = s](child, Distinct(S)))``: the
    Distinct keeps matched rows from multiplying, the equi-join shape is
    what the executor upgrades to a hash join, and NULL probes / NULL
    candidates drop on both sides (a NULL never equals anything, and
    ``NULL IN S`` is never True).  Guards — each one a soundness
    boundary, not a heuristic:

    - non-negated only (``NOT IN`` over a NULL-containing list is
      three-valued in a way an anti-join here would not reproduce);
    - the probe must be a bare column reference;
    - the subplan must lift into the algebra and be fully local (no
      external scans whose call behavior the duplicate evaluation in a
      join build would change);
    - probe and candidate column types must agree (``IN`` compares
      mismatched types loosely as non-matches; a join predicate raises).
    """

    name = "decorrelate.in_to_join"

    def matches(self, node, ctx):
        return self._target(node) is not None

    def _target(self, node):
        if not isinstance(node, L.LogicalFilter):
            return None
        conjuncts = _split_conjuncts(node.predicate)
        for position, term in enumerate(conjuncts):
            if not isinstance(term, InSubqueryPredicate) or term.negated:
                continue
            if not isinstance(term.expr, ColumnRef):
                continue
            try:
                lifted = L.lift(term.subplan)
            except PlanError:
                continue
            if len(lifted.schema) != 1 or not _local_only(lifted):
                continue
            probe_type = node.child.schema[term.expr.index].type
            if probe_type.is_numeric != lifted.schema[0].type.is_numeric:
                continue
            return conjuncts, position, lifted
        return None

    def apply(self, node, ctx):
        conjuncts, position, lifted = self._target(node)
        probe = conjuncts[position]
        rest = conjuncts[:position] + conjuncts[position + 1 :]
        child = node.child
        width = len(child.schema)
        join = L.LogicalJoin(
            child,
            L.LogicalDistinct(lifted),
            Comparison("=", ColumnRef(probe.expr.index), ColumnRef(width)),
        )
        keep = [
            ColumnRef(i, child.schema[i].qualified_name()) for i in range(width)
        ]
        candidate = L.LogicalProject(join, keep, child.schema)
        if rest:
            candidate = L.LogicalFilter(candidate, make_conjunction(rest))
        if not _cheaper(ctx, node, candidate):
            return False
        ctx.parent_of(node).replace_child(node, candidate)
        return True


class SplitDisjunctionToUnion(Rule):
    """``or_to_union``: a filter whose predicate contains a provably
    disjoint same-column disjunction splits into one UNION-ALL branch
    per disjunct, each a conjunctive filter over its own copy of the
    input — and, when the input is a bare scan with a matching index,
    each branch collapses to a narrow index window.

    Exactness rests entirely on :func:`_disjoint_windows`: disjoint
    windows mean no row satisfies two branches (UNION ALL introduces no
    duplicates, so no NULL-unsound ``AND NOT other`` compensation is
    needed) and NULL rows drop everywhere.  The whole predicate must be
    pure (it is re-evaluated once per branch) and the input subtree
    local-only (it is cloned per branch; duplicating external scans
    would multiply calls).
    """

    name = "or_to_union.split_disjunction"

    def matches(self, node, ctx):
        return self._target(node) is not None

    def _target(self, node):
        if not isinstance(node, L.LogicalFilter):
            return None
        conjuncts = _split_conjuncts(node.predicate)
        for position, term in enumerate(conjuncts):
            if isinstance(term, Disjunction) and _disjoint_windows(term) is not None:
                break
        else:
            return None
        if not _pure_predicate(node.predicate) or not _local_only(node.child):
            return None
        return conjuncts, position

    def apply(self, node, ctx):
        conjuncts, position = self._target(node)
        disjunction = conjuncts[position]
        rest = conjuncts[:position] + conjuncts[position + 1 :]
        branches = []
        for term in disjunction.terms:
            branch = L.LogicalFilter(
                _clone_tree(node.child), make_conjunction([term] + rest)
            )
            branches.append(_index_access(branch) or branch)
        union = branches[0]
        for branch in branches[1:]:
            union = L.LogicalUnion(union, branch)
        if not _cheaper(ctx, node, union):
            return False
        ctx.parent_of(node).replace_child(node, union)
        return True


class DeriveJoinConstraint(Rule):
    """``early_filter``: derive the transitive constant constraint across
    an equi-join.  ``l = r AND l op const`` pins ``r op const`` on the
    other side too — any inner row violating it could only pair with an
    outer row the original predicate rejects — so the derived filter
    installs directly on that side's input (upgrading to an index window
    when one matches) while the original predicate stays for exactness.

    Derivations are remembered per join (``early_filter_derived``), so a
    gated refusal is retried but an accepted derivation never loops.
    """

    name = "early_filter.derive_join_filter"

    def matches(self, node, ctx):
        return self._target(node) is not None

    def _target(self, node):
        if not isinstance(node, L.LogicalJoin):
            return None
        derived = node.annotations.setdefault("early_filter_derived", set())
        conjuncts = _split_conjuncts(node.predicate)
        left_width = len(node.left.schema)
        equalities = []
        for term in conjuncts:
            if isinstance(term, Comparison) and term.is_equijoin():
                li, ri = sorted((term.left.index, term.right.index))
                if li < left_width <= ri:
                    equalities.append((li, ri))
        if not equalities:
            return None
        for term in conjuncts:
            bound = _term_bound(term)
            if bound is None:
                continue
            index, op, value = bound
            for li, ri in equalities:
                if index == li:
                    side, target = "right", ri - left_width
                elif index == ri:
                    side, target = "left", li
                else:
                    continue
                mirrored = Comparison(op, ColumnRef(target), Literal(value))
                key = (side, mirrored.sql())
                if key not in derived:
                    return side, mirrored, key
        return None

    def apply(self, node, ctx):
        side, mirrored, key = self._target(node)
        left, right = _clone_tree(node.left), _clone_tree(node.right)
        if side == "left":
            pushed = L.LogicalFilter(left, mirrored)
            left = _index_access(pushed) or pushed
        else:
            pushed = L.LogicalFilter(right, mirrored)
            right = _index_access(pushed) or pushed
        candidate = L.LogicalJoin(left, right, node.predicate)
        candidate.annotations.update(node.annotations)
        if not _cheaper(ctx, node, candidate):
            return False
        # The annotation set is shared between node and candidate, so the
        # derivation is remembered wherever the join ends up.
        node.annotations["early_filter_derived"].add(key)
        ctx.parent_of(node).replace_child(node, candidate)
        return True


class DropDistinctOverAggregate(Rule):
    """``agg_single_pass``: SELECT DISTINCT over a grouped aggregate is a
    dead pass — aggregate output is already unique per group key.

    Fires on ``Distinct(Aggregate)`` directly, and on
    ``Distinct(Project(Aggregate))`` when the projection is pure column
    references that keep *every* group column (then any two output rows
    still differ in a group column).  A global aggregate (no GROUP BY)
    emits exactly one row, so any projection of it is trivially unique.
    """

    name = "agg_single_pass.drop_distinct"
    direction = BOTTOM_UP

    def matches(self, node, ctx):
        if not isinstance(node, L.LogicalDistinct):
            return False
        child = node.child
        if isinstance(child, L.LogicalAggregate):
            return True
        if isinstance(child, L.LogicalProject) and isinstance(
            child.child, L.LogicalAggregate
        ):
            if not all(isinstance(e, ColumnRef) for e in child.expressions):
                return False
            kept = {e.index for e in child.expressions}
            groups = len(child.child.group_exprs)
            return set(range(groups)) <= kept
        return False

    def apply(self, node, ctx):
        if not _cheaper(ctx, node, node.child):
            return False
        ctx.parent_of(node).replace_child(node, node.child)
        return True


#: The relational pipeline ``Planner.optimize`` runs over every query, as
#: one priority group.  The instances are stateless (per-tree bookkeeping
#: lives in node annotations), so every planner and thread shares them.
RELATIONAL_PIPELINE = (
    DecorrelateInToJoin(),
    SplitDisjunctionToUnion(),
    DeriveJoinConstraint(),
    DropDistinctOverAggregate(),
    ComposeProjections(),
    RemoveIdentityProject(),
)
