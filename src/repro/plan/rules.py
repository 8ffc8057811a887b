"""Rule-driven optimization over the logical algebra.

This is layer 2 of the planning stack (see :mod:`repro.plan.logical`):
a small fixed-point rule engine plus rule packs that re-express the
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

Rule packs
----------

:func:`reqsync_pack`
    The paper's placement algorithm.  Runs by default on the
    asynchronous path; behavior-preserving with respect to the seed
    implementation (verified by golden snapshots and an A/B structural
    diff against the frozen legacy rewriter in
    ``tests/test_rule_equivalence.py``).
:data:`PUSHDOWN_PACK`, :data:`PRUNE_PACK`, :data:`REORDER_PACK`
    Classic relational rewrites (predicate pushdown, projection
    pruning/identity elimination, size-based cross-product reordering).
    These are *opt-in* via ``EngineConfig(rules=...)`` — the default
    pipeline keeps the seed's exact plan shapes.
:data:`DECORRELATE_PACK`, :data:`OR_TO_UNION_PACK`,
:data:`EARLY_FILTER_PACK`, :data:`AGG_SINGLE_PASS_PACK`
    GOLD-style cost-gated packs (querytorque's biggest wins: IN-subquery
    decorrelation, disjunction splitting, early filtering, single-pass
    aggregation).  Every structural rewrite in these packs is *gated* by
    the engine's :class:`~repro.plan.cost.CostModel` — the candidate
    only replaces the original when the model prices it strictly
    cheaper, so calibration profiles (measured latencies, ANALYZE
    statistics, cache hit ratios) can flip each decision.  Also opt-in:
    through ``EngineConfig(rules=...)`` / ``WsqEngine(rules=...)``, CLI
    ``--rules``, or ``$REPRO_RULES``.
"""

from repro.config import EngineConfig
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
    what the cost-gated packs consult; without one their gates default
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
        changed = True
        while changed:
            changed = False
            for group in self.groups:
                if self._scan_group(root, group):
                    changed = True
                    break  # restart from the highest-priority group
        return root.child

    def rules(self):
        for group in self.groups:
            yield from group

    # -- driver ---------------------------------------------------------------

    def _scan_group(self, root, group):
        """Fire at most one rule from *group*; True when the tree changed."""
        active = [r for r in group if not self._budget_spent(r)]
        if not active:
            return False
        top_down = [r for r in active if r.direction == TOP_DOWN]
        bottom_up = [r for r in active if r.direction == BOTTOM_UP]
        if top_down and self._scan(root, top_down, postorder=False):
            return True
        if bottom_up and self._scan(root, bottom_up, postorder=True):
            return True
        return False

    def _scan(self, root, rules, postorder):
        parents = {id(c): p for p, c in L.walk_with_parents(root.child, root)}
        ctx = RuleContext(root, parents, self.settings, self.cost_model)
        order = list(L.walk(root.child))
        if postorder:
            order.reverse()
        for node in order:
            for rule in rules:
                if self._budget_spent(rule):
                    continue
                if not rule.matches(node, ctx):
                    continue
                before = L.node_count(root.child)
                if rule.apply(node, ctx):
                    self._record(rule, before, L.node_count(root.child))
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
# Opt-in relational packs (EngineConfig(rules=...)).
# ---------------------------------------------------------------------------


def _split_conjuncts(predicate):
    if isinstance(predicate, Conjunction):
        terms = []
        for term in predicate.terms:
            terms.extend(_split_conjuncts(term))
        return terms
    return [predicate]


class PushFilterIntoProduct(Rule):
    """Predicate pushdown: route conjuncts of a filter over a binary
    join/product to the side they reference; one-sided right conjuncts
    are remapped into the right child's coordinates."""

    name = "pushdown.filter_into_product"

    def matches(self, node, ctx):
        if not isinstance(node, L.LogicalFilter):
            return False
        if not isinstance(
            node.child, (L.LogicalCrossProduct, L.LogicalJoin)
        ):
            return False
        left_width = len(node.child.left.schema)
        for term in _split_conjuncts(node.predicate):
            refs = term.referenced_columns()
            if refs and (
                max(refs) < left_width or min(refs) >= left_width
            ):
                return True
        return False

    def apply(self, node, ctx):
        parent = ctx.parent_of(node)
        binary = node.child
        left_width = len(binary.left.schema)
        left_terms, right_terms, kept = [], [], []
        for term in _split_conjuncts(node.predicate):
            refs = term.referenced_columns()
            if refs and max(refs) < left_width:
                left_terms.append(term)
            elif refs and min(refs) >= left_width:
                right_terms.append(
                    term.remap({i: i - left_width for i in refs})
                )
            else:
                kept.append(term)
        if left_terms:
            binary.replace_child(
                binary.left,
                L.LogicalFilter(binary.left, make_conjunction(left_terms)),
            )
        if right_terms:
            binary.replace_child(
                binary.right,
                L.LogicalFilter(binary.right, make_conjunction(right_terms)),
            )
        if kept:
            node.predicate = make_conjunction(kept)
            node._refresh_schema()
        else:
            parent.replace_child(node, binary)
        return True


class PushFilterThroughReorderable(Rule):
    """Predicate pushdown through order/duplicate-oblivious unaries
    (Sort, Distinct) — a selection commutes with both.  Limit is *not*
    reorderable: filtering before the cutoff changes the result."""

    name = "pushdown.filter_through_unary"

    def matches(self, node, ctx):
        return isinstance(node, L.LogicalFilter) and isinstance(
            node.child, (L.LogicalSort, L.LogicalDistinct)
        )

    def apply(self, node, ctx):
        parent = ctx.parent_of(node)
        unary = node.child
        node.replace_child(unary, unary.child)
        unary.replace_child(unary.child, node)
        parent.replace_child(node, unary)
        return True


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


class ReorderProductBySize(Rule):
    """Cost-based reordering: put the smaller stored table on the outer
    (left) side of a cross product, with a compensating projection that
    restores the original column order."""

    name = "reorder.product_by_size"

    def matches(self, node, ctx):
        if not isinstance(node, L.LogicalCrossProduct):
            return False
        if node.annotations.get("reordered"):
            return False
        left, right = node.left, node.right
        if not (
            isinstance(left, L.LogicalScan) and isinstance(right, L.LogicalScan)
        ):
            return False
        return right.table.row_count() < left.table.row_count()

    def apply(self, node, ctx):
        parent = ctx.parent_of(node)
        left_width = len(node.left.schema)
        right_width = len(node.right.schema)
        swapped = L.LogicalCrossProduct(node.right, node.left)
        swapped.annotations["reordered"] = True
        restore = [
            ColumnRef(right_width + i) for i in range(left_width)
        ] + [ColumnRef(i) for i in range(right_width)]
        parent.replace_child(
            node, L.LogicalProject(swapped, restore, node.schema)
        )
        return True


# ---------------------------------------------------------------------------
# GOLD-style cost-gated packs: decorrelate / or_to_union / early_filter /
# agg_single_pass.
#
# Shared design: every rule in these packs builds its candidate subtree
# *without* mutating the original, asks `_cheaper` whether the engine's
# CostModel prices the candidate strictly below the current shape (lowering
# both through the physical mapper so calibration, ANALYZE statistics, and
# cache hit ratios all participate), and only then splices it in.  The
# structural guards around each rewrite are exact — a pack that cannot
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
    ``early_filter``/``or_to_union`` rewrites refuse to move or clone
    them.
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
    config = EngineConfig()  # pricing does not depend on any knob
    try:
        return _plan_seconds(gate, after, config) < _plan_seconds(
            gate, before, config
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


def _index_access(filter_node):
    """Replay access-path selection under *filter_node*.

    When the filter sits on a bare (un-indexed) stored-table scan and
    some of its sargable conjuncts fit one of the table's indexes, absorb
    them into an indexed window — the same :class:`_IndexBounds` folding
    the planner uses at build time, re-run because a rewrite just exposed
    new single-table conjuncts.  Returns the replacement subtree
    (IndexScan, optionally under a residual filter) or None.
    """
    child = filter_node.child
    if not isinstance(child, L.LogicalScan) or child.index is not None:
        return None
    from repro.plan.planner import _IndexBounds

    for index in getattr(child.table, "indexes", None) or ():
        column = None
        for i, col in enumerate(child.schema):
            if col.name.lower() == index.column_name.lower():
                column = i
                break
        if column is None:
            continue
        column_type = child.schema[column].type
        bounds = _IndexBounds()
        absorbed, kept = [], []
        for term in _split_conjuncts(filter_node.predicate):
            bound = _term_bound(term)
            if (
                bound is not None
                and bound[0] == column
                and column_type.is_numeric == isinstance(bound[2], (int, float))
                and bounds.tighten(bound[1], bound[2])
            ):
                absorbed.append(term)
            else:
                kept.append(term)
        if not absorbed:
            continue
        scan = L.LogicalScan(
            child.table,
            child.alias,
            index=index,
            low=bounds.low,
            high=bounds.high,
            include_low=bounds.include_low,
            include_high=bounds.include_high,
        )
        remainder = make_conjunction(kept)
        return L.LogicalFilter(scan, remainder) if remainder is not None else scan
    return None


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
        if node.annotations.get("agg_single_pass_merged"):
            return None  # don't ping-pong with agg_single_pass.merge_union
        if not _pure_predicate(node.predicate) or not _local_only(node.child):
            return None
        conjuncts = _split_conjuncts(node.predicate)
        for position, term in enumerate(conjuncts):
            if isinstance(term, Disjunction) and _disjoint_windows(term) is not None:
                return conjuncts, position
        return None

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
            union.annotations["or_to_union"] = True
        if not _cheaper(ctx, node, union):
            return False
        ctx.parent_of(node).replace_child(node, union)
        return True


class PushFilterBelowJoin(Rule):
    """``early_filter``: move pure single-side conjuncts of a filter
    below the binary operator underneath it — including the *outer* side
    of a dependent join, where fewer outer rows mean fewer external
    calls, which is where a calibrated latency profile really bites.

    Impure conjuncts (subquery predicates, unknown expression classes —
    the non-deterministic/external-call guard) and conjuncts straddling
    both sides stay put.  The dependent join's inner side is never
    touched: its bindings come from the outer tuple.  Cost-gated, so
    ANALYZE statistics showing a non-selective predicate (nothing
    saved, one more operator) refuse the push.
    """

    name = "early_filter.push_below_join"

    def matches(self, node, ctx):
        if not isinstance(node, L.LogicalFilter):
            return False
        child = node.child
        if isinstance(child, (L.LogicalCrossProduct, L.LogicalJoin)):
            right_ok = True
        elif isinstance(child, L.LogicalDependentJoin):
            right_ok = False
        else:
            return False
        left_width = len(child.left.schema)
        for term in _split_conjuncts(node.predicate):
            refs = term.referenced_columns()
            if not refs or not _pure_predicate(term):
                continue
            if max(refs) < left_width or (right_ok and min(refs) >= left_width):
                return True
        return False

    def apply(self, node, ctx):
        child = node.child
        right_ok = not isinstance(child, L.LogicalDependentJoin)
        left_width = len(child.left.schema)
        left_terms, right_terms, kept = [], [], []
        for term in _split_conjuncts(node.predicate):
            refs = term.referenced_columns()
            pure = bool(refs) and _pure_predicate(term)
            if pure and max(refs) < left_width:
                left_terms.append(term)
            elif pure and right_ok and min(refs) >= left_width:
                right_terms.append(term.remap({i: i - left_width for i in refs}))
            else:
                kept.append(term)
        binary = _clone_tree(child)
        if left_terms:
            pushed = L.LogicalFilter(binary.left, make_conjunction(left_terms))
            binary.replace_child(binary.left, _index_access(pushed) or pushed)
        if right_terms:
            pushed = L.LogicalFilter(binary.right, make_conjunction(right_terms))
            binary.replace_child(binary.right, _index_access(pushed) or pushed)
        remainder = make_conjunction(kept)
        candidate = (
            L.LogicalFilter(binary, remainder) if remainder is not None else binary
        )
        if not _cheaper(ctx, node, candidate):
            return False
        ctx.parent_of(node).replace_child(node, candidate)
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


class IndexAccessFromFilter(Rule):
    """``early_filter``: replay access-path selection for a filter whose
    sargable conjuncts match an unused index — rewrites (and lifted
    legacy plans) expose these shapes after the planner already chose
    its scans.  Cost-gated like every rule in the pack."""

    name = "early_filter.index_access"

    def matches(self, node, ctx):
        return isinstance(node, L.LogicalFilter) and _index_access(node) is not None

    def apply(self, node, ctx):
        candidate = _index_access(node)
        if candidate is None or not _cheaper(ctx, node, candidate):
            return False
        ctx.parent_of(node).replace_child(node, candidate)
        return True


def _order_exact_aggregate(node):
    """May *node*'s aggregate consume its input in any order, exactly?

    COUNT/MIN/MAX are order-insensitive over any type; SUM/AVG are exact
    under reordering only for integer inputs (float accumulation order
    changes low-order bits).  Group emission order may still change —
    SQL row order without ORDER BY is unspecified — but values may not.
    """
    child_schema = node.children[0].schema
    for spec in node.specs:
        func = spec.func.lower()
        if func in ("count", "min", "max"):
            continue
        expr = getattr(spec, "expr", None)
        if expr is None:
            return False
        from repro.relational.types import DataType

        if expr.result_type(child_schema) is not DataType.INT:
            return False
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


class SkipSortBelowAggregate(Rule):
    """``agg_single_pass``: a Sort feeding an order-oblivious consumer
    (hash aggregate, duplicate elimination) is dead work.  Aggregates
    must additionally be order-exact (see :func:`_order_exact_aggregate`)
    so float accumulation order cannot change values."""

    name = "agg_single_pass.skip_sort"
    direction = BOTTOM_UP

    def matches(self, node, ctx):
        if not isinstance(node, (L.LogicalAggregate, L.LogicalDistinct)):
            return False
        if not isinstance(node.children[0], L.LogicalSort):
            return False
        if isinstance(node, L.LogicalAggregate) and not _order_exact_aggregate(node):
            return False
        return True

    def apply(self, node, ctx):
        sort = node.children[0]
        candidate = _clone_tree(node)
        candidate.replace_child(candidate.children[0], _clone_tree(sort.child))
        if not _cheaper(ctx, node, candidate):
            return False
        node.replace_child(sort, sort.child)
        return True


def _union_branches(node):
    """Flatten a UNION-ALL chain into its branch list."""
    if isinstance(node, L.LogicalUnion):
        return _union_branches(node.left) + _union_branches(node.right)
    return [node]


class MergeUnionAggregate(Rule):
    """``agg_single_pass``: an aggregate over a UNION ALL of disjointly
    filtered copies of the *same* input collapses into one grouped pass
    over a single disjunctive filter — the multi-scan shape GOLD's
    single-pass aggregation targets.

    Exactness needs all three: structurally identical branch inputs,
    pure branch predicates, and :func:`_disjoint_windows` over the
    combined disjunction (each row fed to the aggregate exactly as many
    times as before).  The aggregate must be order-exact, and unions the
    ``or_to_union`` pack itself produced are skipped (the two rules are
    strict-inequality gated on the same model, so they can never
    ping-pong — but skipping saves the re-pricing).
    """

    name = "agg_single_pass.merge_union"
    direction = BOTTOM_UP

    def matches(self, node, ctx):
        return self._target(node) is not None

    def _target(self, node):
        if not isinstance(node, L.LogicalAggregate):
            return None
        union = node.child
        if not isinstance(union, L.LogicalUnion):
            return None
        if union.annotations.get("or_to_union"):
            return None
        if not _order_exact_aggregate(node):
            return None
        branches = _union_branches(union)
        if len(branches) < 2:
            return None
        first = branches[0]
        if not isinstance(first, L.LogicalFilter) or not _local_only(first.child):
            return None
        for branch in branches:
            if not isinstance(branch, L.LogicalFilter):
                return None
            if not _pure_predicate(branch.predicate):
                return None
            if not (branch is first or branch.child == first.child):
                return None
        merged = Disjunction([b.predicate for b in branches])
        if _disjoint_windows(merged) is None:
            return None
        return branches

    def apply(self, node, ctx):
        branches = self._target(node)
        merged = L.LogicalFilter(
            _clone_tree(branches[0].child),
            Disjunction([b.predicate for b in branches]),
        )
        merged.annotations["agg_single_pass_merged"] = True
        candidate = L.LogicalAggregate(
            merged, node.group_exprs, node.specs, node.schema
        )
        if not _cheaper(ctx, node, candidate):
            return False
        ctx.parent_of(node).replace_child(node, candidate)
        return True


#: Opt-in packs, keyed for ``EngineConfig(rules=...)``.
PUSHDOWN_PACK = (PushFilterThroughReorderable, PushFilterIntoProduct)
PRUNE_PACK = (ComposeProjections, RemoveIdentityProject)
REORDER_PACK = (ReorderProductBySize,)
DECORRELATE_PACK = (DecorrelateInToJoin,)
OR_TO_UNION_PACK = (SplitDisjunctionToUnion,)
EARLY_FILTER_PACK = (
    PushFilterBelowJoin,
    DeriveJoinConstraint,
    IndexAccessFromFilter,
)
AGG_SINGLE_PASS_PACK = (
    DropDistinctOverAggregate,
    SkipSortBelowAggregate,
    MergeUnionAggregate,
)

PACKS = {
    "pushdown": PUSHDOWN_PACK,
    "prune": PRUNE_PACK,
    "reorder": REORDER_PACK,
    "decorrelate": DECORRELATE_PACK,
    "or_to_union": OR_TO_UNION_PACK,
    "early_filter": EARLY_FILTER_PACK,
    "agg_single_pass": AGG_SINGLE_PASS_PACK,
}


def parse_rules_spec(raw):
    """Parse a comma-separated pack spec (CLI ``--rules``, ``$REPRO_RULES``).

    Pack names in any order, deduplicated; ``all`` expands to every
    registered pack.  Empty/blank means no opt-in packs.
    """
    names = []
    for name in (raw or "").split(","):
        name = name.strip()
        if not name:
            continue
        if name == "all":
            names.extend(sorted(PACKS))
        elif name in PACKS:
            names.append(name)
        else:
            raise PlanError(
                "unknown rule pack {!r}; options: all, {}".format(
                    name, ", ".join(sorted(PACKS))
                )
            )
    return tuple(dict.fromkeys(names))


def resolve_packs(logical_rules):
    """Expand ``EngineConfig.rules`` into engine groups.

    Accepts pack names (``"pushdown"``), Rule classes, or Rule
    instances, in any mix; returns a list with one group holding all
    resolved rules (they are mutually independent; group granularity
    only matters for restart priority).
    """
    group = []
    for entry in logical_rules or ():
        if isinstance(entry, str):
            try:
                pack = PACKS[entry]
            except KeyError:
                raise ValueError(
                    "unknown rule pack {!r}; options: {}".format(
                        entry, ", ".join(sorted(PACKS))
                    )
                )
            group.extend(rule() for rule in pack)
        elif isinstance(entry, Rule):
            group.append(entry)
        elif isinstance(entry, type) and issubclass(entry, Rule):
            group.append(entry())
        else:
            raise TypeError(
                "rules entries must be pack names, Rule classes, "
                "or Rule instances (got {!r})".format(entry)
            )
    return [group] if group else []
