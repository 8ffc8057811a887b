"""ReqSync placement: Insertion, Percolation, Consolidation (Section 4.5).

:func:`rewrite_logical` runs the paper's procedure over the
:mod:`repro.plan.logical` algebra before the tree is lowered; this is
the only placement path the engine has.

1. **Insertion** flips every synchronous virtual-table scan, in
   preorder, to asynchronous (the lowered AEVScan registers calls and
   emits placeholders) and caps it with a ReqSync that waits for them.
2. **Consolidation and Percolation** alternate: the first ReqSync
   directly over another ReqSync in preorder absorbs it (its runtime
   already manages any number of pending calls per tuple, Section 4.4);
   when there is none, the first ReqSync in preorder whose parent admits
   one takes one step — past that parent, or through one of the
   enabling rewrites below.  Merging first means adjacent ReqSyncs join
   before either floats to the top of the plan as a no-op.
3. The run stops when no step applies; there is no budget.  Insertion
   runs once per scan, and consolidation (one ReqSync fewer) and the
   join rewrite (one join fewer) are never undone.  Every other step
   swaps a node with its parent, and no two nodes swap back: nothing
   is moved past a ReqSync, and a clashing selection is hoisted past a
   sort, a distinct, a join, or a selection that reads no filled
   attribute (which the ReqSync then passes), never past another
   clashing selection, which would hoist it back for ever.

Clash rules (an operator O clashes with ReqSync_i, whose filled attribute
set is A_i):

1. O depends on the value of an attribute in A_i (filter/join predicates,
   sort keys, computed projections);
2. O projects away an attribute in A_i (tuple cancellation/proliferation
   could no longer be applied);
3. O is an aggregation or existential operator (needs an accurate tally);
   we also conservatively treat LIMIT as counting.

Enabling rewrites:

- a clashing nested-loop join is rewritten into a selection over a
  cross-product (the paper's Example 3), letting ReqSync rise through the
  cross-product while the selection stays above;
- a clashing selection is hoisted above *its* parent when they commute,
  clearing the way for ReqSync.

ReqSync emits in completion order, so it never rises past a Sort; nor
past an Aggregate or Distinct (rule 3) or a Limit.

Each step is recorded as a :class:`RuleFiring` under one of nine names
(``reqsync.insert``, ``reqsync.consolidate``, ``reqsync.percolate_*``,
``reqsync.hoist_selection``, ``reqsync.join_to_selection``) with the
tree's node count before and after it — surfaced by
``explain(form="rules")`` — emitted on the obs tracer as a
``plan.rule_fired`` event, and counted on the metrics registry as
``planner.rules_fired{rule=...}``.
"""

from repro.obs.trace import PLAN_RULE_FIRED
from repro.plan import logical as L
from repro.relational.expr import ColumnRef

_BINARY = (L.LogicalCrossProduct, L.LogicalJoin, L.LogicalDependentJoin)


class RuleFiring:
    """Record of one placement step (shown by ``explain(form="rules")``)."""

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


class _Root:
    """Sentinel parent above the real root, so every node has a parent."""

    def __init__(self, child):
        self.child = child

    def replace_child(self, old, new):
        self.child = new


def rewrite_logical(node, config=None, tracer=None, metrics=None, query_id=None):
    """Place ReqSyncs in a *logical* tree.

    Returns ``(placed_node, firings)`` without lowering; the engine
    lowers once afterwards.  Placement reads no knob, so *config* is
    unused; it stays for callers, the benchmark adapter among them, that
    hand the engine's :class:`~repro.config.EngineConfig` to every
    planning layer.
    """
    root = _Root(node)
    firings = []
    nodes = L.node_count(node)

    def fired(rule):
        nonlocal nodes
        after = L.node_count(root.child)
        firings.append(RuleFiring(rule, nodes, after))
        if tracer is not None:
            tracer.emit(
                PLAN_RULE_FIRED,
                query_id=query_id,
                rule=rule,
                before_nodes=nodes,
                after_nodes=after,
            )
        if metrics is not None:
            metrics.inc("planner.rules_fired", rule=rule)
        nodes = after

    for parent, scan in list(L.walk_with_parents(node, root)):
        if isinstance(scan, L.LogicalVTableScan) and not scan.asynchronous:
            flipped = L.LogicalVTableScan(scan.instance, asynchronous=True)
            flipped.annotations.update(scan.annotations)
            parent.replace_child(scan, L.LogicalReqSync(flipped))
            fired("reqsync.insert")

    while True:
        pairs = list(L.walk_with_parents(root.child, root))
        stacked = next(
            (
                n
                for _, n in pairs
                if isinstance(n, L.LogicalReqSync)
                and isinstance(n.child, L.LogicalReqSync)
            ),
            None,
        )
        if stacked is not None:
            stacked.replace_child(stacked.child, stacked.child.child)
            fired("reqsync.consolidate")
            continue
        parents = {id(child): parent for parent, child in pairs}
        for parent, reqsync in pairs:
            if isinstance(reqsync, L.LogicalReqSync):
                rule = _step(parents, parent, reqsync)
                if rule is not None:
                    fired(rule)
                    break
        else:
            return root.child, firings


def _step(parents, parent, reqsync):
    """Move *reqsync* one step up past *parent*; the step's name, or None."""
    if isinstance(parent, (_Root, L.LogicalReqSync)):
        return None
    filled = L.placeholder_columns(reqsync.child)
    if isinstance(parent, _BINARY) and parent.left is not reqsync:
        offset = len(parent.left.schema)
        filled = {i + offset for i in filled}
    grandparent = parents[id(parent)]
    if isinstance(parent, L.LogicalFilter):
        if parent.predicate.referenced_columns() & filled:
            # Clash rule 1 — but the selection may rise past its own
            # parent first, clearing the way.
            if _hoist_selection(parents, parent, filled):
                return "reqsync.hoist_selection"
            return None
        rule = "reqsync.percolate_filter"
    elif isinstance(parent, L.LogicalProject):
        kept = set()
        computed = set()
        for expr in parent.expressions:
            if isinstance(expr, ColumnRef):
                kept.add(expr.index)
            else:
                computed |= expr.referenced_columns()
        if not filled <= kept:
            return None  # clash rule 2: projection drops a filled attr
        if computed & filled:
            return None  # clash rule 1: a computed output reads one
        rule = "reqsync.percolate_project"
    elif isinstance(parent, L.LogicalDependentJoin):
        if parent.left is reqsync and (
            set(parent.binding_columns.values()) & filled
        ):
            return None  # the inner side's bindings read a filled attr
        rule = "reqsync.percolate_depjoin"
    elif isinstance(parent, L.LogicalJoin):
        if parent.predicate.referenced_columns() & filled:
            # Clash rule 1: join -> selection over cross-product.
            product = L.LogicalCrossProduct(parent.left, parent.right)
            grandparent.replace_child(
                parent, L.LogicalFilter(product, parent.predicate)
            )
            return "reqsync.join_to_selection"
        rule = "reqsync.percolate_join"
    elif isinstance(parent, L.LogicalCrossProduct):
        rule = "reqsync.percolate_product"
    else:
        return None  # Sort, Aggregate, Distinct, Limit
    # gp -> parent -> ... reqsync ...  becomes  gp -> reqsync -> parent -> ...
    parent.replace_child(reqsync, reqsync.child)
    reqsync.child = parent
    reqsync.children = (parent,)
    reqsync.schema = parent.schema
    # Hand the (now schema-consistent) reqsync to the grandparent last, so
    # its _refresh_schema sees the post-swap schema.
    grandparent.replace_child(parent, reqsync)
    return rule


def _hoist_selection(parents, selection, filled):
    """Move *selection* above its own parent when the two commute.

    A selection rises through sorts, distincts, binary joins and
    selections that read no attribute in *filled* (the set of the
    ReqSync below it); its predicate is remapped when it sat on the
    right side.  Two selections that both read a filled attribute never
    trade places: each would hoist the other back, for ever.  Returns
    True when the tree changed.
    """
    target = parents[id(selection)]
    predicate = selection.predicate
    if isinstance(target, _BINARY):
        if target.left is not selection:
            offset = len(target.left.schema)
            predicate = predicate.remap(
                {i: i + offset for i in predicate.referenced_columns()}
            )
    elif isinstance(target, L.LogicalFilter):
        if target.predicate.referenced_columns() & filled:
            return False
    elif not isinstance(target, (L.LogicalSort, L.LogicalDistinct)):
        return False
    # Splice the selection out of its slot, then re-create it (with the
    # remapped predicate) above the operator it commuted past.
    target.replace_child(selection, selection.child)
    parents[id(target)].replace_child(target, L.LogicalFilter(target, predicate))
    return True
