"""Rule-driven optimization over the logical algebra.

This is layer 2 of the planning stack (see :mod:`repro.plan.logical`):
a small fixed-point rule engine plus the rules that re-express the
paper's full ReqSync placement algorithm (Section 4.5: *Insertion →
Percolation → Consolidation*, with clash rules 1–3 and the enabling
rewrites) as :class:`Rule` objects over
:class:`~repro.plan.logical.LogicalNode` trees.

Engine
------

A :class:`RuleEngine` holds an ordered list of *priority groups*; each
group is an ordered list of rules.  One optimization step scans the tree
in preorder and fires the first rule that matches *and* changes the
tree; the engine then restarts from the highest-priority group.  The run
terminates at a fixed point (no rule in any group fires) or when every
rule's fire budget is exhausted.  This restart discipline reproduces the
seed rewriter's control flow exactly: the ReqSync pack's groups are
``[[insert], [consolidate], [percolation rules]]``, matching the seed's
"consolidate-once eagerly, then advance the first ReqSync found in
preorder, then restart" loop.

Each firing is recorded as a :class:`RuleFiring` (with before/after node
counts — surfaced by ``explain(form="rules")``), emitted on the obs
tracer as a ``plan.rule_fired`` event, and counted on the metrics
registry as ``planner.rules_fired{rule=...}``.

Rules
-----

:data:`REQSYNC_PACK`
    The paper's placement algorithm.  Runs by default on the
    asynchronous path; behavior-preserving with respect to the seed
    implementation (verified by golden snapshots and an A/B structural
    diff against the frozen legacy rewriter in
    ``tests/test_rule_equivalence.py``).
:func:`access_path`
    Access-path selection — the one place a sargable predicate becomes
    an index window.  The planner calls it at build time.

There is no relational rewrite pass: the planner places each conjunct
where it binds and builds no dead projection or DISTINCT, and ``IN``
probes a hash set of its subquery's rows.
"""

from repro.obs.trace import PLAN_RULE_FIRED
from repro.plan import logical as L
from repro.relational.expr import ColumnRef, Comparison, Conjunction, Literal

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
    """Per-scan state handed to rules: the parent links."""

    def __init__(self, root, parents):
        self.root = root
        self._parents = parents

    def parent_of(self, node):
        return self._parents.get(id(node))

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
    Rules are tried in preorder: percolation wants the *highest* ReqSync
    first.
    """

    name = "rule"

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
        fire_budget=DEFAULT_FIRE_BUDGET,
        tracer=None,
        metrics=None,
        query_id=None,
    ):
        self.groups = [list(group) for group in groups]
        self.fire_budget = fire_budget
        self.tracer = tracer
        self.metrics = metrics
        self.query_id = query_id
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
        # One traversal serves every group: a scan that fires returns at
        # once, so the tree each later scan sees is the one walked here.
        pairs = list(L.walk_with_parents(root.child, root))
        parents = {id(child): parent for parent, child in pairs}
        ctx = RuleContext(root, parents)
        preorder = [child for _, child in pairs]
        for group in self.groups:
            rules = [r for r in group if not self._budget_spent(r)]
            if rules and self._scan(root, ctx, rules, preorder):
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
        parent.replace_child(node, L.LogicalReqSync(scan))
        return True


class ConsolidateReqSyncs(Rule):
    """Consolidation: merge ReqSync directly over ReqSync (paper step 3).

    One ReqSync manages any number of pending calls per tuple (Section
    4.4), so stacked synchronizers collapse.
    """

    name = "reqsync.consolidate"

    def matches(self, node, ctx):
        return isinstance(node, L.LogicalReqSync) and isinstance(
            node.child, L.LogicalReqSync
        )

    def apply(self, node, ctx):
        node.replace_child(node.child, node.child.child)
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
    """Percolation past a cross-product (never clashes)."""

    name = "reqsync.percolate_product"
    parent_type = L.LogicalCrossProduct


#: The paper's placement algorithm as priority groups.  Group order
#: reproduces the seed rewriter: insertion first, then eager
#: consolidation, then the percolation rules — each firing restarts from
#: the top, so adjacent ReqSyncs merge before either floats to the top
#: of the plan as a no-op.  Sort (clash rule 1 on its keys),
#: Aggregate/Distinct (clash rule 3) and Limit (counting) have no rule:
#: ReqSync never rises past them.  The instances are stateless, so every
#: rule engine and thread shares them.
REQSYNC_PACK = (
    (InsertReqSync(),),
    (ConsolidateReqSyncs(),),
    (
        PercolateAboveFilter(),
        HoistClashingSelection(),
        PercolateAboveProject(),
        PercolateAboveDependentJoin(),
        JoinToSelectionOverCrossProduct(),
        PercolateAboveJoin(),
        PercolateAboveCrossProduct(),
    ),
)


# ---------------------------------------------------------------------------
# Access-path selection (the planner's, at build time).
# ---------------------------------------------------------------------------


def _split_conjuncts(predicate):
    if isinstance(predicate, Conjunction):
        terms = []
        for term in predicate.terms:
            terms.extend(_split_conjuncts(term))
        return terms
    return [predicate]


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
