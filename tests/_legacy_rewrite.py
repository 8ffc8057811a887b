"""Frozen copy of the pre-optimizer ReqSync rewriter (test fixture).

This is the ad-hoc pattern-matching implementation that
``repro.asynciter.rewrite`` shipped before the rule-driven optimizer
replaced it.  It is kept verbatim as an executable specification:
``tests/test_rule_equivalence.py`` runs both rewriters over the same
plans and asserts the resulting physical trees are structurally
identical.  Do not "fix" or modernize this module — its value is that it
does not change.  (Its knobs are read off an
:class:`~repro.config.EngineConfig`, the one settings object there is.)
"""


from repro.asynciter.aevscan import AEVScan
from repro.asynciter.reqsync import ReqSync
from repro.config import EngineConfig
from repro.exec.aggregate import Aggregate
from repro.exec.distinct import Distinct
from repro.exec.filter import Filter
from repro.exec.joins import CrossProduct, DependentJoin, NestedLoopJoin
from repro.exec.project import Project
from repro.exec.sort import Sort
from repro.exec.union import UnionAll
from repro.relational.expr import ColumnRef
from repro.util.errors import PlanError
from repro.vtables.evscan import EVScan


def apply_asynchronous_iteration(plan, context, settings=None):
    """Rewrite *plan* for asynchronous iteration; returns the new root."""
    settings = settings or EngineConfig()
    root = _Root(plan)
    _insert(root, context, settings)
    _percolate(root, settings)
    if settings.consolidate:
        _consolidate(root)
    return root.child


# -- tree plumbing ----------------------------------------------------------------


class _Root:
    """Sentinel parent above the real root, so every node has a parent."""

    def __init__(self, child):
        self.child = child
        self.children = (child,)
        self.schema = child.schema


_CHILD_SLOTS = ("child", "left", "right")


def _set_child(op, old, new):
    """Replace *old* with *new* among op's children (named attr + tuple)."""
    replaced = False
    for slot in _CHILD_SLOTS:
        if hasattr(op, slot) and getattr(op, slot) is old:
            setattr(op, slot, new)
            replaced = True
            break
    if not replaced:
        raise PlanError("rewrite error: child not found on {}".format(op.label()))
    op.children = tuple(new if c is old else c for c in op.children)


def _walk_with_parents(op, parent=None):
    yield parent, op
    for child in op.children:
        yield from _walk_with_parents(child, op)


def _is_left_child(parent, node):
    return getattr(parent, "left", None) is node


def _left_arity(parent):
    return len(parent.left.schema)


# -- filled-attribute analysis ---------------------------------------------------------


def filled_columns(op):
    """Indexes in ``op.schema`` that may still hold placeholders.

    A ReqSync resolves everything below it, so its own filled set is
    empty; AEVScans introduce their result columns.
    """
    if isinstance(op, AEVScan):
        positions = {c.name: i for i, c in enumerate(op.instance.schema)}
        return {positions[col] for col in op.instance.result_fields}
    if isinstance(op, (ReqSync, EVScan)):
        return set()
    if isinstance(op, Project):
        below = filled_columns(op.child)
        filled = set()
        for out_index, expr in enumerate(op.expressions):
            if isinstance(expr, ColumnRef) and expr.index in below:
                filled.add(out_index)
        return filled
    if isinstance(op, (CrossProduct, NestedLoopJoin, DependentJoin)):
        left_width = len(op.left.schema)
        return filled_columns(op.left) | {
            i + left_width for i in filled_columns(op.right)
        }
    if isinstance(op, UnionAll):
        return filled_columns(op.left) | filled_columns(op.right)
    if isinstance(op, Aggregate):
        return set()
    if op.children:
        # Unary pass-through operators (Filter, Sort, Distinct, Limit).
        return filled_columns(op.children[0])
    return set()  # leaf scans


# -- step 1: insertion --------------------------------------------------------------------


def _insert(root, context, settings):
    """Convert EVScan -> AEVScan and put a ReqSync directly above each."""
    for parent, node in list(_walk_with_parents(root.child, root)):
        if isinstance(node, EVScan):
            aevscan = AEVScan(node.instance, context)
            reqsync = _make_reqsync(aevscan, context, settings)
            _set_child(parent, node, reqsync)


def _make_reqsync(child, context, settings):
    kwargs = {"stream": settings.stream}
    if settings.wait_timeout is not None:
        kwargs["wait_timeout"] = settings.wait_timeout
    if settings.on_error is not None:
        kwargs["on_error"] = settings.on_error
    reqsync = ReqSync(child, context, **kwargs)
    if settings.batch_size is not None:
        reqsync.batch_size = settings.batch_size
    return reqsync


# -- step 2: percolation ----------------------------------------------------------------------


def _percolate(root, settings):
    changed = True
    while changed:
        changed = False
        # Merge adjacent ReqSyncs eagerly: an outer ReqSync over an inner
        # one has an empty filled set, so it would otherwise float to the
        # top of the plan as a no-op instead of merging.
        if settings.consolidate and _consolidate_once(root):
            continue
        parents = {id(c): p for p, c in _walk_with_parents(root.child, root)}
        for parent, node in list(_walk_with_parents(root.child, root)):
            if not isinstance(node, ReqSync):
                continue
            if _try_advance(parents, parent, node, settings):
                changed = True
                break  # tree changed: restart traversal


def _try_advance(parents, parent, reqsync, settings):
    """Attempt one upward move of *reqsync* past *parent*."""
    if isinstance(parent, (_Root, ReqSync)):
        return False
    grandparent = parents[id(parent)]
    filled = filled_columns(reqsync.child)
    # Translate to the parent's output coordinates.
    if isinstance(parent, (CrossProduct, NestedLoopJoin, DependentJoin)) and not _is_left_child(parent, reqsync):
        offset = _left_arity(parent)
        filled_in_parent = {i + offset for i in filled}
    else:
        filled_in_parent = set(filled)

    if isinstance(parent, Filter):
        if parent.predicate.referenced_columns() & filled_in_parent:
            # Clash rule 1 — but a selection can be hoisted above ITS
            # parent first, clearing the way.
            return _hoist_filter(parents, parent)
        _swap_up(grandparent, parent, reqsync)
        return True

    if isinstance(parent, Project):
        kept = _projected_sources(parent)
        if not filled_in_parent <= kept:
            return False  # clash rule 2: projection drops a filled attr
        if _computed_inputs(parent) & filled_in_parent:
            return False  # clash rule 1: computed output depends on a filled attr
        _swap_up(grandparent, parent, reqsync)
        return True

    if isinstance(parent, DependentJoin):
        if _is_left_child(parent, reqsync):
            binding_refs = set(parent.binding_columns.values())
            if binding_refs & filled_in_parent:
                return False  # the join's inner bindings depend on the values
        _swap_up(grandparent, parent, reqsync)
        return True

    if isinstance(parent, NestedLoopJoin):
        if parent.predicate.referenced_columns() & filled_in_parent:
            # Clash rule 1: rewrite join -> selection over cross-product.
            _rewrite_join_as_selection(grandparent, parent)
            return True
        _swap_up(grandparent, parent, reqsync)
        return True

    if isinstance(parent, (CrossProduct, UnionAll)):
        _swap_up(grandparent, parent, reqsync)
        return True

    if isinstance(parent, Sort):
        keys = set()
        for expr, _ in parent.keys:
            keys |= expr.referenced_columns()
        if keys & filled_in_parent:
            return False  # clash rule 1
        if not settings.pull_above_order_sensitive:
            return False
        # Extension: pull above the sort, switching to ordered emission so
        # the sorted order survives.
        reqsync.preserve_order = True
        _swap_up(grandparent, parent, reqsync)
        return True

    # Aggregate, Distinct (rule 3), Limit (counting) and anything unknown.
    return False


def _swap_up(grandparent, parent, reqsync):
    """grandparent -> parent -> ... reqsync ...  becomes
    grandparent -> reqsync -> parent -> ... (reqsync's old child)."""
    _set_child(parent, reqsync, reqsync.child)
    _set_child(grandparent, parent, reqsync)
    reqsync.child = parent
    reqsync.children = (parent,)
    reqsync.schema = parent.schema


def _rewrite_join_as_selection(grandparent, join):
    product = CrossProduct(join.left, join.right)
    selection = Filter(product, join.predicate)
    _set_child(grandparent, join, selection)


def _hoist_filter(parents, filter_op):
    """Move *filter_op* above its own parent when the two commute.

    Returns True if the tree changed.  Commuting pairs: a selection rises
    through filters, sorts, distincts, cross products, and joins; its
    predicate is remapped when it sat on the right side of a binary
    operator.  (This is the paper's "if O is a projection or selection,
    we can pull O above its parent first".)
    """
    target = parents.get(id(filter_op))
    if target is None or isinstance(target, (_Root, ReqSync)):
        return False
    great = parents.get(id(target))
    if great is None:
        return False
    if isinstance(target, (Filter, Sort, Distinct)):
        predicate = filter_op.predicate
    elif isinstance(target, (CrossProduct, NestedLoopJoin, DependentJoin)):
        if _is_left_child(target, filter_op):
            predicate = filter_op.predicate
        else:
            offset = _left_arity(target)
            refs = filter_op.predicate.referenced_columns()
            predicate = filter_op.predicate.remap({i: i + offset for i in refs})
    else:
        return False
    # Splice the selection out of its slot, then re-create it (with the
    # remapped predicate) above the operator it commuted past.
    _set_child(target, filter_op, filter_op.child)
    _set_child(great, target, Filter(target, predicate))
    return True


# -- step 3: consolidation ------------------------------------------------------------------------


def _consolidate(root):
    while _consolidate_once(root):
        pass


def _consolidate_once(root):
    for _, node in _walk_with_parents(root.child, root):
        if isinstance(node, ReqSync) and isinstance(node.child, ReqSync):
            inner = node.child
            # Merge: one ReqSync manages both calls' placeholders.
            node.child = inner.child
            node.children = (inner.child,)
            node.schema = inner.child.schema
            node.preserve_order = node.preserve_order or inner.preserve_order
            return True
    return False


# -- helpers -------------------------------------------------------------------------


def _projected_sources(project):
    """Input indexes that survive (as pass-through columns) a projection."""
    kept = set()
    for expr in project.expressions:
        if isinstance(expr, ColumnRef):
            kept.add(expr.index)
    return kept


def _computed_inputs(project):
    """Input indexes consumed by *computed* projection expressions."""
    inputs = set()
    for expr in project.expressions:
        if not isinstance(expr, ColumnRef):
            inputs |= expr.referenced_columns()
    return inputs
