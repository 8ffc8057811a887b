"""ReqSync placement: Insertion, Percolation, Consolidation (Section 4.5).

Historically this module *was* the placement algorithm, implemented as
ad-hoc pattern matching over the physical operator classes.  Since the
optimizer refactor the algorithm lives in the rule-driven optimizer —
:data:`repro.plan.rules.REQSYNC_PACK` over the
:mod:`repro.plan.logical` algebra — and this module is a thin
backward-compatible adapter: :func:`apply_asynchronous_iteration` lifts
a physical plan into the algebra, runs the rule engine to its fixed
point, and lowers the result back onto executable operators.

Clash rules (an operator O clashes with ReqSync_i, whose filled attribute
set is A_i):

1. O depends on the value of an attribute in A_i (filter/join predicates,
   sort keys, computed projections);
2. O projects away an attribute in A_i (tuple cancellation/proliferation
   could no longer be applied);
3. O is an aggregation or existential operator (needs an accurate tally);
   we also conservatively treat LIMIT as counting.

Enabling rewrites (each is one :class:`~repro.plan.rules.Rule`):

- a clashing nested-loop join is rewritten into a selection over a
  cross-product (the paper's Example 3), letting ReqSync rise through the
  cross-product while the selection stays above;
- a clashing selection is hoisted above *its* parent when they commute,
  clearing the way for ReqSync.

ReqSync emits in completion order, so it never rises past a Sort.

Finally, adjacent ReqSync operators are merged (their runtime already
manages any number of pending calls per tuple, Section 4.4).
"""

from repro.plan.logical import lift, placeholder_columns
from repro.plan.physical import lower
from repro.plan.rules import REQSYNC_PACK, RuleEngine


def apply_asynchronous_iteration(
    plan, context, config=None, tracer=None, metrics=None, query_id=None
):
    """Rewrite *plan* for asynchronous iteration; returns the new root.

    *plan* is a physical (synchronous) plan; the returned plan is a
    freshly lowered tree — EVScans replaced by AEVScans registered on
    *context*, with ReqSync operators placed by the rule engine.  Pass
    *tracer*/*metrics* to record ``plan.rule_fired`` events and the
    ``planner.rules_fired`` counter; the firings are also returned by
    :func:`rewrite_logical` for callers that want them.
    """
    node, _ = rewrite_logical(
        lift(plan), config, tracer=tracer, metrics=metrics, query_id=query_id
    )
    return lower(node, config, context)


def rewrite_logical(node, config=None, tracer=None, metrics=None, query_id=None):
    """Run the ReqSync rule pack over a *logical* tree.

    Returns ``(optimized_node, firings)`` without lowering — the
    engine's native path, which lowers once afterwards.  The pack reads
    no knob, so *config* is unused; it stays for callers, the benchmark
    adapter among them, that hand the engine's
    :class:`~repro.config.EngineConfig` to every planning layer.
    """
    engine = RuleEngine(
        REQSYNC_PACK, tracer=tracer, metrics=metrics, query_id=query_id
    )
    return engine.run(node), engine.firings


def filled_columns(op):
    """Indexes in ``op.schema`` that may still hold placeholders.

    A ReqSync resolves everything below it, so its own filled set is
    empty; AEVScans introduce their result columns.  (Back-compat shim:
    the analysis itself is
    :func:`repro.plan.logical.placeholder_columns`; this lifts the
    physical subtree and delegates.)
    """
    return placeholder_columns(lift(op))
