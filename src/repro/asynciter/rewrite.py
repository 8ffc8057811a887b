"""ReqSync placement: Insertion, Percolation, Consolidation (Section 4.5).

The algorithm is :data:`repro.plan.rules.REQSYNC_PACK`, run over the
:mod:`repro.plan.logical` algebra by :func:`rewrite_logical` before the
tree is lowered; this is the only placement path the engine has.

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

from repro.plan.rules import REQSYNC_PACK, RuleEngine


def rewrite_logical(node, config=None, tracer=None, metrics=None, query_id=None):
    """Run the ReqSync rule pack over a *logical* tree.

    Returns ``(optimized_node, firings)`` without lowering; the engine
    lowers once afterwards.  The pack reads
    no knob, so *config* is unused; it stays for callers, the benchmark
    adapter among them, that hand the engine's
    :class:`~repro.config.EngineConfig` to every planning layer.
    """
    engine = RuleEngine(
        REQSYNC_PACK, tracer=tracer, metrics=metrics, query_id=query_id
    )
    return engine.run(node), engine.firings

