"""ReqSync placement: Insertion, Percolation, Consolidation (Section 4.5).

Historically this module *was* the placement algorithm, implemented as
ad-hoc pattern matching over the physical operator classes.  Since the
optimizer refactor the algorithm lives in the rule-driven optimizer —
:func:`repro.plan.rules.reqsync_pack` over the
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
  clearing the way for ReqSync;
- order-sensitive operators (Sort) normally clash through rule 1 since
  their keys are values; when the keys do NOT overlap A_i, the rewriter
  can optionally still pull ReqSync above them by switching the ReqSync
  to order-preserving emission (``pull_above_order_sensitive=True`` — an
  extension the paper leaves open).

Finally, adjacent ReqSync operators are merged (their runtime already
manages any number of pending calls per tuple, Section 4.4).
"""

from repro.plan.logical import lift, placeholder_columns
from repro.plan.physical import ExecOptions, lower
from repro.plan.rules import RuleEngine, reqsync_pack


class RewriteSettings:
    """Knobs for the placement algorithm (defaults follow the paper).

    Kept as the back-compat configuration surface; at lowering time the
    knobs are consolidated into one
    :class:`~repro.plan.physical.ExecOptions` (see
    :meth:`~repro.plan.physical.ExecOptions.from_knobs` for the
    precedence that resolves them against ``PlannerOptions``).
    """

    def __init__(
        self,
        stream=False,
        pull_above_order_sensitive=False,
        consolidate=True,
        wait_timeout=None,
        on_error=None,
        batch_size=None,
        shards=None,
        parallelism=None,
        rules=None,
    ):
        self.stream = stream
        self.pull_above_order_sensitive = pull_above_order_sensitive
        self.consolidate = consolidate
        self.wait_timeout = wait_timeout
        #: Graceful-degradation policy for failed calls: ``None`` (defer
        #: to the resolved :class:`~repro.plan.physical.ExecOptions`
        #: policy, default "raise"), "raise", "drop", or "null" — see
        #: :class:`~repro.asynciter.reqsync.ReqSync`.
        self.on_error = on_error
        #: Batch granularity stamped onto every ReqSync this rewrite
        #: creates (``None`` = the operator default).  This governs how
        #: many child rows — and therefore how many external-call
        #: registrations — one ReqSync admission pull covers.
        self.batch_size = batch_size
        #: Search-tier shard count (``None`` = defer to the engine /
        #: ``REPRO_SHARDS`` resolution; ``1`` = unsharded).
        self.shards = shards
        #: Intra-query Exchange parallelism (``None`` = defer to the
        #: engine / ``REPRO_PARALLELISM`` resolution; ``1`` = off).
        self.parallelism = parallelism
        #: Opt-in logical rule packs (``None`` = defer to the engine /
        #: ``$REPRO_RULES`` resolution; ``()`` = explicitly none).  Pack
        #: names / Rule classes / Rule instances, as accepted by
        #: :func:`repro.plan.rules.resolve_packs`.
        self.rules = rules

    def exec_options(self):
        """The consolidated execution knobs these settings imply."""
        return ExecOptions.from_knobs(rewrite_settings=self)


def apply_asynchronous_iteration(
    plan, context, settings=None, tracer=None, metrics=None, query_id=None
):
    """Rewrite *plan* for asynchronous iteration; returns the new root.

    *plan* is a physical (synchronous) plan; the returned plan is a
    freshly lowered tree — EVScans replaced by AEVScans registered on
    *context*, with ReqSync operators placed by the rule engine.  Pass
    *tracer*/*metrics* to record ``plan.rule_fired`` events and the
    ``planner.rules_fired`` counter; the firings are also returned by
    :func:`rewrite_logical` for callers that want them.
    """
    settings = settings or RewriteSettings()
    node, _ = rewrite_logical(
        lift(plan), settings, tracer=tracer, metrics=metrics, query_id=query_id
    )
    return lower(node, settings.exec_options(), context)


def rewrite_logical(node, settings=None, tracer=None, metrics=None, query_id=None):
    """Run the ReqSync rule pack over a *logical* tree.

    Returns ``(optimized_node, firings)`` without lowering — the
    engine's native path, which lowers once with its fully resolved
    :class:`~repro.plan.physical.ExecOptions`.
    """
    settings = settings or RewriteSettings()
    engine = RuleEngine(
        reqsync_pack(settings),
        settings=settings,
        tracer=tracer,
        metrics=metrics,
        query_id=query_id,
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
