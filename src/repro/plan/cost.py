"""Cost estimation for WSQ plans, including asynchronous iteration.

The paper repeatedly defers "fully addressing cost-based query
optimization in the presence of asynchronous iteration" to future work,
while cataloguing what such a model must capture (Section 4.5.4): external
calls dominate; asynchronous plans pay per *blocking wave* rather than per
call; ReqSync placement trades patch work against concurrency; enabling
rewrites (join -> selection over cross-product) add local work.

This module is that model, kept deliberately transparent:

- **Cardinalities** flow bottom-up from real table row counts through
  textbook selectivity heuristics (equality 0.05, range 0.30, ...);
  virtual tables contribute their per-call fan-out (WebCount exactly 1,
  WebPages its rank limit, ...).
- **External work** is a per-destination call count plus a *wave* count:
  a sequential plan performs one wave per call; an asynchronous plan
  performs one wave per ReqSync (all its calls overlap), widened by
  pump concurrency limits: ``waves_d = ceil(calls_d / limit_d)``.
- **Local work** counts rows processed per operator, plus the ReqSync
  patch work (buffered placeholder values), at a fixed per-row cost.

``CostModel.estimate`` prices any plan (sync or rewritten);
``choose_figure7_variant`` applies it to the paper's Example 2 trade-off.
"""

import math

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
from repro.relational.expr import (
    Comparison,
    Conjunction,
    Disjunction,
    LikePredicate,
    Literal,
    Negation,
    NullCheck,
)
from repro.vtables.evscan import EVScan

# Classic selectivity guesses (System R lineage).
EQUALITY_SELECTIVITY = 0.05
RANGE_SELECTIVITY = 0.30
LIKE_SELECTIVITY = 0.25
DEFAULT_SELECTIVITY = 0.33


def predicate_selectivity(expr, column_stats=None):
    """Fraction of rows satisfying *expr*.

    With *column_stats* (a dict of row index ->
    :class:`~repro.storage.stats.ColumnStats` from ANALYZE) the estimate
    uses real distinct-value counts, MCV frequencies, and min/max
    interpolation; otherwise the System-R constants apply.
    """
    if isinstance(expr, Comparison):
        if isinstance(expr.left, Literal) and isinstance(expr.right, Literal):
            return 1.0 if expr.eval(()) is True else 0.0
        informed = _stats_selectivity(expr, column_stats)
        if informed is not None:
            return informed
        if expr.op == "=":
            return EQUALITY_SELECTIVITY
        if expr.op == "!=":
            return 1.0 - EQUALITY_SELECTIVITY
        return RANGE_SELECTIVITY
    if isinstance(expr, Conjunction):
        product = 1.0
        for term in expr.terms:
            product *= predicate_selectivity(term, column_stats)
        return product
    if isinstance(expr, Disjunction):
        miss = 1.0
        for term in expr.terms:
            miss *= 1.0 - predicate_selectivity(term, column_stats)
        return 1.0 - miss
    if isinstance(expr, Negation):
        return 1.0 - predicate_selectivity(expr.term, column_stats)
    if isinstance(expr, LikePredicate):
        return LIKE_SELECTIVITY
    if isinstance(expr, NullCheck):
        stats = _stats_for(expr.expr, column_stats)
        if stats is not None:
            return stats.null_fraction if not expr.negated else 1 - stats.null_fraction
        return 0.1 if not expr.negated else 0.9
    return DEFAULT_SELECTIVITY


def _stats_for(expr, column_stats):
    from repro.relational.expr import ColumnRef as _ColumnRef

    if column_stats and isinstance(expr, _ColumnRef):
        return column_stats.get(expr.index)
    return None


def _stats_selectivity(comparison, column_stats):
    """ANALYZE-informed selectivity for ``col <op> literal`` shapes."""
    pairs = (
        (comparison.left, comparison.right, comparison.op),
        (comparison.right, comparison.left, _FLIP.get(comparison.op, comparison.op)),
    )
    for column_side, literal_side, op in pairs:
        stats = _stats_for(column_side, column_stats)
        if stats is None or not isinstance(literal_side, Literal):
            continue
        value = literal_side.value
        if op == "=":
            return min(1.0, stats.equality_selectivity(value))
        if op == "!=":
            return max(0.0, 1.0 - stats.equality_selectivity(value))
        estimated = stats.range_selectivity(op, value)
        if estimated is not None:
            return min(1.0, estimated)
    return None


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class PlanEstimate:
    """Bottom-up estimate for one (sub)plan."""

    __slots__ = (
        "rows", "local_rows", "calls", "waves", "patched_values", "issued",
        "wave_seconds", "column_stats",
    )

    def __init__(
        self,
        rows=0.0,
        local_rows=0.0,
        calls=None,
        waves=0.0,
        patched_values=0.0,
        issued=0.0,
        wave_seconds=0.0,
        column_stats=None,
    ):
        self.rows = rows
        self.local_rows = local_rows  # rows processed by operators
        self.calls = dict(calls or {})  # destination -> pending call count
        self.waves = waves  # blocking round-trip waves
        self.patched_values = patched_values
        self.issued = issued  # calls already folded into waves (ReqSync)
        #: Wave latency priced per destination (``waves * latency_mean``
        #: when latencies are uniform; diverges under calibration).
        self.wave_seconds = wave_seconds
        #: row index -> ColumnStats (from ANALYZE), where still traceable
        self.column_stats = dict(column_stats or {})

    def total_calls(self):
        return sum(self.calls.values())

    def merged_calls(self, other):
        merged = dict(self.calls)
        for destination, count in other.calls.items():
            merged[destination] = merged.get(destination, 0.0) + count
        return merged

    def __repr__(self):
        return (
            "PlanEstimate(rows={:.0f}, local={:.0f}, calls={}, waves={:.1f}, "
            "patched={:.0f})".format(
                self.rows, self.local_rows,
                {k: round(v, 1) for k, v in self.calls.items()},
                self.waves, self.patched_values,
            )
        )


#: Seconds of local CPU per row an operator processes, per buffered
#: placeholder value ReqSync patches, and per external call issued.
CPU_PER_ROW = 2e-6
CPU_PER_PATCH = 4e-6
CALL_OVERHEAD = 2e-4


class CostModel:
    """Prices plans in estimated seconds.

    ``latency_mean`` is the expected per-request network delay; *cache*
    is the engine's live :class:`~repro.web.cache.ResultCache` (its
    observed hit ratio discounts external calls); *limits* is the
    engine's :class:`~repro.asynciter.pump.PumpLimits`, whose caps widen
    an asynchronous wave (``None`` = unbounded).
    """

    def __init__(self, latency_mean, cache=None, limits=None):
        self.latency_mean = latency_mean
        self.cache = cache
        self.limits = limits
        #: Calibration state: a :class:`repro.obs.calibration.
        #: CalibrationProfile` attached via :meth:`apply_profile` (duck
        #: typed — anything with the same read surface works).  Empty
        #: maps/None keep every estimate bit-identical to the static
        #: model.
        self.profile = None
        self.latency_by_destination = {}
        self.fanout_by_destination = {}
        self._static = None  # pre-calibration twin, for comparisons

    def apply_profile(self, profile):
        """Re-price this model from *profile*; returns ``self``.

        Overrides ``latency_mean`` (sample-weighted across destinations)
        plus the per-destination latency and fan-out tables, and attaches
        the profile so :meth:`miss_fraction` can use the *observed* cache
        hit ratio.

        The first application snapshots the static figures, so
        :meth:`uncalibrated` (and explain's calibrated-vs-static column)
        can always compare against the pre-profile model.
        """
        if self._static is None:
            self._static = CostModel(self.latency_mean, self.cache, self.limits)
        mean = profile.latency_mean()
        if mean is not None:
            self.latency_mean = mean
        self.latency_by_destination = {
            name: calibration.latency_mean
            for name, calibration in profile.destinations.items()
            if calibration.latency_mean is not None
        }
        self.fanout_by_destination = {
            name: calibration.fanout
            for name, calibration in profile.destinations.items()
            if calibration.fanout is not None
        }
        self.profile = profile
        return self

    @property
    def calibrated(self):
        return self.profile is not None

    def uncalibrated(self):
        """The static model from before any profile was applied.

        Returns ``self`` if never calibrated — callers can always diff
        ``model.seconds(plan)`` against ``model.uncalibrated().seconds(plan)``.
        """
        return self._static if self._static is not None else self

    def destination_latency(self, destination):
        """Expected per-request latency for *destination* (calibrated or mean)."""
        return self.latency_by_destination.get(destination, self.latency_mean)

    def _weighted_latency(self, calls):
        """Call-count-weighted mean latency across a calls dict."""
        total = sum(calls.values())
        if not total:
            return self.latency_mean
        return (
            sum(
                count * self.destination_latency(destination)
                for destination, count in calls.items()
            )
            / total
        )

    def miss_fraction(self):
        """Expected fraction of external calls that actually hit the network.

        ``1.0`` without a cache signal; otherwise ``1 - hit_ratio``,
        clamped to [0, 1].  The hit ratio is an attached calibration
        profile's *observed* one, else the live cache's current
        ``hit_ratio()``, else there is none and every call is priced at
        full latency.

        The live estimate deliberately lags reality (it is the cache's
        *observed* ratio, not the workload's future one) — good enough
        to steer sync-vs-async arbitration and wave pricing, and it
        converges as the cache warms.
        """
        ratio = None
        if self.profile is not None:
            ratio = self.profile.cache_hit_ratio
        if ratio is None and self.cache is not None:
            ratio = self.cache.hit_ratio()
        if ratio is None:
            return 1.0
        return min(1.0, max(0.0, 1.0 - float(ratio)))

    # -- public API -------------------------------------------------------------

    def estimate(self, plan):
        """Structural :class:`PlanEstimate` for *plan*."""
        return self._walk(plan)

    def seconds(self, plan):
        """Predicted wall-clock seconds for running *plan* to completion.

        Uncalibrated, wave latency is uniform (``waves * latency_mean``
        — seed-identical); with per-destination calibration the walk's
        ``wave_seconds`` accumulator prices each wave at its own
        destination's measured latency.
        """
        estimate = self._walk(plan)
        if self.latency_by_destination:
            network = estimate.wave_seconds
        else:
            network = estimate.waves * self.latency_mean
        network += (estimate.total_calls() + estimate.issued) * CALL_OVERHEAD
        local = (
            estimate.local_rows * CPU_PER_ROW
            + estimate.patched_values * CPU_PER_PATCH
        )
        return network + local

    def explain(self, plan):
        """Human-readable cost breakdown (one-line plan summary)."""
        estimate = self._walk(plan)
        return (
            "rows~{:.0f}  local-rows~{:.0f}  external-calls~{:.0f} ({})  "
            "waves~{:.1f}  patched-values~{:.0f}  => ~{:.3f}s".format(
                estimate.rows,
                estimate.local_rows,
                estimate.total_calls() + estimate.issued,
                ", ".join(
                    "{}:{:.0f}".format(k, v) for k, v in sorted(estimate.calls.items())
                ),
                estimate.waves,
                estimate.patched_values,
                self.seconds(plan),
            )
        )

    def annotation(self, op):
        """Short per-operator cost column for annotated explains."""
        estimate = self._walk(op)
        parts = ["rows~{:.0f}".format(estimate.rows)]
        calls = estimate.total_calls() + estimate.issued
        if calls:
            parts.append("calls~{:.0f}".format(calls))
        if estimate.waves:
            parts.append("waves~{:.1f}".format(estimate.waves))
        return " ".join(parts)

    def annotated_explain(self, plan):
        """The plan tree with a per-operator cost column.

        One renderer for both explain flavors: this delegates to
        :meth:`repro.exec.operator.Operator.explain` with
        :meth:`annotation` as the column callback, so cost-annotated
        output is the ordinary physical form plus a column rather than a
        separate format.
        """
        return plan.explain(annotate=self.annotation)

    # -- structural walk --------------------------------------------------------------

    def _walk(self, op):
        if isinstance(op, (TableScan, IndexScan)):
            table_stats = getattr(op.table, "stats", None)
            if table_stats is not None:
                rows = float(table_stats.row_count)
                column_stats = {
                    i: table_stats.column(column.name)
                    for i, column in enumerate(op.schema)
                    if table_stats.column(column.name) is not None
                }
            else:
                rows = float(op.table.row_count())
                column_stats = {}
            if isinstance(op, IndexScan):
                rows *= self._index_selectivity(op, column_stats)
            scan = PlanEstimate(rows=rows, local_rows=rows, column_stats=column_stats)
            if isinstance(op, TableScan) and op.predicate is not None:
                # A selection the page decoder runs: the Filter it replaced.
                return self._selected(scan, op.predicate)
            return scan
        if isinstance(op, RowsScan):
            rows = float(len(op.rows_data))
            return PlanEstimate(rows=rows, local_rows=rows)
        if isinstance(op, (EVScan, AEVScan)):
            # Cost is attributed at the dependent join (per-binding call).
            return PlanEstimate(rows=self._vtable_fanout(op.instance))
        if isinstance(op, Filter):
            return self._selected(self._walk(op.child), op.predicate)
        if isinstance(op, (Project, Limit)):
            child = self._walk(op.children[0])
            rows = child.rows
            column_stats = child.column_stats
            if isinstance(op, Limit):
                rows = min(rows, float(op.count))
            else:
                from repro.relational.expr import ColumnRef as _ColumnRef

                column_stats = {
                    out_index: child.column_stats[expr.index]
                    for out_index, expr in enumerate(op.expressions)
                    if isinstance(expr, _ColumnRef)
                    and expr.index in child.column_stats
                }
            return PlanEstimate(
                rows=rows,
                local_rows=child.local_rows + child.rows,
                calls=child.calls,
                waves=child.waves,
                patched_values=child.patched_values,
                issued=child.issued,
                wave_seconds=child.wave_seconds,
                column_stats=column_stats,
            )
        if isinstance(op, Sort):
            child = self._walk(op.child)
            sort_work = child.rows * max(1.0, math.log2(max(child.rows, 2.0)))
            return PlanEstimate(
                rows=child.rows,
                local_rows=child.local_rows + sort_work,
                calls=child.calls,
                waves=child.waves,
                patched_values=child.patched_values,
                issued=child.issued,
                wave_seconds=child.wave_seconds,
                column_stats=child.column_stats,
            )
        if isinstance(op, Distinct):
            child = self._walk(op.child)
            return PlanEstimate(
                rows=child.rows * 0.9,
                local_rows=child.local_rows + child.rows,
                calls=child.calls,
                waves=child.waves,
                patched_values=child.patched_values,
                issued=child.issued,
                wave_seconds=child.wave_seconds,
            )
        if isinstance(op, Aggregate):
            child = self._walk(op.child)
            groups = max(1.0, child.rows * 0.1) if op.group_exprs else 1.0
            if op.group_exprs:
                from repro.relational.expr import ColumnRef as _ColumnRef

                ndvs = []
                for group in op.group_exprs:
                    stats = (
                        child.column_stats.get(group.index)
                        if isinstance(group, _ColumnRef)
                        else None
                    )
                    if stats is None:
                        ndvs = None
                        break
                    ndvs.append(max(1, stats.ndv))
                if ndvs:
                    product = 1.0
                    for ndv in ndvs:
                        product *= ndv
                    groups = min(max(1.0, child.rows), float(product))
            return PlanEstimate(
                rows=groups,
                local_rows=child.local_rows + child.rows,
                calls=child.calls,
                waves=child.waves,
                patched_values=child.patched_values,
                issued=child.issued,
                wave_seconds=child.wave_seconds,
            )
        if isinstance(op, CrossProduct):
            left, right = self._walk(op.left), self._walk(op.right)
            rows = left.rows * right.rows
            return PlanEstimate(
                rows=rows,
                local_rows=left.local_rows + left.rows * right.local_rows + rows,
                calls=left.merged_calls(right),
                waves=left.waves + right.waves,
                patched_values=left.patched_values + right.patched_values,
                issued=left.issued + right.issued,
                wave_seconds=left.wave_seconds + right.wave_seconds,
                column_stats=_concat_stats(left, right, len(op.left.schema)),
            )
        if isinstance(op, NestedLoopJoin):
            left, right = self._walk(op.left), self._walk(op.right)
            combined_stats = _concat_stats(left, right, len(op.left.schema))
            pairs = left.rows * right.rows
            rows = pairs * predicate_selectivity(op.predicate, combined_stats)
            if op._equijoin_split() is not None:
                # NestedLoopJoin.open runs a clean equi-join as one hash
                # build pass and one probe pass, not the pair scan.
                local = (
                    left.local_rows
                    + right.local_rows
                    + left.rows
                    + right.rows
                    + rows
                )
            else:
                local = left.local_rows + left.rows * right.local_rows + pairs
            return PlanEstimate(
                rows=rows,
                local_rows=local,
                calls=left.merged_calls(right),
                waves=left.waves + right.waves,
                patched_values=left.patched_values + right.patched_values,
                issued=left.issued + right.issued,
                wave_seconds=left.wave_seconds + right.wave_seconds,
                column_stats=combined_stats,
            )
        if isinstance(op, DependentJoin):
            return self._walk_dependent_join(op)
        if isinstance(op, ReqSync):
            return self._walk_reqsync(op)
        raise TypeError("cost model does not know operator {!r}".format(op))

    def _walk_dependent_join(self, op):
        left = self._walk(op.left)
        inner = op.right
        # Peel pass-through operators to find the external scan (if any).
        scan = inner
        while isinstance(scan, (Filter, Project, ReqSync)):
            scan = scan.children[0]
        if isinstance(scan, (EVScan, AEVScan)):
            fanout = self._vtable_fanout(scan.instance)
            destination = self._destination(scan.instance)
            # Cache-aware discount: only the expected-miss fraction of
            # the per-binding calls reaches the network (1.0 without a
            # cache signal — seed-identical estimates).
            network_calls = left.rows * self.miss_fraction()
            calls = dict(left.calls)
            calls[destination] = calls.get(destination, 0.0) + network_calls
            rows = left.rows * fanout
            waves = left.waves
            wave_seconds = left.wave_seconds
            if isinstance(scan, EVScan):
                # Sequential: every (non-cached) call is its own
                # blocking wave, priced at its destination's latency.
                waves += network_calls
                wave_seconds += network_calls * self.destination_latency(destination)
            return PlanEstimate(
                rows=rows,
                local_rows=left.local_rows + rows,
                calls=calls,
                waves=waves,
                patched_values=left.patched_values,
                issued=left.issued,
                wave_seconds=wave_seconds,
            )
        # Dependent join over a non-external parameterized subplan.
        right = self._walk(inner)
        rows = left.rows * max(right.rows, 1.0)
        return PlanEstimate(
            rows=rows,
            local_rows=left.local_rows + left.rows * right.local_rows + rows,
            calls=left.merged_calls(right),
            waves=left.waves + right.waves,
            patched_values=left.patched_values + right.patched_values,
            wave_seconds=left.wave_seconds + right.wave_seconds,
        )

    def _walk_reqsync(self, op):
        child = self._walk(op.child)
        # All calls below this ReqSync overlap into one wave, widened by
        # concurrency limits.  ``wave`` is the structural count;
        # ``wave_latency`` prices the same widths per destination, so a
        # calibrated slow destination dominates the wave it gates.  With
        # uniform latencies the two agree: wave_latency == wave * mean.
        limits = self.limits
        wave = 0.0
        wave_latency = 0.0
        for destination, count in child.calls.items():
            limit = limits.limit_for(destination) if limits is not None else None
            width = math.ceil(count / limit) if limit else 1.0
            wave = max(wave, width)
            wave_latency = max(
                wave_latency, width * self.destination_latency(destination)
            )
        total = sum(child.calls.values())
        if limits is not None and limits.max_total and total:
            widened = math.ceil(total / limits.max_total)
            wave = max(wave, widened)
            wave_latency = max(
                wave_latency, widened * self._weighted_latency(child.calls)
            )
        if child.calls:
            wave = max(wave, 1.0)
            wave_latency = max(
                wave_latency,
                max(self.destination_latency(d) for d in child.calls),
            )
        # Each buffered tuple's placeholder values get patched once.
        return PlanEstimate(
            rows=child.rows,
            local_rows=child.local_rows + child.rows,
            calls={},  # consumed: waves account for their latency now
            waves=child.waves + wave,
            patched_values=child.patched_values + child.rows,
            issued=child.issued + total,
            wave_seconds=child.wave_seconds + wave_latency,
        )

    def _selected(self, child, predicate):
        """*child*'s estimate after a selection by *predicate*."""
        selectivity = predicate_selectivity(predicate, child.column_stats)
        probe = self._subquery_probe_rows(predicate, child.rows)
        return PlanEstimate(
            rows=child.rows * selectivity,
            local_rows=child.local_rows + child.rows + probe,
            calls=child.calls,
            waves=child.waves,
            patched_values=child.patched_values,
            issued=child.issued,
            wave_seconds=child.wave_seconds,
            column_stats=child.column_stats,
        )

    def _subquery_probe_rows(self, predicate, rows):
        """Local work hidden inside subquery predicates (IN / EXISTS).

        The executor materializes each subplan once, then ``IN`` probes
        its hash set once per input row.  Plain predicates contribute
        zero, keeping historical Filter estimates bit-identical; external
        work inside a subplan is not separately priced.
        """
        from repro.relational.expr import ExistsPredicate, InSubqueryPredicate

        total = 0.0
        stack = [predicate]
        while stack:
            expr = stack.pop()
            if isinstance(expr, InSubqueryPredicate):
                inner = self._walk(expr.subplan)
                total += inner.local_rows + rows
            elif isinstance(expr, ExistsPredicate):
                total += self._walk(expr.subplan).local_rows
            elif isinstance(expr, (Conjunction, Disjunction)):
                stack.extend(expr.terms)
            elif isinstance(expr, Negation):
                stack.append(expr.term)
        return total

    def _index_selectivity(self, op, column_stats):
        """Selectivity of an IndexScan's bounds (stats-aware)."""
        stats = None
        for i, column in enumerate(op.schema):
            if column.name.lower() == op.index.column_name.lower():
                stats = column_stats.get(i)
                break
        if op.low is not None and op.low == op.high:
            if stats is not None:
                return min(1.0, stats.equality_selectivity(op.low))
            return EQUALITY_SELECTIVITY
        if stats is not None:
            fraction = 1.0
            if op.low is not None:
                low_part = stats.range_selectivity(
                    ">=" if op.include_low else ">", op.low
                )
                if low_part is not None:
                    fraction = min(fraction, low_part)
            if op.high is not None:
                high_part = stats.range_selectivity(
                    "<=" if op.include_high else "<", op.high
                )
                if high_part is not None:
                    fraction = min(fraction, high_part)
            if fraction < 1.0:
                return fraction
        return RANGE_SELECTIVITY

    # -- virtual-table characteristics ---------------------------------------------------

    def _vtable_fanout(self, instance):
        """Expected result rows per external call.

        A calibrated per-destination fan-out (mean observed result rows
        per patched call) overrides the static heuristics; a WebPages
        rank limit still caps it, since the observed mix may include
        higher-fanout vtables on the same destination.
        """
        rank_limit = getattr(instance, "rank_limit", None)
        calibrated = self.fanout_by_destination.get(self._destination(instance))
        if calibrated is not None:
            if rank_limit is not None:
                return min(float(rank_limit), max(calibrated, 0.0))
            return max(calibrated, 0.0)
        if rank_limit is not None:
            return max(1.0, rank_limit * 0.8)  # WebPages-style
        fields = instance.result_fields
        if "link_url" in fields.values():
            return 2.5  # WebLinks: average outdegree of the corpus
        return 1.0  # WebCount / WebFetch: exactly one row

    @staticmethod
    def _destination(instance):
        definition = instance.definition
        client = getattr(definition, "client", None)
        if client is not None:
            return client.name
        return "fetch"


def _concat_stats(left, right, left_width):
    combined = dict(left.column_stats)
    for index, stats in right.column_stats.items():
        combined[index + left_width] = stats
    return combined


def choose_figure7_variant(cost_model, sigs_rows, r_rows, destination=None):
    """Pick the Figure-7 placement the model predicts cheaper.

    Variant (a): one wave, patch work ~ 2 * |Sigs| * |R|.
    Variant (b): two waves, patch work ~ |Sigs| * (1 + |R|).
    Returns ``("a"|"b", predicted_a_seconds, predicted_b_seconds)``.

    With *destination* given, the wave is priced at that destination's
    (possibly calibrated) latency instead of the uniform mean — a
    measured slow source raises the cost of variant (b)'s second wave
    and can flip the choice the static constants would make.
    """
    if destination is not None:
        latency = cost_model.destination_latency(destination)
    else:
        latency = cost_model.latency_mean
    patch_a = 2.0 * sigs_rows * r_rows
    patch_b = sigs_rows * (1.0 + r_rows)
    calls_a = sigs_rows + sigs_rows * r_rows
    calls_b = calls_a
    time_a = 1.0 * latency + calls_a * CALL_OVERHEAD + patch_a * CPU_PER_PATCH
    time_b = 2.0 * latency + calls_b * CALL_OVERHEAD + patch_b * CPU_PER_PATCH
    return ("a" if time_a <= time_b else "b"), time_a, time_b
