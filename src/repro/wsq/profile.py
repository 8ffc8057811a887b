"""Query profiling: per-operator execution statistics.

``WsqEngine.profile(sql)`` runs a query with every plan operator wrapped
in a timing/counting decorator and returns a :class:`ProfileReport`:
rows produced, ``next_batch()`` pulls, opens, and cumulative/self
wall-clock per operator, plus the engine-level deltas (external requests, cache and
dedup hits).  The report makes the paper's core claim *visible*: in a
sequential WSQ plan virtually all time sits in the EVScan row, and after
the rewrite it moves into the single ReqSync wait.

``close()`` is timed like ``open``/``next_batch``: operator teardown — e.g.
ReqSync draining and cancelling its pending calls — shows up in
``cum(s)`` rather than vanishing.

Since the observability layer (PR 2), a profiled run is also *traced*:
the report carries the :class:`~repro.obs.trace.Tracer` handle plus a
per-external-request breakdown (registered/issued/settled timestamps,
queue-wait/service/e2e, retries) and per-destination latency
percentiles, and ``report.chrome_trace()`` / ``report.waterfall()``
export the timeline.
"""

from contextlib import nullcontext

from repro.exec.operator import Operator
from repro.obs.analysis import destination_latencies, overlap_factor, request_table
from repro.obs.export import render_waterfall, to_chrome_trace
from repro.util.timing import resolve_clock


class OperatorStats:
    """Counters for one wrapped operator.

    ``pulls`` counts ``next_batch()`` round trips (a ``next()`` is one
    pull of one row); a batch of *n* adds *n* to ``rows``, and so do the
    *n* rows an ``open_batch`` returns.
    """

    __slots__ = ("label", "depth", "opens", "pulls", "closes", "rows", "seconds")

    def __init__(self, label, depth):
        self.label = label
        self.depth = depth
        self.opens = 0
        self.pulls = 0
        self.closes = 0
        self.rows = 0
        self.seconds = 0.0


class _ProfiledOperator(Operator):
    """Transparent wrapper: delegates everything, accumulates stats."""

    def __init__(self, inner, stats, clock=None, tracer=None, query_id=None):
        self.inner = inner
        self.stats = stats
        self.clock = resolve_clock(clock)
        self.tracer = tracer
        self.query_id = query_id
        self.schema = inner.schema
        self.children = inner.children  # wrapped by profile_plan
        self.batch_size = getattr(inner, "batch_size", self.batch_size)
        if hasattr(inner, "open_batch"):
            # Preserve the inner scan's batched-parameterization
            # capability: DependentJoin's fast path is a duck-typed
            # ``open_batch`` check, which must see through the wrapper.
            self.open_batch = self._open_batch

    def _spanned(self, name, fn, *args):
        """``fn(*args)``, timed into ``seconds``, inside a *name* span when tracing."""
        tracer = self.tracer
        with nullcontext() if tracer is None else tracer.span(
            name, query_id=self.query_id, operator=self.stats.label
        ):
            started = self.clock.now()
            try:
                return fn(*args)
            finally:
                self.stats.seconds += self.clock.now() - started

    def open(self, bindings=None):
        self.stats.opens += 1
        self._spanned("op.open", self.inner.open, bindings)

    def _open_batch(self, bindings_list):
        self.stats.opens += 1
        groups = self._spanned("op.open", self.inner.open_batch, bindings_list)
        self.stats.rows += sum(map(len, groups))
        return groups

    def next_batch(self, max_rows=None):
        self.stats.pulls += 1
        batch = self._spanned("op.next_batch", self.inner.next_batch, max_rows)
        if batch is not None:
            self.stats.rows += len(batch)
        return batch

    def close(self):
        # Teardown is timed too: ReqSync draining/cancelling pending
        # calls on close used to be invisible in cum(s).
        self.stats.closes += 1
        self._spanned("op.close", self.inner.close)

    def label(self):
        return self.inner.label()


def profile_plan(plan, depth=0, collected=None, clock=None, tracer=None, query_id=None):
    """Wrap *plan* recursively; returns ``(wrapped, stats_list)``.

    Stats are listed in pre-order, mirroring ``explain()``.
    """
    if collected is None:
        collected = []
    stats = OperatorStats(plan.label(), depth)
    collected.append(stats)
    wrapped_children = tuple(
        profile_plan(
            child, depth + 1, collected, clock=clock, tracer=tracer, query_id=query_id
        )[0]
        for child in plan.children
    )
    _rewire_children(plan, wrapped_children)
    wrapper = _ProfiledOperator(
        plan, stats, clock=clock, tracer=tracer, query_id=query_id
    )
    wrapper.children = wrapped_children
    return wrapper, collected


def _rewire_children(op, wrapped_children):
    originals = list(op.children)
    for original, wrapped in zip(originals, wrapped_children):
        for slot in ("child", "left", "right"):
            if getattr(op, slot, None) is original:
                setattr(op, slot, wrapped)
    op.children = wrapped_children


class ProfileReport:
    """Execution profile of one query."""

    def __init__(
        self, sql, mode, result, stats, engine_deltas, trace=None, query_id=None
    ):
        self.sql = sql
        self.mode = mode
        self.result = result
        self.operator_stats = stats
        self.engine_deltas = engine_deltas
        #: The tracer that recorded this run (None when tracing was off).
        self.trace = trace
        self.query_id = query_id

    def _self_times(self):
        """Cumulative minus direct-children cumulative, per operator."""
        # Pre-order with depths lets us find each node's children: the
        # maximal following entries one level deeper.
        stats = self.operator_stats
        self_times = []
        for i, stat in enumerate(stats):
            child_seconds = 0.0
            for j in range(i + 1, len(stats)):
                if stats[j].depth <= stat.depth:
                    break
                if stats[j].depth == stat.depth + 1:
                    child_seconds += stats[j].seconds
            self_times.append(max(0.0, stat.seconds - child_seconds))
        return self_times

    # -- trace-derived views ---------------------------------------------------

    def _events(self):
        if self.trace is None:
            return []
        return self.trace.events(query_id=self.query_id)

    def requests(self):
        """Per-external-request breakdown, in registration order.

        A list of dicts (call id, destination, lifecycle timestamps,
        queue-wait/service/e2e seconds, retries, outcome); empty when
        the run was not traced.
        """
        table = request_table(self._events(), query_id=self.query_id)
        records = sorted(
            table.values(),
            key=lambda r: (
                r.registered_at if r.registered_at is not None else float("inf"),
                r.call_id,
            ),
        )
        return [record.as_dict() for record in records]

    def request_latencies(self):
        """Per-destination latency lists derived from the trace."""
        return destination_latencies(self._events(), query_id=self.query_id)

    def overlap(self):
        """Trace-derived max concurrent in-service requests (0 untraced)."""
        return overlap_factor(self._events(), query_id=self.query_id)

    def chrome_trace(self):
        """This run's events as a Chrome-trace dict."""
        return to_chrome_trace(self._events())

    def waterfall(self, width=64):
        """ASCII request timeline for the CLI."""
        dropped = getattr(self.trace, "dropped", 0) if self.trace is not None else 0
        return render_waterfall(
            self._events(), width=width, query_id=self.query_id, dropped=dropped
        )

    def render(self):
        lines = [
            "profile: {} mode, {} rows in {:.4f}s".format(
                self.mode, len(self.result), self.result.elapsed
            )
        ]
        header = "{:<58}{:>8}{:>9}{:>10}{:>10}".format(
            "operator", "rows", "pulls", "cum(s)", "self(s)"
        )
        lines.append(header)
        for stat, self_time in zip(self.operator_stats, self._self_times()):
            label = "{}{}".format("  " * stat.depth, stat.label)
            if len(label) > 56:
                label = label[:53] + "..."
            lines.append(
                "{:<58}{:>8}{:>9}{:>10.4f}{:>10.4f}".format(
                    label, stat.rows, stat.pulls, stat.seconds, self_time
                )
            )
        if self.engine_deltas:
            lines.append(
                "external: "
                + ", ".join(
                    "{}={}".format(k, v) for k, v in sorted(self.engine_deltas.items())
                )
            )
        requests = self.requests()
        if requests:
            lines.append(
                "requests: {} traced, overlap factor {}".format(
                    len(requests), self.overlap()
                )
            )
            for destination, latencies in sorted(self.request_latencies().items()):
                e2e = sorted(latencies["e2e"])
                if not e2e:
                    continue

                def pct(q):
                    return e2e[min(len(e2e) - 1, int(q * len(e2e)))] * 1e3

                lines.append(
                    "  {}: n={} e2e p50={:.1f}ms p95={:.1f}ms p99={:.1f}ms".format(
                        destination, len(e2e), pct(0.50), pct(0.95), pct(0.99)
                    )
                )
        return "\n".join(lines)

    def __repr__(self):
        return "ProfileReport({} operators, {:.4f}s)".format(
            len(self.operator_stats), self.result.elapsed or 0.0
        )
