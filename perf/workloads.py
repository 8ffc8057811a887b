"""The four workloads: set-up, the timed closed loop, the oracles and the traced run.

All four are closed loops: a caller sends its next query only after the
previous reply, because the callers of ``execute()`` do wait.  One process,
one generator thread (two for ``serve_mixed``) on this two-core sandbox.
"""

import functools
import resource
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict, namedtuple

import adapter
import gen
import stats
from spans import SpanLog

#: ``ops`` is the length of a NOMINAL_SECONDS run on the seed; a traced run
#: executes a quarter of it as a fixed count, so its counters repeat exactly.
NOMINAL_SECONDS = 20
#: The timed phase: this share of it is ramp (run but not measured), the rest
#: is cut into this many windows, each with its own measure of machine speed.
RAMP_SHARE = 0.1
WINDOWS = 9
#: The reference loop (iterations), how often a client runs it (seconds), and
#: its CPU time on the quiet sandbox: the speed all timings are reported at.
REFERENCE_WORK = 8000
REFERENCE_EVERY = 0.05
REFERENCE_S = 0.0004
#: Reference loops before a set-up, and as many after it.
SETUP_PROBES = 25
#: Sync-mode queries per shape in a traced run: the paper's Table-1 pass uses 8.
SYNC_PER_SHAPE = 8
LOOKUPS = 2000

#: Why each workload exists is recorded in BENCHMARK.json and the README.
Spec = namedtuple("Spec", "name local mode cached capacity warm served ops")

SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "table1_cold",
            local=False, mode="async", cached=False, capacity=None,
            warm=False, served=False, ops=900,
        ),
        Spec(
            "warm_cache",
            local=False, mode="async", cached=True, capacity=None,
            warm=True, served=False, ops=1500,
        ),
        Spec(
            "local_sql",
            local=True, mode="auto", cached=False, capacity=None,
            warm=False, served=False, ops=240,
        ),
        Spec(
            "serve_mixed",
            local=False, mode="async", cached=True, capacity=700,
            warm=False, served=True, ops=800,
        ),
    )
}

#: Timings only a workload that issues external calls can measure; on
#: ``local_sql`` they come from a fixed reference pass of Table-1 queries.
CALL_TIMINGS = (
    "asynciter.rewrite_us",
    "asynciter.cpu_per_call_us",
    "asynciter.queue_wait_p50_s",
    "asynciter.service_p50_s",
    "asynciter.e2e_p95_s",
    "vtables.sync_cpu_per_call_us",
    "sync_query_p50_s",
    "async_improvement_x",
)


class Inputs:
    """Everything the seed decides, made before any timer starts."""

    def __init__(self, spec, seed, tracing):
        capitals = adapter.state_capitals(adapter.paper_database())
        names = sorted(capitals)
        self.seed = seed
        self.latency = None if spec.local else gen.LATENCY_BAND + (seed,)
        self.orders = self.customers = None
        if spec.local or tracing:
            self.orders = gen.orders_rows(seed, names)
            self.customers = gen.customers_rows(seed, names)
        if spec.local:
            self.queries = gen.local_queries(seed)
            self.expected = [
                gen.local_expected(q, self.orders, capitals) for q in self.queries
            ]
        else:
            self.queries = gen.template_queries(seed)
            self.expected = None  # needs a built web: see web_oracle
        self.shapes = list(dict.fromkeys(q.shape for q in self.queries))
        self.expressions = gen.probe_expressions(seed, names) if tracing else None


def web_oracle(web, queries):
    """Expected rows per query from a direct, synchronous, zero-latency, cache-less engine."""
    engine = adapter.new_engine(adapter.paper_database(), web)
    try:
        return [Counter(engine.execute(q.sql, mode="sync").rows) for q in queries]
    finally:
        adapter.close(engine)


def matches(query, rows, expected):
    """Rows equal the oracle's as a multiset (async ORDER BY ties are unordered)."""
    if Counter(rows) != expected:
        return False
    if query.shape == "sort":
        amounts = [row[1] for row in rows]
        return all(a >= b for a, b in zip(amounts, amounts[1:]))
    return True


class World:
    """One set-up of the system under test for a workload."""

    def __init__(self, spec, inputs, log=None):
        log = log if log is not None else SpanLog()
        self.mode = spec.mode
        self.service = self.cache = self.load = None
        with log.span("setup") as root:
            with log.span("web.corpus_build", root):
                self.web = adapter.new_web()
            with log.span("storage.load", root):
                self.database = adapter.paper_database()
                if spec.local:
                    self.load = adapter.load_local_tables(
                        self.database, inputs.orders, inputs.customers
                    )
            with log.span("engine.build", root):
                if spec.cached:
                    self.cache = adapter.new_cache(spec.capacity)
                self.engine = adapter.new_engine(
                    self.database, self.web, inputs.latency, self.cache,
                    single_flight=spec.served,
                )
                if spec.served:
                    self.service = adapter.new_service(self.engine)
            # Lazy set-up (kernel compilation, the pump's thread) finishes on one
            # query of each shape; warm_cache fills its cache with all of them.
            warmup = inputs.queries if spec.warm else inputs.queries[: len(inputs.shapes)]
            with log.span("warmup", root):
                self.warm_rows = [
                    self.engine.execute(q.sql, mode=spec.mode).rows for q in warmup
                ]

    def callers(self):
        """One ``execute(sql) -> rows`` per generator thread, through the front door."""
        if self.service is None:
            return [lambda sql: self.engine.execute(sql, mode=self.mode).rows]
        return [functools.partial(self._served, tenant) for tenant in adapter.TENANTS]

    def _served(self, tenant, sql):
        return self.service.execute(sql, tenant, timeout=30, mode=self.mode).rows

    def close(self):
        adapter.close(self.engine, self.service)


class Tally:
    """Operations attempted and failed (raised, or rows unequal to the oracle's)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ok, problem):
        """One more operation; *problem* describes it if it failed."""
        self.attempted += 1
        self.guard(ok, problem)

    def check(self, query, rows, expected):
        self.record(matches(query, rows, expected), "oracle mismatch: " + query.sql)

    def raised(self, query):
        self.record(False, "raised: " + query.sql)
        traceback.print_exc(file=sys.stderr)

    def guard(self, ok, problem):
        """A condition on the whole run; a breach makes the run incorrect."""
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def run_clients(client, count):
    """Run ``client(k)`` for k < count, each on its own generator thread, to the end."""
    if count == 1:
        return client(0)
    threads = [
        threading.Thread(target=client, args=(k,), name="perf-client-{}".format(k))
        for k in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def reference_loop():
    """CPU seconds of the calling thread for a fixed piece of pure-Python work.

    The machine-speed probe.  Thread CPU time, so waiting for the GIL or for
    the CPU (which the program under test can cause) is not in it.
    """
    began = time.thread_time()
    total = 0
    for i in range(REFERENCE_WORK):
        total += i * i % 7
    return time.thread_time() - began


#: samples: [(query index, seconds, begun)]; references: [(begun, CPU seconds)]
Loop = namedtuple("Loop", "samples references started")


def closed_loop(callers, inputs, seconds, tally):
    """Each caller cycles through its share of the queries until *seconds* pass.

    Caller k of n takes queries k, k + n, ...  Every caller runs at least
    one query of each shape, so a short run still reports every metric.
    Rows are checked right after each reply, outside the query's own timer,
    and so is the reference loop, which a caller runs before a query when
    REFERENCE_EVERY seconds have passed since its last one.
    """
    queries, expected = inputs.queries, inputs.expected
    stride, floor = len(callers), len(inputs.shapes)
    samples = [[] for _ in callers]
    references = [[] for _ in callers]
    tallies = [Tally() for _ in callers]
    started = time.perf_counter()
    deadline = started + seconds

    def client(k):
        execute, mine, probes, own = callers[k], samples[k], references[k], tallies[k]
        position, probe_due = k, 0.0
        while own.attempted < floor or time.perf_counter() < deadline:
            index = position % len(queries)
            position += stride
            query = queries[index]
            now = time.perf_counter()
            if now >= probe_due:
                probes.append((now, reference_loop()))
                probe_due = now + REFERENCE_EVERY
            begun = time.perf_counter()
            try:
                rows = execute(query.sql)
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                own.raised(query)
                continue
            mine.append((index, time.perf_counter() - begun, begun))
            own.check(query, rows, expected[index])

    run_clients(client, stride)
    for own in tallies:
        tally.attempted += own.attempted
        tally.failed += own.failed
        tally.problems.extend(own.problems)
    return Loop(
        [s for mine in samples for s in mine], [r for probes in references for r in probes], started
    )


def windows(loop, seconds):
    """The loop after its ramp, cut by start time into WINDOWS equal parts.

    Returns ``[(samples, window seconds)]`` in *nominal* time: every latency
    and the window's length are divided by the window's slowdown, the
    median reference time measured in it over REFERENCE_S.  A very short
    run is cut into fewer windows.
    """
    begins = loop.started + seconds * RAMP_SHARE
    kept = [s for s in loop.samples if s[2] >= begins] or loop.samples
    count = max(1, min(WINDOWS, len(kept) // 12))
    length = (loop.started + seconds - begins) / count

    def slot(when):
        return max(0, min(count - 1, int((when - begins) / length)))

    parts = [[] for _ in range(count)]
    probes = [[] for _ in range(count)]
    for sample in kept:
        parts[slot(sample[2])].append(sample)
    for when, took in loop.references:
        probes[slot(when)].append(took)
    overall = stats.median([took for _, took in loop.references])
    scaled = []
    for part, mine in zip(parts, probes):
        slowdown = (stats.median(mine) if mine else overall) / REFERENCE_S
        scaled.append(([(index, took / slowdown) for index, took, _ in part], length / slowdown))
    return scaled


def by_shape(inputs, samples):
    grouped = defaultdict(list)
    for sample in samples:
        grouped[inputs.queries[sample[0]].shape].append(sample[1])
    return grouped


# -- the end-to-end run (tracing off) ----------------------------------------------


def set_up(spec, inputs, import_s):
    """A ready ``World`` and ``setup_s``: the imports plus the build, in nominal time.

    The machine's slowdown is taken from reference loops right before and
    right after the build.
    """
    probes = [reference_loop() for _ in range(SETUP_PROBES)]
    began = time.perf_counter()
    world = World(spec, inputs)
    took = time.perf_counter() - began
    probes += [reference_loop() for _ in range(SETUP_PROBES)]
    return world, (import_s + took) / (stats.median(probes) / REFERENCE_S)


def setup_seconds(spec, seed, import_s):
    """``setup_s`` of this process, which sets the workload up and does nothing else."""
    world, setup_s = set_up(spec, Inputs(spec, seed, tracing=False), import_s)
    world.close()
    return setup_s


def run_end_to_end(spec, seed, seconds, import_s):
    """Returns ``(metrics, samples, tally, note)``; metrics are name -> value.

    ``setup_s`` is this process's own; *import_s* is what its imports took.
    *note* is ``(name, value, unit, n)`` of the measured machine slowdown,
    which is printed and not gated.
    """
    inputs = Inputs(spec, seed, tracing=False)
    tally = Tally()
    world, setup_s = set_up(spec, inputs, import_s)
    try:
        if inputs.expected is None:
            inputs.expected = web_oracle(world.web, inputs.queries)
        for query, rows, expected in zip(inputs.queries, world.warm_rows, inputs.expected):
            tally.check(query, rows, expected)
        if spec.warm:
            cold = adapter.cache_counts(world.cache)
        loop = closed_loop(world.callers(), inputs, seconds, tally)
        if spec.warm:
            warm = adapter.cache_counts(world.cache)
            tally.guard(
                warm["misses"] == cold["misses"] and warm["evictions"] == 0,
                "warm_cache reached the network: {} -> {}".format(cold, warm),
            )
    finally:
        world.close()

    # The sandbox's speed moves by +-15% within a run and between runs (a
    # neighbour on the host), which is most of the run-to-run spread, so
    # the run is reported in nominal time: see ``windows``.
    parts = windows(loop, seconds)
    by = by_shape(inputs, [sample for part, _ in parts for sample in part])
    completed = sum(len(part) for part, _ in parts)
    nominal = sum(length for _, length in parts)
    metrics = {
        "setup_s": setup_s,
        "query_p50_s": stats.geomean([stats.median(by[shape]) for shape in inputs.shapes]),
        "queries_per_s": completed / nominal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"query_p50_s": completed, "queries_per_s": completed}
    slowdown = stats.median([took for _, took in loop.references]) / REFERENCE_S
    return metrics, samples, tally, ("machine_slowdown_x", slowdown, "ratio", len(loop.references))


# -- the traced run (per-layer metrics) ---------------------------------------------


class Counters:
    """A snapshot of every public counter the per-layer metrics read."""

    def __init__(self, engine, database, cache):
        self.cpu = time.process_time()
        self.pump = adapter.pump_counts(engine)
        self.kernel = adapter.kernel_counts()
        self.buffer = adapter.buffer_counts(database)
        self.cache = adapter.cache_counts(cache) if cache is not None else None

    def metrics_since(self, before):
        """Counter deltas over the pass between *before* and this snapshot."""

        def moved(now, then, key):
            return now[key] - then[key]

        def fraction(hits, misses):
            return hits / (hits + misses) if hits + misses else 0.0

        registered = moved(self.pump, before.pump, "registered")
        metrics = {
            "asynciter.calls_registered": registered,
            "asynciter.calls_coalesced": moved(self.pump, before.pump, "coalesced"),
            "asynciter.max_in_flight": self.pump["max_in_flight"],
            "relational.kernel_compiled": moved(self.kernel, before.kernel, "compiled"),
            "relational.kernel_invoked": moved(self.kernel, before.kernel, "invoked"),
            "storage.buffer_evictions": moved(self.buffer, before.buffer, "evictions"),
            "storage.buffer_hit_fraction": fraction(
                moved(self.buffer, before.buffer, "hits"),
                moved(self.buffer, before.buffer, "misses"),
            ),
            "web.cache_evictions": 0,
            "web.cache_hit_fraction": 0.0,
        }
        if self.cache is not None:
            metrics["web.cache_evictions"] = moved(self.cache, before.cache, "evictions")
            metrics["web.cache_hit_fraction"] = fraction(
                moved(self.cache, before.cache, "hits"),
                moved(self.cache, before.cache, "misses"),
            )
        if registered:
            metrics["asynciter.cpu_per_call_us"] = (self.cpu - before.cpu) / registered * 1e6
        return metrics


PHASES = {
    "sql.parse": "sql.parse_us",
    "plan.bind": "plan.bind_us",
    "plan.rules": "plan.rules_us",
    "asynciter.rewrite": "asynciter.rewrite_us",
    "plan.lower": "plan.lower_us",
}


def direct_passes(engine, database, cache, inputs_like, count, sync_per_shape, mode, log, tally):
    """Untraced and traced (decomposed) queries interleaved, then a sync pass.

    *log* must hold no earlier ``query`` spans.  Returns ``(metrics, traced
    seconds by shape)``.  Step n runs query n untraced and the query half a
    list away traced: machine drift hits both alike, both streams cover the
    same queries, and neither finds the other's entries in a bounded cache.
    Every result is checked against the oracle, so the traced rows equal the
    untraced ones.  The counters cover both streams.  The sync pass runs
    the first *sync_per_shape* queries of each shape in ``mode="sync"``.
    """
    queries, expected = inputs_like.queries, inputs_like.expected
    picks = [n % len(queries) for n in range(count)]
    pipeline = adapter.Pipeline(engine)
    untraced, traced = [], []
    untraced_by_shape, traced_by_shape = defaultdict(list), defaultdict(list)
    batches = rows_out = 0

    before = Counters(engine, database, cache)
    for n, index in enumerate(picks):
        begun = time.perf_counter()
        rows = engine.execute(queries[index].sql, mode=mode).rows
        untraced.append(time.perf_counter() - begun)
        untraced_by_shape[queries[index].shape].append(untraced[-1])
        tally.check(queries[index], rows, expected[index])

        index = (index + len(queries) // 2) % len(queries)
        begun = time.perf_counter()
        rows, produced = pipeline.run(queries[index].sql, log, query=n, asynchronous=mode != "sync")
        traced.append(time.perf_counter() - begun)
        traced_by_shape[queries[index].shape].append(traced[-1])
        tally.check(queries[index], rows, expected[index])
        batches += produced
        rows_out += len(rows)
    metrics = Counters(engine, database, cache).metrics_since(before)

    phases = 0.0
    for span_name, metric in PHASES.items():
        durations = log.durations(span_name)
        if durations:
            metrics[metric] = stats.median(durations) * 1e6
            phases += stats.median(durations)
    drain = stats.median(log.durations("exec.drain"))
    metrics.update({
        "exec.drain_p50_s": drain,
        "exec.batches_per_query": batches / count,
        "exec.rows_out": rows_out,
        "rows_per_s": sum(queries[i].rows_scanned for i in picks) / sum(untraced),
        "query_p95_s": stats.percentile(untraced, 0.95),
        "wsq.glue_us": (stats.median(untraced) - phases - drain) * 1e6,
        "bench.trace_overhead_fraction": stats.median(traced) / stats.median(untraced) - 1.0,
    })

    sync_picks = picks[: sync_per_shape * len(inputs_like.shapes)]
    sync_picks = [i for i in sync_picks if queries[i].calls]
    if sync_picks:
        sync_by_shape = defaultdict(list)
        cpu = time.process_time()
        for index in sync_picks:
            begun = time.perf_counter()
            rows = engine.execute(queries[index].sql, mode="sync").rows
            sync_by_shape[queries[index].shape].append(time.perf_counter() - begun)
            tally.check(queries[index], rows, expected[index])
        calls = sum(queries[i].calls for i in sync_picks)
        metrics["vtables.sync_cpu_per_call_us"] = (time.process_time() - cpu) / calls * 1e6
        sync_p50 = {shape: stats.median(took) for shape, took in sync_by_shape.items()}
        metrics["sync_query_p50_s"] = stats.geomean(list(sync_p50.values()))
        metrics["async_improvement_x"] = stats.geomean(
            [sync_p50[shape] / stats.median(untraced_by_shape[shape]) for shape in sync_p50]
        )

    latencies = adapter.pump_latencies(engine)
    if latencies:
        metrics["asynciter.queue_wait_p50_s"] = latencies["queue_wait"]["p50"]
        metrics["asynciter.service_p50_s"] = latencies["service"]["p50"]
        metrics["asynciter.e2e_p95_s"] = latencies["e2e"]["p95"]

    return metrics, traced_by_shape


def served_pass(world, spec, inputs, count, direct_by_shape, log, tally):
    """*count* queries through ``QueryService``: a timer around ``submit`` and the
    handle's own timestamps give the serve layer's share of each query."""
    service = world.service or adapter.new_service(world.engine)
    tenants = adapter.TENANTS if spec.served else adapter.TENANTS[:1]
    queries = inputs.queries
    records = [[] for _ in tenants]

    def client(k):
        for n in range(k, count, len(tenants)):
            index = n % len(queries)
            t0 = time.perf_counter()
            handle = service.submit(queries[index].sql, tenants[k], timeout=30)
            t1 = time.perf_counter()
            try:
                rows = handle.result().rows
            except Exception:  # noqa: BLE001 - shed, expired or failed: counted below
                rows = None
            records[k].append((n, index, t0, t1, time.perf_counter(), handle, rows))

    before = Counters(world.engine, world.database, world.cache)
    run_clients(client, len(tenants))
    after = Counters(world.engine, world.database, world.cache)
    outcome = adapter.service_counts(service)
    if world.service is None:
        service.close()

    submit, waits, runs, served, served_by_shape = [], [], [], [], defaultdict(list)
    for n, index, t0, t1, t2, handle, rows in sorted(r for mine in records for r in mine):
        query = queries[index]
        if rows is None:
            tally.record(False, "served query did not complete: " + query.sql)
            continue
        tally.check(query, rows, inputs.expected[index])
        root = log.add("serve.query", t0, t2, query="s{}".format(n))
        log.add("serve.submit", t0, t1, root, "s{}".format(n))
        log.add("serve.queue_wait", handle.submitted_at, handle.dispatched_at, root, "s{}".format(n))
        log.add("serve.run", handle.dispatched_at, handle.finished_at, root, "s{}".format(n))
        submit.append(t1 - t0)
        waits.append(handle.dispatched_at - handle.submitted_at)
        runs.append(handle.finished_at - handle.dispatched_at)
        served.append(t2 - t0)
        served_by_shape[query.shape].append(t2 - t0)

    metrics = {
        "serve.submit_us": stats.median(submit) * 1e6,
        "serve.queue_wait_p50_s": stats.median(waits),
        "serve.queue_wait_p95_s": stats.percentile(waits, 0.95),
        "serve.run_p50_s": stats.median(runs),
        "serve.overhead_p50_s": stats.median([
            stats.median(served_by_shape[shape]) - stats.median(direct_by_shape[shape])
            for shape in inputs.shapes
        ]),
        "serve.shed": outcome["shed"],
        "serve.expired": outcome["expired"],
        "serve.failed": outcome["failed"],
    }
    if spec.served:  # the served pass is this workload's front door: its numbers win
        metrics.update(after.metrics_since(before))
        metrics["query_p95_s"] = stats.percentile(served, 0.95)
    return metrics


def layer_probes(spec, world, inputs, seconds, tally):
    """Fixed micro-measurements of single layers, the same in every workload."""
    metrics = adapter.probe_web(world.web, inputs.expressions)
    metrics["web.cache_lookup_us"] = adapter.probe_cache_lookup(inputs.expressions)
    metrics["exec.pipeline_rows_per_s"] = stats.median(
        [adapter.probe_exec_pipeline() for _ in range(5)]
    )
    if spec.local:
        database, load, engine = world.database, world.load, world.engine
    else:  # the storage probes always run over the local_sql tables
        database = adapter.paper_database()
        load = adapter.load_local_tables(database, inputs.orders, inputs.customers)
        engine = adapter.new_engine(database, world.web)
    metrics["storage.insert_rows_per_s"] = len(inputs.orders) / load["insert_s"]
    metrics["storage.index_build_keys_per_s"] = len(inputs.customers) / load["index_s"]
    metrics["storage.scan_rows_per_s"] = stats.median(
        [adapter.probe_scan(database, "Orders") for _ in range(3)]
    )
    lookups = gen.lookup_queries(
        inputs.seed, max(10, round(LOOKUPS * seconds / NOMINAL_SECONDS / 4)), inputs.customers
    )
    took = []
    for sql, expected in lookups:
        begun = time.perf_counter()
        rows = engine.execute(sql, mode="auto").rows
        took.append(time.perf_counter() - begun)
        tally.record(rows == expected, "index lookup mismatch: " + sql)
    metrics["storage.index_lookup_us"] = stats.median(took) * 1e6
    if not spec.local:
        adapter.close(engine)
    return metrics


def reference_pass(world, seed, tally):
    """The call timings ``local_sql`` cannot produce, from 24 cold Table-1 queries."""
    reference = namedtuple("Reference", "queries expected shapes")(
        gen.template_queries(seed)[:24], None, list(gen.TEMPLATES)
    )
    reference = reference._replace(expected=web_oracle(world.web, reference.queries))
    database = adapter.paper_database()
    engine = adapter.new_engine(database, world.web, gen.LATENCY_BAND + (seed,))
    try:
        metrics, _ = direct_passes(
            engine, database, None, reference, len(reference.queries), 2, "async", SpanLog(), tally
        )
    finally:
        adapter.close(engine)
    return {name: metrics[name] for name in CALL_TIMINGS}


def obs_overhead(world, spec, inputs, count, tally):
    """Median query time with ``Observability.enabled()`` over the same with it off, minus one."""
    observed = adapter.new_engine(
        world.database, world.web, inputs.latency, world.cache,
        single_flight=spec.served, observed=True,
    )
    timings = {False: [], True: []}
    try:
        for n in range(count):
            index = n % len(inputs.queries)
            query = inputs.queries[index]
            for on in ((False, True) if n % 2 else (True, False)):
                engine = observed if on else world.engine
                begun = time.perf_counter()
                rows = engine.execute(query.sql, mode=spec.mode).rows
                timings[on].append(time.perf_counter() - begun)
                tally.check(query, rows, inputs.expected[index])
    finally:
        adapter.close(observed)
    return stats.median(timings[True]) / stats.median(timings[False]) - 1.0


def run_traced(spec, seed, seconds, trace_path):
    """Returns ``(metrics, tally)``; writes the spans to *trace_path*."""
    log = SpanLog()
    inputs = Inputs(spec, seed, tracing=True)
    tally = Tally()
    world = World(spec, inputs, log)
    try:
        if inputs.expected is None:
            inputs.expected = web_oracle(world.web, inputs.queries)
        count = max(len(inputs.shapes), round(spec.ops * seconds / NOMINAL_SECONDS / 4))
        sync_per_shape = max(2, round(SYNC_PER_SHAPE * seconds / NOMINAL_SECONDS))
        metrics, direct_by_shape = direct_passes(
            world.engine, world.database, world.cache, inputs, count, sync_per_shape,
            spec.mode, log, tally,
        )
        if spec.warm:
            tally.guard(
                metrics["web.cache_hit_fraction"] == 1.0 and metrics["web.cache_evictions"] == 0,
                "warm_cache must hit every time and evict nothing",
            )
        metrics.update(served_pass(
            world, spec, inputs, count if spec.served else max(len(inputs.shapes), count // 2),
            direct_by_shape, log, tally,
        ))
        metrics["web.corpus_build_s"] = log.durations("web.corpus_build")[0]
        metrics.update(layer_probes(spec, world, inputs, seconds, tally))
        if any(name not in metrics for name in CALL_TIMINGS):
            metrics.update(reference_pass(world, seed, tally))
        # Last: an observed engine re-binds the shared cache's counters.
        metrics["obs.enabled_overhead_fraction"] = obs_overhead(
            world, spec, inputs, max(len(inputs.shapes), count // 4), tally
        )
    finally:
        world.close()
    coverage = log.coverage("query")
    tally.guard(coverage >= 0.9, "phase spans explain only {:.0%} of the query wall-clock".format(coverage))
    log.write(
        trace_path, workload=spec.name, seed=seed, seconds=seconds,
        queries=count, phase_coverage=coverage,
    )
    return metrics, tally
