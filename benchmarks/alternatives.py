"""Alternative concurrency strategies (paper Section 4.2 / Example 1).

The paper argues asynchronous iteration beats two alternatives:

1. **Sequential** execution — the baseline.
2. A **parallel (thread-per-tuple) dependent join** — maximal concurrency
   *within* one join, but "it prevents concurrency among requests from
   multiple dependent joins: the query processor will block until the
   first join completes."

These drivers execute the Template-3 workload shape (every Sig against
two engines) under each strategy, using the raw search clients so the
concurrency structure — not SQL machinery — is what's measured.
"""

import concurrent.futures
import time


def _expressions(client, terms, constant):
    # Engines without a `near` operator get the plain-conjunction default,
    # exactly like the virtual tables' default SearchExp (paper fn. 1).
    if client.engine.supports_near:
        template = '"{}" near "{}"'
    else:
        template = '"{}" "{}"'
    return [template.format(term, constant) for term in terms]


def run_sequential(clients, terms, constant, limit=3):
    """One call at a time: 2 x len(terms) network waits end to end."""
    results = []
    for client in clients:
        for expr in _expressions(client, terms, constant):
            results.append(client.search(expr, limit))
    return results


def run_thread_per_join(clients, terms, constant, limit=3):
    """Thread-per-tuple dependent joins, one join at a time.

    Each join's calls run fully parallel, but the second join cannot
    start until the first finishes — the blocking the paper predicts.
    Wall clock ~= sum over joins of that join's slowest call.
    """
    results = []
    for client in clients:  # joins execute strictly in sequence
        expressions = _expressions(client, terms, constant)
        with concurrent.futures.ThreadPoolExecutor(len(expressions)) as pool:
            futures = [pool.submit(client.search, e, limit) for e in expressions]
            results.extend(f.result() for f in futures)
    return results


def run_async_iteration(engine, constant):
    """Asynchronous iteration: all calls from both joins concurrent."""
    sql = (
        "Select Name, AV.URL, G.URL "
        "From Sigs, WebPages_AV AV, WebPages_Google G "
        "Where Name = AV.T1 and Name = G.T1 and "
        "AV.Rank <= 3 and G.Rank <= 3 and AV.T2 = '{0}' and G.T2 = '{0}'"
    ).format(constant)
    return engine.execute(sql, mode="async")


def compare(engine, terms, constant, limit=3):
    """Time all three strategies; returns ``{strategy: seconds}``."""
    clients = [engine.clients[name] for name in sorted(engine.clients)]
    timings = {}
    started = time.perf_counter()
    run_sequential(clients, terms, constant, limit)
    timings["sequential"] = time.perf_counter() - started
    started = time.perf_counter()
    run_thread_per_join(clients, terms, constant, limit)
    timings["thread_per_join"] = time.perf_counter() - started
    started = time.perf_counter()
    run_async_iteration(engine, constant)
    timings["async_iteration"] = time.perf_counter() - started
    return timings
