"""A simulated parallel query processor, for the paper's planned comparison.

Section 4.2: "as future work we plan to conduct experiments comparing the
performance of asynchronous iteration against a parallel DBMS for
managing concurrent calls to external sources", and Section 4:
"To perform all 50 searches concurrently, a parallel query processor must
not only dynamically partition the problem in the correct way, it must
then launch 50 query threads or processes."

This driver simulates exactly that textbook-Gamma-style execution for the
Template-3 workload shape: the outer table is hash-partitioned into
``degree`` fragments, one worker thread runs the *entire* sequential
pipeline (both dependent joins, blocking per call) over its fragment, and
a final merge collects fragment outputs.  Configurable per-thread startup
cost models the "issuing many threads can be expensive" overhead the
paper contrasts with ReqPump's event loop.

Expected shape: wall clock ~ startup + (|Sigs| / degree) x 2 x latency —
better than sequential, worse than asynchronous iteration until
``degree >= |Sigs|``, at which point the thread overhead is the price
paid for parity.
"""

import threading
import time

from alternatives import _expressions


def run_parallel_dbms(
    clients, terms, constant, limit=3, degree=8, thread_startup=0.002
):
    """Execute the two-join pipeline with *degree*-way partitioning.

    Returns the merged results list (same multiset as the sequential
    driver).  ``thread_startup`` charges the per-worker spawn/partition
    overhead the paper attributes to parallel DBMSs.
    """
    fragments = [terms[i::degree] for i in range(degree)]
    outputs = [None] * degree

    def worker(fragment_index):
        if thread_startup:
            time.sleep(thread_startup)  # spawn + partition bookkeeping
        fragment_results = []
        for client in clients:  # both joins, sequential *within* the worker
            for expr in _expressions(client, fragments[fragment_index], constant):
                fragment_results.append(client.search(expr, limit))
        outputs[fragment_index] = fragment_results

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(degree)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = []
    for fragment_results in outputs:
        merged.extend(fragment_results or [])
    return merged


def sweep_degrees(engine, terms, constant, degrees=(1, 2, 4, 8, 16, 37)):
    """Time the parallel DBMS at several partition degrees."""
    clients = [engine.clients[name] for name in sorted(engine.clients)]
    timings = {}
    for degree in degrees:
        started = time.perf_counter()
        run_parallel_dbms(clients, terms, constant, degree=degree)
        timings[degree] = time.perf_counter() - started
    return timings
