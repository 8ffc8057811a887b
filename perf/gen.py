"""Seeded inputs for every workload: the only home of randomness in ``perf/``.

``--seed`` fixes the query lists, the generated rows and the latency salt;
the program under test receives only what these functions return.  Nothing
here imports ``repro``: the template SQL and the keyword pool are copies, so
a later change to ``repro.bench`` cannot move the benchmark's inputs.
"""

import json
import random
from collections import Counter, namedtuple

DEFAULT_SEED = 2000
SECOND_SEED = 2026

#: The paper's Section-5 constants pool (copied from the corpus calibration).
KEYWORD_POOL = (
    "computer", "beaches", "crime", "politics", "frogs", "skiing",
    "music", "weather", "history", "football", "lakes", "mountains",
    "desert", "technology", "tourism", "farming",
)

#: Simulated per-request latency band in seconds; the salt is the seed.
LATENCY_BAND = (0.003, 0.009)

#: The paper's three Table-1 templates (copied, not imported).
TEMPLATES = {
    "t1": (
        "Select Name, Count From States, WebCount "
        "Where Name = T1 and WebCount.T2 = '{V1}'"
    ),
    "t2": (
        "Select Name, Count, URL, Rank "
        "From States, WebCount, WebPages "
        "Where Name = WebCount.T1 and WebCount.T2 = '{V1}' and "
        "Name = WebPages.T1 and WebPages.T2 = '{V2}' and WebPages.Rank <= 2"
    ),
    "t3": (
        "Select Name, AV.URL, G.URL "
        "From Sigs, WebPages_AV AV, WebPages_Google G "
        "Where Name = AV.T1 and Name = G.T1 and "
        "AV.Rank <= 3 and G.Rank <= 3 and AV.T2 = '{V1}' and G.T2 = '{V1}'"
    ),
}
#: External calls one instance issues, and stored rows it reads
#: (|States| = 50, |Sigs| = 37).
TEMPLATE_CALLS = {"t1": 50, "t2": 100, "t3": 74}
TEMPLATE_ROWS = {"t1": 50, "t2": 50, "t3": 37}

ORDERS_ROWS = 20000
CUSTOMERS_ROWS = 5000
STATES_ROWS = 50
LOCAL_PER_SHAPE = 60
LOCAL_SHAPES = {
    "filter": "Select Id, Amount From Orders Where Amount < {a} and Qty > {q}",
    "group": (
        "Select State, Count(*), Sum(Amount) From Orders "
        "Where Qty >= {q} Group By State"
    ),
    "join": (
        "Select Orders.Id, Capital From Orders, States "
        "Where Orders.State = States.Name and Amount > {a}"
    ),
    "sort": "Select Id, Amount From Orders Where Qty = {q} Order By Amount Desc",
}
LOOKUP_SQL = "Select Name From Customers Where Id = {k}"

#: One generated query.  ``shape`` groups latencies (a template or a local
#: query shape), ``calls`` is the external calls it issues, ``rows_scanned``
#: the stored rows of the tables it names, ``params`` feeds the local oracle.
Query = namedtuple("Query", "sql shape calls rows_scanned params")


def _rng(stream, seed):
    return random.Random("perf:{}:{}".format(stream, seed))


def template_queries(seed):
    """48 distinct Table-1 queries, interleaved t1, t2, t3, t1, ...

    Every seed uses each pool word once per template, so the mix of work
    is the same for all seeds; the seed picks the order and, for Template
    2, which V2 (never equal to V1) goes with each V1.  Templates 1 and 2
    send the same WebCount calls for the same V1, so the two queries that
    share a word sit half the list (24 queries) apart for every seed: how
    often a bounded cache finds a partner's entries must not depend on it.
    """
    rng = _rng("templates", seed)
    size = len(KEYWORD_POOL)
    states_words = rng.sample(KEYWORD_POOL, size)
    sigs_words = rng.sample(KEYWORD_POOL, size)
    offset = rng.randrange(1, size)
    queries = []
    for i in range(size):
        v1 = states_words[(i + size // 2) % size]
        v2 = KEYWORD_POOL[(KEYWORD_POOL.index(v1) + offset) % size]
        for shape, values in (
            ("t1", {"V1": states_words[i]}),
            ("t2", {"V1": v1, "V2": v2}),
            ("t3", {"V1": sigs_words[i]}),
        ):
            queries.append(
                Query(
                    TEMPLATES[shape].format(**values),
                    shape,
                    TEMPLATE_CALLS[shape],
                    TEMPLATE_ROWS[shape],
                    None,
                )
            )
    return queries


def orders_rows(seed, state_names, count=ORDERS_ROWS):
    """``Orders(Id INT, State STR, Amount FLOAT, Qty INT)``.

    Amounts are multiples of 0.25, so a SUM is exact in any order and the
    oracle need not copy the engine's order of addition.
    """
    rng = _rng("orders", seed)
    return [
        (i, rng.choice(state_names), rng.randrange(4, 4000) / 4.0, rng.randrange(1, 51))
        for i in range(count)
    ]


def customers_rows(seed, state_names, count=CUSTOMERS_ROWS):
    """``Customers(Id INT, Name STR, State STR)``, indexed on ``Id``."""
    rng = _rng("customers", seed)
    return [(i, "customer-{}".format(i), rng.choice(state_names)) for i in range(count)]


def local_queries(seed, per_shape=LOCAL_PER_SHAPE):
    """``per_shape`` parameterised instances of each local shape, interleaved."""
    rng = _rng("local", seed)
    queries = []
    for _ in range(per_shape):
        for shape, sql in LOCAL_SHAPES.items():
            if shape == "filter":
                params = {"a": rng.randrange(30, 80), "q": rng.randrange(10, 41)}
            elif shape == "join":
                params = {"a": rng.randrange(950, 990)}
            else:
                params = {"q": rng.randrange(1, 41)}
            scanned = ORDERS_ROWS + (STATES_ROWS if shape == "join" else 0)
            queries.append(Query(sql.format(**params), shape, 0, scanned, params))
    return queries


def lookup_queries(seed, count, customers):
    """Index point lookups on ``Customers.Id`` with their expected rows."""
    rng = _rng("lookups", seed)
    picks = [rng.randrange(len(customers)) for _ in range(count)]
    return [(LOOKUP_SQL.format(k=k), [(customers[k][1],)]) for k in picks]


def local_expected(query, orders, capitals):
    """Pure-Python evaluation of one local query over the generated rows.

    Returns the expected rows as a multiset; ``sort`` results are checked
    for order separately (ties may come in any order).
    """
    p = query.params
    if query.shape == "filter":
        rows = [(i, amount) for i, _, amount, qty in orders if amount < p["a"] and qty > p["q"]]
    elif query.shape == "group":
        groups = {}
        for _, state, amount, qty in orders:
            if qty >= p["q"]:
                count, total = groups.get(state, (0, 0.0))
                groups[state] = (count + 1, total + amount)
        rows = [(state, count, total) for state, (count, total) in groups.items()]
    elif query.shape == "join":
        rows = [(i, capitals[state]) for i, state, amount, _ in orders if amount > p["a"]]
    else:
        rows = [(i, amount) for i, _, amount, qty in orders if qty == p["q"]]
    return Counter(rows)


def probe_expressions(seed, state_names, count=200):
    """Search expressions of the shape the virtual tables send, for the web probes."""
    rng = _rng("probe", seed)
    return [
        '"{}" near "{}"'.format(rng.choice(state_names), rng.choice(KEYWORD_POOL))
        for _ in range(count)
    ]


def inputs_blob(seed, state_names):
    """Every generated input as canonical JSON bytes (equal seeds, equal bytes)."""
    customers = customers_rows(seed, state_names)
    payload = {
        "latency": [LATENCY_BAND[0], LATENCY_BAND[1], seed],
        "templates": template_queries(seed),
        "local": local_queries(seed),
        "orders": orders_rows(seed, state_names),
        "customers": customers,
        "lookups": lookup_queries(seed, 100, customers),
        "probe": probe_expressions(seed, state_names),
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")
