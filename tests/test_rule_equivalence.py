"""A/B structural equivalence: the placement procedure vs the frozen seed.

``tests/_legacy_rewrite.py`` is a verbatim copy of the pre-optimizer
ReqSync placement code.  For a spread of query shapes (and the
``on_error``/``batch_size`` knobs the ReqSync carries), the legacy
rewriter transforms the engine's synchronous physical plan, and the
engine plans the same text in async mode, the path it ships; the
resulting trees must be structurally identical — same operator classes,
same explain labels, same ReqSync/scan configuration.  For the shapes in
``QUERIES`` this shows that running the placement algorithm over the
logical algebra changed nothing observable.  It is not a proof for every
query: ``KNOWN_TREE_DIFFERENCES`` lists shapes whose trees differ from
the legacy ones, and there the rows of both modes are checked instead.
"""

import pathlib

import pytest

import _legacy_rewrite as legacy
from repro.asynciter.aevscan import AEVScan
from repro.asynciter.context import AsyncContext
from repro.asynciter.reqsync import ReqSync
from repro.config import EngineConfig
from repro.vtables.evscan import EVScan
from repro.wsq import WsqEngine

QUERIES = [
    # Table-1 shapes: dependent join + clash-y sort above a projection.
    "Select Name, Count From States, WebCount Where Name = T1 "
    "Order By Count Desc",
    # Computed projection over the filled attribute (clash rule 1).
    "Select Name, Count/Population As C From States, WebCount "
    "Where Name = T1 Order By C Desc",
    # Filter on the filled attribute (selection hoisting).
    "Select Name, Count From States, WebCount "
    "Where Name = T1 and Count >= 10000",
    # Two virtual tables -> consolidation of adjacent ReqSyncs.
    "Select Capital, C.Count, Name, S.Count From States, WebCount C, "
    "WebCount S Where Capital = C.T1 and Name = S.T1 Order By C.Count Desc",
    # Rank predicate on a multi-row virtual table.
    "Select Name, URL, Rank From States, WebPages "
    "Where Name = T1 and Rank <= 3",
    # Aggregation (clash rule 3: ReqSync must stay below).
    "Select Count(*) From States, WebCount Where Name = T1 and Count > 0",
    # Distinct and Limit (counting operators).
    "Select Distinct Name From States, WebPages Where Name = T1",
    "Select Name, Count From States, WebCount Where Name = T1 Limit 5",
    # Projection that drops the filled attribute (clash rule 2).
    "Select Name From States, WebCount Where Name = T1",
    # No virtual table at all: both rewriters must be an identity.
    "Select Name, Population From States Order By Population Desc",
    # A join that reads no filled attribute: ReqSync percolates past it.
    "Select States.Name, Count, S2.Name From States, WebCount, States S2 "
    "Where States.Name = T1 and States.Population = S2.Population",
    # A join on the filled attribute: selection over a cross-product
    # (Example 3), then ReqSync rises through the cross-product.
    "Select States.Name, Count, S2.Name From States, WebCount, States S2 "
    "Where States.Name = T1 and Count < S2.Population",
    # A filter that reads no filled attribute: ReqSync percolates past it.
    "Select Name, Count From States, WebCount Where Name = T1 and T1 <> 'Texas'",
    # A clashing selection between two dependent joins is hoisted.
    "Select * From States, WebPages W, WebCount C "
    "Where Name = W.T1 and W.Rank = 3 and Name = C.T1",
]

#: Shapes where the placement's tree and the legacy one differ.  With a
#: third virtual table bound from the outer side of two dependent joins,
#: the legacy rewriter leaves a second ReqSync over ``AEVScan: W`` below
#: the top one; the placement consolidates it away.  The rows agree.
KNOWN_TREE_DIFFERENCES = [
    (
        "Select Count(*) From States S, WebCount C, States S2, WebCount D, "
        "WebPages W Where S.Capital = C.T1 and S2.Capital = D.T1 "
        "and S.Name = W.T1",
        [(47500,)],
    ),
]

SETTINGS = [
    EngineConfig(),
    EngineConfig(on_error="drop"),
    EngineConfig(on_error="null"),
    EngineConfig(batch_size=1),
    EngineConfig(on_error="null", batch_size=32),
]


def _node_signature(op):
    sig = [type(op).__name__, op.label()]
    if isinstance(op, ReqSync):
        sig.append(
            (
                op.wait_timeout,
                op.on_error,
                getattr(op, "batch_size", None),
            )
        )
    elif isinstance(op, EVScan):
        sig.append(op.on_error)
    elif isinstance(op, AEVScan):
        sig.append(op.instance.definition.name)
    return tuple(sig)


def _fingerprint(op, depth=0):
    rows = [(depth, _node_signature(op))]
    for child in op.children:
        rows.extend(_fingerprint(child, depth + 1))
    return rows


def _sync_plan(engine, sql):
    return engine.plan(sql, mode="sync")


def _async_plan(engine, sql, settings=None):
    """The async plan a fresh engine under *settings* ships for *sql*."""
    configured = WsqEngine(
        database=engine.database, web=engine.web, cache=False, config=settings
    )
    return configured.plan(sql, mode="async")


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize(
    "settings_index", range(len(SETTINGS)), ids=lambda i: "settings{}".format(i)
)
def test_rewriters_agree_structurally(engine, sql, settings_index):
    settings = SETTINGS[settings_index]
    context = AsyncContext(engine.pump, dedup=False)
    old = legacy.place_reqsyncs(_sync_plan(engine, sql), context, settings)
    new = _async_plan(engine, sql, settings)
    assert _fingerprint(new) == _fingerprint(old)
    assert new.explain() == old.explain()


def _reqsyncs(op):
    return isinstance(op, ReqSync) + sum(_reqsyncs(child) for child in op.children)


@pytest.mark.parametrize("sql,rows", KNOWN_TREE_DIFFERENCES)
def test_known_tree_differences_keep_sync_and_async_rows_equal(engine, sql, rows):
    context = AsyncContext(engine.pump, dedup=False)
    old = legacy.place_reqsyncs(_sync_plan(engine, sql), context, EngineConfig())
    new = _async_plan(engine, sql)
    assert (_reqsyncs(old), _reqsyncs(new)) == (2, 1)
    sync_rows = engine.execute(sql, mode="sync").rows
    async_rows = engine.execute(sql, mode="async").rows
    assert sorted(sync_rows) == sorted(async_rows) == rows


@pytest.mark.parametrize("sql", QUERIES[:4])
def test_rewrite_is_reproducible(engine, sql):
    """Placement is deterministic: same input, same tree."""
    a = _async_plan(engine, sql)
    b = _async_plan(engine, sql)
    assert _fingerprint(a) == _fingerprint(b)


#: The nine placement steps ``explain(form="rules")`` can name.
PLACEMENT_RULES = {
    "reqsync.insert",
    "reqsync.consolidate",
    "reqsync.percolate_filter",
    "reqsync.hoist_selection",
    "reqsync.percolate_project",
    "reqsync.percolate_depjoin",
    "reqsync.join_to_selection",
    "reqsync.percolate_join",
    "reqsync.percolate_product",
}

#: ``explain(form="rules")`` of every query above: which steps fire, in
#: what order, with what node counts.
FIRINGS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "rule_firings.txt"


def test_every_placement_rule_fires_on_some_query(engine):
    """Each placement step is compared with the legacy rewriter above."""
    fired = {
        line.split()[0]
        for sql in QUERIES
        for line in engine.explain(sql, form="rules").splitlines()
    }
    assert PLACEMENT_RULES - fired == set()


def test_firing_sequences_match_the_golden(engine):
    rendered = "\n".join(
        "-- {}\n{}\n".format(sql, engine.explain(sql, form="rules"))
        for sql in QUERIES
    )
    assert rendered == FIRINGS_GOLDEN.read_text()
