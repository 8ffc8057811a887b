"""A/B structural equivalence: rule-driven rewriter vs the frozen seed.

``tests/_legacy_rewrite.py`` is a verbatim copy of the pre-optimizer
ReqSync placement code.  For a spread of query shapes (and every
placement knob of ``EngineConfig``), both rewriters transform the same synchronous
physical plan; the resulting trees must be structurally identical —
same operator classes, same explain labels, same ReqSync/scan
configuration.  This is the acceptance-criterion proof that moving the
placement algorithm onto the logical algebra changed nothing observable.
"""

import pytest

import _legacy_rewrite as legacy
from repro.asynciter.aevscan import AEVScan
from repro.asynciter.context import AsyncContext
from repro.asynciter.reqsync import ReqSync
from repro.asynciter.rewrite import apply_asynchronous_iteration
from repro.config import EngineConfig
from repro.vtables.evscan import EVScan

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
]

SETTINGS = [
    EngineConfig(),
    EngineConfig(stream=True),
    EngineConfig(consolidate=False),
    EngineConfig(pull_above_order_sensitive=True),
    EngineConfig(on_error="null", wait_timeout=1.5, batch_size=32),
]


def _node_signature(op):
    sig = [type(op).__name__, op.label()]
    if isinstance(op, ReqSync):
        sig.append(
            (
                op.stream,
                op.preserve_order,
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


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize(
    "settings_index", range(len(SETTINGS)), ids=lambda i: "settings{}".format(i)
)
def test_rewriters_agree_structurally(engine, sql, settings_index):
    settings = SETTINGS[settings_index]
    context = AsyncContext(engine.pump, dedup=False)
    old = legacy.apply_asynchronous_iteration(
        _sync_plan(engine, sql), context, settings
    )
    new = apply_asynchronous_iteration(
        _sync_plan(engine, sql), context, settings
    )
    assert _fingerprint(new) == _fingerprint(old)
    assert new.explain() == old.explain()


@pytest.mark.parametrize("sql", QUERIES[:4])
def test_rewrite_is_reproducible(engine, sql):
    """The rule engine is deterministic: same input, same tree."""
    context = AsyncContext(engine.pump, dedup=False)
    a = apply_asynchronous_iteration(_sync_plan(engine, sql), context)
    b = apply_asynchronous_iteration(_sync_plan(engine, sql), context)
    assert _fingerprint(a) == _fingerprint(b)
