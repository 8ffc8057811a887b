"""Hand-built Figure-7 plans: ReqSync placement trade-offs (Example 2).

The paper's Example 2 interposes a cross product with a meaningless table
R between two WebCount dependent joins and contrasts:

- **Figure 7(a)** — one consolidated ReqSync at the top: every external
  call is concurrent, but the |Sigs| AltaVista placeholders are copied
  |R| times by the cross product and patched |R| times each;
- **Figure 7(b)** — a second ReqSync below the cross product: roughly
  half the patch work (the reduction is |Sigs| * (|R|-1) attribute
  values), at the cost of blocking after the first join.

These builders construct both plans directly from operators (the
placement algorithm would always produce 7(a)) so benchmarks and tests
can measure the trade-off.
"""

import time

from repro.asynciter.aevscan import AEVScan
from repro.asynciter.context import AsyncContext
from repro.asynciter.reqsync import ReqSync
from repro.exec import CrossProduct, DependentJoin, RowsScan, TableScan, collect
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType


def _webcount_scan(engine, table_name, alias, constant, context):
    instance = engine.vtables[table_name].instantiate(alias, n=2)
    instance.fixed_bindings["T2"] = constant
    return AEVScan(instance, context)


def _r_scan(r_size):
    schema = Schema([Column("X", DataType.INT, "R")])
    return RowsScan(schema, [(i,) for i in range(r_size)], name="R")


def build_figure7_plan(engine, variant, r_size, constant="computer", dedup=False):
    """Build the 7(a) or 7(b) plan; returns ``(plan, reqsyncs)``.

    The plan computes ``Sigs x WC_AV x R x WC_Google`` with the cross
    product *between* the two dependent joins, exactly as in the paper.
    ``dedup=False`` registers the |R| identical Google calls per Sig, as
    the paper's baseline does; an engine's pump joins those in flight.
    """
    context = AsyncContext(engine.pump, dedup=dedup)
    sigs = TableScan(engine.database.table("Sigs"), "Sigs")
    av_scan = _webcount_scan(engine, "WebCount_AV", "WC_AV", constant, context)
    google_scan = _webcount_scan(
        engine, "WebCount_Google", "WC_Google", constant, context
    )
    join_av = DependentJoin(sigs, av_scan, {"T1": 0})
    if variant == "a":
        product = CrossProduct(join_av, _r_scan(r_size))
        join_google = DependentJoin(product, google_scan, {"T1": 0})
        top = ReqSync(join_google, context)
        return top, [top]
    if variant == "b":
        inner = ReqSync(join_av, context)
        product = CrossProduct(inner, _r_scan(r_size))
        join_google = DependentJoin(product, google_scan, {"T1": 0})
        top = ReqSync(join_google, context)
        return top, [inner, top]
    raise ValueError("variant must be 'a' or 'b'")


def measure_figure7(engine, variant, r_size, constant="computer", dedup=False):
    """Run one variant; returns ``(seconds, rows, values_patched)``."""
    plan, reqsyncs = build_figure7_plan(engine, variant, r_size, constant, dedup)
    started = time.perf_counter()
    rows = collect(plan)
    elapsed = time.perf_counter() - started
    patched = sum(r.values_patched for r in reqsyncs)
    return elapsed, rows, patched
