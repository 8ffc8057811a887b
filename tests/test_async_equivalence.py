"""Property-based equivalence: asynchronous iteration never changes results.

A query generator builds random (but valid) WSQ queries over the paper's
tables and virtual tables; for every generated query the asynchronous
plan must return exactly the same multiset of rows as the sequential
plan.  This is the core correctness contract of the rewrite algorithm.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import load_all
from repro.storage import Database
from repro.web.world import default_web
from repro.wsq import WsqEngine

_ENGINE = None


def shared_engine():
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = WsqEngine(database=load_all(Database()), web=default_web())
    return _ENGINE


KEYWORDS = ["Knuth", "computer", "beaches", "four corners", "scuba diving"]
BASE_TABLES = [("Sigs", "Name"), ("CSFields", "Name"), ("Movies", "Title")]


@st.composite
def wsq_query(draw):
    table, column = draw(st.sampled_from(BASE_TABLES))
    vtable = draw(st.sampled_from(["WebCount", "WebPages", "WebCount_Google"]))
    keyword = draw(st.sampled_from(KEYWORDS))
    use_keyword = draw(st.booleans())
    where = ["{} = T1".format(column)]
    if use_keyword:
        where.append("T2 = '{}'".format(keyword))
    select = "{}.{}".format(table, column)
    if vtable.startswith("WebCount"):
        select += ", Count"
        extra = draw(st.sampled_from(["", " and Count > 0", " and Count >= 5"]))
        if extra:
            where.append(extra.replace(" and ", ""))
    else:
        select += ", URL, Rank"
        rank = draw(st.integers(min_value=1, max_value=4))
        where.append("Rank <= {}".format(rank))
    order = draw(st.sampled_from(["", " Order By {}".format(column)]))
    distinct = draw(st.sampled_from(["", "Distinct "]))
    if distinct and not order:
        pass  # distinct without order is fine
    sql = "Select {}{} From {}, {} Where {}{}".format(
        distinct, select, table, vtable, " and ".join(where), order
    )
    return sql


class TestAsyncEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(wsq_query())
    def test_async_rows_equal_sync_rows(self, sql):
        engine = shared_engine()
        sync_rows = engine.execute(sql, mode="sync").rows
        async_rows = engine.execute(sql, mode="async").rows
        assert sorted(sync_rows, key=repr) == sorted(async_rows, key=repr), sql
