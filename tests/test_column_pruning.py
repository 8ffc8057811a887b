"""The plan tells each stored-table scan which columns to decode.

Two guarantees: a pruned plan returns exactly the rows of the same plan
with every stored column decoded, and the analysis never guesses — what
it does not know reads everything.
"""

import contextlib
import importlib.util
import pathlib

import pytest
from test_paper_queries import FIG4, KNUTH, Q1, Q2, Q3, Q4, Q5, Q6
from test_rewrite_packs import PACK_TEMPLATES, _pack_db

from repro.exec import TableScan, collect
from repro.plan import logical as L
from repro.plan.physical import child_columns, lower
from repro.relational.expr import ColumnRef, Comparison, Literal
from repro.storage.table import Table
from repro.wsq import WsqEngine

_GEN = pathlib.Path(__file__).resolve().parent.parent / "perf" / "gen.py"


def _perf_gen():
    """``perf/gen.py`` (imports nothing of ``repro``), loaded by path."""
    spec = importlib.util.spec_from_file_location("perf_gen", str(_GEN))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scans(plan):
    """Every TableScan of a physical tree, left to right."""
    found = [plan] if isinstance(plan, TableScan) else []
    for child in plan.children:
        found.extend(_scans(child))
    return found


@contextlib.contextmanager
def every_column_decoded():
    """The same physical trees, but no scan skips a column (subplans too)."""
    original = Table.decoder
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            Table,
            "decoder",
            lambda self, columns=None, predicate=None: original(self, None, predicate),
        )
        yield


def _assert_pruning_is_invisible(engine, sql, mode="sync"):
    pruned = engine.execute(sql, mode=mode).rows
    with every_column_decoded():
        reference = engine.execute(sql, mode=mode).rows
    assert sorted(pruned, key=repr) == sorted(reference, key=repr)
    return pruned


@pytest.fixture(scope="module")
def local_engine(web):
    """A 600-row ``Orders`` beside the paper tables, for the perf shapes."""
    from repro.datasets import load_all
    from repro.relational.types import DataType
    from repro.storage import Database

    gen = _perf_gen()
    database = load_all(Database())
    names = [name for name, _, _ in database.table("States").scan()]
    database.create_table(
        "Orders",
        [("Id", DataType.INT), ("State", DataType.STR),
         ("Amount", DataType.FLOAT), ("Qty", DataType.INT)],
    ).insert_many(gen.orders_rows(7, names, count=600))
    return WsqEngine(database=database, web=web)


class TestRowsDoNotChange:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize(
        "sql", [Q1, Q2, Q3, Q4, Q5, Q6, KNUTH, FIG4],
        ids=["q1", "q2", "q3", "q4", "q5", "q6", "knuth", "fig4"],
    )
    def test_paper_queries(self, engine, sql, mode):
        assert _assert_pruning_is_invisible(engine, sql, mode)

    @pytest.mark.parametrize("name,sql", PACK_TEMPLATES, ids=[n for n, _ in PACK_TEMPLATES])
    def test_rewrite_pack_queries(self, name, sql):
        assert _assert_pruning_is_invisible(WsqEngine(database=_pack_db()), sql)

    @pytest.mark.parametrize("shape", ["filter", "group", "join", "sort"])
    def test_perf_local_shapes(self, local_engine, shape):
        params = {"a": 60 if shape == "filter" else 900, "q": 20}
        sql = _perf_gen().LOCAL_SHAPES[shape].format(**params)
        assert _assert_pruning_is_invisible(local_engine, sql)
        scan = _scans(local_engine.plan(sql, mode="sync"))[0]
        assert scan.table.name == "Orders"
        # The selection is the scan's: Qty (join: Amount) is read by the
        # page decoder's test and kept in no vector.
        assert scan.predicate is not None
        assert scan.columns == {
            "filter": (0, 2), "group": (1, 2), "join": (0, 1), "sort": (0, 2),
        }[shape]


class TestNamedCases:
    def test_count_star_reads_no_column_and_every_row(self, engine):
        sql = "Select Count(*) From States"
        assert _scans(engine.plan(sql, mode="sync"))[0].columns == ()
        assert _assert_pruning_is_invisible(engine, sql) == [(50,)]

    def test_count_star_under_a_filter(self, engine):
        sql = "Select Count(*) From States Where Population > 5000"
        assert _scans(engine.plan(sql, mode="sync"))[0].columns == ()  # tested, not kept
        assert _assert_pruning_is_invisible(engine, sql)[0][0] > 0

    def test_select_distinct_star_reads_everything(self, engine):
        sql = "Select Distinct * From States"
        assert _scans(engine.plan(sql, mode="sync"))[0].columns in (None, (0, 1, 2))
        assert len(_assert_pruning_is_invisible(engine, sql)) == 50

    def test_distinct_over_a_projection(self, engine):
        sql = "Select Distinct Capital From States"
        assert _scans(engine.plan(sql, mode="sync"))[0].columns == (2,)
        assert len(_assert_pruning_is_invisible(engine, sql)) == 50

    def test_self_join_prunes_each_side_on_its_own(self, engine):
        sql = (
            "Select A.Name, B.Capital From States A, States B "
            "Where A.Name = B.Name and B.Population > 10000"
        )
        left, right = _scans(engine.plan(sql, mode="sync"))
        # B's bound is its scan's selection: Population is tested, not kept.
        assert {left.columns, right.columns} == {(0,), (0, 2)}
        assert _assert_pruning_is_invisible(engine, sql)

    def test_subquery_plans_get_their_own_analysis(self, engine):
        sql = (
            "Select Name From States Where Population > 20000 and "
            "Name Not In (Select Name From States Where Population < 1000)"
        )
        assert _assert_pruning_is_invisible(engine, sql)
        sql = "Select Name From Sigs Where Exists (Select Capital From States)"
        assert len(_assert_pruning_is_invisible(engine, sql)) == 37

    def test_hand_built_scans_read_every_column(self, paper_db):
        scan = TableScan(paper_db.table("States"))
        assert scan.columns is None
        assert collect(scan) == list(paper_db.table("States").scan())


class TestAnalysis:
    def test_unknown_node_reads_all_of_its_children(self, paper_db):
        class LogicalSample(L.LogicalNode):
            """A node type the analysis has never heard of."""

            def __init__(self, left, right):
                super().__init__()
                self.children = (left, right)
                self.schema = left.schema

        states = paper_db.table("States")
        node = LogicalSample(L.LogicalScan(states, "A"), L.LogicalScan(states, "B"))
        assert child_columns(node, {0}) == [None, None]
        assert child_columns(node, None) == [None, None]

    def test_whole_row_consumer_below_a_projection(self, paper_db):
        """Distinct compares whole rows, whatever the projection above keeps."""
        scan = L.LogicalScan(paper_db.table("States"))
        tree = L.LogicalProject(
            L.LogicalDistinct(scan), [ColumnRef(0, "Name")], scan.schema.project([0])
        )
        assert _scans(lower(tree))[0].columns is None

    def test_each_known_node_passes_what_it_reads(self, paper_db):
        states = paper_db.table("States")
        scan, other = L.LogicalScan(states, "A"), L.LogicalScan(states, "B")
        predicate = Comparison(">", ColumnRef(1), Literal(5))
        assert child_columns(L.LogicalFilter(scan, predicate), {0}) == [{0, 1}]
        assert child_columns(L.LogicalFilter(scan, predicate), None) == [None]
        assert child_columns(L.LogicalSort(scan, [(ColumnRef(2), True)]), {0}) == [{0, 2}]
        assert child_columns(L.LogicalLimit(scan, 3), {1}) == [{1}]
        assert child_columns(L.LogicalDistinct(scan), {1}) == [None]
        assert child_columns(L.LogicalCrossProduct(scan, other), {1, 4}) == [{1}, {1}]
        join = L.LogicalJoin(scan, other, Comparison("=", ColumnRef(0), ColumnRef(3)))
        assert child_columns(join, {5}) == [{0}, {0, 2}]
        assert child_columns(join, None) == [None, None]
        dependent = L.LogicalDependentJoin(scan, other, {"T1": 2})
        assert child_columns(dependent, {3}) == [{2}, {0}]
        project = L.LogicalProject(scan, [ColumnRef(2)], scan.schema.project([2]))
        assert child_columns(project, None) == [{2}]
        assert child_columns(project, set()) == [{2}]  # still evaluated

    def test_lowering_keeps_schemas_and_labels(self, engine):
        sql = "Select Name From States Where Population > 5000"
        scan = _scans(engine.plan(sql, mode="sync"))[0]
        assert scan.columns == (0,)
        assert scan.schema.names() == ["Name", "Population", "Capital"]
        assert scan.label() == "Scan: States where States.Population > 5000"


class TestCompileOnce:
    def test_n_scans_compile_one_decoder_per_distinct_column_set(self):
        from repro.relational.types import DataType
        from repro.storage import Database
        from repro.storage.serialization import _decoder as page_decoder

        # A column-type sequence no other test uses, so the memo is cold.
        types = [DataType.DATE, DataType.BOOL, DataType.BOOL, DataType.FLOAT, DataType.DATE]
        table = Database().create_table_from_rows(
            "Odd",
            [("c{}".format(i), t) for i, t in enumerate(types)],
            [("d", True, False, float(i), "e") for i in range(300)],
        )
        before = page_decoder.cache_info().misses
        for _ in range(5):
            for columns in (None, (0, 1, 2, 3, 4), (3, 0), [0, 3], (0, 3, 3), ()):
                assert sum(len(c[0]) for c in table.scan_column_batches(columns)) == 300
            assert len(list(table.scan())) == len(list(table.scan_with_rids())) == 300
        assert page_decoder.cache_info().misses == before + 3  # all, (0, 3), ()
