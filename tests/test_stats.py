"""ANALYZE: the statement reports each table's size."""

import pytest

from repro.relational.types import DataType
from repro.storage import Database


@pytest.fixture()
def stats_db():
    db = Database()
    table = db.create_table(
        "T", [("Name", DataType.STR), ("N", DataType.INT)]
    )
    rows = [("common", i % 50) for i in range(80)]
    rows += [("rare-{}".format(i), 100 + i) for i in range(20)]
    rows += [(None, None)] * 10
    table.insert_many(rows)
    return db


class TestAnalyzeTable:
    def test_row_count(self, stats_db):
        assert stats_db.analyze("T") == {"T": (110, 2)}

    def test_empty_table(self):
        db = Database()
        db.create_table("E", [("A", DataType.INT)])
        assert db.analyze("E") == {"E": (0, 1)}

    def test_database_analyze_all(self, paper_db):
        results = paper_db.analyze()
        assert set(results) == {"CSFields", "Movies", "Sigs", "States"}
        assert results["States"][0] == 50


class TestStatsInPlans:
    def test_analyze_statement_reports(self, engine):
        result = engine.run("Analyze Sigs")
        assert result.rows == [("Sigs", 37, 1)]
