"""Catalog, tables, and the Database facade."""

import json
import os

import pytest

from repro.relational.types import DataType
from repro.storage.catalog import Catalog, schema_from_json, schema_to_json
from repro.storage.database import Database
from repro.storage.page import FORMAT
from repro.relational.schema import Column, Schema
from repro.util.errors import CatalogError, StorageError

COLUMNS = [("Name", DataType.STR), ("Population", DataType.INT)]
ROWS = [("California", 32667), ("Alaska", 614), ("Wyoming", 481)]


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        schema = Schema([Column("A", DataType.INT)])
        catalog.register("T", schema)
        assert catalog.has_table("t")
        assert catalog.schema_of("T") is schema

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.register("T", Schema([Column("A", DataType.INT)]))
        with pytest.raises(CatalogError, match="already exists"):
            catalog.register("t", Schema([Column("B", DataType.INT)]))

    def test_unknown_table(self):
        with pytest.raises(CatalogError, match="unknown table"):
            Catalog().schema_of("nope")

    def test_schema_json_roundtrip(self):
        schema = Schema([Column("A", DataType.INT), Column("B", DataType.DATE)])
        assert schema_from_json(schema_to_json(schema)) == schema

    def test_malformed_json_rejected(self):
        with pytest.raises(CatalogError, match="malformed"):
            schema_from_json([{"name": "A", "type": "no-such-type"}])

    def test_persistence(self, tmp_path):
        directory = str(tmp_path)
        catalog = Catalog(directory)
        catalog.register("T", Schema([Column("A", DataType.INT)]))
        reloaded = Catalog(directory)
        assert reloaded.has_table("T")
        assert reloaded.schema_of("T").names() == ["A"]

    def test_unregister_removes_file(self, tmp_path):
        directory = str(tmp_path)
        db = Database(directory)
        db.create_table_from_rows("T", COLUMNS, ROWS)
        db.flush()
        db.drop_table("T")
        assert not Catalog(directory).has_table("T")


class TestTable:
    def test_insert_scan_roundtrip(self):
        table = Database().create_table_from_rows("S", COLUMNS, ROWS)
        assert list(table.scan()) == ROWS

    def test_read_by_rid(self):
        db = Database()
        table = db.create_table("S", COLUMNS)
        rid = table.insert(ROWS[0])
        assert table.read(rid) == ROWS[0]

    def test_delete_where(self):
        table = Database().create_table_from_rows("S", COLUMNS, ROWS)
        assert table.delete_where(lambda r: r[1] < 1000) == 2
        assert list(table.scan()) == [ROWS[0]]

    def test_null_values_roundtrip(self):
        table = Database().create_table_from_rows("S", COLUMNS, [("x", None)])
        assert list(table.scan()) == [("x", None)]


class TestDatabase:
    def test_create_and_get(self):
        db = Database()
        db.create_table("T", COLUMNS)
        assert db.has_table("t")
        assert db.table("T").name == "T"

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Database().table("missing")

    def test_drop(self):
        db = Database()
        db.create_table("T", COLUMNS)
        db.drop_table("T")
        assert not db.has_table("T")

    def test_table_names_sorted(self):
        db = Database()
        for name in ("Zeta", "Alpha", "Mid"):
            db.create_table(name, COLUMNS)
        assert db.table_names() == ["Alpha", "Mid", "Zeta"]

    def test_persistence_roundtrip(self, tmp_path):
        directory = str(tmp_path)
        with Database(directory) as db:
            db.create_table_from_rows("S", COLUMNS, ROWS)
        with Database(directory) as db:
            assert list(db.table("S").scan()) == ROWS

    def test_large_persistence(self, tmp_path):
        directory = str(tmp_path)
        rows = [("name-{}".format(i), i) for i in range(5000)]
        with Database(directory, buffer_capacity=4) as db:
            db.create_table_from_rows("Big", COLUMNS, rows)
        with Database(directory, buffer_capacity=4) as db:
            assert db.table("Big").row_count() == 5000
            assert sorted(db.table("Big").scan()) == sorted(rows)

    def test_buffer_stats_aggregate(self):
        db = Database()
        db.create_table_from_rows("S", COLUMNS, ROWS)
        list(db.table("S").scan())
        stats = db.buffer_stats()
        assert set(stats) == {"hits", "misses", "evictions"}
        assert stats["hits"] + stats["misses"] > 0

    def test_column_objects_accepted(self):
        db = Database()
        table = db.create_table("T", [Column("A", DataType.INT)])
        assert table.schema.names() == ["A"]


class TestPageFormatMarker:
    """``catalog.json`` names the page format; a directory of another one
    is refused before any page is read, naming both formats."""

    @staticmethod
    def rewrite(directory, change):
        path = os.path.join(directory, "catalog.json")
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        change(payload)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)

    def test_written_and_read_back(self, tmp_path):
        directory = str(tmp_path)
        with Database(directory) as db:
            db.create_table_from_rows("S", COLUMNS, ROWS)
        with open(os.path.join(directory, "catalog.json"), encoding="utf-8") as f:
            assert json.load(f)["page_format"] == FORMAT
        with Database(directory) as db:
            assert list(db.table("S").scan()) == ROWS

    @pytest.mark.parametrize(
        "change,named",
        [
            (lambda payload: payload.pop("page_format"), "slotted rows (unmarked)"),
            (lambda payload: payload.update(page_format="column-major-v0"), "column-major-v0"),
        ],
        ids=["unmarked", "another"],
    )
    def test_another_format_is_refused(self, tmp_path, change, named):
        directory = str(tmp_path)
        with Database(directory) as db:
            db.create_table_from_rows("S", COLUMNS, ROWS)
        self.rewrite(directory, change)
        with pytest.raises(CatalogError) as raised:
            Database(directory)
        assert named in str(raised.value) and FORMAT in str(raised.value)


class TestLiveRowCount:
    """``Table.row_count()`` is a kept count, not a walk: it must agree
    with a scan after every kind of change and every way of opening."""

    @staticmethod
    def check(table):
        assert table.row_count() == sum(1 for _ in table.scan())
        return table.row_count()

    def test_follows_dml_and_a_reopen(self, tmp_path):
        directory = str(tmp_path)
        db = Database(directory)
        table = db.create_table("T", [("Name", DataType.STR), ("N", DataType.INT)])
        assert self.check(table) == 0
        rids = table.insert_many([("r{}".format(i), i) for i in range(700)])
        assert self.check(table) == 700
        table.delete(rids[3])
        table.delete_where(lambda r: r[1] % 10 == 0)
        assert self.check(table) == 700 - 1 - 70
        with pytest.raises(StorageError):
            table.insert_many([("fits", 1), ("x" * 10000, 2)])
        assert self.check(table) == 630  # the row before the oversized one stayed
        db.close()
        with Database(directory) as reopened:
            table = reopened.table("T")
            assert self.check(table) == 630
            table.insert(("after reopen", 1))
            table.delete_where(lambda r: r[1] % 10 == 1)
            assert self.check(table) == 631 - 72
        with Database(directory) as reopened:
            assert self.check(reopened.table("T")) == 559

    def test_no_page_is_pinned_to_answer(self):
        db = Database()
        table = db.create_table_from_rows(
            "T",
            [("Name", DataType.STR), ("N", DataType.INT)],
            [("r{}".format(i), i) for i in range(2000)],
        )
        before = db.buffer_stats()
        assert table.row_count() == 2000
        assert db.buffer_stats() == before
