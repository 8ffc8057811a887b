"""Write-ahead logging and crash recovery."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.types import DataType
from repro.storage import Database
from repro.storage.wal import WriteAheadLog
from repro.util.errors import CatalogError, StorageError

COLUMNS = [("Name", DataType.STR), ("N", DataType.INT)]


def wal_path(directory):
    return os.path.join(directory, "wal.log")


def crash(database):
    """Simulate a crash: abandon the object without close()/flush()."""
    database._tables = {}
    database._disks = []
    database.wal = None


class TestWalFraming:
    def test_append_replay_roundtrip(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "w.log"))
        log.append("insert", "T", ("a", 1))
        log.append("delete", "T", ("a", 1))
        log.close()
        reopened = WriteAheadLog(str(tmp_path / "w.log"))
        assert list(reopened.replay()) == [
            ("insert", "T", ("a", 1)),
            ("delete", "T", ("a", 1)),
        ]

    def test_torn_tail_ignored(self, tmp_path):
        path = str(tmp_path / "w.log")
        log = WriteAheadLog(path)
        log.append("insert", "T", ("a", 1))
        log.close()
        with open(path, "ab") as f:
            f.write(b"\x40\x00\x00\x00\x00\x00\x00\x00partial")
        assert list(WriteAheadLog(path).replay()) == [("insert", "T", ("a", 1))]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = str(tmp_path / "w.log")
        log = WriteAheadLog(path)
        log.append("insert", "T", ("a", 1))
        log.append("insert", "T", ("b", 2))
        log.close()
        with open(path, "r+b") as f:
            f.seek(-1, os.SEEK_END)
            f.write(b"\xff")  # flip a payload byte of the last record
        assert list(WriteAheadLog(path).replay()) == [("insert", "T", ("a", 1))]

    def test_truncate(self, tmp_path):
        path = str(tmp_path / "w.log")
        log = WriteAheadLog(path)
        log.append("insert", "T", ("a", 1))
        log.truncate()
        log.close()
        assert os.path.getsize(path) == 0

    def test_unicode_and_null_values(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "w.log"))
        log.append("insert", "T", ("héllo — 日本", None))
        log.close()
        ops = list(WriteAheadLog(str(tmp_path / "w.log")).replay())
        assert ops == [("insert", "T", ("héllo — 日本", None))]


class TestCrashRecovery:
    def test_inserts_survive_crash(self, tmp_path):
        directory = str(tmp_path)
        db = Database(directory, durability="wal")
        db.create_table("T", COLUMNS).insert_many([("a", 1), ("b", 2)])
        crash(db)
        recovered = Database(directory, durability="wal")
        assert recovered.recovered_operations == 2
        assert sorted(recovered.table("T").scan()) == [("a", 1), ("b", 2)]
        recovered.close()

    def test_deletes_survive_crash(self, tmp_path):
        directory = str(tmp_path)
        db = Database(directory, durability="wal")
        table = db.create_table("T", COLUMNS)
        table.insert_many([("a", 1), ("b", 2), ("c", 3)])
        table.delete_where(lambda r: r[1] == 2)
        crash(db)
        recovered = Database(directory, durability="wal")
        assert sorted(recovered.table("T").scan()) == [("a", 1), ("c", 3)]
        recovered.close()

    def test_updates_survive_crash(self, tmp_path):
        directory = str(tmp_path)
        db = Database(directory, durability="wal")
        table = db.create_table("T", COLUMNS)
        table.insert(("a", 1))
        table.update_where(lambda r: r[0] == "a", lambda r: ("a", 99))
        crash(db)
        recovered = Database(directory, durability="wal")
        assert list(recovered.table("T").scan()) == [("a", 99)]
        recovered.close()

    def test_clean_close_checkpoints(self, tmp_path):
        directory = str(tmp_path)
        with Database(directory, durability="wal") as db:
            db.create_table("T", COLUMNS).insert(("a", 1))
        assert os.path.getsize(wal_path(directory)) == 0
        reopened = Database(directory, durability="wal")
        assert reopened.recovered_operations == 0
        assert list(reopened.table("T").scan()) == [("a", 1)]
        reopened.close()

    def test_recovery_checkpoints_immediately(self, tmp_path):
        directory = str(tmp_path)
        db = Database(directory, durability="wal")
        db.create_table("T", COLUMNS).insert(("a", 1))
        crash(db)
        recovered = Database(directory, durability="wal")
        assert os.path.getsize(wal_path(directory)) == 0
        recovered.close()

    def test_indexes_rebuilt_consistently(self, tmp_path):
        directory = str(tmp_path)
        db = Database(directory, durability="wal")
        table = db.create_table("T", COLUMNS)
        db.create_index("T", "N")
        table.insert_many([("a", 1), ("b", 2)])
        crash(db)
        recovered = Database(directory, durability="wal")
        index = recovered.table("T").index_on("N")
        rids = index.search(2)
        assert [recovered.table("T").read(r) for r in rids] == [("b", 2)]
        recovered.close()

    def test_crash_mid_workload_after_checkpoint(self, tmp_path):
        directory = str(tmp_path)
        db = Database(directory, durability="wal")
        table = db.create_table("T", COLUMNS)
        table.insert_many([("pre", i) for i in range(10)])
        db.checkpoint()
        table.insert_many([("post", i) for i in range(5)])
        table.delete_where(lambda r: r[0] == "pre" and r[1] < 3)
        crash(db)
        recovered = Database(directory, durability="wal")
        rows = sorted(recovered.table("T").scan())
        assert rows == sorted(
            [("pre", i) for i in range(3, 10)] + [("post", i) for i in range(5)]
        )
        recovered.close()

    def test_wal_requires_directory(self):
        with pytest.raises(CatalogError, match="on-disk"):
            Database(durability="wal")

    def test_invalid_durability(self):
        with pytest.raises(CatalogError):
            Database(durability="raid")

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=9)),
            max_size=30,
        )
    )
    def test_random_workload_recovers_exactly(self, tmp_path_factory, operations):
        directory = str(tmp_path_factory.mktemp("waldb"))
        db = Database(directory, durability="wal")
        table = db.create_table("T", COLUMNS)
        model = []
        serial = 0
        for is_insert, key in operations:
            if is_insert or not model:
                row = ("k{}".format(key), serial)
                table.insert(row)
                model.append(row)
                serial += 1
            else:
                victim = model.pop(0)
                table.delete_where(lambda r, v=victim: r == v)
        crash(db)
        recovered = Database(directory, durability="wal")
        assert sorted(recovered.table("T").scan()) == sorted(model)
        recovered.close()


class TestLiveRowCount:
    """``Table.row_count()`` is a kept count, not a walk: it must agree
    with a scan after every kind of change and every way of opening."""

    @staticmethod
    def check(table):
        assert table.row_count() == sum(1 for _ in table.scan())
        return table.row_count()

    def test_follows_dml_a_reopen_and_a_wal_replay(self, tmp_path):
        directory = str(tmp_path)
        db = Database(directory, durability="wal")
        table = db.create_table("T", COLUMNS)
        assert self.check(table) == 0
        rids = table.insert_many([("r{}".format(i), i) for i in range(700)])
        assert self.check(table) == 700
        table.delete(rids[3])
        table.delete_where(lambda r: r[1] % 10 == 0)
        table.update_where(lambda r: r[1] % 10 == 1, lambda r: (r[0] + "!", -r[1]))
        assert self.check(table) == 700 - 1 - 70
        with pytest.raises(StorageError):
            table.insert_many([("fits", 1), ("x" * 10000, 2)])
        assert self.check(table) == 630  # the row before the oversized one stayed
        table.heap.vacuum()
        assert self.check(table) == 630
        db.close()
        with Database(directory, durability="wal") as reopened:
            table = reopened.table("T")
            assert self.check(table) == 630
            table.insert(("after checkpoint", 1))
            table.delete_where(lambda r: r[1] < 0)
            expected = self.check(table)
            crash(reopened)
        recovered = Database(directory, durability="wal")
        assert recovered.recovered_operations == 1 + 70
        assert self.check(recovered.table("T")) == expected == 561
        recovered.close()

    def test_no_page_is_pinned_to_answer(self):
        db = Database()
        table = db.create_table_from_rows(
            "T", COLUMNS, [("r{}".format(i), i) for i in range(2000)]
        )
        before = db.buffer_stats()
        assert table.row_count() == 2000
        assert db.buffer_stats() == before


class TestNoStealPool:
    def test_dirty_pages_not_evicted(self):
        from repro.storage.buffer import BufferPool
        from repro.storage.disk import DiskManager

        disk = DiskManager()
        for _ in range(6):
            disk.allocate_page()
        pool = BufferPool(disk, capacity=2, no_steal=True)
        for page_id in (0, 1):
            with pool.pin(page_id) as guard:
                guard.data[0] = 1
                guard.mark_dirty()
        with pool.pin(2):
            pass  # forces growth instead of a dirty eviction
        assert pool.growths >= 1
        assert disk.writes == 0  # nothing written back before a flush

    def test_clean_pages_still_evicted(self):
        from repro.storage.buffer import BufferPool
        from repro.storage.disk import DiskManager

        disk = DiskManager()
        for _ in range(4):
            disk.allocate_page()
        pool = BufferPool(disk, capacity=2, no_steal=True)
        for page_id in (0, 1, 2, 3):
            with pool.pin(page_id):
                pass
        assert pool.evictions == 2
        assert pool.growths == 0
