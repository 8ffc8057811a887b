"""Disk manager and heap files, in memory and on disk."""

import os
import tempfile
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, PAGE_SIZE
from repro.storage.heap import RID, HeapFile
from repro.storage.page import SlottedPage, max_record_size
from repro.storage.serialization import decode_record
from repro.storage.table import Table
from repro.util.errors import StorageError


def make_heap(capacity=8):
    return HeapFile(BufferPool(DiskManager(), capacity=capacity))


class TestDiskManager:
    def test_allocate_and_roundtrip(self):
        disk = DiskManager()
        page_id = disk.allocate_page()
        data = bytearray(PAGE_SIZE)
        data[10] = 42
        disk.write_page(page_id, data)
        assert disk.read_page(page_id)[10] == 42

    def test_out_of_range_read(self):
        with pytest.raises(StorageError, match="out of range"):
            DiskManager().read_page(0)

    def test_wrong_size_write(self):
        disk = DiskManager()
        disk.allocate_page()
        with pytest.raises(StorageError):
            disk.write_page(0, b"short")

    def test_closed_manager_rejects_io(self):
        disk = DiskManager()
        disk.allocate_page()
        disk.close()
        with pytest.raises(StorageError, match="closed"):
            disk.read_page(0)

    def test_file_backed_persistence(self, tmp_path):
        path = str(tmp_path / "data.dat")
        with DiskManager(path) as disk:
            page_id = disk.allocate_page()
            data = bytearray(PAGE_SIZE)
            data[0] = 7
            disk.write_page(page_id, data)
            disk.sync()
        with DiskManager(path) as disk:
            assert disk.page_count == 1
            assert disk.read_page(0)[0] == 7

    def test_corrupt_file_size_rejected(self, tmp_path):
        path = str(tmp_path / "bad.dat")
        with open(path, "wb") as f:
            f.write(b"x" * 100)
        with pytest.raises(StorageError, match="multiple"):
            DiskManager(path)

    def test_read_write_counters(self):
        disk = DiskManager()
        disk.allocate_page()
        disk.read_page(0)
        disk.write_page(0, bytes(PAGE_SIZE))
        assert disk.reads == 1
        assert disk.writes == 1


class TestRID:
    def test_equality_and_hash(self):
        assert RID(1, 2) == RID(1, 2)
        assert hash(RID(1, 2)) == hash(RID(1, 2))
        assert RID(1, 2) != RID(2, 1)


class TestHeapFile:
    def test_insert_read(self):
        heap = make_heap()
        rid = heap.insert(b"hello")
        assert heap.read(rid) == b"hello"

    def test_scan_in_storage_order(self):
        heap = make_heap()
        payloads = [b"r%04d" % i for i in range(100)]
        for p in payloads:
            heap.insert(p)
        assert [record for _, record in heap.scan()] == payloads

    def test_spills_to_multiple_pages(self):
        heap = make_heap()
        big = b"x" * 1000
        for _ in range(10):
            heap.insert(big)
        assert heap.pool.disk.page_count > 1
        assert heap.record_count() == 10

    def test_delete(self):
        heap = make_heap()
        rids = [heap.insert(b"r%d" % i) for i in range(5)]
        heap.delete(rids[2])
        assert heap.read(rids[2]) is None
        assert heap.record_count() == 4

    def test_record_too_large(self):
        heap = make_heap()
        with pytest.raises(StorageError, match="exceeds"):
            heap.insert(b"x" * (max_record_size(PAGE_SIZE) + 1))

    def test_vacuum_keeps_live_records(self):
        heap = make_heap()
        rids = [heap.insert(b"rec%d" % i) for i in range(50)]
        for rid in rids[::2]:
            heap.delete(rid)
        heap.vacuum()
        survivors = [record for _, record in heap.scan()]
        assert survivors == [b"rec%d" % i for i in range(1, 50, 2)]

    def test_insert_fills_last_page_first(self):
        heap = make_heap()
        heap.insert(b"a")
        pages_before = heap.pool.disk.page_count
        heap.insert(b"b")
        assert heap.pool.disk.page_count == pages_before


# -- storage oracle: what a table hands back is what went in -------------------------

_VALUES = {
    DataType.INT: st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.sampled_from([-(2**63), 2**63 - 1]),
    DataType.FLOAT: st.floats(allow_nan=False) | st.sampled_from([float("inf"), float("-inf")]),
    DataType.STR: st.text(max_size=6),
    DataType.DATE: st.text(max_size=6),
    DataType.BOOL: st.booleans(),
}


@st.composite
def stored_tables(draw):
    """(types, rows, positions to delete, page to compact, columns to read)."""
    types = draw(st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=12))
    rows = draw(
        st.lists(st.tuples(*[st.none() | _VALUES[t] for t in types]), max_size=40)
    )
    deleted = draw(st.sets(st.sampled_from(range(len(rows))))) if rows else set()
    columns = draw(st.sets(st.sampled_from(range(len(types)))))
    return types, rows, deleted, draw(st.integers(0, 7)), sorted(columns)


class TestStorageOracle:
    """Rows spread over several 512-byte pages, some deleted, one page
    compacted: every read path returns exactly the rows that went in
    (``encode_record`` is independent of the compiled decoder)."""

    @settings(max_examples=120, deadline=None)
    @given(case=stored_tables(), on_disk=st.booleans())
    def test_every_read_path_returns_what_went_in(self, case, on_disk):
        types, rows, deleted, compacted, columns = case
        schema = Schema([Column("c{}".format(i), t) for i, t in enumerate(types)])
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "t.dat") if on_disk else None
            disk = DiskManager(path, page_size=512)
            table = Table("T", schema, HeapFile(BufferPool(disk, capacity=2)))
            rids = table.insert_many(rows)
            for position in deleted:
                table.delete(rids[position])
            if disk.page_count:
                with table.heap.pool.pin(compacted % disk.page_count) as guard:
                    SlottedPage(guard.data).compact()
                    guard.mark_dirty()
            if on_disk:  # what a later process finds in the file
                table.heap.pool.flush_all()
                disk.close()
                disk = DiskManager(path, page_size=512)
                table = Table("T", schema, HeapFile(BufferPool(disk, capacity=2)))
            kept = [i for i in range(len(rows)) if i not in deleted]
            expected = [rows[i] for i in kept]

            chunks = list(table.scan_column_batches(columns=columns))
            assert sum(len(chunk[0]) for chunk in chunks) == len(expected)
            for position, data_type in enumerate(types):
                vectors = [chunk[position] for chunk in chunks]
                assert [v for vector in vectors for v in vector] == [
                    row[position] if position in columns else None for row in expected
                ]
                for vector in vectors:
                    clean = position in columns and None not in vector
                    if clean and data_type in (DataType.INT, DataType.FLOAT):
                        assert isinstance(vector, array)
                        assert vector.typecode == ("q" if data_type is DataType.INT else "d")
                    else:
                        assert isinstance(vector, list)

            assert list(table.scan()) == expected
            assert list(table.scan_with_rids()) == [(rids[i], rows[i]) for i in kept]
            for i, rid in enumerate(rids):
                row = None if i in deleted else rows[i]
                assert table.read(rid) == row
                if row is not None:
                    assert decode_record(table.heap.read(rid), schema) == row
            assert table.row_count() == len(expected)
            disk.close()


class TestInsertMany:
    def test_fills_a_page_per_pool_round_trip(self):
        heap = make_heap()
        with heap.appender() as append:
            rids = [append(b"x" * 100) for _ in range(200)]
        pages = heap.pool.disk.page_count
        assert pages > 1 and len({rid.page_id for rid in rids}) == pages
        assert heap.pool.hits + heap.pool.misses == 0  # only new_page() calls
        assert [record for _, record in heap.scan()] == [b"x" * 100] * 200

    def test_appender_continues_the_last_page_and_reuses_tombstones(self):
        heap = make_heap()
        first = heap.insert(b"a")
        heap.insert(b"b")
        heap.delete(first)
        with heap.appender() as append:
            assert append(b"c") == first  # the tombstoned slot, same page
            assert append(b"d") == RID(0, 2)

    def test_appender_unpins_on_error_and_with_one_frame(self):
        heap = make_heap(capacity=1)
        with pytest.raises(StorageError, match="exceeds"):
            with heap.appender() as append:
                append(b"ok")
                append(b"x" * PAGE_SIZE)
        with heap.appender() as append:  # a one-frame pool can still turn pages
            for _ in range(10):
                append(b"y" * 1000)
        assert heap.record_count() == 11
