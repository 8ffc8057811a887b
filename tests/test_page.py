"""Column-major page layout: rows in, rows out, slots stable."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.expr import ColumnRef, Comparison, Literal
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.storage import page
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, PAGE_SIZE
from repro.storage.heap import HeapFile
from repro.storage.page import PageWriter
from repro.storage.serialization import page_decoder
from repro.storage.table import Table
from repro.util.errors import StorageError

TYPES = (DataType.STR, DataType.INT)


def fresh_page(size=PAGE_SIZE):
    return bytearray(size)


def write(data, rows, types=TYPES):
    """Add *rows* to the page *data* and encode it; their slots (``None`` once full)."""
    writer = PageWriter(types, data)
    slots = [writer.add(row) for row in rows]
    writer.write(data)
    return slots


def rows_of(data, types=TYPES):
    """``(slot, row)`` of every live row, in slot order."""
    return [(slot, page.read_row(data, types, slot)) for slot in page.live_slots(data)]


def used(data, types=TYPES):
    """Where the page's last region ends."""
    return page.checker(page.widths(types))(data)[1][-1]


class TestInsertRead:
    def test_insert_returns_slots_in_order(self):
        assert write(fresh_page(), [("alpha", 1), ("beta", 2)]) == [0, 1]

    def test_read_back(self):
        data = fresh_page()
        (slot,) = write(data, [("payload", 7)])
        assert page.read_row(data, TYPES, slot) == ("payload", 7)

    def test_empty_record(self):
        data = fresh_page()
        write(data, [("", 0), (None, None)])
        assert rows_of(data) == [(0, ("", 0)), (1, (None, None))]

    def test_records_iteration(self):
        data = fresh_page()
        write(data, [("a", 1), ("bb", 2), ("ccc", 3)])
        assert rows_of(data) == [(0, ("a", 1)), (1, ("bb", 2)), (2, ("ccc", 3))]

    def test_reload_from_bytes(self):
        data = fresh_page()
        write(data, [("persist me", 1)])
        copy = bytearray(bytes(data))
        assert rows_of(copy) == [(0, ("persist me", 1))]
        assert write(copy, [("more", 2)]) == [1]  # a writer starts from what the page holds
        assert rows_of(copy) == [(0, ("persist me", 1)), (1, ("more", 2))]

    def test_max_record_fits_exactly(self):
        # A 22-byte header (rows + 5 regions), one deleted-bitmap byte,
        # an INT, and a plain string region's entry count (0) and one
        # length: 35 bytes besides the string.
        payload = "x" * (PAGE_SIZE - 35)
        data = fresh_page()
        writer = PageWriter(TYPES, data)
        assert writer.add((payload, 1)) == 0
        assert writer.add(("", 2)) is None
        writer.write(data)
        assert page.read_row(data, TYPES, 0) == (payload, 1)
        assert used(data) == PAGE_SIZE
        with pytest.raises(StorageError, match="exceeds"):
            PageWriter(TYPES, fresh_page()).add((payload + "x", 1))

    def test_page_full(self):
        writer = PageWriter(TYPES, fresh_page(128))
        slots = [writer.add(("0123456789", i)) for i in range(20)]
        full = slots.index(None)
        assert 0 < full and slots[:full] == list(range(full))
        assert slots[full:] == [None] * (20 - full)


class TestDelete:
    def test_delete_leaves_tombstone(self):
        data = fresh_page()
        write(data, [("a", 1), ("b", 2)])
        page.delete(data, 0)
        assert page.read_row(data, TYPES, 0) is None
        assert page.read_row(data, TYPES, 1) == ("b", 2)
        assert page.live_slots(data) == [1]

    def test_double_delete_rejected(self):
        data = fresh_page()
        write(data, [("a", 1)])
        page.delete(data, 0)
        with pytest.raises(StorageError, match="already deleted"):
            page.delete(data, 0)

    def test_slot_reuse_after_delete(self):
        data = fresh_page()
        write(data, [("a", 1), ("b", 2)])
        page.delete(data, 0)
        assert write(data, [("c", 3), ("d", 4)]) == [0, 2]  # the deleted slot first
        assert rows_of(data) == [(0, ("c", 3)), (1, ("b", 2)), (2, ("d", 4))]

    def test_out_of_range_slot(self):
        with pytest.raises(StorageError, match="out of range"):
            page.read_row(fresh_page(), TYPES, 0)
        with pytest.raises(StorageError, match="out of range"):
            page.delete(fresh_page(), 0)


class TestCompact:
    """A writer re-encodes its page: a deleted row's bytes go, every slot stays."""

    def test_compact_reclaims_space(self):
        data = fresh_page(256)
        write(data, [("a" * 60, 1), ("b" * 60, 2)])
        page.delete(data, 0)
        before = used(data)
        write(data, [])
        assert used(data) == before - 60
        assert rows_of(data) == [(1, ("b" * 60, 2))]
        # ... so a row that needs those bytes now fits, in the deleted slot.
        assert write(data, [("c" * 150, 3)]) == [0]

    def test_compact_preserves_rids(self):
        data = fresh_page()
        rows = [("p%d" % i, i) for i in range(10)]
        write(data, rows)
        for slot in (1, 4, 7):
            page.delete(data, slot)
        write(data, [])
        for slot, row in enumerate(rows):
            expected = None if slot in (1, 4, 7) else row
            assert page.read_row(data, TYPES, slot) == expected


_TYPES = (DataType.INT, DataType.STR, DataType.FLOAT, DataType.BOOL, DataType.DATE)
_ROWS = st.tuples(
    st.none() | st.integers(-(2**63), 2**63 - 1),
    st.none() | st.text(max_size=40),
    st.none() | st.floats(allow_nan=False),
    st.none() | st.booleans(),
    st.none() | st.text(max_size=10),
)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), _ROWS),
                st.tuples(st.just("delete"), st.integers(0, 200)),
                st.tuples(st.just("reopen"), st.none()),
            ),
            max_size=60,
        )
    )
    def test_model_based_operations(self, operations):
        """Typed rows over 512-byte pages behave like a dict RID -> row:
        an insert takes a fresh RID or a deleted one, no RID moves, and a
        reopened pool reads what the last one wrote."""
        schema = Schema([Column("c{}".format(i), t) for i, t in enumerate(_TYPES)])
        disk = DiskManager(page_size=512)
        heap = HeapFile(BufferPool(disk, capacity=2))
        model = {}  # RID -> row, None once deleted
        for action, argument in operations:
            if action == "insert":
                rid = heap.insert(argument, _TYPES)
                assert model.get(rid) is None
                model[rid] = argument
            elif action == "delete":
                live = [rid for rid, row in model.items() if row is not None]
                if live:
                    rid = live[argument % len(live)]
                    heap.delete(rid)
                    model[rid] = None
            else:
                heap.pool.flush_all()
                heap = HeapFile(BufferPool(disk, capacity=2))
        for rid, row in model.items():
            assert heap.read(rid, _TYPES) == row
        table = Table("T", schema, heap)
        expected = sorted(
            ((rid, row) for rid, row in model.items() if row is not None),
            key=lambda item: (item[0].page_id, item[0].slot),
        )
        assert list(table.scan_with_rids()) == expected
        assert table.row_count() == len(expected)


# -- dictionary-coded string regions ---------------------------------------------

_DICT_TYPES = (DataType.STR, DataType.INT, DataType.DATE)
_BIG = 65535  # the largest page a uint16 offset addresses


def _entry_count(data, types, column):
    """The entry count that opens *column*'s string region (0: plain)."""
    regions = page.checker(page.widths(types))(data)[1]
    start = regions[4 + 4 * column]
    return int.from_bytes(data[start:start + 2], sys.byteorder)


@st.composite
def dictionary_pages(draw):
    """Rows over a vocabulary (NULLs, the empty string, any text) of a
    few, a few dozen or more than 256 distinct strings, each word three
    times so that the dictionary is the smaller form; then the slots to
    delete and the rows that refill them."""
    stem = draw(st.text(max_size=4))
    words = [""] + [stem + str(i) for i in range(draw(st.sampled_from([3, 40, 300])))]
    row = st.tuples(st.none() | st.sampled_from(words), st.integers(0, 9),
                    st.none() | st.sampled_from(["1999-10-01", "2000-01-01", "Ålesund"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [(w, i % 10, "1999-10-01") for i, w in enumerate(words * 3)]
    rng.shuffle(rows)
    rows += draw(st.lists(row, max_size=20))
    deleted = set(rng.sample(range(len(rows)), min(len(rows), draw(st.integers(0, 40)))))
    refill = draw(st.lists(row, max_size=len(deleted) + 5))
    return rows, deleted, refill


def _fill(data, rows, model):
    """Add *rows* to the page until one does not fit; record their slots."""
    writer = PageWriter(_DICT_TYPES, data)
    for row in rows:
        slot = writer.add(row)
        if slot is None:
            break
        model[slot] = row
    writer.write(data)


def _agrees(data, model):
    live = sorted(model)
    assert page.live_slots(data) == live
    expected = [model[slot] for slot in live]
    assert list(zip(*page_decoder(_DICT_TYPES, None)(data))) == expected
    assert [page.read_row(data, _DICT_TYPES, slot) for slot in live] == expected
    few = page_decoder(_DICT_TYPES, (0, 2), Comparison("<", ColumnRef(1), Literal(3)))(data)
    assert list(zip(few[0], few[2])) == [(s, d) for s, i, d in expected if i < 3]


class TestDictionaryPages:
    @settings(max_examples=40, deadline=None)
    @given(dictionary_pages())
    def test_round_trip_with_deletes_refills_and_a_reopen(self, case):
        rows, deleted, refill = case
        data, model = bytearray(_BIG), {}
        _fill(data, rows, model)
        assert _entry_count(data, _DICT_TYPES, 0) > 0  # repeated words: a dictionary
        _agrees(data, model)
        for slot in sorted(deleted & set(model)):
            page.delete(data, slot)
            del model[slot]
        _agrees(data, model)
        reopened = bytearray(bytes(data))  # what a fresh pool reads back
        _fill(reopened, refill, model)  # the holes first, then new slots
        _agrees(reopened, model)

    def test_more_than_256_entries_take_two_byte_codes(self):
        words = ["w%03d" % i for i in range(300)]
        data, model = bytearray(_BIG), {}
        _fill(data, [(w, 1, None) for w in words * 2], model)
        assert len(model) == 600 and _entry_count(data, _DICT_TYPES, 0) == 300
        _agrees(data, model)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.none() | st.sampled_from(["", "ab", "Škofja"]) | st.text(max_size=30),
                              st.integers(0, 9), st.none() | st.text(max_size=6)), max_size=60),
           st.integers(1, 4))
    def test_the_writer_refuses_exactly_the_first_row_that_does_not_fit(self, rows, every):
        _refuses_exactly(rows, every)

    @pytest.mark.parametrize("every", [1, 2, 3])
    @pytest.mark.parametrize("repeats", [1, 3], ids=["plain", "dictionary"])
    def test_refilled_holes_count_toward_the_page(self, every, repeats):
        _refuses_exactly([("s" * 30 + str(i // repeats), i, None) for i in range(40)], every)


def _refuses_exactly(rows, every):
    """The writer's running size is the encoded size: a row is refused
    exactly when the page it makes would not fit, before and after
    deleting every *every*-th row leaves holes."""
    data = bytearray(512)
    for _ in range(2):
        writer, added = PageWriter(_DICT_TYPES, data), []
        for row in rows:
            trial = data + bytearray(_BIG - len(data))  # the same page, room to spare
            _fill(trial, added + [row], {})
            fits = page.checker(page.widths(_DICT_TYPES))(trial)[1][-1] <= len(data)
            assert (writer.add(row) is not None) == fits
            if not fits:
                break
            added.append(row)
        writer.write(data)
        for slot in page.live_slots(data)[::every]:
            page.delete(data, slot)
