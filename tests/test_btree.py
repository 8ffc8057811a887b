"""B+tree index: structure, duplicates, persistence, property-based model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.types import DataType
from repro.storage.btree import BPlusTree, KeyCodec
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import RID
from repro.util.errors import StorageError


def make_tree(key_type=DataType.INT, capacity=64):
    return BPlusTree(BufferPool(DiskManager(), capacity=capacity), key_type)


class TestKeyCodec:
    @pytest.mark.parametrize(
        "data_type,key",
        [
            (DataType.INT, 42),
            (DataType.INT, -(2**40)),
            (DataType.FLOAT, 3.25),
            (DataType.STR, "Wyoming"),
            (DataType.STR, "üñí©ödé"),
            (DataType.DATE, "1999-10-01"),
        ],
    )
    def test_roundtrip(self, data_type, key):
        codec = KeyCodec(data_type)
        assert codec.decode(codec.encode(key)) == key

    def test_bool_not_indexable(self):
        with pytest.raises(StorageError):
            KeyCodec(DataType.BOOL)

    def test_null_key_rejected(self):
        with pytest.raises(StorageError):
            KeyCodec(DataType.INT).encode(None)


class TestBasicOperations:
    def test_insert_and_search(self):
        tree = make_tree()
        tree.insert(5, RID(1, 0))
        assert tree.search(5) == [RID(1, 0)]
        assert tree.search(6) == []

    def test_null_keys_skipped(self):
        tree = make_tree()
        tree.insert(None, RID(1, 0))
        assert tree.entry_count() == 0

    def test_ordered_iteration(self):
        tree = make_tree()
        keys = list(range(200))
        random.Random(1).shuffle(keys)
        for i, key in enumerate(keys):
            tree.insert(key, RID(i, 0))
        assert [k for k, _ in tree.scan_all()] == sorted(keys)

    def test_range_scan_bounds(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(i, RID(i, 0))
        assert [k for k, _ in tree.range_scan(10, 15)] == [10, 11, 12, 13, 14, 15]
        assert [k for k, _ in tree.range_scan(10, 15, include_low=False)] == [
            11, 12, 13, 14, 15,
        ]
        assert [k for k, _ in tree.range_scan(10, 15, include_high=False)] == [
            10, 11, 12, 13, 14,
        ]
        assert [k for k, _ in tree.range_scan(None, 2)] == [0, 1, 2]
        assert [k for k, _ in tree.range_scan(97, None)] == [97, 98, 99]

    def test_grows_in_height(self):
        tree = make_tree()
        assert tree.height() == 1
        for i in range(3000):
            tree.insert(i, RID(i, 0))
        assert tree.height() >= 2
        assert tree.entry_count() == 3000

    def test_string_keys_split_correctly(self):
        tree = make_tree(DataType.STR)
        words = ["key-{:05d}".format(i) for i in range(1500)]
        shuffled = list(words)
        random.Random(2).shuffle(shuffled)
        for i, word in enumerate(shuffled):
            tree.insert(word, RID(i, 0))
        assert [k for k, _ in tree.scan_all()] == words

    def test_delete_missing_returns_false(self):
        tree = make_tree()
        tree.insert(1, RID(0, 0))
        assert not tree.delete(1, RID(9, 9))
        assert not tree.delete(2, RID(0, 0))
        assert tree.delete(1, RID(0, 0))


class TestDuplicates:
    def test_duplicates_across_leaf_splits(self):
        """Split boundaries inside duplicate runs must not hide entries."""
        tree = make_tree()
        items = [(i % 7, RID(i, 0)) for i in range(4000)]
        random.Random(3).shuffle(items)
        for key, rid in items:
            tree.insert(key, rid)
        for key in range(7):
            expected = sorted(r.page_id for k, r in items if k == key)
            assert sorted(r.page_id for r in tree.search(key)) == expected

    def test_delete_duplicate_in_later_leaf(self):
        tree = make_tree()
        for i in range(2000):
            tree.insert(1, RID(i, 0))
        assert tree.delete(1, RID(1999, 0))
        assert len(tree.search(1)) == 1999


class TestRebuild:
    def test_bulk_rebuild(self):
        tree = make_tree()
        for i in range(500):
            tree.insert(i, RID(i, 0))
        for i in range(0, 500, 2):
            tree.delete(i, RID(i, 0))
        tree.bulk_rebuild((k, r) for k, r in tree.scan_all())
        assert [k for k, _ in tree.scan_all()] == list(range(1, 500, 2))


def _entries(tree, *bounds, **flags):
    return [(k, r.page_id, r.slot) for k, r in tree.range_scan(*bounds, **flags)]


def _assert_same_answers(loaded, inserted, probes):
    assert sorted(_entries(loaded)) == sorted(_entries(inserted))
    assert [k for k, _ in loaded.scan_all()] == [k for k, _ in inserted.scan_all()]
    for key in probes:
        assert sorted(map(repr, loaded.search(key))) == sorted(
            map(repr, inserted.search(key))
        )
    for low, high in zip(probes, probes[1:]):
        low, high = min(low, high), max(low, high)
        for flags in (
            {},
            {"include_low": False},
            {"include_high": False},
            {"include_low": False, "include_high": False},
        ):
            assert sorted(_entries(loaded, low, high, **flags)) == sorted(
                _entries(inserted, low, high, **flags)
            )
        assert sorted(_entries(loaded, low, None)) == sorted(_entries(inserted, low, None))
        assert sorted(_entries(loaded, None, high)) == sorted(_entries(inserted, None, high))


class TestBulkLoad:
    """``bulk_load`` answers every question like a tree built by inserts."""

    CASES = {
        # A run of 700 equal keys is longer than a packed leaf (255 entries).
        "int_duplicate_runs": (
            DataType.INT,
            [(i // 700, RID(i, i % 5)) for i in range(2500)] + [(None, RID(9, 9))] * 3,
        ),
        "float": (DataType.FLOAT, [(i / 8.0, RID(i, 0)) for i in range(1200)]),
        "str": (
            DataType.STR,
            [("k\u00e9y-{:04d}".format(i % 400), RID(i, 1)) for i in range(1500)]
            + [(None, RID(0, 0))],
        ),
        "one_leaf": (DataType.INT, [(3, RID(0, 0)), (1, RID(0, 1)), (3, RID(0, 2))]),
        "empty": (DataType.INT, []),
    }

    def _pair(self, name):
        key_type, entries = self.CASES[name]
        shuffled = list(entries)
        random.Random(7).shuffle(shuffled)
        loaded, inserted = make_tree(key_type), make_tree(key_type)
        loaded.bulk_load(iter(shuffled))
        for key, rid in shuffled:
            inserted.insert(key, rid)
        keys = sorted({k for k, _ in entries if k is not None})
        probes = keys[:: max(1, len(keys) // 12)] + keys[-1:]
        if key_type is DataType.STR:
            probes.append("zzz")
        elif keys:
            probes.append(keys[-1] + 1)
        return loaded, inserted, probes

    @pytest.mark.parametrize("name", list(CASES))
    def test_equivalent_to_inserts(self, name):
        loaded, inserted, probes = self._pair(name)
        _assert_same_answers(loaded, inserted, probes)
        if name in ("int_duplicate_runs", "float", "str"):
            assert loaded.height() >= 2  # the separators were exercised

    @pytest.mark.parametrize("name", ["int_duplicate_runs", "str"])
    def test_inserts_and_deletes_after_the_load(self, name):
        loaded, inserted, probes = self._pair(name)
        victims = list(loaded.scan_all())[::3]
        fresh = [(key, RID(10_000 + i, 0)) for i, key in enumerate(probes * 40)]
        for tree in (loaded, inserted):
            for key, rid in victims:
                assert tree.delete(key, rid)
            for key, rid in fresh:  # packed leaves split like any full leaf
                tree.insert(key, rid)
        _assert_same_answers(loaded, inserted, probes)

    def test_result_is_deterministic_and_packed(self):
        entries = [(i % 50, RID(i, 0)) for i in range(3000)]
        pages = []
        for seed in (1, 2):
            shuffled = list(entries)
            random.Random(seed).shuffle(shuffled)
            tree = make_tree()
            tree.bulk_load(shuffled)
            disk = tree.pool.disk
            tree.pool.flush_all()
            pages.append([bytes(disk.read_page(i)) for i in range(disk.page_count)])
        assert pages[0] == pages[1]
        # 3000 sixteen-byte entries in 4089-byte budgets: 12 leaves + a root
        # (+ the empty root the constructor made, now orphaned).
        assert len(pages[0]) == 14

    def test_survives_close_and_reopen(self, tmp_path):
        path = str(tmp_path / "index.dat")
        entries = [(i % 300, RID(i, i % 7)) for i in range(4000)]
        with DiskManager(path) as disk:
            pool = BufferPool(disk, capacity=8)
            root = BPlusTree(pool, DataType.INT).bulk_load(entries)
            pool.flush_all()
        with DiskManager(path) as disk:
            tree = BPlusTree(BufferPool(disk, capacity=8), DataType.INT, root_page_id=root)
            assert sorted(_entries(tree)) == sorted((k, r.page_id, r.slot) for k, r in entries)
            assert len(tree.search(17)) == 14
            tree.insert(17, RID(99_999, 0))
            assert len(tree.search(17)) == 15

    def test_create_index_and_rebuild_do_not_loop_over_insert(self, paper_db, monkeypatch):
        def no_insert(self, key, rid):
            raise AssertionError("per-row insert during a bulk build")

        monkeypatch.setattr(BPlusTree, "insert", no_insert)
        index = paper_db.create_index("States", "Population")
        assert len(list(index.range_scan())) == 50
        index.tree.bulk_rebuild(index.tree.scan_all())
        assert len(list(index.range_scan())) == 50


class TestFixedWidthNodes:
    def test_wrong_key_length_is_a_storage_error(self):
        tree = make_tree()
        tree.bulk_load((i, RID(i, 0)) for i in range(10))
        with tree.pool.pin(tree.root_page_id) as guard:
            guard.data[7 + 16 * 4] = 9  # the fifth entry's key_len
        with pytest.raises(StorageError, match="corrupt index node"):
            tree.search(3)


class TestDatabaseIntegration:
    def test_create_index_and_query(self, paper_db):
        paper_db.create_index("States", "Population")
        index = paper_db.table("States").index_on("Population")
        assert index is not None
        rids = index.search(614)  # Alaska's 1998 population (thousands)
        rows = [paper_db.table("States").read(r) for r in rids]
        assert rows == [("Alaska", 614, "Juneau")]

    def test_index_maintained_on_insert_delete(self, paper_db):
        paper_db.create_index("Sigs", "Name")
        sigs = paper_db.table("Sigs")
        rid = sigs.insert(("SIGTEST",))
        assert sigs.index_on("Name").search("SIGTEST") == [rid]
        sigs.delete_where(lambda row: row[0] == "SIGTEST")
        assert sigs.index_on("Name").search("SIGTEST") == []

    def test_index_maintained_on_update(self, paper_db):
        paper_db.create_index("States", "Name")
        states = paper_db.table("States")
        states.update_where(
            lambda row: row[0] == "Utah", lambda row: ("Deseret", row[1], row[2])
        )
        index = states.index_on("Name")
        assert index.search("Utah") == []
        assert len(index.search("Deseret")) == 1

    def test_duplicate_index_rejected(self, paper_db):
        paper_db.create_index("States", "Name")
        with pytest.raises(Exception, match="already exists"):
            paper_db.create_index("States", "Name")

    def test_drop_table_drops_indexes(self, paper_db):
        paper_db.create_index("Movies", "Title")
        paper_db.drop_table("Movies")
        assert paper_db.index_names() == []

    def test_index_persistence(self, tmp_path):
        from repro.storage import Database

        directory = str(tmp_path / "db")
        with Database(directory) as db:
            table = db.create_table(
                "T", [("A", DataType.INT), ("B", DataType.STR)]
            )
            table.insert_many([(i % 10, "r{}".format(i)) for i in range(500)])
            db.create_index("T", "A")
        with Database(directory) as db:
            index = db.table("T").index_on("A")
            assert len(index.search(3)) == 50
            # And maintenance still works after reopen.
            rid = db.table("T").insert((3, "new"))
            assert rid in index.search(3)


class TestPlannerUsesIndex:
    def _indexed_engine(self, paper_db, web):
        from repro.wsq import WsqEngine

        paper_db.create_index("States", "Population")
        paper_db.create_index("States", "Name")
        return WsqEngine(database=paper_db, web=web)

    def test_equality_uses_index(self, paper_db, web):
        engine = self._indexed_engine(paper_db, web)
        plan = engine.plan(
            "Select Population From States Where Name = 'Alaska'", mode="sync"
        )
        assert "IndexScan" in plan.explain()

    def test_range_uses_index(self, paper_db, web):
        engine = self._indexed_engine(paper_db, web)
        sql = "Select Name From States Where Population > 10000 Order By Name"
        plan = engine.plan(sql, mode="sync")
        assert "IndexScan" in plan.explain()
        with_index = engine.execute(sql, mode="sync").rows
        for name in paper_db.index_names():
            paper_db.drop_index(name)
        assert "IndexScan" not in engine.plan(sql, mode="sync").explain()
        without_index = engine.execute(sql, mode="sync").rows
        assert with_index == without_index

    def test_between_uses_index(self, paper_db, web):
        engine = self._indexed_engine(paper_db, web)
        plan = engine.plan(
            "Select Name From States Where Population Between 600 and 700",
            mode="sync",
        )
        assert "IndexScan" in plan.explain()

    def test_multi_relation_requires_qualifier(self, paper_db, web):
        engine = self._indexed_engine(paper_db, web)
        plan = engine.plan(
            "Select S.Name, Count From States S, WebCount "
            "Where S.Name = T1 and S.Population > 10000",
            mode="sync",
        )
        assert "IndexScan" in plan.explain()

    def test_create_index_statement(self, engine):
        engine.run("Create Index idx_cap On States (Capital)")
        assert "idx_cap" in engine.database.index_names()
        engine.run("Drop Index idx_cap")
        assert engine.database.index_names() == []


class TestModelBased:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=200,
        )
    )
    def test_matches_sorted_list_model(self, operations):
        tree = make_tree(capacity=32)
        model = []  # list of (key, serial)
        serial = 0
        for action, key in operations:
            if action == "insert":
                tree.insert(key, RID(serial, 0))
                model.append((key, serial))
                serial += 1
            elif model:
                victim_key, victim_serial = model[0]
                assert tree.delete(victim_key, RID(victim_serial, 0))
                model.pop(0)
        expected = sorted((k, s) for k, s in model)
        actual = sorted((k, r.page_id) for k, r in tree.scan_all())
        assert actual == expected
