"""Buffer pool: pinning, LRU eviction, write-back."""

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.util.errors import BufferPoolError


def make_pool(capacity=3, pages=6):
    disk = DiskManager()
    for _ in range(pages):
        disk.allocate_page()
    return BufferPool(disk, capacity=capacity), disk


class TestPinning:
    def test_pin_returns_page_data(self):
        pool, disk = make_pool()
        with pool.pin(0) as guard:
            assert len(guard.data) == disk.page_size
            assert guard.page_id == 0

    def test_pin_miss_then_hit(self):
        pool, _ = make_pool()
        with pool.pin(0):
            pass
        with pool.pin(0):
            pass
        assert pool.hits == 1
        assert pool.misses == 1

    def test_unpin_without_pin_rejected(self):
        pool, _ = make_pool()
        with pytest.raises(BufferPoolError):
            pool.unpin(0)

    def test_nested_pins(self):
        pool, _ = make_pool()
        g1 = pool.pin(0)
        g2 = pool.pin(0)
        g1.__exit__(None, None, None)
        g2.__exit__(None, None, None)
        with pytest.raises(BufferPoolError):
            pool.unpin(0)


class TestEviction:
    def test_lru_eviction_order(self):
        pool, _ = make_pool(capacity=2)
        for page_id in (0, 1):
            with pool.pin(page_id):
                pass
        with pool.pin(0):  # touch 0, making 1 the LRU
            pass
        with pool.pin(2):  # evicts 1
            pass
        assert pool.evictions == 1
        misses = pool.misses
        for page_id in (0, 2):  # still resident: hits
            with pool.pin(page_id):
                pass
        assert (pool.misses, pool.evictions) == (misses, 1)

    def test_pinned_pages_not_evicted(self):
        pool, _ = make_pool(capacity=2)
        g0 = pool.pin(0)
        with pool.pin(1):
            pass
        with pool.pin(2):  # must evict 1, not pinned 0
            pass
        misses = pool.misses
        with pool.pin(0):  # still resident: a hit
            pass
        assert pool.misses == misses
        g0.__exit__(None, None, None)

    def test_all_pinned_raises(self):
        pool, _ = make_pool(capacity=2)
        g0 = pool.pin(0)
        g1 = pool.pin(1)
        with pytest.raises(BufferPoolError, match="pinned"):
            pool.pin(2)
        g0.__exit__(None, None, None)
        g1.__exit__(None, None, None)

    def test_dirty_page_written_back_on_eviction(self):
        pool, disk = make_pool(capacity=1)
        with pool.pin(0) as guard:
            guard.data[0] = 0xAB
            guard.mark_dirty()
        with pool.pin(1):  # evicts dirty page 0
            pass
        assert disk.read_page(0)[0] == 0xAB

    def test_clean_page_not_written_back(self):
        pool, disk = make_pool(capacity=1)
        writes_before = disk.writes
        with pool.pin(0):
            pass
        with pool.pin(1):
            pass
        assert disk.writes == writes_before


class TestFlush:
    def test_flush_all_writes_dirty_pages(self):
        pool, disk = make_pool()
        with pool.pin(2) as guard:
            guard.data[5] = 0x77
            guard.mark_dirty()
        pool.flush_all()
        assert disk.read_page(2)[5] == 0x77

    def test_stats_snapshot(self):
        pool, _ = make_pool(capacity=2)
        with pool.pin(0):
            pass
        stats = pool.stats()
        assert stats["misses"] == 1
        assert stats["capacity"] == 2
        assert stats["resident"] == 1

    def test_new_page_is_pinned(self):
        pool, disk = make_pool(capacity=2, pages=0)
        guard = pool.new_page()
        assert guard.page_id == 0
        assert disk.page_count == 1
        guard.__exit__(None, None, None)

    def test_capacity_validation(self):
        with pytest.raises(BufferPoolError):
            BufferPool(DiskManager(), capacity=0)
