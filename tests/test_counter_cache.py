"""The counter (IV) cache: lookups, evictions, persistence flush."""

import pytest

from repro.cache import CounterCache
from repro.config import CounterCacheConfig
from repro.core.iv import CounterBlock


def make_cache(size=1024, assoc=2, policy="writeback"):
    return CounterCache(CounterCacheConfig(size_bytes=size, associativity=assoc,
                                           write_policy=policy))


class TestBasics:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(7) is None
        cache.fill(7, CounterBlock.fresh(64))
        assert cache.lookup(7) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_capacity_entries(self):
        assert make_cache(size=1024).capacity_entries == 16

    def test_eviction_reports_page(self):
        cache = make_cache(size=2 * 64, assoc=1)   # 2 sets, 1 way
        cache.fill(0, CounterBlock.fresh(4))
        evicted = cache.fill(2, CounterBlock.fresh(4))  # same set as 0
        assert evicted is not None
        assert evicted.page_id == 0

    def test_dirty_eviction(self):
        cache = make_cache(size=2 * 64, assoc=1)
        cache.fill(0, CounterBlock.fresh(4), dirty=True)
        evicted = cache.fill(2, CounterBlock.fresh(4))
        assert evicted.dirty

    def test_mark_dirty(self):
        cache = make_cache()
        cache.fill(3, CounterBlock.fresh(4))
        cache.mark_dirty(3)
        assert cache.dirty_entries() == [(3, cache.peek(3))]

    def test_invalidate(self):
        cache = make_cache()
        cache.fill(3, CounterBlock.fresh(4), dirty=True)
        evicted = cache.invalidate(3)
        assert evicted.page_id == 3 and evicted.dirty
        assert cache.lookup(3) is None

    def test_write_through_flag(self):
        assert make_cache(policy="writethrough").write_through
        assert not make_cache(policy="writeback").write_through


class TestFlush:
    def test_flush_returns_dirty_only(self):
        cache = make_cache()
        cache.fill(1, CounterBlock.fresh(4), dirty=True)
        cache.fill(2, CounterBlock.fresh(4), dirty=False)
        flushed = cache.flush()
        assert [e.page_id for e in flushed] == [1]
        assert all(e.dirty for e in flushed)

    def test_flush_marks_clean(self):
        cache = make_cache()
        cache.fill(1, CounterBlock.fresh(4), dirty=True)
        cache.flush()
        assert cache.dirty_entries() == []
        # A second flush writes nothing.
        assert cache.flush() == []

    def test_flush_preserves_contents(self):
        cache = make_cache()
        block = CounterBlock.fresh(4)
        block.shred()
        cache.fill(9, block, dirty=True)
        flushed = cache.flush()
        assert flushed[0].block.all_shredded()
        assert cache.peek(9).all_shredded()

    def test_flush_sink_removed(self):
        cache = make_cache()
        cache.fill(1, CounterBlock.fresh(4), dirty=True)
        seen = []
        with pytest.raises(TypeError, match="flush\\(sink\\) was removed"):
            cache.flush(lambda page, block: seen.append(page))
        assert seen == []                       # sink never invoked
        assert cache.dirty_entries() != []      # nothing flushed either
        assert [e.page_id for e in cache.flush()] == [1]


class TestGeometry:
    def test_len_tracks_entries(self):
        cache = make_cache()
        for page in range(5):
            cache.fill(page, CounterBlock.fresh(4))
        assert len(cache) == 5

    def test_conflicting_pages_share_set(self):
        cache = make_cache(size=4 * 64, assoc=1)   # 4 sets
        cache.fill(1, CounterBlock.fresh(4))
        cache.fill(5, CounterBlock.fresh(4))       # 5 % 4 == 1: conflict
        assert cache.lookup(1) is None
        assert cache.lookup(5) is not None
