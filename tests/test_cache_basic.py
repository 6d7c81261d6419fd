"""Set-associative LRU cache mechanics over per-set recency dicts."""

from repro.cache import SetAssociativeCache
from repro.config import CacheConfig


def small_cache(assoc=2, sets=4):
    config = CacheConfig("T", size_bytes=64 * assoc * sets,
                         associativity=assoc, latency_cycles=1)
    return SetAssociativeCache(config)


def addr(set_index, tag, sets=4):
    """A block address mapping to (set_index) with distinct tag."""
    return (tag * sets + set_index) * 64


class TestLookupFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(0) is False
        cache.fill(0)
        assert cache.lookup(0) is True
        assert cache.sets[0] == {0: None}  # set 0 holds block 0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_contains(self):
        cache = small_cache()
        cache.fill(128)
        assert cache.contains(128)
        assert not cache.contains(64)

    def test_block_alignment_internal(self):
        cache = small_cache()
        cache.fill(0)
        # Any address within the block maps to the same line.
        assert cache.lookup(63)
        assert cache.contains(0) and cache.contains(63)
        assert len(cache) == 1

    def test_payload_stored(self):
        cache = small_cache()
        cache.fill(0, payload=b"hello")
        assert cache.sets[0][0] == b"hello"

    def test_refill_updates_payload(self):
        cache = small_cache()
        cache.fill(0, payload=b"a")
        cache.fill(0, payload=b"b")
        assert cache.sets[0][0] == b"b"

    def test_refill_keeps_dirty(self):
        cache = small_cache()
        cache.fill(0, dirty=True)
        cache.fill(0, dirty=False)
        assert cache.dirty == {0}


class TestEviction:
    def test_eviction_on_conflict(self):
        cache = small_cache(assoc=2, sets=4)
        a, b, c = addr(0, 0), addr(0, 1), addr(0, 2)
        cache.fill(a)
        cache.fill(b)
        evicted = cache.fill(c)
        assert evicted is not None
        assert evicted.address == a        # LRU victim
        assert not cache.contains(a)

    def test_lru_order_respects_hits(self):
        cache = small_cache(assoc=2, sets=4)
        a, b, c = addr(0, 0), addr(0, 1), addr(0, 2)
        cache.fill(a)
        cache.fill(b)
        cache.lookup(a)                    # a becomes MRU
        evicted = cache.fill(c)
        assert evicted.address == b

    def test_dirty_eviction_flagged(self):
        cache = small_cache(assoc=1, sets=4)
        cache.fill(addr(0, 0), dirty=True)
        evicted = cache.fill(addr(0, 1))
        assert evicted.dirty
        assert cache.stats.dirty_evictions == 1

    def test_no_cross_set_interference(self):
        cache = small_cache(assoc=1, sets=4)
        cache.fill(addr(0, 0))
        cache.fill(addr(1, 0))
        assert cache.contains(addr(0, 0))
        assert cache.contains(addr(1, 0))


class TestInvalidate:
    def test_invalidate_present(self):
        cache = small_cache()
        cache.fill(0, dirty=True)
        evicted = cache.invalidate(0)
        assert evicted.dirty
        assert not cache.contains(0)
        assert cache.stats.invalidations == 1

    def test_invalidate_absent(self):
        cache = small_cache()
        assert cache.invalidate(0) is None

    def test_flush_all_returns_dirty(self):
        cache = small_cache(assoc=8, sets=8)
        cache.fill(0, dirty=True)
        cache.fill(64, dirty=False)
        dirty = cache.flush_all()
        assert [e.address for e in dirty] == [0]
        assert len(cache) == 0

    def test_way_reusable_after_invalidate(self):
        cache = small_cache(assoc=1, sets=4)
        cache.fill(addr(0, 0))
        cache.invalidate(addr(0, 0))
        assert cache.fill(addr(0, 1)) is None   # no eviction needed

    def test_set_below_capacity_evicts_nothing_in_insertion_order(self):
        cache = small_cache(assoc=4, sets=4)
        for tag in range(4):
            cache.fill(addr(0, tag))
        cache.invalidate(addr(0, 2))
        cache.invalidate(addr(0, 1))
        assert cache.fill(addr(0, 7)) is None   # two ways free
        assert cache.fill(addr(0, 1)) is None
        assert list(cache.sets[0]) == [0, 3 * 4, 7 * 4, 1 * 4]
        assert cache.stats.evictions == 0


class TestReplacementPolicies:
    def test_stats_rates(self):
        cache = small_cache()
        cache.lookup(0)
        cache.fill(0)
        cache.lookup(0)
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.miss_rate == 0.5
