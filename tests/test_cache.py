"""Unit tests for the set-associative LRU cache models."""

import pytest

from repro.uarch import Cache, CacheConfig, CacheHierarchy, simulate_cache


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(1024, 2, 32)
        assert config.lines == 32
        assert config.ways == 2
        assert config.sets == 16

    def test_fully_associative(self):
        config = CacheConfig(1024, "full", 32)
        assert config.ways == 32
        assert config.sets == 1

    def test_labels(self):
        assert CacheConfig(256, 1, 32).label() == "256B/1way/32B"
        assert CacheConfig(16 * 1024, "full", 32).label() == "16KB/full/32B"

    @pytest.mark.parametrize("size,assoc,line", [
        (0, 1, 32), (100, 1, 32), (1024, 3, 32), (1024, 1, 0),
    ])
    def test_bad_geometry_rejected(self, size, assoc, line):
        with pytest.raises(ValueError):
            CacheConfig(size, assoc, line)

    @pytest.mark.parametrize("line", [3, 24, 48, 96])
    def test_non_power_of_two_line_rejected(self, line):
        # Every replay indexes blocks by ``address >> line_shift``, which
        # is only the line number when the line size is a power of two.
        with pytest.raises(ValueError, match="power of two"):
            CacheConfig(line * 10, 1, line)

    def test_line_shift(self):
        assert CacheConfig(1024, 1, 32).line_shift == 5
        assert CacheConfig(1024, 1, 1).line_shift == 0


class TestCacheBehaviour:
    def test_first_access_misses_second_hits(self):
        cache = Cache(CacheConfig(256, 1, 32))
        assert cache.access(0x100) is False
        assert cache.access(0x100) is True
        assert cache.access(0x11C) is True  # same 32B line

    def test_direct_mapped_conflict(self):
        cache = Cache(CacheConfig(256, 1, 32))  # 8 sets
        cache.access(0x0)
        assert cache.access(0x100) is False  # same set, different tag
        assert cache.access(0x0) is False  # evicted

    def test_two_way_avoids_that_conflict(self):
        cache = Cache(CacheConfig(256, 2, 32))
        cache.access(0x0)
        cache.access(0x200)
        assert cache.access(0x0) is True

    def test_lru_eviction_order(self):
        cache = Cache(CacheConfig(64, "full", 32))  # 2 lines
        cache.access(0x00)
        cache.access(0x20)
        cache.access(0x00)  # refresh line 0
        cache.access(0x40)  # evicts 0x20 (LRU), not 0x00
        assert cache.contains(0x00)
        assert not cache.contains(0x20)

    def test_resident_lines_bounded(self):
        config = CacheConfig(256, 2, 32)
        cache = Cache(config)
        for address in range(0, 4096, 32):
            cache.access(address)
        assert cache.resident_lines() <= config.lines

    def test_flush(self):
        cache = Cache(CacheConfig(256, 1, 32))
        cache.access(0)
        cache.flush()
        assert cache.stats.accesses == 0
        assert not cache.contains(0)

    def test_flush_reuses_stats_object(self):
        # Callers holding a reference to cache.stats (e.g. hierarchies
        # that expose it) must see the reset, not a stale snapshot.
        cache = Cache(CacheConfig(256, 1, 32))
        held = cache.stats
        cache.access(0)
        cache.access(64)
        cache.flush()
        assert cache.stats is held
        assert (held.accesses, held.misses, held.evictions) == (0, 0, 0)

    def test_stats_accounting(self):
        stats = simulate_cache([0, 0, 32, 64, 0], CacheConfig(256, "full", 32))
        assert stats.accesses == 5
        assert stats.misses == 3
        assert stats.hits == 2
        assert stats.miss_rate == pytest.approx(0.6)
        assert stats.misses_per_instruction(30) == pytest.approx(0.1)

    def test_cyclic_thrash_fully_associative(self):
        # Classic LRU pathology: cyclic walk one line beyond capacity.
        config = CacheConfig(128, "full", 32)  # 4 lines
        addresses = [32 * (i % 5) for i in range(100)]
        stats = simulate_cache(addresses, config)
        assert stats.miss_rate == 1.0

    def test_bigger_cache_never_misses_more_on_streams(self):
        addresses = [4 * i for i in range(2000)] * 2
        small = simulate_cache(addresses, CacheConfig(256, "full", 32))
        large = simulate_cache(addresses, CacheConfig(16384, "full", 32))
        assert large.misses <= small.misses


class TestHierarchy:
    def make(self):
        return CacheHierarchy(
            CacheConfig(256, 1, 32), CacheConfig(256, 1, 32),
            CacheConfig(1024, 2, 64), l1_latency=1, l2_latency=8,
            memory_latency=40)

    def test_l1_hit_latency(self):
        hierarchy = self.make()
        hierarchy.access_data(0x40)
        assert hierarchy.access_data(0x40) == 1

    def test_l2_hit_latency(self):
        hierarchy = self.make()
        hierarchy.access_data(0x40)
        # Evict from tiny L1 with conflicting lines; L2 still holds it.
        for address in (0x140, 0x240, 0x340):
            hierarchy.access_data(address)
        assert hierarchy.access_data(0x40) == 8

    def test_memory_latency_on_cold_miss(self):
        hierarchy = self.make()
        assert hierarchy.access_data(0x40) == 48  # l2 + memory

    def test_instruction_side_separate(self):
        hierarchy = self.make()
        hierarchy.access_instruction(0x40)
        assert hierarchy.l1i.stats.accesses == 1
        assert hierarchy.l1d.stats.accesses == 0

    def test_no_l2(self):
        hierarchy = CacheHierarchy(CacheConfig(256, 1, 32),
                                   CacheConfig(256, 1, 32), None,
                                   memory_latency=40)
        assert hierarchy.access_data(0) == 40
        assert hierarchy.access_data(0) == 1


class TestEvictionStats:
    def test_no_evictions_until_capacity(self):
        cache = Cache(CacheConfig(256, "full", 32))  # 8 lines
        for i in range(8):
            cache.access(i * 32)
        assert cache.stats.evictions == 0
        assert cache.occupancy() == 1.0
        cache.access(8 * 32)
        assert cache.stats.evictions == 1

    def test_snapshot_block(self):
        cache = Cache(CacheConfig(64, 1, 32))  # 2 lines, direct mapped
        cache.access(0)
        cache.access(64)  # conflicts with 0
        snap = cache.stats.snapshot()
        assert snap["accesses"] == 2
        assert snap["misses"] == 2
        assert snap["evictions"] == 1
        assert snap["miss_rate"] == 1.0

    def test_flush_resets_evictions(self):
        cache = Cache(CacheConfig(64, 1, 32))
        cache.access(0)
        cache.access(64)
        cache.flush()
        assert cache.stats.evictions == 0
        assert cache.occupancy() == 0.0
