"""CPU caches: geometry, LRU, write-back, hierarchy composition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.common.units import KIB
from repro.cpu.cache import Cache, CacheConfig, CacheHierarchy

SMALL = CacheConfig("T", 4 * KIB, 4, 2)  # 16 sets x 4 ways


def test_geometry():
    assert SMALL.nsets == 16


def test_invalid_geometry():
    with pytest.raises(ConfigError):
        CacheConfig("bad", 4 * KIB + 64, 4, 2)


def test_miss_then_hit():
    cache = Cache(SMALL)
    assert not cache.lookup(0, False)
    cache.fill(0)
    assert cache.lookup(0, False)
    assert cache.hits == 1 and cache.misses == 1


def test_lru_eviction_order():
    cache = Cache(SMALL)
    set_stride = SMALL.nsets * 64  # same-set addresses
    for i in range(4):
        cache.fill(i * set_stride)
    cache.lookup(0, False)          # refresh line 0
    cache.fill(4 * set_stride)      # evicts LRU = line 1
    assert cache.contains(0)
    assert not cache.contains(set_stride)


def test_dirty_eviction_returns_victim():
    cache = Cache(SMALL)
    set_stride = SMALL.nsets * 64
    cache.fill(0, dirty=True)
    for i in range(1, 4):
        cache.fill(i * set_stride)
    victim = cache.fill(4 * set_stride)
    assert victim == 0


def test_clean_eviction_returns_none():
    cache = Cache(SMALL)
    set_stride = SMALL.nsets * 64
    for i in range(5):
        assert cache.fill(i * set_stride) is None


def test_write_hit_marks_dirty():
    cache = Cache(SMALL)
    set_stride = SMALL.nsets * 64
    cache.fill(0)
    cache.lookup(0, True)  # write hit dirties the line
    for i in range(1, 4):
        cache.fill(i * set_stride)
    assert cache.fill(4 * set_stride) == 0


def test_invalidate():
    cache = Cache(SMALL)
    cache.fill(0)
    cache.invalidate(0)
    assert not cache.contains(0)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
def test_occupancy_never_exceeds_capacity(lines):
    cache = Cache(SMALL)
    for line in lines:
        addr = line * 64
        if not cache.lookup(addr, False):
            cache.fill(addr)
    resident = sum(len(s) for s in cache._sets.values())
    assert resident <= SMALL.capacity_bytes // 64
    for cset in cache._sets.values():
        assert len(cset) <= SMALL.ways


@given(st.lists(st.integers(0, 63), min_size=1, max_size=100))
def test_rereference_always_hits(lines):
    """Property: a line just filled or hit is resident (top of LRU)."""
    cache = Cache(SMALL)
    for line in lines:
        addr = line * 64
        if not cache.lookup(addr, False):
            cache.fill(addr)
        assert cache.contains(addr)


class TestHierarchy:
    def test_miss_propagates_to_mem(self):
        h = CacheHierarchy()
        level, cycles, victims = h.access(0, False)
        assert level == "mem"
        assert cycles == (h.l1.config.latency_cycles
                          + h.l2.config.latency_cycles
                          + h.l3.config.latency_cycles)
        assert victims == []

    def test_second_access_hits_l1(self):
        h = CacheHierarchy()
        h.access(0, False)
        level, cycles, _ = h.access(0, False)
        assert level == "l1"
        assert cycles == h.l1.config.latency_cycles

    def test_l1_eviction_falls_to_l2(self):
        h = CacheHierarchy()
        h.access(0, False)
        # evict line 0 from L1 (same-set fills) but it stays in L2
        set_stride = h.l1.config.nsets * 64
        for i in range(1, 9):
            h.access(i * set_stride, False)
        level, _, _ = h.access(0, False)
        assert level in ("l2", "l3")

    def test_dirty_l3_victims_surface(self):
        h = CacheHierarchy()
        h.access(0, True)  # dirty in L1
        # push it down and out: fill way past L3 associativity in one set
        stride = h.l3.config.nsets * 64
        victims = []
        for i in range(1, 40):
            _, _, v = h.access(i * stride, False)
            victims.extend(v)
        assert 0 in victims

    def test_miss_rate_accounting(self):
        h = CacheHierarchy()
        h.access(0, False)
        h.access(0, False)
        assert h.llc_misses == 1
        assert 0 < h.llc_miss_rate <= 1
