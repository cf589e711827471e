"""Set-associative write-back caches.

Timing is returned to the caller (the core model) rather than simulated
per cycle: a lookup reports hit/miss and the level's access latency; the
core composes levels and overlaps misses within its ROB window.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.units import KIB, MIB, is_power_of_two
from repro.engine.request import CACHE_LINE
from repro.engine.stats import StatsRegistry


@dataclass(frozen=True)
class CacheConfig:
    """Geometry + access latency (in core cycles) of one cache level."""

    name: str
    capacity_bytes: int
    ways: int
    latency_cycles: int

    def __post_init__(self) -> None:
        lines = self.capacity_bytes // CACHE_LINE
        if lines % self.ways:
            raise ConfigError(f"{self.name}: lines not divisible by ways")
        if not is_power_of_two(lines // self.ways):
            raise ConfigError(f"{self.name}: set count must be a power of two")

    @property
    def nsets(self) -> int:
        return self.capacity_bytes // CACHE_LINE // self.ways


#: Table V cache hierarchy.
L1D_CONFIG = CacheConfig("L1D", 32 * KIB, 8, 4)
L2_CONFIG = CacheConfig("L2", 1 * MIB, 16, 14)
L3_CONFIG = CacheConfig("L3", 32 * MIB, 16, 42)


#: line-address shift (``addr >> _LINE_SHIFT`` is ``addr // CACHE_LINE``)
_LINE_SHIFT = CACHE_LINE.bit_length() - 1


class Cache:
    """One write-back, write-allocate, LRU set-associative cache.

    Each set is an ``OrderedDict`` of resident line tags to their dirty
    bit, least recently used first.  Sets are created on their first
    fill, so an untouched 32MB L3 costs nothing to build.
    """

    def __init__(self, config: CacheConfig, stats: Optional[StatsRegistry] = None):
        self.config = config
        self.stats = stats or StatsRegistry()
        #: set index -> resident lines; absent until the set's first fill
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        self._mask = config.nsets - 1
        self._ways = config.ways
        self._lat = config.latency_cycles
        self._hits = self.stats.counter(f"{config.name}.hits")
        self._misses = self.stats.counter(f"{config.name}.misses")
        self._writebacks = self.stats.counter(f"{config.name}.writebacks")

    def lookup(self, addr: int, is_write: bool) -> bool:
        """Access the cache; returns hit?.  Hits update LRU and dirty."""
        tag = addr >> _LINE_SHIFT
        cset = self._sets.get(tag & self._mask)
        if cset is not None and tag in cset:
            cset.move_to_end(tag)
            if is_write:
                cset[tag] = True
            self._hits.value += 1
            return True
        self._misses.value += 1
        return False

    def fill(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Install a line; returns the victim's address if a dirty line
        was evicted (the caller writes it back), else None."""
        tag = addr >> _LINE_SHIFT
        index = tag & self._mask
        cset = self._sets.get(index)
        if cset is None:
            cset = self._sets[index] = OrderedDict()
        victim_addr = None
        if len(cset) >= self._ways:
            victim_tag, victim_dirty = cset.popitem(last=False)
            if victim_dirty:
                self._writebacks.value += 1
                victim_addr = victim_tag << _LINE_SHIFT
        cset[tag] = dirty
        return victim_addr

    def contains(self, addr: int) -> bool:
        tag = addr >> _LINE_SHIFT
        cset = self._sets.get(tag & self._mask)
        return cset is not None and tag in cset

    def mark_dirty(self, addr: int) -> bool:
        """Mark a resident line dirty (a dirty write-back from the level
        above landed on it); returns False if the line is absent."""
        tag = addr >> _LINE_SHIFT
        cset = self._sets.get(tag & self._mask)
        if cset is None or tag not in cset:
            return False
        cset[tag] = True
        return True

    def invalidate(self, addr: int) -> None:
        tag = addr >> _LINE_SHIFT
        cset = self._sets.get(tag & self._mask)
        if cset is not None:
            cset.pop(tag, None)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self._hits.reset()
        self._misses.reset()
        self._writebacks.reset()


class CacheHierarchy:
    """L1D -> L2 -> L3 composition returning (level_hit, cycles, misses).

    The returned cycle count covers the on-chip portion only; an L3 miss
    additionally costs the memory backend's latency, which the core adds
    (and overlaps across its ROB window).
    """

    def __init__(
        self,
        l1: CacheConfig = L1D_CONFIG,
        l2: CacheConfig = L2_CONFIG,
        l3: CacheConfig = L3_CONFIG,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.stats = stats or StatsRegistry()
        self.l1 = Cache(l1, self.stats)
        self.l2 = Cache(l2, self.stats)
        self.l3 = Cache(l3, self.stats)

    def access(self, addr: int, is_write: bool) -> Tuple[str, int, List[int]]:
        """Returns (deepest level that hit or "mem", on-chip cycles,
        dirty victim addresses to write back to memory).

        A miss installs the line in every level above the one that hit,
        L1 first.  A dirty victim demotes its dirty state to the first
        lower level holding the line, or becomes a memory write-back.
        """
        l1 = self.l1
        if l1.lookup(addr, is_write):
            return "l1", l1._lat, []
        l2 = self.l2
        l3 = self.l3
        cycles = l1._lat + l2._lat
        if l2.lookup(addr, False):
            level = "l2"
        else:
            cycles += l3._lat
            level = "l3" if l3.lookup(addr, False) else "mem"
        victims: List[int] = []
        victim = l1.fill(addr, is_write)
        if (victim is not None and not l2.mark_dirty(victim)
                and not l3.mark_dirty(victim)):
            victims.append(victim)
        if level != "l2":
            victim = l2.fill(addr, False)
            if victim is not None and not l3.mark_dirty(victim):
                victims.append(victim)
            if level == "mem":
                victim = l3.fill(addr, False)
                if victim is not None:
                    victims.append(victim)
        return level, cycles, victims

    @property
    def llc_misses(self) -> int:
        return self.l3.misses

    @property
    def llc_miss_rate(self) -> float:
        return self.l3.miss_rate

    def reset_stats(self) -> None:
        for cache in (self.l1, self.l2, self.l3):
            cache.reset_stats()
