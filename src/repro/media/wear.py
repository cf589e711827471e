"""Wear-leveling engine.

The paper's policy prober (Section III-D) finds that repeated 256B
overwrites hit a >100x tail latency roughly every 14,000 iterations
(3.4MB written to the same region), and that the tails all but disappear
once the overwritten region exceeds 64KB — implying the wear-leveler
tracks and migrates 64KB blocks.

This module implements that behaviour: per-64KB-block write counters, a
migration threshold, a remap table (the AIT's media indirection), and a
block-copy migration whose duration stalls in-flight writes to the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.units import KIB, US, is_power_of_two
from repro.engine.stats import StatsRegistry


@dataclass(frozen=True)
class WearConfig:
    """Wear-leveling parameters (defaults = LENS-characterized values)."""

    block_bytes: int = 64 * KIB
    #: media writes to one block before it is migrated; ~14,000 256B
    #: overwrite iterations per tail event in the paper's Figure 7b.
    migrate_threshold: int = 14_000
    #: duration of one 64KB block migration (the measured tail is tens of
    #: microseconds; Figure 7b shows ~10-60us spikes).
    migration_ps: int = 50 * US
    #: optional counter aging: every this-many total media writes the
    #: per-block counters are halved (0 disables).  Disabled by default:
    #: the Figure 7c frequency drop needs no decay — writing a fixed
    #: volume across two or more wear blocks leaves every per-block count
    #: under the migration threshold, so migrations stop by quantization
    #: alone — and plain accumulating counters are what let YCSB's hot
    #: lines trigger migrations disproportionately (Fig. 12b).
    decay_window_writes: int = 0

    def __post_init__(self) -> None:
        if not is_power_of_two(self.block_bytes):
            raise ConfigError(f"block size must be a power of two: {self.block_bytes}")
        if self.migrate_threshold <= 0:
            raise ConfigError("migrate_threshold must be positive")


class WearLeveler:
    """Tracks block wear, remaps blocks, and injects migration stalls."""

    def __init__(
        self,
        config: WearConfig,
        capacity_bytes: int,
        stats: Optional[StatsRegistry] = None,
        track_line_wear: bool = False,
        flight=None,
        faults=None,
    ) -> None:
        from repro.faults.injector import NULL_FAULTS
        from repro.flight.recorder import NULL_FLIGHT
        self.config = config
        self.capacity_bytes = capacity_bytes
        self.nblocks = max(1, capacity_bytes // config.block_bytes)
        self._block_bytes = config.block_bytes
        self.stats = stats or StatsRegistry()
        self.track_line_wear = track_line_wear
        self.flight = flight if flight is not None else NULL_FLIGHT
        self.faults = faults if faults is not None else NULL_FAULTS

        self._write_counts: Dict[int, int] = {}
        self.migration_counts: Dict[int, int] = {}  # block -> migrations
        #: start-gap-style rotation: logical block b currently lives at
        #: physical block (b + generation_b) mod nblocks
        self._remap: Dict[int, int] = {}
        self._blocked_until: Dict[int, int] = {}
        self.line_wear: Dict[int, int] = {}  # 256B line -> media write count

        self._migrations = self.stats.counter("wear.migrations")
        self._stall_ps = self.stats.counter("wear.stall_ps")
        self._writes = self.stats.counter("wear.media_writes")

    def translate(self, addr: int) -> int:
        """Logical media address -> physical media address after remap."""
        block_bytes = self._block_bytes
        block = addr // block_bytes
        physical = (block + self._remap.get(block, 0)) % self.nblocks
        return physical * block_bytes + addr % block_bytes

    def block_write_count(self, addr: int) -> int:
        """Writes accumulated toward migration for the block of ``addr``."""
        return self._write_counts.get(addr // self._block_bytes, 0)

    def on_write(self, addr: int, now: int) -> Tuple[int, bool]:
        """Account one 256B media write to ``addr`` at time ``now``.

        Returns ``(ready_time, migrated)``: the time the write may proceed
        (delayed past ``now`` when it lands in a block that is migrating
        or that this write pushed over the wear threshold), and whether
        this write triggered a migration.
        """
        cfg = self.config
        block = addr // self._block_bytes
        self._writes.value += 1
        if (cfg.decay_window_writes
                and self._writes.value % cfg.decay_window_writes == 0):
            # Optional hot-block counter aging.
            self._write_counts = {
                b: c // 2 for b, c in self._write_counts.items() if c > 1
            }
        if self.track_line_wear:
            line = addr // 256 * 256
            self.line_wear[line] = self.line_wear.get(line, 0) + 1

        ready = now
        blocked = self._blocked_until.get(block, 0)
        if blocked > ready:
            ready = blocked

        count = self._write_counts.get(block, 0) + 1
        if count >= cfg.migrate_threshold:
            # Migrate: copy the 64KB block to a spare location.  In-flight
            # and subsequent writes to this block stall until the copy ends.
            self._write_counts[block] = 0
            if self.nblocks > 1:
                self._remap[block] = self._remap.get(block, 0) + 1
            migration_ps = cfg.migration_ps
            fa = self.faults
            if fa.enabled:
                # media-latency episodes stretch the 64KB block copy too
                migration_ps += fa.migration_extra_ps(ready, cfg.migration_ps)
            end = ready + migration_ps
            self._blocked_until[block] = end
            self._migrations.add()
            self.migration_counts[block] = self.migration_counts.get(block, 0) + 1
            self._stall_ps.add(end - now)
            if self.flight.active:
                self.flight.span("media.wear", now, end, phase="migrate",
                                 block=f"0x{block * cfg.block_bytes:x}")
            return end, True
        self._write_counts[block] = count
        if ready > now:
            self._stall_ps.add(ready - now)
            if self.flight.active:
                self.flight.span("media.wear", now, ready, phase="stall")
        return ready, False

    def on_read(self, addr: int, now: int) -> int:
        """Reads also stall while their block is mid-migration."""
        blocked = self._blocked_until.get(addr // self._block_bytes, 0)
        if blocked > now:
            if self.flight.active:
                self.flight.span("media.wear", now, blocked, phase="stall")
            return blocked
        return now

    @property
    def migrations(self) -> int:
        return self._migrations.value

    def publish(self, bus, prefix: str = "wear") -> None:
        """Register pull-gauges for wear state on an instrument bus.

        The push-counters (migrations, stall time, media writes) already
        live in the shared stats registry; these gauges expose the
        *structural* state — how many blocks have accumulated wear and
        how many have been remapped — without any hot-path recording.
        """
        bus.gauge(f"{prefix}.blocks_tracked", lambda: len(self._write_counts))
        bus.gauge(f"{prefix}.blocks_remapped", lambda: len(self._remap))
        bus.gauge(f"{prefix}.hot_lines_tracked", lambda: len(self.line_wear))

    def top_written_lines(self, n: int = 10):
        """The ``n`` most-written 256B lines (requires track_line_wear)."""
        ranked = sorted(self.line_wear.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:n]

    def reset(self) -> None:
        self._write_counts.clear()
        self.migration_counts.clear()
        self._remap.clear()
        self._blocked_until.clear()
        self.line_wear.clear()
        self._migrations.reset()
        self._stall_ps.reset()
        self._writes.reset()
