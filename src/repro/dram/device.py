"""A DRAM device: one or more channels behind a line-interleaved front end.

This is the building block for (a) the on-DIMM DRAM inside the Optane
model (single channel, holds AIT table + buffer) and (b) the DRAM main
memory of the baseline server configuration (multi-channel).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ConfigError
from repro.common.units import GIB, is_power_of_two
from repro.dram.address import LINE_SHIFT, AddressMapping
from repro.dram.controller import DramController
from repro.dram.timing import DDR4Timing
from repro.engine.request import CACHE_LINE
from repro.engine.stats import StatsRegistry

_OFFSET_MASK = CACHE_LINE - 1  # byte offset within a line


class DramDevice:
    """Multi-channel DDR4 memory with a 64B-line channel interleave."""

    def __init__(
        self,
        timing: DDR4Timing,
        nchannels: int = 1,
        capacity_bytes: int = 4 * GIB,
        mapping: Optional[AddressMapping] = None,
        row_policy: str = "open",
        record_commands: bool = False,
    ) -> None:
        if not is_power_of_two(nchannels):
            raise ConfigError(f"nchannels must be a power of two, got {nchannels}")
        self.timing = timing
        self.nchannels = nchannels
        self.capacity_bytes = capacity_bytes
        self.stats = StatsRegistry()
        self.channels: List[DramController] = [
            DramController(
                timing,
                mapping=mapping,
                row_policy=row_policy,
                record_commands=record_commands,
                stats=self.stats,
            )
            for _ in range(nchannels)
        ]

        # Line interleave: channel = line & mask, and the channel-local
        # address drops the channel bits from the line number.
        self._chan_mask = nchannels - 1
        self._chan_shift = nchannels.bit_length() - 1
        # Bound once: ``DramController.reset()`` re-runs ``__init__`` on
        # the same objects, so these stay the live channel methods.
        self._accesses = [channel.access for channel in self.channels]

    def _channel_of(self, addr: int) -> int:
        return (addr >> LINE_SHIFT) & self._chan_mask

    def access(self, addr: int, is_write: bool, now: int) -> int:
        """One 64B access; returns the completion time in picoseconds."""
        addr %= self.capacity_bytes
        line = addr >> LINE_SHIFT
        local = (line >> self._chan_shift << LINE_SHIFT) | (addr & _OFFSET_MASK)
        return self._accesses[line & self._chan_mask](local, is_write, now)

    def access_block(self, addr: int, nbytes: int, is_write: bool, now: int) -> int:
        """Access ``nbytes`` starting at ``addr`` line by line.

        Returns the completion time of the final line; consecutive lines
        stream across channels/banks so big blocks (e.g. a 4KB AIT entry
        fill) get realistic pipelined throughput, not nbytes/64 serial
        latencies.
        """
        capacity = self.capacity_bytes
        chan_mask = self._chan_mask
        chan_shift = self._chan_shift
        accesses = self._accesses
        completion = now
        for offset in range(0, max(nbytes, CACHE_LINE), CACHE_LINE):
            line_addr = (addr + offset) % capacity
            line = line_addr >> LINE_SHIFT
            done = accesses[line & chan_mask](
                (line >> chan_shift << LINE_SHIFT) | (line_addr & _OFFSET_MASK),
                is_write, now)
            if done > completion:
                completion = done
        return completion

    def all_commands(self):
        """Concatenated command trace from all channels (if recorded)."""
        out = []
        for channel in self.channels:
            out.extend(channel.commands)
        return out

    @property
    def row_hit_rate(self) -> float:
        hits = self.stats.counter("dram.row_hits").value
        misses = self.stats.counter("dram.row_misses").value
        total = hits + misses
        return hits / total if total else 0.0

    def reset(self) -> None:
        """As-built state: idle channels *and* zeroed device counters
        (row hits/misses etc.), so a warm-cache-reused device is
        indistinguishable from a fresh one."""
        for channel in self.channels:
            channel.reset()
        self.stats.reset()
