"""Command-level DDR4 controller.

For each line access the controller issues the minimal legal command
sequence (PRE/ACT/RD or WR plus lazy REF), tracking every JEDEC timing
constraint from :class:`~repro.dram.timing.DDR4Timing`.  It is an
open-page FCFS controller by default (closed-page optional); the command
stream can be recorded and replayed through the protocol checker.

Every access of the on-DIMM DRAM and of every DRAM baseline runs
through :meth:`DramController.access`, so it is written as one flat
method: timings are converted to picoseconds once at construction, the
address decode is shifts and masks, and commands are only built when
``record_commands`` is set.  :mod:`repro.dram.verifier` is the
independent legality reference for the streams it produces.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.common.errors import ConfigError
from repro.dram.address import LINE_SHIFT, AddressMapping
from repro.dram.command import Command, CmdType
from repro.dram.timing import DDR4Timing
from repro.engine.stats import StatsRegistry

_NEVER = -(10**15)  # "long ago": an ACT time no constraint can reach


class _BankState:
    __slots__ = ("open_row", "act_ps", "pre_ready_ps", "act_ready_ps")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.act_ps = 0
        self.pre_ready_ps = 0  # earliest legal PRE
        self.act_ready_ps = 0  # earliest legal ACT


class DramController:
    """One channel of DDR4: banks, timing state, and command generation."""

    def __init__(
        self,
        timing: DDR4Timing,
        mapping: Optional[AddressMapping] = None,
        row_policy: str = "open",
        record_commands: bool = False,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        if row_policy not in ("open", "closed"):
            raise ConfigError(f"unknown row policy {row_policy!r}")
        self.timing = timing
        self.mapping = mapping or AddressMapping()
        self.row_policy = row_policy
        self.record_commands = record_commands
        self.commands: List[Command] = []
        self.stats = stats or StatsRegistry()

        # Timings in picoseconds, converted once.
        ps = timing.ps
        burst = ps(timing.burst_cycles)
        self._trcd = ps(timing.trcd)
        self._trp = ps(timing.trp)
        self._trrd = ps(timing.trrd)
        self._tfaw = ps(timing.tfaw)
        self._tras = ps(timing.tras)
        self._trc = ps(timing.trc)
        self._tccd = ps(timing.tccd)
        self._twr = ps(timing.twr)
        self._twtr = ps(timing.twtr)
        self._trtp = ps(timing.trtp)
        self._trfc = ps(timing.trfc)
        self._trefi = ps(timing.trefi)
        self._rd_data = ps(timing.cl) + burst   # RD -> last data beat
        self._wr_data = ps(timing.cwl) + burst  # WR -> end of write burst

        # Address decode: both sizes are powers of two.
        self._col_mask = self.mapping.cols_per_row - 1
        self._bank_shift = self.mapping.bank_shift
        self._bank_mask = self.mapping.nbanks - 1
        self._row_shift = self.mapping.row_shift
        self._closed_page = row_policy == "closed"

        self._banks = [_BankState() for _ in range(self.mapping.nbanks)]
        # ACT times of the last four activations (tFAW); pre-filled so
        # the window check needs no length test.
        self._act_history: Deque[int] = deque([_NEVER] * 4, maxlen=4)
        self._last_act_ps = _NEVER
        self._next_cas_ps = 0          # tCCD spacing between bursts
        self._rd_ready_after_wr_ps = 0  # tWTR
        self._next_refresh_due = self._trefi
        self._blocked_until_ps = 0      # tRFC after a refresh

        self._hits = self.stats.counter("dram.row_hits")
        self._misses = self.stats.counter("dram.row_misses")
        self._reads = self.stats.counter("dram.reads")
        self._writes = self.stats.counter("dram.writes")
        self._refreshes = self.stats.counter("dram.refreshes")

    def _do_refresh(self, now: int) -> None:
        """Issue any overdue all-bank refreshes before servicing ``now``."""
        record = self.record_commands
        commands = self.commands
        trp = self._trp
        while self._next_refresh_due <= now:
            start = max(self._next_refresh_due, self._blocked_until_ps)
            # All banks must be precharged (tRP elapsed) before REF.  A
            # closed-page PRE may already be scheduled past ``start``; such
            # a bank's act_ready_ps is that PRE plus tRP.
            for bank_id, bank in enumerate(self._banks):
                if bank.open_row is None:
                    if bank.act_ready_ps > start:
                        start = bank.act_ready_ps
                else:
                    pre_time = max(start, bank.pre_ready_ps)
                    if record:
                        commands.append(Command(pre_time, CmdType.PRE, bank_id))
                    bank.open_row = None
                    start = max(start, pre_time + trp)
            if record:
                commands.append(Command(start, CmdType.REF, -1))
            self._refreshes.value += 1
            end = start + self._trfc
            self._blocked_until_ps = end
            for bank in self._banks:
                if bank.act_ready_ps < end:
                    bank.act_ready_ps = end
            self._next_refresh_due += self._trefi

    # -- public API ----------------------------------------------------

    def access(self, addr: int, is_write: bool, now: int) -> int:
        """Perform one 64B access; returns the data completion time.

        For reads this is the time of the last data beat on the bus; for
        writes it is the end of the write burst (write data has entered
        the array interface; durability rules are enforced via tWR before
        any later PRE).
        """
        if now >= self._next_refresh_due:
            self._do_refresh(now)
        record = self.record_commands
        bank_id = (addr >> self._bank_shift) & self._bank_mask
        row = addr >> self._row_shift
        bank = self._banks[bank_id]
        blocked = self._blocked_until_ps
        earliest = now if now > blocked else blocked

        # Open the row: CAS may issue at ``cas_time`` at the earliest.
        if bank.open_row == row:
            self._hits.value += 1
            cas_time = bank.act_ps + self._trcd
            if earliest > cas_time:
                cas_time = earliest
        else:
            self._misses.value += 1
            act_time = earliest
            if bank.open_row is not None:
                pre_time = bank.pre_ready_ps
                if earliest > pre_time:
                    pre_time = earliest
                if record:
                    self.commands.append(Command(pre_time, CmdType.PRE, bank_id))
                limit = pre_time + self._trp
                if limit > bank.act_ready_ps:
                    bank.act_ready_ps = limit
            if bank.act_ready_ps > act_time:
                act_time = bank.act_ready_ps
            limit = self._last_act_ps + self._trrd
            if limit > act_time:
                act_time = limit
            history = self._act_history
            limit = history[0] + self._tfaw
            if limit > act_time:
                act_time = limit
            if record:
                self.commands.append(Command(act_time, CmdType.ACT, bank_id,
                                             row=row))
            bank.open_row = row
            bank.act_ps = act_time
            bank.pre_ready_ps = act_time + self._tras
            bank.act_ready_ps = act_time + self._trc
            self._last_act_ps = act_time
            history.append(act_time)
            cas_time = act_time + self._trcd

        if self._next_cas_ps > cas_time:
            cas_time = self._next_cas_ps
        if is_write:
            if record:
                self.commands.append(Command(
                    cas_time, CmdType.WR, bank_id, row=row,
                    col=(addr >> LINE_SHIFT) & self._col_mask))
            self._writes.value += 1
            data_end = cas_time + self._wr_data
            limit = data_end + self._twr
            if limit > bank.pre_ready_ps:
                bank.pre_ready_ps = limit
            limit = data_end + self._twtr
            if limit > self._rd_ready_after_wr_ps:
                self._rd_ready_after_wr_ps = limit
        else:
            if self._rd_ready_after_wr_ps > cas_time:
                cas_time = self._rd_ready_after_wr_ps
            if record:
                self.commands.append(Command(
                    cas_time, CmdType.RD, bank_id, row=row,
                    col=(addr >> LINE_SHIFT) & self._col_mask))
            self._reads.value += 1
            data_end = cas_time + self._rd_data
            limit = cas_time + self._trtp
            if limit > bank.pre_ready_ps:
                bank.pre_ready_ps = limit
        self._next_cas_ps = cas_time + self._tccd

        if self._closed_page:
            pre_time = bank.pre_ready_ps
            if record:
                self.commands.append(Command(pre_time, CmdType.PRE, bank_id))
            bank.open_row = None
            limit = pre_time + self._trp
            if limit > bank.act_ready_ps:
                bank.act_ready_ps = limit
        return data_end

    @property
    def row_hit_rate(self) -> float:
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0

    def reset(self) -> None:
        """Forget all timing/row state (used between experiment phases)."""
        t = self.timing
        self.__init__(
            timing=t,
            mapping=self.mapping,
            row_policy=self.row_policy,
            record_commands=self.record_commands,
            stats=self.stats,
        )
