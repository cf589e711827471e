"""Trace-driven out-of-order-window core model.

Instructions between memory operations retire at the pipeline width;
memory operations traverse the TLB and cache hierarchy, and LLC misses
overlap up to the core's memory-level parallelism (the ROB/MSHR reach).
Dependent loads (pointer chasing) serialize on their own completion —
the distinction that makes Redis/LinkedList behave like latency-bound
chains while streaming workloads stay bandwidth-bound.

This is the same modeling altitude as the interval-style simulators the
architecture community uses when gem5-level detail is unavailable; Table
V parameters (width, ROB depth, frequencies) set the constants.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Optional

from repro.cpu.cache import CacheHierarchy
from repro.cpu.tlb import TlbHierarchy
from repro.engine.stats import StatsRegistry
from repro.target import TargetSystem


@dataclass(frozen=True)
class CoreConfig:
    """Core pipeline parameters (Table V)."""

    width: int = 4
    freq_mhz: float = 2200.0
    #: outstanding LLC misses the window can cover (MSHRs / ROB reach)
    mlp: int = 10
    #: extra cycles charged to a marked (mkpt) load for the
    #: check-before-read uncertain-bit path
    mkpt_check_cycles: int = 2

    @property
    def cycle_ps(self) -> float:
        return 1e6 / self.freq_mhz


@dataclass
class MemOpStats:
    """Per-phase cycle/instruction attribution (Figure 12a)."""

    instructions: Dict[str, int] = field(default_factory=dict)
    cycles: Dict[str, float] = field(default_factory=dict)
    llc_misses: Dict[str, int] = field(default_factory=dict)
    tlb_misses: Dict[str, int] = field(default_factory=dict)

    def cpi(self, phase: str) -> float:
        instrs = self.instructions.get(phase, 0)
        return self.cycles.get(phase, 0.0) / instrs if instrs else 0.0


class TraceCore:
    """Executes a MemOp trace against caches + TLB + a memory backend."""

    def __init__(
        self,
        backend: TargetSystem,
        config: Optional[CoreConfig] = None,
        caches: Optional[CacheHierarchy] = None,
        tlbs: Optional[TlbHierarchy] = None,
        pretranslation=None,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        from repro.flight.recorder import NULL_FLIGHT
        self.backend = backend
        self.config = config or CoreConfig()
        self.stats = stats or StatsRegistry()
        self.caches = caches or CacheHierarchy(stats=self.stats)
        self.tlbs = tlbs or TlbHierarchy(stats=self.stats)
        self.pretranslation = pretranslation
        # share the backend's flight recorder so LLC-miss windows land in
        # the same record stream as the memory-side spans
        self.flight = getattr(backend, "flight", NULL_FLIGHT)

        self.cycles = 0.0
        self.instructions = 0
        self.phase_stats = MemOpStats()
        self._outstanding: Deque[float] = deque()
        self._measure_cycles0 = 0.0
        self._measure_instr0 = 0

    # ------------------------------------------------------------------

    def _miss(self, paddr: int, level: str, lat: float, victims,
              now: int, read, write) -> float:
        """Write ``victims`` back at ``now`` ps and, on an LLC miss
        (``level == "mem"``), read ``paddr`` from the backend at ``now``.
        Returns ``lat`` plus the read's latency in cycles."""
        for victim in victims:
            write(victim, now)
        if level != "mem":
            return lat
        fl = self.flight
        if fl.enabled:
            # outermost begin: this LLC miss owns the flight record, the
            # backend's own begin/end nests inside it
            fl.begin("read", paddr, issue_ps=now)
        done = read(paddr, now)
        if fl.enabled:
            fl.span("cpu.llc_miss", now, done, phase="window")
            fl.end(done)
        return lat + (done - now) / self.config.cycle_ps

    def execute(self, trace: Iterable, max_ops: Optional[int] = None) -> None:
        """Run the trace (at most ``max_ops`` ops of it, pulling no more
        from an iterator).  Each op is a MemOp (see repro.cpu.system).

        Every memory access goes through ``caches.access``; an LLC miss
        reads the backend at the current cycle, and dirty victims are
        written back at the same instant.  A page walk is a chain of
        cacheable reads whose latencies sum before they are charged.
        The bound methods below are looked up at the top of every call,
        never cached in ``__init__``, so instance-side wrappers installed
        after construction (the host profiler, tracers) see each access.
        """
        cfg = self.config
        width = cfg.width
        mlp = cfg.mlp
        mkpt_check_cycles = cfg.mkpt_check_cycles
        cycle_ps = cfg.cycle_ps
        access = self.caches.access
        l1_lat = self.caches.l1.config.latency_cycles
        translate = self.tlbs.translate
        install = self.tlbs.install
        read = self.backend.read
        write = self.backend.write
        pretranslation = self.pretranslation
        observe = pretranslation.observe if pretranslation is not None else None
        miss = self._miss
        outstanding = self._outstanding
        phase_stats = self.phase_stats
        phase_instr = phase_stats.instructions
        phase_cycles = phase_stats.cycles
        phase_llc = phase_stats.llc_misses
        phase_tlb = phase_stats.tlb_misses
        cycles = self.cycles
        instructions = self.instructions
        try:
            for op in islice(trace, max_ops):
                start_cycles = cycles
                vaddr = op.vaddr
                nonmem = op.nonmem

                # front end: non-memory instructions retire at full width
                cycles += nonmem / width
                instructions += nonmem + 1

                # address translation
                needs_walk, tlb_cycles, walk_addrs = translate(vaddr)
                cycles += tlb_cycles
                if needs_walk:
                    # serialized cacheable page-table reads, all issued
                    # at the cycle the walk starts
                    walk = 0.0
                    for paddr in walk_addrs:
                        level, lat, victims = access(paddr, False)
                        if victims or level == "mem":
                            lat = miss(paddr, level, lat, victims,
                                       int(cycles * cycle_ps), read, write)
                        walk += lat
                    cycles += walk
                    install(vaddr)

                mkpt = op.mkpt and observe is not None
                if mkpt:
                    cycles += mkpt_check_cycles

                # data access; an LLC miss reads the backend
                is_write = op.is_write
                level, lat, victims = access(vaddr, is_write)
                llc_miss = level == "mem"
                if victims or llc_miss:
                    lat = miss(vaddr, level, lat, victims,
                               int(cycles * cycle_ps), read, write)
                if is_write:
                    cycles += min(lat, 4.0)  # stores retire via the buffer
                    if op.persistent:
                        # durable store: clwb/nt-flush to the NVRAM write
                        # queue; cost is the WPQ accept latency, which
                        # grows under backpressure
                        now = int(cycles * cycle_ps)
                        accept = write(vaddr, now)
                        cycles += (accept - now) / cycle_ps
                elif llc_miss and not op.dependent:
                    # overlap within the MLP window
                    completion = cycles + lat
                    if len(outstanding) >= mlp:
                        gate = outstanding.popleft()
                        if gate > cycles:
                            cycles = gate
                    outstanding.append(completion)
                    cycles += l1_lat
                else:
                    cycles += lat

                # Pre-translation: a marked chase load returns the TLB
                # entry for the next node along with the data (Section
                # V-B).
                if mkpt and op.next_vaddr is not None:
                    if observe(vaddr, op.next_vaddr):
                        install(op.next_vaddr)

                # per-phase attribution
                phase = op.phase
                phase_instr[phase] = phase_instr.get(phase, 0) + nonmem + 1
                phase_cycles[phase] = (phase_cycles.get(phase, 0.0)
                                       + (cycles - start_cycles))
                if llc_miss:
                    phase_llc[phase] = phase_llc.get(phase, 0) + 1
                if needs_walk:
                    phase_tlb[phase] = phase_tlb.get(phase, 0) + 1

            # drain the window
            while outstanding:
                gate = outstanding.popleft()
                if gate > cycles:
                    cycles = gate
        finally:
            self.cycles = cycles
            self.instructions = instructions

    # ------------------------------------------------------------------

    def begin_measurement(self) -> None:
        """End the warm-up phase: zero the architectural statistics while
        keeping all cache/TLB/queue state and the global clock (the
        paper's two-stage warm-up + execution protocol, Section IV-D)."""
        self._measure_cycles0 = self.cycles
        self._measure_instr0 = self.instructions
        self.phase_stats = MemOpStats()
        self.caches.reset_stats()
        self.tlbs.reset_stats()

    @property
    def measured_cycles(self) -> float:
        return self.cycles - self._measure_cycles0

    @property
    def measured_instructions(self) -> int:
        return self.instructions - self._measure_instr0

    @property
    def ipc(self) -> float:
        cycles = self.measured_cycles
        return self.measured_instructions / cycles if cycles else 0.0

    @property
    def elapsed_ps(self) -> int:
        return int(self.measured_cycles * self.config.cycle_ps)
