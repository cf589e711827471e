"""Full-system composition: core + caches + TLBs + memory backend.

``FullSystem`` is the VANS+gem5 stand-in used by the SPEC validation
(Figure 11), the cloud-workload profiling (Figure 12) and the
optimization studies (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.cpu.cache import CacheHierarchy
from repro.cpu.core import CoreConfig, TraceCore
from repro.cpu.tlb import TlbHierarchy
from repro.engine.stats import StatsRegistry
from repro.prof.profiler import current as current_prof
from repro.target import TargetSystem


@dataclass(slots=True)
class MemOp:
    """One trace record: ``nonmem`` ordinary instructions followed by a
    memory access.

    ``dependent`` marks loads on a dependence chain (pointer chasing);
    ``mkpt`` marks loads preceded by the Pre-translation hint, with
    ``next_vaddr`` the pointer stored at this node; ``persistent`` marks
    stores that are flushed to the persistence domain (clwb/nt + fence —
    every durable write in a PM workload), which therefore reach the
    NVRAM instead of lingering in the CPU caches; ``phase`` labels the
    op for CPI attribution ("read"/"rest" in the Redis profile).
    """

    nonmem: int
    vaddr: int
    is_write: bool = False
    dependent: bool = False
    mkpt: bool = False
    next_vaddr: Optional[int] = None
    persistent: bool = False
    phase: str = "rest"


@dataclass
class SystemReport:
    """Headline metrics of one full-system run."""

    name: str
    instructions: int
    cycles: float
    ipc: float
    llc_miss_rate: float
    llc_mpki: float
    stlb_mpki: float
    elapsed_ps: int
    phase_cpi: Dict[str, float] = field(default_factory=dict)
    phase_llc_misses: Dict[str, int] = field(default_factory=dict)
    phase_tlb_misses: Dict[str, int] = field(default_factory=dict)
    backend_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def exec_time_ps(self) -> int:
        return self.elapsed_ps

    def speedup_over(self, other: "SystemReport") -> float:
        """ExecTime(other) / ExecTime(self) — the Figure 11c metric when
        ``other`` ran on DRAM and ``self`` on NVRAM is its inverse."""
        if not self.elapsed_ps:
            return 0.0
        return other.elapsed_ps / self.elapsed_ps


class FullSystem:
    """One core + memory system, run against a workload trace."""

    def __init__(
        self,
        backend: TargetSystem,
        name: str = "system",
        core_config: Optional[CoreConfig] = None,
        pretranslation=None,
    ) -> None:
        self.backend = backend
        self.name = name
        self.stats = StatsRegistry()
        self.caches = CacheHierarchy(stats=self.stats)
        self.tlbs = TlbHierarchy(stats=self.stats)
        self.core = TraceCore(
            backend,
            config=core_config,
            caches=self.caches,
            tlbs=self.tlbs,
            pretranslation=pretranslation,
            stats=self.stats,
        )
        prof = current_prof()
        if prof.enabled:
            prof.instrument(self)

    def profile_points(self):
        """Host-profiler attribution points of the CPU layer, in the
        ``(key, owner, method)`` form of ``TargetSystem.profile_points``.
        ``TraceCore.execute`` looks these methods up on every call, so
        the instance-side wrappers see every access."""
        yield ("cpu.core.execute", self.core, "execute")
        yield ("cpu.cache.access", self.caches, "access")
        yield ("cpu.tlb.translate", self.tlbs, "translate")
        yield ("cpu.tlb.install", self.tlbs, "install")
        pretranslation = self.core.pretranslation
        if pretranslation is not None:
            yield ("pretrans.observe", pretranslation, "observe")

    def run(self, trace: Iterable[MemOp], max_ops: Optional[int] = None,
            warmup_ops: int = 0) -> SystemReport:
        """Run ``trace``; the first ``warmup_ops`` records warm caches and
        TLBs without being measured (the paper's two-stage protocol)."""
        iterator = iter(trace)
        if warmup_ops:
            self.core.execute(iterator, max_ops=warmup_ops)
            self.core.begin_measurement()
        self.core.execute(iterator, max_ops=max_ops)
        return self.report()

    def report(self) -> SystemReport:
        core = self.core
        instrs = max(1, core.measured_instructions)
        phase = core.phase_stats
        backend_counters = {}
        backend_stats = getattr(self.backend, "stats", None)
        if backend_stats is not None:
            backend_counters = backend_stats.snapshot()
        return SystemReport(
            name=self.name,
            instructions=core.measured_instructions,
            cycles=core.measured_cycles,
            ipc=core.ipc,
            llc_miss_rate=self.caches.llc_miss_rate,
            llc_mpki=1000.0 * self.caches.llc_misses / instrs,
            stlb_mpki=1000.0 * self.tlbs.stlb_misses / instrs,
            elapsed_ps=core.elapsed_ps,
            phase_cpi={p: phase.cpi(p) for p in phase.instructions},
            phase_llc_misses=dict(phase.llc_misses),
            phase_tlb_misses=dict(phase.tlb_misses),
            backend_counters=backend_counters,
        )
