"""Figure 13 — Lazy cache and Pre-translation evaluation.

(d) speedup of Lazy cache / Pre-translation / both over the unmodified
    baseline on fio-write, YCSB, TPCC, HashMap, Redis and LinkedList
    (paper: Pre-translation 1-48%, Lazy cache ~10% average, both 8-49%);
(e) Pre-translation's TLB MPKI, normalized to baseline (paper: -17%
    average).

Wear thresholds are scaled to trace length as in Figure 12.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import registry
from repro.cpu import FullSystem, SystemReport
from repro.experiments.common import ExperimentResult, Scale
from repro.lens.analysis import geomean
from repro.optim import PreTranslation
from repro.vans import VansSystem
from repro.workloads import CLOUD_WORKLOADS

DEFAULT_WORKLOADS = ["fio-write", "ycsb", "tpcc", "hashmap", "redis",
                     "linkedlist"]


def _vans(lazy: bool, migrate_threshold: int = 250) -> VansSystem:
    return registry.build("vans-lazy" if lazy else "vans", lazy_cache=lazy,
                          migrate_threshold=migrate_threshold)


def _run(workload: str, nops: int, warmup: int, lazy: bool,
         pretrans: bool) -> SystemReport:
    trace_fn = CLOUD_WORKLOADS[workload]
    pt = PreTranslation() if pretrans else None
    system = FullSystem(_vans(lazy), name=workload, pretranslation=pt)
    trace = trace_fn(nops + warmup, mkpt=pretrans)
    return system.run(trace, warmup_ops=warmup)


def run(scale: Scale = Scale.SMOKE,
        workloads: Optional[List[str]] = None) -> ExperimentResult:
    """Fig. 13d+e in one table."""
    workloads = workloads or DEFAULT_WORKLOADS
    nops = 40000 if scale is Scale.SMOKE else 250000
    warmup = nops // 2

    result = ExperimentResult(
        "fig13", "Lazy cache / Pre-translation speedups + TLB MPKI",
        columns=["workload", "lazy spdup", "pretrans spdup", "both spdup",
                 "tlb mpki (pt/base)"],
    )
    pt_speedups: List[float] = []
    lazy_speedups: List[float] = []
    tlb_ratios: List[float] = []

    for name in workloads:
        base = _run(name, nops, warmup, lazy=False, pretrans=False)
        lazy = _run(name, nops, warmup, lazy=True, pretrans=False)
        pretrans = _run(name, nops, warmup, lazy=False, pretrans=True)
        both = _run(name, nops, warmup, lazy=True, pretrans=True)

        s_lazy = base.elapsed_ps / max(1, lazy.elapsed_ps)
        s_pt = base.elapsed_ps / max(1, pretrans.elapsed_ps)
        s_both = base.elapsed_ps / max(1, both.elapsed_ps)
        tlb_ratio = (pretrans.stlb_mpki / base.stlb_mpki
                     if base.stlb_mpki else 1.0)

        result.add_row(name, s_lazy, s_pt, s_both, tlb_ratio)
        lazy_speedups.append(s_lazy)
        pt_speedups.append(s_pt)
        tlb_ratios.append(tlb_ratio)

    result.metrics["lazy_geomean_speedup"] = geomean(lazy_speedups)
    result.metrics["pretrans_geomean_speedup"] = geomean(pt_speedups)
    result.metrics["tlb_mpki_mean_ratio"] = (
        sum(tlb_ratios) / len(tlb_ratios) if tlb_ratios else 1.0)
    result.notes = ("paper: Pre-translation 1-48% speedup, -17% TLB MPKI "
                    "avg; Lazy cache ~10% avg; both 8-49%")
    return result
