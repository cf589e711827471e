"""The benchmark's three workloads, each a list of units of work.

A unit is one sweep point or one trace x target run.  It builds fresh
targets through :class:`Env`, drives them through the public LENS or
full-system API, and returns its simulated outputs.  Inputs derive only
from the workload seed; full-system traces are generated in set-up,
before anything is timed.

Why these three: ``lens-read`` loads the NVRAM read path (RPQ, LSQ/RMW,
AIT, on-DIMM DRAM, media) and leaves the CPU model and the wear leveler
idle; ``lens-write`` loads the same stations through the write path (WPQ,
write combining, AIT writes, wear migrations, the Lazy cache);
``fullsys`` puts the CPU core, caches and TLBs in front of the memory, so
CPU-layer work shows there and nowhere else.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import registry
from repro.common.units import KIB, MIB
from repro.cpu import FullSystem
from repro.lens.analysis import accuracy, geomean
from repro.lens.microbench.overwrite import Overwrite
from repro.lens.microbench.pointer_chasing import PointerChasing
from repro.lens.microbench.stride import Stride
from repro.optim import PreTranslation
from repro.reference import SPEC_REFERENCE, OptaneReference
from repro.reference.optane import BANDWIDTH_GBS, OVERWRITE_BASE_US
from repro.workloads import CLOUD_WORKLOADS, spec_trace

from layers import (Tracer, count_requests, instrument_full_system,
                    instrument_target, request_methods)

#: The seed-free Optane reference: every point is the digitized curve.
REFERENCE = OptaneReference(noise=0.0)

#: PC-Region sizes of the read-latency sweep: 256B to 64MB, crossing the
#: 16KB RMW-buffer and 16MB AIT-buffer inflections.
READ_REGIONS = [256 << k for k in range(19)]
BLOCK_REGION = 64 * MIB
BLOCKS = [64 << k for k in range(7)]
STRIDE_BYTES = 512 * KIB
READ_TARGETS = {"vans": "optane-1dimm", "vans-6dimm": "optane-6dimm",
                "pmep": "pmep-6dimm"}

#: Store sweep crosses the 512B WPQ and 4KB LSQ inflections.
WRITE_REGIONS = [64 << k for k in range(11)]
RAW_REGIONS = [1 * KIB, 4 * KIB, 16 * KIB, 64 * KIB]
#: Long enough to cross a wear-leveling migration on ``vans`` (one tail
#: roughly every 14,000 256B overwrites).
OVERWRITE_ITERS = 15_000
WRITE_TARGETS = ("vans", "vans-lazy")

SPEC_OPS, SPEC_WARMUP = 6_000, 3_000
SPEC_BACKENDS = {"ramulator-ddr4": {"frontend_ps": 30_000},
                 "vans-6dimm": {}}
CLOUD_OPS, CLOUD_WARMUP = 4_000, 2_000
#: (trace, Pre-translation on)
CLOUD_RUNS = [("ycsb", False), ("tpcc", False), ("fio-write", False),
              ("linkedlist", False), ("linkedlist", True)]
#: Figure 13's wear threshold, scaled to trace length.
CLOUD_BACKENDS = {"vans": {"migrate_threshold": 250},
                  "vans-lazy": {"migrate_threshold": 250}}


class Env:
    """What a unit may touch: target builds, LENS calls, full systems.

    Every built target has its ``TargetSystem`` request methods counted;
    with a tracer, every layer below it is wrapped as well.
    """

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.targets: List[Tuple[object, Counter]] = []

    def _call(self, layer: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(layer, fn, *args, **kwargs)

    def build(self, name: str, **overrides):
        target = self._call("registry", registry.build, name, **overrides)
        counts = Counter()
        for method, key in request_methods(target):
            count_requests(target, method, counts, key)
        if self.tracer is not None:
            instrument_target(target, self.tracer)
        self.targets.append((target, counts))
        return target

    def lens(self, fn, *args):
        return self._call("lens", fn, *args)

    def full_system(self, backend, trace, warmup: int,
                    pretranslation: bool = False):
        """Build and run a FullSystem; returns ``(system, report)``."""
        pt = PreTranslation(seed=self.seed) if pretranslation else None
        system = self._call("cpu.core", FullSystem, backend,
                            pretranslation=pt)
        if self.tracer is not None:
            instrument_full_system(system, self.tracer)
        return system, self._call("cpu.core", system.run, trace,
                                  warmup_ops=warmup)


@dataclass
class Unit:
    name: str
    run: Callable[[Env], dict]


@dataclass
class Workload:
    name: str
    #: ``setup(seed) -> (inputs, trace ops, trace generation seconds)``;
    #: builds one of each target (validating names early) and generates
    #: the traces.
    setup: Callable[[int], Tuple[dict, int, float]]
    units: Callable[[dict, int], List[Unit]]
    #: ``score(results by unit name) -> [(sims, refs)]`` per series.
    score: Callable[[Dict[str, dict]], List[Tuple[list, list]]]
    #: Layers that must see calls here; zero calls fail the traced run.
    live: Tuple[str, ...]


def accuracy_of(series: List[Tuple[list, list]]) -> float:
    """Geomean over series of the paper's per-series accuracy."""
    return geomean([accuracy(sims, refs) for sims, refs in series if sims])


def _build_each(names_overrides) -> None:
    for name, overrides in names_overrides:
        registry.build(name, **overrides)


# ----------------------------------------------------------------------
# lens-read
# ----------------------------------------------------------------------


def _read_setup(seed: int):
    _build_each((name, {}) for name in READ_TARGETS)
    return {}, 0, 0.0


def _read_units(inputs: dict, seed: int) -> List[Unit]:
    pc = PointerChasing(seed=seed)
    stride = Stride()

    def latency(name, region, block):
        def run(env):
            target = env.build(name)
            return {"lat_ns": env.lens(pc.read_latency_ns, target, region,
                                       block)}
        return run

    def bandwidth(name):
        def run(env):
            target = env.build(name)
            return {"gbs": env.lens(stride.read_bandwidth_gbs, target,
                                    STRIDE_BYTES)}
        return run

    units = [Unit(f"read/{name}/{region}", latency(name, region, 64))
             for name in READ_TARGETS for region in READ_REGIONS]
    units += [Unit(f"block/vans/{block}", latency("vans", BLOCK_REGION, block))
              for block in BLOCKS]
    units += [Unit(f"stride/{name}", bandwidth(name)) for name in READ_TARGETS]
    return units


def _read_score(results: Dict[str, dict]):
    series = []
    for name in READ_TARGETS:
        ndimms = 6 if name == "vans-6dimm" else 1
        pts = [(results[f"read/{name}/{r}"]["lat_ns"],
                REFERENCE.pc_read_latency_ns(r, ndimms=ndimms))
               for r in READ_REGIONS if f"read/{name}/{r}" in results]
        series.append(([s for s, _ in pts], [r for _, r in pts]))
    pts = [(results[f"block/vans/{b}"]["lat_ns"],
            REFERENCE.pc_read_latency_ns(BLOCK_REGION, b))
           for b in BLOCKS if f"block/vans/{b}" in results]
    series.append(([s for s, _ in pts], [r for _, r in pts]))
    for name, system in READ_TARGETS.items():
        if f"stride/{name}" in results:
            series.append(([results[f"stride/{name}"]["gbs"]],
                           [BANDWIDTH_GBS[system]["load"]]))
    return series


# ----------------------------------------------------------------------
# lens-write
# ----------------------------------------------------------------------


def _write_setup(seed: int):
    _build_each((name, {}) for name in WRITE_TARGETS)
    return {}, 0, 0.0


def _write_units(inputs: dict, seed: int) -> List[Unit]:
    pc = PointerChasing(seed=seed)
    overwrite = Overwrite()

    def overwrite_run(name):
        def run(env):
            res = env.lens(overwrite.run, env.build(name), 256,
                           OVERWRITE_ITERS)
            return {"median_ns": res.median_ns,
                    "tail_permille": res.tail_ratio_permille(),
                    "tails": len(res.tail_indices())}
        return run

    def store(name, region):
        def run(env):
            return {"lat_ns": env.lens(pc.write_latency_ns, env.build(name),
                                       region)}
        return run

    def raw(region):
        def run(env):
            return {"lat_ns": env.lens(pc.read_after_write_ns,
                                       env.build("vans"), region)}
        return run

    units = [Unit(f"overwrite/{name}", overwrite_run(name))
             for name in WRITE_TARGETS]
    units += [Unit(f"store/{name}/{region}", store(name, region))
              for name in WRITE_TARGETS for region in WRITE_REGIONS]
    units += [Unit(f"raw/vans/{region}", raw(region)) for region in RAW_REGIONS]
    return units


def _write_score(results: Dict[str, dict]):
    series = []
    ow = results.get("overwrite/vans")
    if ow is not None:
        series.append(([ow["tail_permille"], ow["median_ns"]],
                       [REFERENCE.tail_ratio_permille(256),
                        OVERWRITE_BASE_US * 1000.0]))
    for name in WRITE_TARGETS:
        pts = [(results[f"store/{name}/{r}"]["lat_ns"],
                REFERENCE.pc_store_latency_ns(r))
               for r in WRITE_REGIONS if f"store/{name}/{r}" in results]
        series.append(([s for s, _ in pts], [r for _, r in pts]))
    pts = [(results[f"raw/vans/{r}"]["lat_ns"], REFERENCE.raw_latency_ns(r))
           for r in RAW_REGIONS if f"raw/vans/{r}" in results]
    series.append(([s for s, _ in pts], [r for _, r in pts]))
    return series


# ----------------------------------------------------------------------
# fullsys
# ----------------------------------------------------------------------


def _fullsys_setup(seed: int):
    _build_each(list(SPEC_BACKENDS.items()) + list(CLOUD_BACKENDS.items()))
    t0 = time.perf_counter()
    traces = {}
    for row in SPEC_REFERENCE:
        traces[f"spec/{row.name}"] = list(
            spec_trace(row.name, SPEC_OPS + SPEC_WARMUP, seed=seed))
    for trace, pretrans in CLOUD_RUNS:
        traces[_cloud_key(trace, pretrans)] = list(CLOUD_WORKLOADS[trace](
            CLOUD_OPS + CLOUD_WARMUP, seed=seed, mkpt=pretrans))
    gen_s = time.perf_counter() - t0
    return traces, sum(len(t) for t in traces.values()), gen_s


def _cloud_key(trace: str, pretrans: bool) -> str:
    return f"cloud/{trace}" + ("+pt" if pretrans else "")


def _report(system, report) -> dict:
    """A full-system run's simulated outputs, CPU-layer counts included."""
    caches, tlbs = system.caches, system.tlbs
    return {"instructions": report.instructions, "cycles": report.cycles,
            "ipc": report.ipc, "elapsed_ps": report.elapsed_ps,
            "llc_hits": caches.l3.hits, "llc_misses": caches.l3.misses,
            "stlb_hits": tlbs.stlb.hits, "stlb_misses": tlbs.stlb.misses,
            "core_instructions": system.core.instructions,
            "phase_cpi": report.phase_cpi,
            "backend_counters": report.backend_counters}


def _fullsys_units(traces: dict, seed: int) -> List[Unit]:
    def run_trace(key, backend, overrides, warmup, pretrans=False):
        def run(env):
            system, report = env.full_system(
                env.build(backend, **overrides), traces[key], warmup,
                pretranslation=pretrans)
            return _report(system, report)
        return run

    units = [Unit(f"spec/{row.name}/{backend}",
                  run_trace(f"spec/{row.name}", backend, overrides,
                            SPEC_WARMUP))
             for row in SPEC_REFERENCE
             for backend, overrides in SPEC_BACKENDS.items()]
    units += [Unit(f"{_cloud_key(trace, pt)}/{backend}",
                   run_trace(_cloud_key(trace, pt), backend, overrides,
                             CLOUD_WARMUP, pt))
              for trace, pt in CLOUD_RUNS
              for backend, overrides in CLOUD_BACKENDS.items()]
    return units


def _fullsys_score(results: Dict[str, dict]):
    sims, refs = [], []
    for row in SPEC_REFERENCE:
        dram = results.get(f"spec/{row.name}/ramulator-ddr4")
        nvram = results.get(f"spec/{row.name}/vans-6dimm")
        if dram is None or nvram is None:
            continue
        sims.append(dram["elapsed_ps"] / nvram["elapsed_ps"])
        refs.append(row.nvram_speedup)
    return [(sims, refs)]


_NVRAM_LAYERS = ("target", "vans.system", "vans.imc", "vans.dimm", "dram",
                 "media.xpoint")

WORKLOADS = {
    "lens-read": Workload(
        "lens-read",
        _read_setup, _read_units, _read_score,
        live=("lens", "registry", "baselines") + _NVRAM_LAYERS),
    "lens-write": Workload(
        "lens-write",
        _write_setup, _write_units, _write_score,
        live=("lens", "registry", "media.wear", "optim.lazycache")
        + _NVRAM_LAYERS),
    "fullsys": Workload(
        "fullsys",
        _fullsys_setup, _fullsys_units, _fullsys_score,
        live=("registry", "workloads", "cpu.core", "cpu.cache", "cpu.tlb",
              "optim.pretranslation", "optim.lazycache", "baselines",
              "media.wear") + _NVRAM_LAYERS),
}

