"""Pinned digests for the full-system CPU path.

Seeded SPEC and cloud traces run through ``FullSystem`` (core, caches,
TLBs, Pre-translation) on a DRAM and two VANS backends, with warm-up.
The report (floats as ``float.hex``), every CPU-side counter and the
backend's counters are hashed with sha256 and compared to a pinned
digest, so any change that moves one simulated cycle, cache or TLB
counter, or backend request fails here.  Two direct streams pin
``CacheHierarchy.access`` (every victim-demotion case) and
``TlbHierarchy.translate`` (DTLB and STLB set conflicts).

The VANS runs are replayed under a flight recorder and a host-profiler
session: an observer must never change simulated results.
"""

import hashlib
import json
import random

import pytest

from repro import registry
from repro.common.units import KIB
from repro.cpu import FullSystem
from repro.cpu.cache import CacheConfig, CacheHierarchy
from repro.cpu.tlb import PAGE_SIZE, TlbHierarchy
from repro.flight.recorder import FlightRecorder
from repro.flight.recorder import session as flight_session
from repro.optim import PreTranslation
from repro.prof.profiler import Profiler
from repro.prof.profiler import session as prof_session
from repro.workloads import CLOUD_WORKLOADS, spec_trace

BACKENDS = ("ramulator-ddr4", "vans", "vans-lazy")
SPEC = ("mcf", "libquantum", "omnetpp17")
#: (trace, Pre-translation on)
CLOUD = (("ycsb", False), ("tpcc", False), ("fio-write", False),
         ("linkedlist", True))
OPS, WARMUP = 3000, 1000


def _canon(value):
    """JSON-safe value with every float spelled exactly."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return sorted((k, _canon(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _sha(doc):
    return hashlib.sha256(json.dumps(_canon(doc)).encode()).hexdigest()


def _trace(workload, seed):
    kind, name = workload.split("/")
    if kind == "spec":
        return list(spec_trace(name, OPS + WARMUP, seed=seed))
    if name == "linkedlist":  # a ring past the STLB reach, walked twice
        return list(CLOUD_WORKLOADS[name](OPS + WARMUP, nnodes=2048,
                                          seed=seed, mkpt=True))
    return list(CLOUD_WORKLOADS[name](OPS + WARMUP, seed=seed))


CASES = sorted([f"spec/{name}/{b}" for name in SPEC for b in BACKENDS]
               + [f"cloud/{name}/{b}" for name, _ in CLOUD for b in BACKENDS])


def _run(case, seed=3):
    """One full-system run; returns its result document."""
    kind, name, backend = case.split("/")
    pretrans = kind == "cloud" and dict(CLOUD)[name]
    pt = PreTranslation(seed=seed) if pretrans else None
    system = FullSystem(registry.build(backend), name=name,
                        pretranslation=pt)
    report = system.run(_trace(f"{kind}/{name}", seed), warmup_ops=WARMUP)
    core = system.core
    doc = {
        "report": {k: getattr(report, k) for k in (
            "name", "instructions", "cycles", "ipc", "llc_miss_rate",
            "llc_mpki", "stlb_mpki", "elapsed_ps", "phase_cpi",
            "phase_llc_misses", "phase_tlb_misses", "backend_counters")},
        "cpu": system.stats.snapshot(),
        "core": [core.cycles, core.instructions],
        "phase": [core.phase_stats.instructions, core.phase_stats.cycles],
        "pretrans": pt.stats.snapshot() if pt is not None else None,
    }
    return doc


DIGESTS = {
    "cloud/fio-write/ramulator-ddr4": "eb36970dfa8ab9b1361775ee3b1d6f7771e5f30d30ad82203e81fc4d4fcc4836",
    "cloud/fio-write/vans": "83dccbfa38800dc04a5362cc7a4b0ed21e7e20e2888a686f025efbd013f4df6b",
    "cloud/fio-write/vans-lazy": "6c36a6be30f0cda78a848025338b7adedabf04dd5d76de5419a6468224c64bfd",
    "cloud/linkedlist/ramulator-ddr4": "4518e1cd75331312fe487b1b46b847701c3592057348f754182968c3fed5f9e8",
    "cloud/linkedlist/vans": "b153715e9d44a0e0b7737df749ab60053222a43491a4e0abeed7b73a98b5c1f0",
    "cloud/linkedlist/vans-lazy": "ab3509d5c3fda8dd8c938927ee4e8859d9a96f89cdac47c19e34a7d2ddfeda5f",
    "cloud/tpcc/ramulator-ddr4": "9e544aa357c42ed045665ea00df1fa2ec5ee70037b992bda83e2642deb1cbfe1",
    "cloud/tpcc/vans": "694bab3c387ec9b2b62e732f1e731905a132e04208b3f45963fe8f8a2d0cb347",
    "cloud/tpcc/vans-lazy": "13ef37dc2f5d43d2a98bde558b015ddb7eafc2111c3d5e1188f8716c189eac0f",
    "cloud/ycsb/ramulator-ddr4": "bfd51867122c1a75aa3c1103af02e89c3ec066f383c9272271078ac4e72728d6",
    "cloud/ycsb/vans": "dbeb7ab3fe1e5c3d519261ff9c2c40207582358c9404e7d38725cd627830b7f7",
    "cloud/ycsb/vans-lazy": "bb8a5298e0a1de350632f04b312ebb65cde11b25f8ad3b0472ca0667484d33d8",
    "spec/libquantum/ramulator-ddr4": "e40675b57e84738ba869d1e624600df6f5361b33a33e4ec24673f77bf78ab4b8",
    "spec/libquantum/vans": "9765de9c96de822cd629d21f114f3b910a37ca8c053616c85e43a3626548edc5",
    "spec/libquantum/vans-lazy": "4531fd06cd42ce8bf3eb62757fcc2b1f3b9fbad52f33a01fd74631c5efa5d646",
    "spec/mcf/ramulator-ddr4": "ee38f075c734dedd2cbfc4b184c7617b258c661e941055bd09b35e9880b00ec6",
    "spec/mcf/vans": "396e393fc4bf3e511a79fe3025d1434918b3937f84d48c3841d0ec5127697f0c",
    "spec/mcf/vans-lazy": "5245185a0ca2562ef4a4c699327bdb13c9b570efa99cafb8b796079b1f6bf813",
    "spec/omnetpp17/ramulator-ddr4": "4afaa185a86323df49b19dbf3a38666c767699ab34849cee54874df936ccb26f",
    "spec/omnetpp17/vans": "73243bb7597cb95107f5871db318ba1ff2c731b069ad9e2ed4a623283fdd7a8e",
    "spec/omnetpp17/vans-lazy": "3d688a132e1bf0124dd667f58303a83828338fab90bd3469854b929b56eb23a8",
}


@pytest.mark.parametrize("case", CASES)
def test_pinned_full_system(case):
    assert _sha(_run(case)) == DIGESTS[case]


def test_runs_exercise_every_cpu_path():
    """The pinned runs miss the LLC, walk page tables, demote dirty L1
    victims and take Pre-translation fills (write-backs to memory are
    covered by the direct hierarchy stream below)."""
    doc = _run("cloud/linkedlist/vans")
    assert doc["cpu"]["L3.misses"] > 0 and doc["cpu"]["tlb.walks"] > 0
    assert doc["pretrans"]["pretrans.hits"] > 0
    assert _run("cloud/fio-write/vans")["cpu"]["L1D.writebacks"] > 0


# ----------------------------------------------------------------------
# direct streams
# ----------------------------------------------------------------------

#: L2 (16 sets x 2) holds fewer lines than L1 (16 sets x 4), so some
#: dirty L1 victims have already left L2 and land in L3 (64 sets x 4)
#: or become memory write-backs
SMALL_L1 = CacheConfig("sL1", 4 * KIB, 4, 1)
SMALL_L2 = CacheConfig("sL2", 2 * KIB, 2, 3)
SMALL_L3 = CacheConfig("sL3", 16 * KIB, 4, 9)


def _hierarchy_stream(seed=7, n=6000):
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        line = rng.randrange(48) if rng.random() < 0.5 else rng.randrange(1024)
        ops.append((line * 64, rng.random() < 0.4))
    return ops


def _run_hierarchy(h):
    out = []
    for addr, is_write in _hierarchy_stream():
        out.append(list(h.access(addr, is_write)))
    return {"out": out, "stats": h.stats.snapshot()}


def test_pinned_cache_hierarchy_stream():
    h = CacheHierarchy(SMALL_L1, SMALL_L2, SMALL_L3)
    assert _sha(_run_hierarchy(h)) == HIERARCHY_DIGEST


def test_hierarchy_stream_reaches_every_demotion_case():
    """A dirty L1 victim lands in L2, lands in L3, or is written back."""
    h = CacheHierarchy(SMALL_L1, SMALL_L2, SMALL_L3)
    cases = {"l2": 0, "l3": 0, "mem": 0}
    inner_fill = h.l1.fill
    pending = []

    def fill(addr, dirty=False):
        victim = inner_fill(addr, dirty)
        if victim is not None:
            # the L1 fill comes before this access's L2 and L3 fills
            if h.l2.contains(victim):
                cases["l2"] += 1
            elif h.l3.contains(victim):
                cases["l3"] += 1
            else:
                cases["mem"] += 1
                pending.append(victim)
        return victim
    h.l1.fill = fill

    for addr, is_write in _hierarchy_stream():
        _, _, victims = h.access(addr, is_write)
        for victim in pending:
            assert victim in victims
        pending.clear()
    assert min(cases.values()) > 0


def _tlb_stream(seed=11, n=8000):
    rng = random.Random(seed)
    pages = []
    for _ in range(n):
        r = rng.random()
        if r < 0.4:      # hot pages: DTLB hits
            page = rng.randrange(24)
        elif r < 0.8:    # STLB reach, DTLB set conflicts
            page = rng.randrange(1400)
        else:            # beyond the STLB
            page = rng.randrange(1 << 20)
        pages.append(page * PAGE_SIZE + rng.randrange(PAGE_SIZE))
    return pages


def _run_tlb():
    tlbs = TlbHierarchy()
    rng = random.Random(5)
    out = []
    for vaddr in _tlb_stream():
        needs_walk, cycles, walk = tlbs.translate(vaddr)
        out.append([needs_walk, cycles, walk])
        if needs_walk:
            tlbs.install(vaddr)
        if rng.random() < 0.05:  # a Pre-translation fill
            tlbs.install(rng.randrange(1 << 20) * PAGE_SIZE)
    return tlbs, {"out": out, "stats": tlbs.stats.snapshot()}


def test_pinned_tlb_stream():
    tlbs, doc = _run_tlb()
    assert tlbs.dtlb.misses > 0 and tlbs.stlb.hits > 0
    assert tlbs.stlb.misses > 0
    assert _sha(doc) == TLB_DIGEST


HIERARCHY_DIGEST = "db0e2a23b661166438517710bcf6792dc90412858e9c13b8d841f892aab437bb"
TLB_DIGEST = "ce63633d3f280ff4a3b65bdcaed936bdd3924048a1f716ced69e1887312912b5"


# ----------------------------------------------------------------------
# observers
# ----------------------------------------------------------------------

VANS_CASES = [case for case in CASES if case.endswith("/vans")]


@pytest.mark.parametrize("case", VANS_CASES)
def test_flight_recorder_never_moves_results(case):
    bare = _canon(_run(case))
    with flight_session(FlightRecorder(mode="all")):
        assert _canon(_run(case)) == bare


@pytest.mark.parametrize("case", VANS_CASES)
def test_profiler_never_moves_results(case):
    bare = _canon(_run(case))
    with prof_session(Profiler()):
        assert _canon(_run(case)) == bare
