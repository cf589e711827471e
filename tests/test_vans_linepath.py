"""Pinned request-path digests for every NVRAM station and baseline.

Each case drives one registry target with a seeded read/write/fence
stream that crosses the 16KB RMW and 16MB AIT reaches, the LSQ combine
window and (on the wear cases) a block migration.  The completion time
of every request plus the final ``instrument_snapshot()`` are hashed
with sha256 and compared to a pinned digest, so any change that moves a
single simulated picosecond or counter on the line path fails here.

The same streams are then replayed under each observer hook's session
(flight recorder sampling every request, an empty-plan fault injector,
a telemetry sampler): an observer must never change simulated time or
statistics.
"""

import hashlib
import json
import random

import pytest

from repro import registry
from repro.common.units import KIB, MIB
from repro.faults.injector import FaultInjector
from repro.faults.injector import session as faults_session
from repro.faults.plan import FaultPlan
from repro.flight.recorder import FlightRecorder
from repro.flight.recorder import session as flight_session
from repro.telemetry.sampler import TelemetrySampler
from repro.telemetry.sampler import session as telemetry_session

#: wear threshold low enough that the hot-block overwrites migrate
WEAR = {"migrate_threshold": 24}

#: case id -> (registry target, overrides)
CASES = {
    "vans": ("vans", {}),
    "vans-wear": ("vans", WEAR),
    "vans-6dimm": ("vans-6dimm", {}),
    "vans-lazy": ("vans-lazy", WEAR),
    "vans-ddrt": ("vans", {"ddrt_detailed": True}),
    "vans-table-cache": ("vans", {"table_cache_entries": 64}),
    "memory-mode": ("memory-mode", {"dram_capacity": 1 * MIB}),
    "pmep": ("pmep", {}),
    "quartz": ("quartz", {"epoch_accesses": 256}),
    "ramulator-ddr4": ("ramulator-ddr4", {}),
    "dramsim2-ddr3": ("dramsim2-ddr3", {}),
}

#: a gap of ``WAIT`` issues the next request at this one's completion
WAIT = -1


def _stream(seed, n=3000):
    """``(op, addr, gap)`` requests; ``op`` is ``r``/``w``/``f``."""
    rng = random.Random(seed)
    hot = rng.randrange(4 * MIB) & ~255   # overwritten until it migrates
    ops = []
    while len(ops) < n:
        shape = rng.random()
        if shape < 0.18:  # chase inside the 16KB RMW reach
            base = rng.randrange(64 * MIB) & ~(16 * KIB - 1)
            for _ in range(rng.randint(4, 16)):
                ops.append(("r", base + (rng.randrange(16 * KIB) & ~63), WAIT))
        elif shape < 0.32:  # chase inside the 16MB AIT reach
            base = rng.randrange(4) * 16 * MIB
            for _ in range(rng.randint(4, 12)):
                ops.append(("r", base + (rng.randrange(8 * MIB) & ~63),
                            rng.choice((WAIT, 0, 20_000))))
        elif shape < 0.42:  # scattered over 64MB: AIT misses
            for _ in range(rng.randint(2, 8)):
                ops.append(("r", rng.randrange(64 * MIB) & ~63,
                            rng.choice((WAIT, 0, 5_000))))
        elif shape < 0.56:  # store run, mostly inside the combine window
            addr = rng.randrange(64 * MIB) & ~255
            for i in range(rng.randint(2, 12)):
                gap = rng.choice((0, 10_000, 50_000, 400_000))
                ops.append(("w", addr + 64 * i, gap))
        elif shape < 0.66:  # partial stores: read-modify-write
            for _ in range(rng.randint(1, 6)):
                ops.append(("w", rng.randrange(64 * MIB) & ~63,
                            rng.choice((0, 300_000))))
        elif shape < 0.82:  # LENS overwrite: four lines of one block, fence
            for _ in range(rng.randint(2, 4)):
                for i in range(4):
                    ops.append(("w", hot + 64 * i, 0))
                ops.append(("f", 0, WAIT))
        elif shape < 0.9:  # read back recent stores
            ops.append(("r", hot + 64 * rng.randrange(4), WAIT))
        elif shape < 0.95:
            ops.append(("f", 0, WAIT))
        else:  # idle gap
            ops.append(("r", rng.randrange(64 * MIB) & ~63,
                        rng.randint(1_000_000, 5_000_000)))
    return ops[:n]


def _run(case, seed=3):
    """Drive one case; returns ``(completion times, snapshot)``."""
    target, overrides = CASES[case]
    system = registry.build(target, **overrides)
    # LENS-style fast-forward: full AIT, so every later AIT miss evicts
    system.warm_fill(32 * MIB, 16 * MIB)
    nt = getattr(system, "write_nt", None)
    rng = random.Random(seed + 1)
    now = 0
    done = []
    for op, addr, gap in _stream(seed):
        if op == "r":
            end = system.read(addr, now)
        elif op == "f":
            end = system.fence(now)
        elif nt is not None and rng.random() < 0.25:
            end = nt(addr, now)
        else:
            end = system.write(addr, now)
        done.append(end)
        now = end if gap == WAIT else now + gap
    return done, system.instrument_snapshot()


def _digest(done, snap):
    doc = {"done": done, "snapshot": sorted(snap.items())}
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


DIGESTS = {
    "dramsim2-ddr3": "4bbc1f5a6e5d89b3d4e9e38f0b1f7c923312694993a4400f7851958a08ed630d",
    "memory-mode": "e4f421a32f84a8f4e1b6b39a7c12a0d7e02b021b95b4f8dd7f77d0fea829d369",
    "pmep": "3135f01f1ffb6425a668435f8d7e021b33058c6c16154216396b820cef9b9348",
    "quartz": "613def140d112381068ed8098ab4e8f1156a37b359166c6d0c208c50b6e0e46c",
    "ramulator-ddr4": "25d586d8a6935cee144c622fcef5c0d0c708762063821029c72e4d91bc60429c",
    "vans": "9c6d49a30a53bfda6d3ff9f7b493884e45c50c13a62818180221dcd623626aa5",
    "vans-6dimm": "71db5fad493c6b3e13c61c8c91e0d634d1931268faf4a1e96522ee36d1b54530",
    "vans-ddrt": "2973637ba94c1b762fbf89c5f208de30d77b9adc2c569b887ae54b79b170483a",
    "vans-lazy": "915349f01b9cd294782b62b643588aa6979ce99602605125f52c84ee781e809f",
    "vans-table-cache": "c3dbeef1cbad4d036ed58ac4507960f67314bde1c800aa672a41525544a9b297",
    "vans-wear": "66b182469a632b4605a090b7567dfe6ab7a8754304608363fa6e82aa272ee4d2",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_line_path(case):
    done, snap = _run(case)
    assert _digest(done, snap) == DIGESTS[case]


def test_streams_cross_every_reach():
    """The pinned streams really do hit each buffer tier, combine,
    read-modify-write, migrate and absorb into the Lazy cache."""
    _, snap = _run("vans-wear")
    assert snap["dimm.rmw_hits"] > 0 and snap["dimm.rmw_misses"] > 0
    assert snap["dimm.ait_hits"] > 0 and snap["dimm.ait_misses"] > 0
    assert snap["dimm.combined_write_ops"] > 0
    assert snap["dimm.partial_write_ops"] > 0
    assert snap["dimm.rmw_evictions"] > 0 and snap["dimm.ait_evictions"] > 0
    assert snap["wear.migrations"] > 0
    _, lazy = _run("vans-lazy")
    assert lazy["lazy.absorbed_writes"] > 0
    _, cached = _run("vans-table-cache")
    assert cached["dimm.table_cache_hits"] > 0
    _, ddrt = _run("vans-ddrt")
    assert ddrt["ddrt.read_txns"] > 0 and ddrt["ddrt.write_txns"] > 0
    _, memmode = _run("memory-mode")
    assert memmode["memmode.writebacks"] > 0


def _hooked(case, hook):
    if hook == "flight":
        scope = flight_session(FlightRecorder(mode="all"))
    elif hook == "faults":
        scope = faults_session(FaultInjector(FaultPlan()))
    else:
        scope = telemetry_session(TelemetrySampler(interval_ps=100_000))
    with scope:
        return _run(case)


@pytest.mark.parametrize("hook", ["flight", "faults", "telemetry"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_observer_hooks_never_move_simulated_time(case, hook):
    bare_done, bare_snap = _run(case)
    done, snap = _hooked(case, hook)
    assert done == bare_done
    assert snap == bare_snap
