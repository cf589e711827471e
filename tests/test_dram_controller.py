"""Command-level DDR4 controller behaviour."""

import hashlib
import json
import random

import pytest

from repro.common.units import MIB
from repro.dram.address import AddressMapping
from repro.dram.command import CmdType
from repro.dram.controller import DramController
from repro.dram.device import DramDevice
from repro.dram.timing import DDR3_1600, DDR4_2400, DDR4_2666, PCM_TIMING
from repro.dram.verifier import DDR4ProtocolChecker


def make(record=False, policy="open"):
    return DramController(DDR4_2666, record_commands=record, row_policy=policy)


def test_cold_read_latency_includes_act_rcd_cl():
    ctrl = make()
    t = DDR4_2666
    done = ctrl.access(0, False, 0)
    expected = t.ps(t.trcd) + t.ps(t.cl) + t.ps(t.burst_cycles)
    assert done == expected


def test_row_hit_is_faster_than_miss():
    ctrl = make()
    first = ctrl.access(0, False, 0)
    second = ctrl.access(64, False, first) - first
    assert second < first


def test_row_hit_rate_sequential():
    ctrl = make()
    now = 0
    for i in range(64):
        now = ctrl.access(i * 64, False, now)
    assert ctrl.row_hit_rate > 0.9


def test_row_conflict_requires_precharge():
    ctrl = make(record=True)
    row_bytes = ctrl.mapping.row_bytes
    nbanks = ctrl.mapping.nbanks
    ctrl.access(0, False, 0)
    # same bank, different row: one full row span * nbanks later
    conflict_addr = row_bytes * nbanks
    ctrl.access(conflict_addr, False, 10)
    kinds = [c.kind for c in ctrl.commands]
    assert kinds.count(CmdType.PRE) == 1
    assert kinds.count(CmdType.ACT) == 2


def test_write_then_read_pays_twtr():
    ctrl = make()
    t = DDR4_2666
    w_done = ctrl.access(0, True, 0)
    r_done = ctrl.access(64, False, w_done)
    # the read burst cannot start before tWTR after write data end
    assert r_done >= w_done + t.ps(t.twtr) + t.ps(t.cl)


def test_refresh_issued_when_due():
    ctrl = make(record=True)
    t = DDR4_2666
    ctrl.access(0, False, 0)
    ctrl.access(64, False, 2 * t.ps(t.trefi))
    kinds = [c.kind for c in ctrl.commands]
    assert CmdType.REF in kinds
    assert ctrl.stats.counter("dram.refreshes").value >= 1


def test_closed_page_policy_precharges():
    ctrl = make(record=True, policy="closed")
    ctrl.access(0, False, 0)
    kinds = [c.kind for c in ctrl.commands]
    assert kinds[-1] == CmdType.PRE


def test_closed_policy_no_row_hits():
    ctrl = make(policy="closed")
    now = 0
    for i in range(16):
        now = ctrl.access(i * 64, False, now)
    assert ctrl.row_hit_rate == 0.0


def test_bad_policy_rejected():
    from repro.common.errors import ConfigError
    with pytest.raises(ConfigError):
        DramController(DDR4_2666, row_policy="weird")


def test_commands_not_recorded_by_default():
    ctrl = make(record=False)
    ctrl.access(0, False, 0)
    assert ctrl.commands == []


def test_reset_clears_state():
    ctrl = make(record=True)
    ctrl.access(0, False, 0)
    ctrl.reset()
    assert ctrl.commands == []
    assert ctrl.row_hit_rate == 0.0


# -- pinned command path -----------------------------------------------
#
# Seeded read/write mixes that cross rows, banks, tFAW windows and
# refreshes.  Each run is hashed (completion times, the stats snapshot in
# registry order, and the recorded commands in emission order) and
# pinned below, so any change to a command timestamp, a counter or the
# command order fails here.  Closed-page streams also pin the rule that
# REF waits tRP after a PRE a closed-page access scheduled past the
# refresh due time; without it the verifier rejects them.

TIMINGS = {t.name: t for t in (DDR4_2666, DDR4_2400, DDR3_1600, PCM_TIMING)}


def _mix(seed, n, span):
    """``(addr, is_write, now)`` ops: bursts at one instant that open
    rows in many banks (tFAW), same-row streaks (hits), conflicts in one
    bank, and idle gaps long enough to cross refreshes."""
    rng = random.Random(seed)
    now = 0
    ops = []
    while len(ops) < n:
        shape = rng.random()
        if shape < 0.3:  # burst across rows/banks at one instant
            for _ in range(rng.randint(4, 10)):
                ops.append((rng.randrange(span) & ~63, rng.random() < 0.3, now))
        elif shape < 0.6:  # sequential streak: row hits
            base = rng.randrange(span) & ~63
            for i in range(rng.randint(2, 12)):
                ops.append((base + 64 * i, rng.random() < 0.5, now))
                now += rng.randint(0, 3000)
        elif shape < 0.8:  # conflicts: rows of one bank
            base = rng.randrange(span) & ~63
            for i in range(rng.randint(2, 5)):
                ops.append((base + i * 8192 * 16, rng.random() < 0.5, now))
                now += rng.randint(0, 20_000)
        else:  # idle gap
            now += rng.randint(1_000, 3_000_000)
    return ops[:n]


def _digest(done, stats, commands):
    doc = {
        "done": done,
        "stats": list(stats.snapshot().items()),
        "commands": [[c.time_ps, c.kind.name, c.bank, c.row, c.col]
                     for c in commands],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _run_controller(timing, policy, record, mapping=None, seed=7, n=600):
    ctrl = DramController(timing, mapping=mapping, row_policy=policy,
                          record_commands=record)
    done = [ctrl.access(a, w, now) for a, w, now in _mix(seed, n, 4 * MIB)]
    return ctrl, done


def _run_device(nchannels, policy, record, seed=11, n=600):
    dev = DramDevice(DDR4_2666, nchannels=nchannels, capacity_bytes=2 * MIB,
                     row_policy=policy, record_commands=record)
    rng = random.Random(seed)
    done = []
    for addr, is_write, now in _mix(seed, n, 4 * MIB):  # wraps capacity
        if rng.random() < 0.2:
            done.append(dev.access_block(addr, rng.choice((128, 256, 4096)),
                                         is_write, now))
        else:
            done.append(dev.access(addr, is_write, now))
    return dev, done


CONTROLLER_DIGESTS = {
    ("DDR3-1600", "open"): "4ac2d275bb81362d642cda3c66c6e223025cd37928e47f8164c198e158fc41e6",
    ("DDR3-1600", "closed"): "e3084f77aee875ee3991f1c53318559b7451d7bca78a0d030db27b1d2d38043a",
    ("DDR4-2400", "open"): "0a53fc325e42d90c02df513cdfa889bbd93fc39b424bdca2ca81d3e93893b875",
    ("DDR4-2400", "closed"): "740fb5e72ba6fa1090cd34eb1f5110ae6c654fedeec01a5886b27e86fde860e1",
    ("DDR4-2666", "open"): "89f30b8b4a2e79a9e4af86bd6ccc6fc8f9ab7ca8e93eb1059ead57395d35cdf7",
    ("DDR4-2666", "closed"): "0acc29568d97bd589e7cd03d9e7a6e8c9626c83a21dc93dea8dda1bfb3369851",
    ("PCM-2666", "open"): "bd7d648c2b79e3b53a4d514dc714693d53d3dd394f0bd55a76755639e2fca70d",
    ("PCM-2666", "closed"): "de82f188bf1ab542917fe12cdec1b632fee07e8744391bc6bc735aa97bc141fb",
}

SMALL_MAPPING_DIGEST = (
    "26a49154df77a467403cf6c2e1b3eaf849f7b647776a722ec30d4eef2e57f3d8")

DEVICE_DIGESTS = {
    (1, "open"): "2054198887846b567c762c1fd6958b0cb7a104f94484ee26bc73363eb42548a4",
    (1, "closed"): "dbfe364097e14e94d0c09302592bdaba80f37ce13cd377531f6e2221de592450",
    (2, "open"): "7bb9f148f7d7de070644c2e2bdd0005f55b60a5c9685d70e088a3d9c262c9e91",
    (2, "closed"): "f2288bc79af2ee6251168bf55e8b7b06ed6a41f5349471bdef745ba5e248ae6e",
    (4, "open"): "fb95e151db9507eb057a2a5b5ffce70c961085240e1b3f48d71cd5a9491248eb",
    (4, "closed"): "560c012ba63c3aee93014094d5cf9d1e39099d349135fb656417d16a95ecd296",
}


@pytest.mark.parametrize("policy", ["open", "closed"])
@pytest.mark.parametrize("name", sorted(TIMINGS))
def test_pinned_controller_stream(name, policy):
    timing = TIMINGS[name]
    ctrl, done = _run_controller(timing, policy, record=True)
    stats = ctrl.stats.snapshot()
    assert stats["dram.refreshes"] >= 1
    assert stats["dram.row_misses"] > 0
    if policy == "open":
        assert stats["dram.row_hits"] > 0
    assert DDR4ProtocolChecker(timing).check(ctrl.commands) == len(ctrl.commands)
    quiet, quiet_done = _run_controller(timing, policy, record=False)
    assert quiet_done == done
    assert quiet.commands == []
    assert quiet.stats.snapshot() == stats
    assert _digest(done, ctrl.stats, ctrl.commands) == \
        CONTROLLER_DIGESTS[(name, policy)]


def test_pinned_controller_small_mapping():
    """4 banks of 1KB rows: the decode runs on other shift widths."""
    mapping = AddressMapping(nbanks=4, row_bytes=1024)
    ctrl, done = _run_controller(DDR4_2666, "open", record=True,
                                 mapping=mapping)
    DDR4ProtocolChecker(DDR4_2666, nbanks=4).check(ctrl.commands)
    assert _digest(done, ctrl.stats, ctrl.commands) == SMALL_MAPPING_DIGEST


def test_pinned_stream_exercises_tfaw():
    """Some fifth ACT waits exactly tFAW after the first of four."""
    ctrl, _ = _run_controller(DDR4_2666, "open", record=True)
    acts = sorted(c.time_ps for c in ctrl.commands if c.kind is CmdType.ACT)
    tfaw = DDR4_2666.ps(DDR4_2666.tfaw)
    assert any(b - a == tfaw for a, b in zip(acts, acts[4:]))


@pytest.mark.parametrize("policy", ["open", "closed"])
@pytest.mark.parametrize("nchannels", [1, 2, 4])
def test_pinned_device_stream(nchannels, policy):
    dev, done = _run_device(nchannels, policy, record=True)
    for channel in dev.channels:
        DDR4ProtocolChecker(DDR4_2666).check(channel.commands)
    quiet, quiet_done = _run_device(nchannels, policy, record=False)
    assert quiet_done == done
    assert quiet.stats.snapshot() == dev.stats.snapshot()
    assert _digest(done, dev.stats, dev.all_commands()) == \
        DEVICE_DIGESTS[(nchannels, policy)]
