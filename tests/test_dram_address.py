"""DRAM address mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.dram.address import AddressMapping
from repro.dram.command import CmdType
from repro.dram.controller import DramController
from repro.dram.device import DramDevice
from repro.dram.timing import DDR4_2666


def test_sequential_lines_share_rows():
    mapping = AddressMapping(nbanks=16, row_bytes=8192)
    bank0, row0, col0 = mapping.decompose(0)
    bank1, row1, col1 = mapping.decompose(64)
    assert (bank0, row0) == (bank1, row1)
    assert col1 == col0 + 1


def test_row_crossing_changes_bank():
    mapping = AddressMapping(nbanks=16, row_bytes=8192)
    bank_a, row_a, _ = mapping.decompose(8192 - 64)
    bank_b, row_b, _ = mapping.decompose(8192)
    assert (bank_a, row_a) != (bank_b, row_b)


def test_cols_per_row():
    assert AddressMapping(row_bytes=8192).cols_per_row == 128


def test_invalid_configs():
    with pytest.raises(ConfigError):
        AddressMapping(nbanks=3)
    with pytest.raises(ConfigError):
        AddressMapping(row_bytes=100)


@given(st.integers(min_value=0, max_value=(1 << 34) - 64))
def test_decompose_compose_roundtrip(addr):
    mapping = AddressMapping()
    line_base = addr - (addr % 64)
    bank, row, col = mapping.decompose(addr)
    assert 0 <= bank < mapping.nbanks
    assert 0 <= col < mapping.cols_per_row
    assert mapping.compose(bank, row, col) == line_base


# -- shift/mask decode vs the division formula -------------------------

def pow2(lo, hi):
    """Powers of two from ``2**lo`` to ``2**hi``."""
    return st.integers(lo, hi).map(lambda k: 1 << k)


addresses = st.integers(min_value=0, max_value=(1 << 40) - 1)


def division_decode(addr, nbanks, row_bytes):
    line = addr // 64
    cols = row_bytes // 64
    return (line // cols) % nbanks, line // cols // nbanks, line % cols


@given(pow2(0, 6), pow2(6, 16), addresses)
def test_decompose_equals_division(nbanks, row_bytes, addr):
    mapping = AddressMapping(nbanks=nbanks, row_bytes=row_bytes)
    bank, row, col = mapping.decompose(addr)
    assert (bank, row, col) == division_decode(addr, nbanks, row_bytes)
    assert mapping.compose(bank, row, col) == addr - addr % 64


@given(pow2(0, 6), pow2(6, 16), addresses, st.booleans())
def test_controller_decode_equals_division(nbanks, row_bytes, addr, is_write):
    mapping = AddressMapping(nbanks=nbanks, row_bytes=row_bytes)
    ctrl = DramController(DDR4_2666, mapping=mapping, record_commands=True)
    ctrl.access(addr, is_write, 0)
    act, cas = ctrl.commands
    bank, row, col = division_decode(addr, nbanks, row_bytes)
    assert act.kind is CmdType.ACT and (act.bank, act.row) == (bank, row)
    assert (cas.bank, cas.row, cas.col) == (bank, row, col)


@given(pow2(0, 3), addresses)
def test_channel_select_equals_division(nchannels, addr):
    dev = DramDevice(DDR4_2666, nchannels=nchannels, capacity_bytes=1 << 40,
                     record_commands=True)
    assert dev._channel_of(addr) == (addr // 64) % nchannels
    dev.access(addr, False, 0)
    local = addr // (64 * nchannels) * 64 + addr % 64
    (busy,) = [c for c in dev.channels if c.commands]
    assert busy is dev.channels[(addr // 64) % nchannels]
    _, cas = busy.commands
    bank, row, col = busy.mapping.decompose(local)
    assert (cas.bank, cas.row, cas.col) == (bank, row, col)
