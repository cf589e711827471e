"""Physical-address to DRAM-coordinate mapping.

The default layout is row:bank:column:offset — consecutive cache lines
fill a row before moving to the next bank, which keeps sequential streams
on open rows (the behaviour DRAMA-style mapping probes detect on real
parts, and a good match for the on-DIMM DRAM where the 4KB AIT entries
are laid out contiguously).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.errors import ConfigError
from repro.common.units import is_power_of_two
from repro.engine.request import CACHE_LINE

#: log2 of the 64B line: the column field starts at this address bit.
LINE_SHIFT = CACHE_LINE.bit_length() - 1


@dataclass(frozen=True)
class AddressMapping:
    """Decompose byte addresses into (bank, row, col).

    ``row_bytes`` is the row-buffer size per bank; ``col`` indexes 64B
    bursts within the row.
    """

    nbanks: int = 16
    row_bytes: int = 8192

    def __post_init__(self) -> None:
        if not is_power_of_two(self.nbanks):
            raise ConfigError(f"nbanks must be a power of two, got {self.nbanks}")
        if not is_power_of_two(self.row_bytes) or self.row_bytes < CACHE_LINE:
            raise ConfigError(f"invalid row_bytes {self.row_bytes}")

    @property
    def cols_per_row(self) -> int:
        return self.row_bytes // CACHE_LINE

    @property
    def bank_shift(self) -> int:
        """Address bit where the bank field starts (log2 ``row_bytes``)."""
        return self.row_bytes.bit_length() - 1

    @property
    def row_shift(self) -> int:
        """Address bit where the row field starts."""
        return self.bank_shift + self.nbanks.bit_length() - 1

    def decompose(self, addr: int) -> Tuple[int, int, int]:
        """Return ``(bank, row, col)`` for a byte address.

        Both sizes are powers of two, so the fields are shifts and masks.
        """
        col = (addr >> LINE_SHIFT) & (self.cols_per_row - 1)
        bank = (addr >> self.bank_shift) & (self.nbanks - 1)
        return bank, addr >> self.row_shift, col

    def compose(self, bank: int, row: int, col: int) -> int:
        """Inverse of :meth:`decompose` (returns the line base address)."""
        line = (row * self.nbanks + bank) * self.cols_per_row + col
        return line * CACHE_LINE
