"""Flash and device latency model.

Latency numbers default to typical MLC/TLC NAND datasheet values; they
only need to be *relatively* correct (program ≫ read, erase ≫ program)
for the paper's overhead and lifetime results to keep their shape.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyModel:
    """Latency parameters of the flash array and controller, in microseconds.

    Attributes
    ----------
    read_us:
        NAND array read (tR).
    program_us:
        NAND page program (tPROG).
    erase_us:
        NAND block erase (tBERS).
    bus_transfer_us_per_kb:
        Channel bus transfer cost per KiB moved between controller and die.
    controller_us:
        Fixed firmware/controller overhead added to every host command.
    dram_access_us:
        Cost of a hit in the on-board DRAM write buffer or mapping cache.
    log_append_us:
        Cost RSSD adds to append one entry to the hardware-assisted log
        (a DRAM append amortised over a batched flash flush).
    """

    read_us: float = 50.0
    program_us: float = 500.0
    erase_us: float = 3000.0
    bus_transfer_us_per_kb: float = 2.5
    controller_us: float = 3.0
    dram_access_us: float = 1.0
    log_append_us: float = 0.1

    def __post_init__(self) -> None:
        for name in (
            "read_us",
            "program_us",
            "erase_us",
            "bus_transfer_us_per_kb",
            "controller_us",
            "dram_access_us",
            "log_append_us",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def transfer_us(self, nbytes: int) -> float:
        """Bus transfer time for ``nbytes`` of data."""
        if nbytes < 0:
            raise ValueError("cannot transfer a negative number of bytes")
        return self.bus_transfer_us_per_kb * (nbytes / 1024.0)

    def read_page_us(self, page_size: int) -> float:
        """End-to-end latency of reading one flash page."""
        return self.controller_us + self.read_us + self.transfer_us(page_size)

    def program_page_us(self, page_size: int) -> float:
        """End-to-end latency of programming one flash page."""
        return self.controller_us + self.program_us + self.transfer_us(page_size)

    def erase_block_us(self) -> float:
        """Latency of erasing one block."""
        return self.controller_us + self.erase_us

    def copyback_page_us(self, page_size: int) -> float:
        """Latency of relocating a page during GC (read + program)."""
        return self.read_page_us(page_size) + self.program_page_us(page_size)

    @classmethod
    def cosmos_openssd(cls) -> "LatencyModel":
        """Latency profile approximating the Cosmos+ OpenSSD MLC flash."""
        return cls(
            read_us=108.0,
            program_us=1800.0,
            erase_us=6000.0,
            bus_transfer_us_per_kb=3.0,
            controller_us=5.0,
            dram_access_us=1.0,
            log_append_us=0.15,
        )
