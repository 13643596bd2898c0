"""Embedded NIC model with the firmware-only access boundary.

In RSSD the NIC lives inside the SSD controller (Figure 1): DMA engine,
TX/RX buffers, MAC and control registers are reachable only by the SSD
firmware, never by the host.  This is what makes the offload path
trustworthy even when the OS is compromised.  The model enforces the
boundary with a :class:`FirmwareToken` capability object that only the
device firmware holds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.sim import SimClock
from repro.ssd.errors import FirmwareProtectionError
from repro.nvmeoe.link import NetworkLink


class FirmwareToken:
    """Capability proving the caller is the SSD firmware.

    Only :class:`EmbeddedNIC.issue_firmware_token` creates instances and
    it can be called exactly once -- the device firmware grabs the token
    at initialisation time, before any host software runs.
    """

    __slots__ = ("_nic_id",)

    def __init__(self, nic_id: int) -> None:
        self._nic_id = nic_id

    @property
    def nic_id(self) -> int:
        """Identity of the NIC this token authorises."""
        return self._nic_id


@dataclass
class NICStats:
    """Counters kept by the embedded NIC."""

    tx_capsules: int = 0
    tx_payload_bytes: int = 0
    rx_capsules: int = 0
    rx_payload_bytes: int = 0
    dma_transfers: int = 0
    rejected_host_accesses: int = 0


class EmbeddedNIC:
    """The SSD-internal NIC: DMA + TX/RX rings + MAC, firmware-only."""

    def __init__(
        self,
        clock: SimClock,
        link: NetworkLink,
        tx_ring_entries: int = 256,
        dma_us_per_kb: float = 0.25,
    ) -> None:
        if tx_ring_entries < 1:
            raise ValueError("tx_ring_entries must be at least 1")
        if dma_us_per_kb < 0:
            raise ValueError("dma_us_per_kb must be non-negative")
        self.clock = clock
        self.link = link
        self.tx_ring_entries = tx_ring_entries
        self.dma_us_per_kb = dma_us_per_kb
        self.stats = NICStats()
        self._token: Optional[FirmwareToken] = None
        self._tx_ring: Deque[int] = deque()
        self._nic_id = id(self)

    def issue_firmware_token(self) -> FirmwareToken:
        """Hand the single firmware capability to the caller (once)."""
        if self._token is not None:
            raise FirmwareProtectionError(
                "the firmware token has already been issued; host software "
                "cannot obtain NIC access"
            )
        self._token = FirmwareToken(self._nic_id)
        return self._token

    def _check_token(self, token: Optional[FirmwareToken]) -> None:
        if token is None or token is not self._token:
            self.stats.rejected_host_accesses += 1
            raise FirmwareProtectionError(
                "NVMe-oE control registers are hardware-isolated from the host"
            )

    def dma_latency_us(self, payload_bytes: int) -> float:
        """DMA cost of staging ``payload_bytes`` from flash/DRAM to the TX buffer."""
        return self.dma_us_per_kb * (payload_bytes / 1024.0)

    def send_capsule(self, token: Optional[FirmwareToken], payload_bytes: int) -> float:
        """Transmit one NVMe-oE capsule; returns arrival timestamp at the remote.

        Raises :class:`FirmwareProtectionError` when called without the
        firmware capability -- this is the attack surface the threat
        model closes off.
        """
        self._check_token(token)
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        if len(self._tx_ring) >= self.tx_ring_entries:
            # Ring full: the oldest descriptor has certainly completed by
            # the time a new transfer is queued behind the link backlog.
            self._tx_ring.popleft()
        self._tx_ring.append(payload_bytes)
        self.stats.dma_transfers += 1
        self.stats.tx_capsules += 1
        self.stats.tx_payload_bytes += payload_bytes
        completion = self.link.transfer(payload_bytes)
        return completion + self.dma_latency_us(payload_bytes)

    def receive_capsule(self, token: Optional[FirmwareToken], payload_bytes: int) -> float:
        """Receive one capsule from the remote (used during recovery fetches)."""
        self._check_token(token)
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        self.stats.rx_capsules += 1
        self.stats.rx_payload_bytes += payload_bytes
        completion = self.link.transfer(payload_bytes)
        return completion + self.dma_latency_us(payload_bytes)
