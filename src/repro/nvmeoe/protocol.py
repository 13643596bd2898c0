"""NVMe-over-Ethernet protocol capsules.

The offload engine packs retained pages and log segments into capsules;
the protocol layer sizes the capsules (headers, per-entry metadata).
Absolute byte layouts are not important to the results -- capsule
*sizes* are, since they determine link utilisation and therefore
retention time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

CAPSULE_HEADER_BYTES = 64
ENTRY_METADATA_BYTES = 40


class CapsuleType(enum.Enum):
    """NVMe-oE capsule types used by RSSD."""

    OFFLOAD_PAGES = "offload_pages"
    OFFLOAD_LOG_SEGMENT = "offload_log_segment"
    FETCH_PAGES = "fetch_pages"
    FETCH_RESPONSE = "fetch_response"
    ACK = "ack"
    HEARTBEAT = "heartbeat"


@dataclass(frozen=True)
class Capsule:
    """One protocol capsule.

    ``payload_bytes`` is the compressed+encrypted body size; ``entries``
    counts the retained pages or log records inside so the remote end
    can account for them without decoding the body in the simulator.
    """

    capsule_type: CapsuleType
    sequence: int
    payload_bytes: int
    entries: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        if self.entries < 0:
            raise ValueError("entries must be non-negative")
        if self.sequence < 0:
            raise ValueError("sequence must be non-negative")

    @property
    def wire_payload_bytes(self) -> int:
        """Capsule size on the wire (header + per-entry metadata + body)."""
        return (
            CAPSULE_HEADER_BYTES
            + self.entries * ENTRY_METADATA_BYTES
            + self.payload_bytes
        )


class NVMeOEProtocol:
    """Builds correctly-sequenced capsules for one SSD/remote session."""

    def __init__(self) -> None:
        self._sequence = 0
        self._sent: List[Capsule] = []

    @property
    def capsules_sent(self) -> int:
        """Total capsules built by this protocol instance."""
        return len(self._sent)

    @property
    def history(self) -> List[Capsule]:
        """Every capsule built so far, in build order."""
        return list(self._sent)

    def _next(self, capsule: Capsule) -> Capsule:
        self._sent.append(capsule)
        self._sequence += 1
        return capsule

    def offload_pages(
        self, compressed_bytes: int, page_count: int, first_version: int, last_version: int
    ) -> Capsule:
        """Capsule carrying a batch of retained pages, in time order."""
        return self._next(
            Capsule(
                capsule_type=CapsuleType.OFFLOAD_PAGES,
                sequence=self._sequence,
                payload_bytes=compressed_bytes,
                entries=page_count,
                metadata={
                    "first_version": first_version,
                    "last_version": last_version,
                },
            )
        )

    def offload_log_segment(self, compressed_bytes: int, record_count: int, segment_id: int) -> Capsule:
        """Capsule carrying one sealed log segment."""
        return self._next(
            Capsule(
                capsule_type=CapsuleType.OFFLOAD_LOG_SEGMENT,
                sequence=self._sequence,
                payload_bytes=compressed_bytes,
                entries=record_count,
                metadata={"segment_id": segment_id},
            )
        )

    def fetch_pages(self, page_count: int) -> Capsule:
        """Request capsule asking the remote for retained pages (recovery)."""
        return self._next(
            Capsule(
                capsule_type=CapsuleType.FETCH_PAGES,
                sequence=self._sequence,
                payload_bytes=0,
                entries=page_count,
            )
        )

    def ack(self, acked_sequence: int) -> Capsule:
        """Acknowledgement for a previously sent capsule."""
        return self._next(
            Capsule(
                capsule_type=CapsuleType.ACK,
                sequence=self._sequence,
                payload_bytes=0,
                metadata={"acked_sequence": acked_sequence},
            )
        )

    def verify_ordering(self) -> bool:
        """Check that capsule sequence numbers are strictly increasing."""
        sequences = [capsule.sequence for capsule in self._sent]
        return all(b == a + 1 for a, b in zip(sequences, sequences[1:]))
