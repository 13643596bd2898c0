"""Ethernet framing cost of the NVMe-oE path."""

from __future__ import annotations

ETHERNET_HEADER_BYTES = 18  # dst MAC + src MAC + ethertype + FCS
DEFAULT_MTU = 1500


def wire_bytes_for_payload(payload_bytes: int, mtu: int = DEFAULT_MTU) -> int:
    """Total bytes on the wire (payload + per-frame headers) for a capsule.

    A capsule is split into MTU-sized frames, each carrying its own
    Ethernet header and FCS.  The offload path computes this for every
    capsule, so it is a closed form that builds no frame objects.
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    if mtu < 64:
        raise ValueError("mtu must be at least 64 bytes")
    if payload_bytes == 0:
        return 0
    frame_count = (payload_bytes + mtu - 1) // mtu
    return payload_bytes + frame_count * ETHERNET_HEADER_BYTES
