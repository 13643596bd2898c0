"""Hardware-isolated NVMe-over-Ethernet substrate.

The paper's RSSD prototype adds an Ethernet MAC, DMA engine and TX/RX
buffers directly to the SSD controller (Figure 1), so retained pages
and log segments can be shipped to remote cloud/storage servers without
traversing the (untrusted) host.  This package models that path:

* :mod:`repro.nvmeoe.frame` -- the wire cost of Ethernet framing and
  MTU fragmentation.
* :mod:`repro.nvmeoe.nic` -- the embedded NIC (rings + DMA) with the
  firmware-only access control that provides hardware isolation.
* :mod:`repro.nvmeoe.link` -- a bandwidth/latency link model.
* :mod:`repro.nvmeoe.protocol` -- NVMe-oE command capsules.
* :mod:`repro.nvmeoe.remote` -- remote targets: an S3-like object store
  and an append-only storage server.
"""

from repro.nvmeoe.frame import ETHERNET_HEADER_BYTES
from repro.nvmeoe.link import LinkStats, NetworkLink
from repro.nvmeoe.nic import EmbeddedNIC, FirmwareToken
from repro.nvmeoe.protocol import Capsule, CapsuleType, NVMeOEProtocol
from repro.nvmeoe.remote import ObjectStore, RemoteObject, StorageServer, TieredRemote

__all__ = [
    "Capsule",
    "CapsuleType",
    "ETHERNET_HEADER_BYTES",
    "EmbeddedNIC",
    "FirmwareToken",
    "LinkStats",
    "NetworkLink",
    "NVMeOEProtocol",
    "ObjectStore",
    "RemoteObject",
    "StorageServer",
    "TieredRemote",
]
