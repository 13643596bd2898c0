"""NAND-flash SSD substrate.

This package models the storage substrate that every defense in the
paper (including RSSD itself) is layered on: flash geometry, the
flash translation layer (FTL), garbage collection, wear leveling, the
on-board DRAM write buffer, a latency model calibrated to public NAND
datasheet numbers, and device-level statistics (write amplification,
erase counts, expected lifetime).

The central class is :class:`repro.ssd.device.SSD`, a block device with
``read`` / ``write`` / ``trim`` / ``flush`` operations.  Defense
policies hook into the device through a
:class:`repro.ssd.ftl.RetentionPolicy` (which decides whether stale
flash pages may be physically erased) and through operation observers.
"""

from repro.ssd.device import SSD
from repro.ssd.errors import (
    CapacityExhaustedError,
    FlashStateError,
    OutOfRangeError,
    SSDError,
)
from repro.ssd.flash import FlashArray, FlashBlock, FlashPage, PageContent, PageState
from repro.ssd.ftl import FTL, PageMetadata, PassthroughRetention, RetentionPolicy
from repro.ssd.gc import CostBenefitGC, GarbageCollector, GreedyGC
from repro.ssd.geometry import SSDGeometry
from repro.ssd.latency import LatencyModel
from repro.ssd.metrics import DeviceMetrics

__all__ = [
    "CapacityExhaustedError",
    "CostBenefitGC",
    "DeviceMetrics",
    "FTL",
    "FlashArray",
    "FlashBlock",
    "FlashPage",
    "FlashStateError",
    "GarbageCollector",
    "GreedyGC",
    "LatencyModel",
    "OutOfRangeError",
    "PageContent",
    "PageMetadata",
    "PageState",
    "PassthroughRetention",
    "RetentionPolicy",
    "SSD",
    "SSDError",
    "SSDGeometry",
]
