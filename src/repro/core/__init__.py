"""RSSD core: the paper's primary contribution.

The core package layers the ransomware-aware machinery on top of the
SSD substrate:

* :mod:`repro.core.config` -- configuration of the whole device.
* :mod:`repro.core.oplog` -- hardware-assisted, hash-chained logging of
  every storage operation in arrival order.
* :mod:`repro.core.retention` -- conservative retention of *all* stale
  data (overwritten or trimmed) until it is safely offloaded.
* :mod:`repro.core.trim_handler` -- the enhanced trim command that
  retains trimmed data instead of releasing it.
* :mod:`repro.core.offload` -- hardware-isolated NVMe-oE offloading of
  retained pages and log segments (compressed + encrypted, time order).
* :mod:`repro.core.detection` -- local lightweight and remote offloaded
  ransomware detection, and the per-stream profiling (with its
  hindsight suspect rule) that post-attack analysis in
  :mod:`repro.forensics` shares with the remote detector.
* :mod:`repro.core.rssd` -- the :class:`RSSD` facade wiring it all up.
"""

from repro.core.config import RSSDConfig
from repro.core.detection import DetectionReport, LocalDetector, RemoteDetector
from repro.core.offload import OffloadEngine, OffloadStats
from repro.core.oplog import LogEntry, LogSegment, OperationLog
from repro.core.retention import RetentionManager
from repro.core.rssd import RSSD, build_rssd
from repro.core.trim_handler import EnhancedTrimHandler

__all__ = [
    "DetectionReport",
    "EnhancedTrimHandler",
    "LocalDetector",
    "LogEntry",
    "LogSegment",
    "OffloadEngine",
    "OffloadStats",
    "OperationLog",
    "RSSD",
    "RSSDConfig",
    "RemoteDetector",
    "RetentionManager",
    "build_rssd",
]
