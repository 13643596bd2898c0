"""Baseline ransomware defenses (the rows of the paper's Table 1).

Every baseline is layered over the same SSD substrate RSSD uses, so the
capability matrix compares *policies*, not simulators:

* Software baselines (:mod:`repro.defenses.software`) live on the host
  and are therefore not hardware-isolated -- an attacker with
  administrator privilege can disable them, which is part of the threat
  model.
* Hardware baselines (:mod:`repro.defenses.flashguard`,
  :mod:`repro.defenses.timessd`, :mod:`repro.defenses.ssdinsider`,
  :mod:`repro.defenses.rblocker`) run inside the device firmware but
  retain data selectively and for a bounded time, which the three new
  attacks exploit.
* :mod:`repro.defenses.rssd_adapter` exposes the full RSSD device
  through the same defense interface so a campaign can score it in the
  same run.
"""

from repro.defenses.base import (
    Defense,
    HardwareDefense,
    SelectiveRetentionPolicy,
    SoftwareDefense,
)
from repro.defenses.flashguard import FlashGuardDefense
from repro.defenses.matrix import recovery_grade
from repro.defenses.rblocker import RBlockerDefense
from repro.defenses.rssd_adapter import RSSDDefense
from repro.defenses.software import (
    CloudBackupDefense,
    CryptoDropDefense,
    JournalingFSDefense,
    ShieldFSDefense,
    UnveilDefense,
)
from repro.defenses.ssdinsider import SSDInsiderDefense
from repro.defenses.timessd import TimeSSDDefense
from repro.defenses.unprotected import UnprotectedSSD

__all__ = [
    "CloudBackupDefense",
    "CryptoDropDefense",
    "Defense",
    "FlashGuardDefense",
    "HardwareDefense",
    "JournalingFSDefense",
    "RBlockerDefense",
    "RSSDDefense",
    "SSDInsiderDefense",
    "SelectiveRetentionPolicy",
    "ShieldFSDefense",
    "SoftwareDefense",
    "TimeSSDDefense",
    "UnprotectedSSD",
    "UnveilDefense",
    "recovery_grade",
]
