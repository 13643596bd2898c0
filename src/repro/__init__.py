"""RSSD reproduction library.

This package reproduces *RSSD: Defend against Ransomware with
Hardware-Isolated Network-Storage Codesign and Post-Attack Analysis*
(ASPLOS'22) as a trace-driven simulator.  It contains:

* ``repro.ssd`` -- a NAND-flash SSD substrate (FTL, GC, wear leveling,
  trim, latency and lifetime accounting).
* ``repro.nvmeoe`` -- an NVMe-over-Ethernet substrate (NIC, link,
  protocol, remote cloud / storage-server targets).
* ``repro.crypto`` -- cipher, compression and hash-chain substrates.
* ``repro.host`` -- host block layer, a simple file system and process
  models used to drive realistic attack scenarios.
* ``repro.workloads`` -- block-trace formats and synthetic generators
  calibrated to the MSR-Cambridge and FIU volumes used by the paper.
* ``repro.attacks`` -- classic encryption ransomware plus the three
  Ransomware 2.0 attacks (GC, timing, trimming).
* ``repro.defenses`` -- software and hardware baseline defenses used in
  the paper's Table 1.
* ``repro.core`` -- the paper's contribution: the RSSD device with
  conservative retention, hardware-assisted logging, enhanced trim,
  NVMe-oE offloading, zero-data-loss recovery and trusted post-attack
  analysis.
* ``repro.analysis`` -- experiment harnesses and the claims registry
  (``repro claims``) that regenerates the paper's tables and figures
  and checks the paper's claims about them.
* ``repro.api`` -- the stable public facade: declarative
  ``ScenarioSpec``, the ``Session`` lifecycle, the typed ``EventBus``,
  and the ``run_campaign`` / ``run_roc`` / ``run_fleet`` entry points.

Quickstart
----------

>>> from repro import build_rssd, RSSDConfig
>>> rssd = build_rssd(RSSDConfig.small())
>>> rssd.write(lba=0, data=b"hello world")
>>> rssd.read(lba=0)[: len(b"hello world")]
b'hello world'
"""

from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD, build_rssd
from repro.sim import SimClock

__all__ = [
    "RSSD",
    "RSSDConfig",
    "SimClock",
    "build_rssd",
    "__version__",
]

__version__ = "1.0.0"
