"""Host-side substrate.

The threat model assumes the OS is *not* trusted: ransomware can run
with administrator privilege, kill software defenses and issue any
block command.  This package models exactly the host pieces the attack
scenarios need:

* :mod:`repro.host.blockdev` -- a byte-addressable block layer over the
  SSD's page interface.
* :mod:`repro.host.filesystem` -- a small extent-based file system so
  ransomware samples can attack real files with real bytes and the
  recovery experiments can check content round-trips.
* :mod:`repro.host.process` -- processes that own I/O streams.
"""

from repro.host.blockdev import HostBlockDevice
from repro.host.filesystem import FileRecord, FileSystemError, SimpleFS
from repro.host.process import IOProcess, ProcessRegistry

__all__ = [
    "FileRecord",
    "FileSystemError",
    "HostBlockDevice",
    "IOProcess",
    "ProcessRegistry",
    "SimpleFS",
]
