"""Process model: each process owns an I/O stream and a privilege level."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List


class Privilege(enum.Enum):
    """Host privilege levels relevant to the threat model."""

    USER = "user"
    ADMIN = "admin"
    KERNEL = "kernel"


@dataclass
class IOProcess:
    """A host process that issues block I/O.

    ``stream_id`` tags every request the process issues so device-side
    observers (and the evidence chain) can attribute operations, even
    though the device itself does not trust the tag for security
    decisions.
    """

    pid: int
    name: str
    stream_id: int
    privilege: Privilege = Privilege.USER
    is_malicious: bool = False


class ProcessRegistry:
    """Tracks the processes participating in a scenario."""

    def __init__(self) -> None:
        self._processes: Dict[int, IOProcess] = {}
        self._pid_counter = itertools.count(100)
        self._stream_counter = itertools.count(1)

    def spawn(
        self,
        name: str,
        privilege: Privilege = Privilege.USER,
        is_malicious: bool = False,
    ) -> IOProcess:
        """Create and register a new process."""
        pid = next(self._pid_counter)
        process = IOProcess(
            pid=pid,
            name=name,
            stream_id=next(self._stream_counter),
            privilege=privilege,
            is_malicious=is_malicious,
        )
        self._processes[pid] = process
        return process

    def malicious_streams(self) -> List[int]:
        """Stream ids owned by known-malicious processes (ground truth)."""
        return [
            process.stream_id
            for process in self._processes.values()
            if process.is_malicious
        ]

    def __len__(self) -> int:
        return len(self._processes)
