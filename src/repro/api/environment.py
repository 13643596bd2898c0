"""Victim-environment provisioning for the scenario facade.

A *victim environment* is a populated file system on a device, plus the
process registry that tags benign and malicious I/O streams --
everything an attack or workload needs to run.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.attacks.base import AttackEnvironment
from repro.host.blockdev import HostBlockDevice
from repro.host.filesystem import SimpleFS
from repro.host.process import Privilege, ProcessRegistry
from repro.sim import SimClock


def provision_environment(
    device: object,
    victim_files: int = 24,
    file_size_bytes: int = 8192,
    seed: int = 23,
    rng: Optional[random.Random] = None,
) -> AttackEnvironment:
    """Create a victim environment with ``victim_files`` populated documents.

    ``device`` is anything speaking the SSD block interface (a plain
    :class:`~repro.ssd.device.SSD`, an :class:`~repro.core.rssd.RSSD`,
    or a defense's device).  ``seed`` drives both the file contents and
    (unless an explicit ``rng`` is supplied) the environment's random
    stream, so a given ``(device, seed)`` pair always produces the same
    victim.  :meth:`repro.api.Session.provision` calls this with the
    spec's derived environment seed; standalone consumers (the examples,
    custom experiments) call it directly.
    """
    clock: SimClock = device.clock  # type: ignore[attr-defined]
    registry = ProcessRegistry()
    user = registry.spawn("user-workload", privilege=Privilege.USER)
    attacker = registry.spawn(
        "ransomware", privilege=Privilege.ADMIN, is_malicious=True
    )
    blockdev = HostBlockDevice(device, stream_id=user.stream_id)  # type: ignore[arg-type]
    fs = SimpleFS(blockdev)
    fs.populate(victim_files, file_size_bytes, seed=seed)
    return AttackEnvironment(
        clock=clock,
        device=device,
        blockdev=blockdev,
        fs=fs,
        registry=registry,
        user_process=user,
        attacker_process=attacker,
        rng=rng if rng is not None else random.Random(seed),
    )
