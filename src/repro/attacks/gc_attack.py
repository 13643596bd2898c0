"""The garbage-collection (GC) attack.

A flash-aware attacker knows that retention-based defenses keep old
page versions in the SSD's spare capacity.  After encrypting the victim
files, the attack floods the device with worthless writes until free
space runs out and garbage collection is forced to reclaim blocks --
releasing any retained stale pages a capacity-bounded defense was
counting on for recovery.
"""

from __future__ import annotations

from repro.attacks.base import AttackEnvironment, AttackOutcome, RansomwareAttack
from repro.attacks.classic import ClassicRansomware, DestructionMode
from repro.host.filesystem import FileSystemError
from repro.ssd.errors import SSDError


class GCAttack(RansomwareAttack):
    """Encrypt, then exhaust capacity to force retained data out of the SSD."""

    name = "gc-attack"
    aggressive = True

    def __init__(
        self,
        fill_fraction: float = 0.98,
        junk_file_pages: int = 8,
        max_junk_files: int = 4096,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0.0 < fill_fraction <= 1.0:
            raise ValueError("fill_fraction must be within (0, 1]")
        if junk_file_pages < 1:
            raise ValueError("junk_file_pages must be at least 1")
        self.fill_fraction = fill_fraction
        self.junk_file_pages = junk_file_pages
        self.max_junk_files = max_junk_files
        self._encryptor = ClassicRansomware(
            destruction=DestructionMode.OVERWRITE, **kwargs
        )

    def execute(self, env: AttackEnvironment) -> AttackOutcome:
        """Encrypt the victim files, then flood capacity to force GC."""
        # The capacity flood draws from self.rng without going through
        # _capture_originals (the inner encryptor does that on itself).
        self.bind_environment_rng(env)
        # Phase 1: ordinary bulk encryption of the victim files.
        outcome = self._encryptor.execute(env)
        outcome.attack_name = self.name
        outcome.malicious_streams = [env.attacker_stream]

        # Phase 2: fill the remaining capacity with junk to trigger GC and
        # evict whatever the device retained during phase 1.
        outcome.junk_pages_written = self._fill_capacity(env)
        outcome.end_us = env.clock.now_us
        return outcome

    def _fill_capacity(self, env: AttackEnvironment) -> int:
        junk_written = 0
        junk_len = env.blockdev.page_size * self.junk_file_pages
        target_free = int(env.blockdev.capacity_pages * (1.0 - self.fill_fraction))
        with self._as_attacker(env):
            for index in range(self.max_junk_files):
                if env.fs.free_pages_remaining() <= max(target_free, self.junk_file_pages):
                    break
                # The top byte of each 32-bit generator output.  CPython
                # assembles a wide draw from successive outputs, least
                # significant first, so these are the bytes (and the rng
                # state) of ``junk_len`` getrandbits(8) calls.
                junk = self.rng.getrandbits(32 * junk_len).to_bytes(4 * junk_len, "little")[3::4]
                try:
                    env.fs.create_file(f".cache_{index:06d}.bin", junk)
                except (FileSystemError, SSDError):
                    # The device is full or is stalling writes to protect
                    # retained data; either way the flood stops here.
                    break
                junk_written += self.junk_file_pages
        return junk_written
