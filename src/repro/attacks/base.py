"""Attack framework: victim environment, outcomes and the attack base class."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crypto.cipher import StreamCipher
from repro.host.blockdev import HostBlockDevice
from repro.host.filesystem import SimpleFS
from repro.host.process import IOProcess, ProcessRegistry
from repro.sim import SimClock


@dataclass
class AttackEnvironment:
    """Everything an attack needs: a victim file system on a device.

    ``device`` is anything that speaks the SSD block interface (a plain
    :class:`~repro.ssd.device.SSD`, an :class:`~repro.core.rssd.RSSD`,
    or a baseline defense's device).  ``rng`` is the environment's
    explicit random stream: every draw a scenario makes must come from
    it (or from an attack's own seeded ``rng``), never from the shared
    module-level ``random`` state, so scenarios stay reproducible when
    many run in one process or across worker processes.
    """

    clock: SimClock
    device: object
    blockdev: HostBlockDevice
    fs: SimpleFS
    registry: ProcessRegistry
    user_process: IOProcess
    attacker_process: IOProcess
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    @property
    def attacker_stream(self) -> int:
        """Stream id the attacker's destructive I/O is tagged with."""
        return self.attacker_process.stream_id

    @property
    def user_stream(self) -> int:
        """Stream id of the benign user workload."""
        return self.user_process.stream_id


@dataclass
class AttackOutcome:
    """Ground truth about what an attack did, used to judge defenses."""

    attack_name: str
    start_us: int
    end_us: int
    malicious_streams: List[int]
    victim_files: List[str] = field(default_factory=list)
    victim_lbas: List[int] = field(default_factory=list)
    original_fingerprints: Dict[int, int] = field(default_factory=dict)
    original_contents: Dict[str, bytes] = field(default_factory=dict)
    original_extents: Dict[str, List[int]] = field(default_factory=dict)
    pages_encrypted: int = 0
    pages_trimmed: int = 0
    junk_pages_written: int = 0
    ransom_note_files: List[str] = field(default_factory=list)
    compromised_host_defenses: bool = False

    @property
    def duration_us(self) -> int:
        """Length of the attack in simulated microseconds."""
        return max(0, self.end_us - self.start_us)


class RansomwareAttack(ABC):
    """Base class for every attack model.

    ``aggressive`` attacks assume administrator privilege and start by
    disabling host-resident (non-hardware-isolated) defenses, as the
    threat model allows; the timing attack deliberately stays quiet and
    does not.
    """

    name = "ransomware"
    aggressive = True

    def __init__(
        self,
        passphrase: str = "pay-or-lose-your-files",
        seed: Optional[int] = 97,
    ) -> None:
        self.cipher = StreamCipher.from_passphrase(passphrase)
        #: ``seed=None`` defers to the victim environment's explicit rng
        #: (bound on first use), so campaign cells can seed every stream
        #: from one place and nothing ever falls back to the module-level
        #: ``random`` state.
        self.rng: Optional[random.Random] = (
            random.Random(seed) if seed is not None else None
        )
        self._nonce = 0

    # -- helpers shared by all attack models ------------------------------------

    def bind_environment_rng(self, env: AttackEnvironment) -> None:
        """Adopt the environment's rng when constructed with ``seed=None``.

        Called from ``_capture_originals`` (which every attack runs
        first); attacks that draw randomness outside the shared helpers
        must call it themselves before the first draw.
        """
        if self.rng is None:
            self.rng = env.rng

    def _capture_originals(self, env: AttackEnvironment, outcome: AttackOutcome) -> None:
        """Record pre-attack file contents and per-LBA fingerprints."""
        self.bind_environment_rng(env)
        for name in env.fs.list_files():
            data = env.fs.read_file(name)
            outcome.original_contents[name] = data
            outcome.victim_files.append(name)
            outcome.original_extents[name] = env.fs.file_lbas(name)
            for lba in env.fs.file_lbas(name):
                outcome.victim_lbas.append(lba)
                content = env.device.read_content(lba)  # type: ignore[attr-defined]
                if content is not None:
                    outcome.original_fingerprints[lba] = content.fingerprint
        outcome.victim_lbas = sorted(set(outcome.victim_lbas))

    def _encrypt_bytes(self, data: bytes) -> bytes:
        self._nonce += 1
        return self.cipher.encrypt(data, self._nonce)

    def _as_attacker(self, env: AttackEnvironment):
        """Context-style helper: temporarily issue I/O under the attacker stream."""
        return _StreamSwitcher(env.blockdev, env.attacker_stream)

    def _drop_ransom_note(self, env: AttackEnvironment, outcome: AttackOutcome) -> None:
        note = (
            b"YOUR FILES HAVE BEEN ENCRYPTED.\n"
            b"Send 1.5 BTC to the address below to receive the decryption key.\n"
        )
        with self._as_attacker(env):
            name = "READ_ME_RESTORE_FILES.txt"
            if not env.fs.exists(name):
                env.fs.create_file(name, note)
                outcome.ransom_note_files.append(name)

    # -- the attack itself -------------------------------------------------------

    @abstractmethod
    def execute(self, env: AttackEnvironment) -> AttackOutcome:
        """Run the attack against ``env`` and return the ground-truth outcome."""


class NoOpAttack(RansomwareAttack):
    """A benign "attack" that does nothing.

    Lets the campaign and ablation machinery run attack-free scenarios
    (pure workload measurement -- I/O overhead, offload throughput,
    false-positive detection rates) through the exact same
    spec-and-session path as every real attack.
    """

    name = "none"
    aggressive = False

    def execute(self, env: AttackEnvironment) -> AttackOutcome:
        """Touch nothing; return an empty outcome anchored at the current time."""
        self.bind_environment_rng(env)
        now = env.clock.now_us
        return AttackOutcome(
            attack_name=self.name,
            start_us=now,
            end_us=now,
            malicious_streams=[env.attacker_stream],
        )


class _StreamSwitcher:
    """Temporarily switches a block device wrapper to the attacker's stream id."""

    def __init__(self, blockdev: HostBlockDevice, stream_id: int) -> None:
        self._blockdev = blockdev
        self._stream_id = stream_id
        self._saved: Optional[int] = None

    def __enter__(self) -> HostBlockDevice:
        self._saved = self._blockdev.stream_id
        self._blockdev.stream_id = self._stream_id
        return self._blockdev

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._saved is not None
        self._blockdev.stream_id = self._saved
