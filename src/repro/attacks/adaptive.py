"""Detection-aware (adaptive) ransomware.

The attacks in this module know the defenses they are up against.  Every
deployed detector in the reproduction keys on the same observables -- the
entropy of individual writes, the fraction of encrypted-looking writes
inside a short window, and trim bursts -- so a privileged attacker that
has read the defense's documentation (or probed its thresholds) can
shape its I/O to stay just under every line.  Four families are
implemented, all sharing one :class:`EvasionPolicy` knob set:

* :class:`EntropyMimicryAttack` -- compress-then-encrypt, then re-encode
  the ciphertext into a restricted alphabet so every written page holds
  its entropy *just under* the detectors' absolute threshold.
* :class:`IntermittentEncryptionAttack` -- encrypt only every k-th page
  of each file, diluting the windowed high-entropy fraction below the
  detector's trigger while still destroying enough of every file.
* :class:`RateThrottledAttack` -- low-and-slow v2: real bulk encryption,
  but each burst is padded with benign-looking decoy writes (computed
  from the window detector's fraction threshold) and paced so no window
  ever trips.
* :class:`TrimInterleavedWipeAttack` -- the trimming attack with the
  entropy tell removed: ciphertext copies are entropy-shaped, and trims
  are interleaved with decoy writes so no trim burst stands out.

These are the attack columns the detection-quality (ROC) pipeline
scores defenses against; see :mod:`repro.campaign.roc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.attacks.base import AttackEnvironment, AttackOutcome, RansomwareAttack
from repro.core.trim_handler import TrimRejectedError
from repro.crypto.cipher import keystream_bytes
from repro.crypto.compression import Compressor
from repro.sim import US_PER_SECOND
from repro.ssd.errors import SSDError
from repro.ssd.flash import PageContent

#: Low-entropy filler used for decoy traffic (entropy ~= ordinary text).
_DECOY_TEXT = b"weekly status notes, action items, travel receipts, drafts. "


@dataclass(frozen=True)
class EvasionPolicy:
    """How hard an adaptive attack works to stay under detection thresholds.

    One policy parameterises the whole family so campaign grids can
    sweep evasion *strength* as an axis:

    * ``bits_per_symbol`` drives entropy shaping: ciphertext is
      re-encoded into a ``2**bits_per_symbol``-symbol alphabet, so the
      written data's entropy sits at ~``bits_per_symbol`` bits/byte.
      7 bits lands just under the canonical 7.2 threshold (cheapest
      expansion, 8/7); 6 bits also ducks the post-fix entropy-*jump*
      detector against typical user text, at 8/6 expansion.
    * ``encrypt_stride`` is the k of partial encryption: every k-th
      page of a file is encrypted, the rest left intact.
    * ``max_high_entropy_fraction`` is the windowed encrypted-write
      fraction the attacker is willing to show; decoy writes are sized
      from it (``decoys = pages * (1/f - 1)``).
    * ``op_gap_us`` paces malicious bursts so rate-gated detectors
      never see a sustained spike.
    """

    bits_per_symbol: int = 7
    encrypt_stride: int = 2
    max_high_entropy_fraction: float = 0.4
    op_gap_us: int = 90 * US_PER_SECOND

    def __post_init__(self) -> None:
        if not 1 <= self.bits_per_symbol <= 8:
            raise ValueError("bits_per_symbol must be within [1, 8]")
        if self.encrypt_stride < 1:
            raise ValueError("encrypt_stride must be at least 1")
        if not 0.0 < self.max_high_entropy_fraction <= 1.0:
            raise ValueError("max_high_entropy_fraction must be within (0, 1]")
        if self.op_gap_us < 0:
            raise ValueError("op_gap_us must be non-negative")

    @classmethod
    def light(cls) -> "EvasionPolicy":
        """Cheapest evasion: minimal expansion, modest dilution."""
        return cls()

    @classmethod
    def strong(cls) -> "EvasionPolicy":
        """Maximum stealth: 6-bit shaping (ducks the jump detector on
        typical text), sparser partial encryption, heavier dilution."""
        return cls(
            bits_per_symbol=6,
            encrypt_stride=4,
            max_high_entropy_fraction=0.25,
            op_gap_us=180 * US_PER_SECOND,
        )

    def decoys_for(self, malicious_pages: int) -> int:
        """Decoy writes needed to dilute ``malicious_pages`` encrypted
        writes below ``max_high_entropy_fraction`` in any window."""
        if malicious_pages <= 0:
            return 0
        return math.ceil(malicious_pages * (1.0 / self.max_high_entropy_fraction - 1.0))


def shape_entropy(data: bytes, bits_per_symbol: int) -> bytes:
    """Re-encode ``data`` into a ``2**bits_per_symbol``-symbol alphabet.

    Packs the input bit stream into ``bits_per_symbol``-bit symbols, so
    uniformly random input (ciphertext) comes out with entropy of about
    ``bits_per_symbol`` bits per byte at an expansion factor of
    ``8 / bits_per_symbol``.  This is the mechanism real evasive
    families use (base64-style re-encoding is the 6-bit special case);
    the attacker picks the widest alphabet whose entropy still sits
    under the detector's published threshold, because a narrower one
    costs proportionally more write volume.
    """
    if not 1 <= bits_per_symbol <= 8:
        raise ValueError("bits_per_symbol must be within [1, 8]")
    if bits_per_symbol == 8:
        return data
    out = bytearray()
    accumulator = 0
    pending_bits = 0
    mask = (1 << bits_per_symbol) - 1
    for byte in data:
        accumulator = (accumulator << 8) | byte
        pending_bits += 8
        while pending_bits >= bits_per_symbol:
            pending_bits -= bits_per_symbol
            out.append((accumulator >> pending_bits) & mask)
            accumulator &= (1 << pending_bits) - 1
    if pending_bits:
        out.append((accumulator << (bits_per_symbol - pending_bits)) & mask)
    return bytes(out)


class AdaptiveAttack(RansomwareAttack):
    """Base class for the detection-aware attack family.

    Adaptive attacks are stealthy by construction: like the timing
    attack they do not tip their hand by disabling host defenses
    (``aggressive = False``) -- their whole point is that the defenses
    stay up and simply never trigger.
    """

    name = "adaptive"
    aggressive = False

    def __init__(self, policy: "EvasionPolicy | None" = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.policy = policy if policy is not None else EvasionPolicy.light()
        self._compressor = Compressor()
        self._pad_nonce = 1 << 48

    # -- shared evasion machinery -------------------------------------------------

    def _mimic_bytes(self, plaintext: bytes) -> bytes:
        """Compress-then-encrypt ``plaintext``, entropy-shaped and padded.

        The result is exactly ``len(plaintext)`` bytes (so an in-place
        overwrite stays size-stealthy) with entropy held at about
        ``policy.bits_per_symbol`` bits/byte everywhere: the shaped
        ciphertext is padded with shaped *keystream*, so padding is
        statistically indistinguishable from payload.  When the payload
        does not fit even after compression, the tail is simply
        truncated shaped ciphertext -- the attack degrades rather than
        exceeding its entropy budget.
        """
        compressed = self._compressor.compress(plaintext)
        ciphertext = self._encrypt_bytes(compressed)
        shaped = shape_entropy(ciphertext, self.policy.bits_per_symbol)
        target_len = len(plaintext)
        if len(shaped) >= target_len:
            return shaped[:target_len]
        pad_len = target_len - len(shaped)
        # ceil(pad_len * bits/8) raw keystream bytes shape into >= pad_len.
        raw_pad = keystream_bytes(
            b"mimicry-pad",
            self._pad_nonce,
            (pad_len * self.policy.bits_per_symbol + 7) // 8 + 1,
        )
        self._pad_nonce += 1
        pad = shape_entropy(raw_pad, self.policy.bits_per_symbol)[:pad_len]
        return shaped + pad

    def _decoy_writes(self, env: AttackEnvironment, count: int) -> None:
        """Issue ``count`` benign-looking writes under the attacker stream.

        Decoys land in the upper half of the address space (scratch
        territory, never the hostage files) and carry ordinary-text
        entropy, so they dilute any window detector's high-entropy
        fraction without destroying anything the attacker cares about.
        """
        if count <= 0:
            return
        page_size = env.blockdev.page_size
        capacity = env.blockdev.capacity_pages
        base = capacity // 2
        filler = (_DECOY_TEXT * (page_size // len(_DECOY_TEXT) + 1))[:page_size]
        content = PageContent.from_bytes(filler)
        for _ in range(count):
            lba = base + self.rng.randrange(max(1, capacity - base))
            env.device.write(lba, content, stream_id=env.attacker_stream)  # type: ignore[attr-defined]

    def _begin(self, env: AttackEnvironment) -> AttackOutcome:
        """Standard preamble: outcome shell plus ground-truth capture."""
        outcome = AttackOutcome(
            attack_name=self.name,
            start_us=env.clock.now_us,
            end_us=env.clock.now_us,
            malicious_streams=[env.attacker_stream],
        )
        self._capture_originals(env, outcome)
        return outcome


class EntropyMimicryAttack(AdaptiveAttack):
    """In-place encryption that holds every write under the entropy line.

    The bypass this attack exploits is the one an absolute-threshold
    entropy rule leaves open: it flags only writes at or above the
    *absolute* threshold, so shaped ciphertext at ~7.0 bits/byte sails
    through.  The entropy-*jump* trigger catches the ~+2.8 bits/byte
    rise over the text it replaces -- unless the attacker pays for
    stronger shaping (:meth:`EvasionPolicy.strong`).
    """

    name = "entropy-mimicry"

    def __init__(self, inter_file_delay_us: int = 2_000, **kwargs) -> None:
        super().__init__(**kwargs)
        if inter_file_delay_us < 0:
            raise ValueError("inter_file_delay_us must be non-negative")
        self.inter_file_delay_us = inter_file_delay_us

    def execute(self, env: AttackEnvironment) -> AttackOutcome:
        """Overwrite every victim file with entropy-shaped ciphertext."""
        outcome = self._begin(env)
        for name in list(outcome.victim_files):
            plaintext = env.fs.read_file(name)
            mimic = self._mimic_bytes(plaintext)
            with self._as_attacker(env):
                env.fs.overwrite_file(name, mimic)
            outcome.pages_encrypted += (
                len(plaintext) + env.blockdev.page_size - 1
            ) // env.blockdev.page_size
            env.clock.advance(self.inter_file_delay_us)
        self._drop_ransom_note(env, outcome)
        outcome.end_us = env.clock.now_us
        return outcome


class IntermittentEncryptionAttack(AdaptiveAttack):
    """Partial (every k-th page) encryption, LockBit-style.

    Encrypting a fraction ``1/k`` of each file is enough to make it
    unusable, while the windowed high-entropy fraction observed by
    SSDInsider-style detectors stays near ``1/k`` -- under the trigger
    for k >= 2 at the canonical 0.6-0.75 fraction thresholds.
    """

    name = "intermittent-encrypt"

    def __init__(self, inter_file_delay_us: int = 2_000, **kwargs) -> None:
        super().__init__(**kwargs)
        if inter_file_delay_us < 0:
            raise ValueError("inter_file_delay_us must be non-negative")
        self.inter_file_delay_us = inter_file_delay_us

    def execute(self, env: AttackEnvironment) -> AttackOutcome:
        """Encrypt every k-th page of every victim file in place."""
        outcome = self._begin(env)
        page_size = env.blockdev.page_size
        stride = self.policy.encrypt_stride
        for name in list(outcome.victim_files):
            plaintext = env.fs.read_file(name)
            pieces = []
            for page_index in range(0, (len(plaintext) + page_size - 1) // page_size):
                chunk = plaintext[page_index * page_size : (page_index + 1) * page_size]
                if page_index % stride == 0:
                    pieces.append(self._encrypt_bytes(chunk))
                    outcome.pages_encrypted += 1
                else:
                    pieces.append(chunk)
            with self._as_attacker(env):
                env.fs.overwrite_file(name, b"".join(pieces))
            env.clock.advance(self.inter_file_delay_us)
        self._drop_ransom_note(env, outcome)
        outcome.end_us = env.clock.now_us
        return outcome


class RateThrottledAttack(AdaptiveAttack):
    """Low-and-slow v2: full-strength encryption hidden by dilution + pacing.

    Unlike the original timing attack (which only paces), v2 *computes*
    its camouflage from the detector model: after encrypting each file
    it issues exactly enough benign-looking decoy writes to keep any
    window's high-entropy fraction under
    ``policy.max_high_entropy_fraction``, then waits ``policy.op_gap_us``
    so rate-gated detectors see no burst either.
    """

    name = "low-slow-v2"

    def execute(self, env: AttackEnvironment) -> AttackOutcome:
        """Encrypt files one at a time behind computed decoy dilution."""
        outcome = self._begin(env)
        page_size = env.blockdev.page_size
        for name in list(outcome.victim_files):
            plaintext = env.fs.read_file(name)
            ciphertext = self._encrypt_bytes(plaintext)
            with self._as_attacker(env):
                env.fs.overwrite_file(name, ciphertext)
            pages = (len(plaintext) + page_size - 1) // page_size
            outcome.pages_encrypted += pages
            self._decoy_writes(env, self.policy.decoys_for(pages))
            env.clock.advance(self.policy.op_gap_us)
        self._drop_ransom_note(env, outcome)
        outcome.end_us = env.clock.now_us
        return outcome


class TrimInterleavedWipeAttack(AdaptiveAttack):
    """Trim-based plaintext destruction with the entropy tell removed.

    The plain trimming attack betrays itself twice: the ciphertext
    copies it writes look encrypted, and its trims arrive in one burst.
    This variant entropy-shapes the copies and interleaves each file's
    trim with decoy writes and a pacing gap, so neither the entropy
    window nor a trim-burst heuristic fires while the plaintext is
    physically erased underneath every retention-based defense.
    """

    name = "trim-interleave"

    def __init__(self, decoys_per_file: int = 2, **kwargs) -> None:
        super().__init__(**kwargs)
        if decoys_per_file < 0:
            raise ValueError("decoys_per_file must be non-negative")
        self.decoys_per_file = decoys_per_file

    def execute(self, env: AttackEnvironment) -> AttackOutcome:
        """Encrypt to shaped copies, then trim originals behind decoys."""
        outcome = self._begin(env)
        page_size = env.blockdev.page_size
        for name in list(outcome.victim_files):
            plaintext = env.fs.read_file(name)
            mimic = self._mimic_bytes(plaintext)
            lbas = env.fs.file_lbas(name)
            with self._as_attacker(env):
                env.fs.create_file(name + ".locked", mimic)
                try:
                    env.fs.delete_file(name, trim=True)
                    outcome.pages_trimmed += len(lbas)
                except (TrimRejectedError, SSDError):
                    # Trim rejected (DISABLED mode): plain delete leaves
                    # the plaintext to normal GC, as in the base attack.
                    if env.fs.exists(name):
                        env.fs.delete_file(name, trim=False)
            outcome.pages_encrypted += (len(plaintext) + page_size - 1) // page_size
            self._decoy_writes(env, self.decoys_per_file)
            env.clock.advance(self.policy.op_gap_us)
        self._drop_ransom_note(env, outcome)
        outcome.end_us = env.clock.now_us
        return outcome
