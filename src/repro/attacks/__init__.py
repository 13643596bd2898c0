"""Ransomware attack models.

Attacks run against a victim environment (a file system on a block
device) exactly the way real samples do: read a file, encrypt it, and
destroy the original -- by overwriting in place, deleting, or trimming.
On top of the classic model the package implements the three
*Ransomware 2.0* attacks the paper introduces:

* :class:`GCAttack` -- fills the device with junk data to trigger
  garbage collection and force the SSD to release retained stale pages.
* :class:`TimingAttack` -- paces encryption over days and hides its
  writes behind benign-looking traffic to evade window-based detectors
  and outlive bounded retention windows.
* :class:`TrimmingAttack` -- uses the trim command to physically erase
  the original copies of encrypted data.

Beyond the paper's families, :mod:`repro.attacks.adaptive` adds the
*detection-aware* attackers -- entropy mimicry, intermittent (partial)
encryption, computed-dilution pacing and trim interleaving -- that the
detection-quality (ROC) pipeline scores defenses against.
"""

from repro.attacks.adaptive import (
    AdaptiveAttack,
    EntropyMimicryAttack,
    EvasionPolicy,
    IntermittentEncryptionAttack,
    RateThrottledAttack,
    TrimInterleavedWipeAttack,
    shape_entropy,
)
from repro.attacks.base import (
    AttackEnvironment,
    AttackOutcome,
    NoOpAttack,
    RansomwareAttack,
)
from repro.attacks.classic import ClassicRansomware, DestructionMode
from repro.attacks.gc_attack import GCAttack
from repro.attacks.samples import ATTACK_PROFILES, AttackProfile, make_attack
from repro.attacks.timing_attack import TimingAttack
from repro.attacks.trimming_attack import TrimmingAttack

__all__ = [
    "ATTACK_PROFILES",
    "AdaptiveAttack",
    "AttackEnvironment",
    "AttackOutcome",
    "AttackProfile",
    "ClassicRansomware",
    "DestructionMode",
    "EntropyMimicryAttack",
    "EvasionPolicy",
    "GCAttack",
    "IntermittentEncryptionAttack",
    "NoOpAttack",
    "RansomwareAttack",
    "RateThrottledAttack",
    "TimingAttack",
    "TrimInterleavedWipeAttack",
    "TrimmingAttack",
    "make_attack",
    "shape_entropy",
]
