"""Ransomware sample profiles.

The paper replays samples collected from VirusTotal; the samples
themselves obviously cannot ship with a simulator, so this module keeps
a library of *behavioural profiles* modelled on well-known families.
Each profile maps onto one of the attack classes with family-specific
parameters (pace, destruction method, whether it abuses trim or floods
capacity), which is all the storage stack ever observes of a sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.attacks.base import RansomwareAttack
from repro.attacks.classic import ClassicRansomware, DestructionMode
from repro.attacks.gc_attack import GCAttack
from repro.attacks.timing_attack import TimingAttack
from repro.attacks.trimming_attack import TrimmingAttack
from repro.sim import US_PER_HOUR, US_PER_MINUTE


@dataclass(frozen=True)
class AttackProfile:
    """Behavioural profile of one ransomware family."""

    family: str
    attack_class: str  # "classic" | "gc" | "timing" | "trimming"
    destruction: DestructionMode = DestructionMode.OVERWRITE
    inter_file_delay_us: int = 2_000
    batch_interval_us: int = 12 * US_PER_HOUR
    files_per_batch: int = 2
    fill_fraction: float = 0.98
    description: str = ""


#: Profiles modelled on families commonly seen in the wild.  The exact
#: parameter values are behavioural approximations, not measurements of
#: specific binaries.
ATTACK_PROFILES: Dict[str, AttackProfile] = {
    "wannacry-like": AttackProfile(
        family="wannacry-like",
        attack_class="classic",
        destruction=DestructionMode.OVERWRITE,
        inter_file_delay_us=1_000,
        description="Fast in-place encryption of every reachable document.",
    ),
    "locky-like": AttackProfile(
        family="locky-like",
        attack_class="classic",
        destruction=DestructionMode.DELETE,
        inter_file_delay_us=3_000,
        description="Writes ciphertext to new .locked files and deletes originals.",
    ),
    "cerber-like": AttackProfile(
        family="cerber-like",
        attack_class="classic",
        destruction=DestructionMode.TRIM,
        inter_file_delay_us=2_000,
        description="Deletes originals with TRIM-backed secure delete.",
    ),
    "capacity-flooder": AttackProfile(
        family="capacity-flooder",
        attack_class="gc",
        fill_fraction=0.98,
        description="Flash-aware sample that floods capacity to force GC (GC attack).",
    ),
    "slow-burn": AttackProfile(
        family="slow-burn",
        attack_class="timing",
        files_per_batch=2,
        batch_interval_us=12 * US_PER_HOUR,
        description="Paced encryption spread over days behind user I/O (timing attack).",
    ),
    "low-and-slow": AttackProfile(
        family="low-and-slow",
        attack_class="timing",
        files_per_batch=1,
        batch_interval_us=24 * US_PER_HOUR,
        description="One file a day; maximally patient timing attack.",
    ),
    "trim-eraser": AttackProfile(
        family="trim-eraser",
        attack_class="trimming",
        inter_file_delay_us=30 * US_PER_MINUTE // 60,
        description="Encrypts to new files and trims the originals (trimming attack).",
    ),
}


def make_attack(profile: AttackProfile, seed: int = 97) -> RansomwareAttack:
    """Instantiate the attack class described by ``profile``."""
    if profile.attack_class == "classic":
        return ClassicRansomware(
            destruction=profile.destruction,
            inter_file_delay_us=profile.inter_file_delay_us,
            seed=seed,
        )
    if profile.attack_class == "gc":
        return GCAttack(fill_fraction=profile.fill_fraction, seed=seed)
    if profile.attack_class == "timing":
        return TimingAttack(
            files_per_batch=profile.files_per_batch,
            batch_interval_us=profile.batch_interval_us,
            seed=seed,
        )
    if profile.attack_class == "trimming":
        return TrimmingAttack(
            inter_file_delay_us=profile.inter_file_delay_us, seed=seed
        )
    raise ValueError(f"unknown attack class {profile.attack_class!r}")
