#!/usr/bin/env python3
"""Ransomware recovery scenario: a file server attacked by two samples.

A victim file system is populated with documents, attacked first by a
WannaCry-like in-place encryptor and then by a trim-eraser sample, and
finally recovered from RSSD's retained history -- byte for byte.

The device and the victim environment come from :mod:`repro.api`, the
stable public facade; the attack-sample profiles are the attack layer's
own surface, and the rollback is :mod:`repro.forensics` point-in-time
recovery.

Run with::

    python examples/ransomware_recovery.py

Set ``REPRO_SMOKE=1`` to run a single small scenario (the examples test
does).
"""

import os

from repro.api import RSSD, RSSDConfig, provision_environment
from repro.attacks.samples import ATTACK_PROFILES, make_attack
from repro.forensics import ForensicsEngine


def attack_and_recover(family: str, victim_files: int = 30) -> None:
    print(f"\n=== sample: {family} ===")
    profile = ATTACK_PROFILES[family]
    print("behaviour:", profile.description)

    rssd = RSSD(config=RSSDConfig.small())
    env = provision_environment(rssd, victim_files=victim_files, file_size_bytes=16_384)
    print(f"victim file system: {env.fs.file_count} files, "
          f"{env.fs.used_pages} pages in use")

    attack = make_attack(profile)
    outcome = attack.execute(env)
    print(f"attack encrypted {outcome.pages_encrypted} pages, "
          f"trimmed {outcome.pages_trimmed}, wrote {outcome.junk_pages_written} junk pages, "
          f"ransom notes: {outcome.ransom_note_files}")

    encrypted_now = sum(
        1
        for name in outcome.victim_files
        if env.fs.exists(name) and env.fs.read_file(name) != outcome.original_contents[name]
    )
    missing_now = sum(1 for name in outcome.victim_files if not env.fs.exists(name))
    print(f"damage as seen by the host: {encrypted_now} files encrypted, "
          f"{missing_now} files deleted")

    # Detection (offloaded, over the full operation log).
    detection = rssd.detect()
    print(f"offloaded detection: detected={detection.detected} "
          f"suspected streams={detection.suspected_streams}")

    # Recovery: roll back everything the malicious streams touched.
    engine = ForensicsEngine(rssd)
    scope = engine.timeline.lbas_modified_since(
        outcome.start_us, streams=outcome.malicious_streams
    )
    recovery = engine.recovery()
    started_us = rssd.clock.now_us
    image = recovery.rebuild_image(outcome.start_us, simulate_fetch=True, lbas=scope)
    written = recovery.apply(image)
    print(f"recovery: {written} pages restored "
          f"({len(image.recovered_remote)} from the remote tier), "
          f"{image.pages_lost} unrecoverable, "
          f"{(rssd.clock.now_us - started_us) / 1e6:.3f}s of simulated device time")

    # Verify every file byte-for-byte (rebuilding deleted namespace entries
    # from the recovered extents).
    intact = 0
    for name, original in outcome.original_contents.items():
        if env.fs.exists(name):
            data = env.fs.read_file(name)
        else:
            extent = outcome.original_extents[name]
            data = b"".join(rssd.read(lba) for lba in extent)[: len(original)]
        intact += data == original
    print(f"verified: {intact}/{len(outcome.original_contents)} files identical to pre-attack state")
    print(f"retention invariant: data_loss_pages={rssd.data_loss_pages}")


def main() -> None:
    if os.environ.get("REPRO_SMOKE"):
        attack_and_recover("wannacry-like", victim_files=8)
        return
    for family in ("wannacry-like", "trim-eraser", "capacity-flooder"):
        attack_and_recover(family)


if __name__ == "__main__":
    main()
