#!/usr/bin/env python3
"""Forensic investigation of a slow, camouflaged (timing) attack.

A patient sample encrypts one file per batch over many simulated days
while hiding behind ordinary user traffic.  The in-device window
detector never fires -- but the hardware-assisted log caught everything,
so the offloaded analysis identifies the attacker, bounds the attack
window, and backtracks the history of any victim page.

The device and the victim environment come from :mod:`repro.api`, the
stable public facade; the chain check, the attribution, the page history
and the rollback all come from :class:`repro.forensics.ForensicsEngine`,
the one post-attack analysis surface.

Run with::

    python examples/forensic_investigation.py
"""

from repro.api import RSSD, RSSDConfig, provision_environment
from repro.attacks.timing_attack import TimingAttack
from repro.core.detection import profile_streams
from repro.forensics import ForensicsEngine
from repro.sim import format_duration
from repro.workloads.replay import TraceReplayer
from repro.workloads.synthetic import ZipfianWorkload


def main() -> None:
    rssd = RSSD(config=RSSDConfig.small())
    env = provision_environment(rssd, victim_files=20, file_size_bytes=8_192)

    # Ordinary user activity runs alongside the attack.
    background = ZipfianWorkload(
        capacity_pages=rssd.capacity_pages // 4,
        iops=300,
        write_fraction=0.55,
        stream_id=env.user_stream,
        seed=42,
    )
    TraceReplayer(rssd, honor_timestamps=False).replay(background.generate(1.0))

    print("launching the timing attack (one file per batch, 12h apart)...")
    outcome = TimingAttack(files_per_batch=1).execute(env)
    print(f"attack ran for {format_duration(outcome.duration_us)} of simulated time, "
          f"encrypting {outcome.pages_encrypted} pages")

    local = rssd.local_detector.report()
    print(f"\nin-device window detector fired: {local.detected} "
          f"(the attack paced itself below its radar)")

    rssd.drain_offload_queue()
    remote = rssd.detect()
    print(f"offloaded full-history detector fired: {remote.detected}, "
          f"suspected streams: {remote.suspected_streams} "
          f"(attacker stream is {env.attacker_stream})")

    print("\nverifying the trusted evidence chain...")
    engine = ForensicsEngine(rssd)
    status = engine.verify_chain()
    print(f"  log entries          : {status.total_entries}")
    print(f"  sealed segments      : {status.sealed_segments} "
          f"({status.offloaded_segments} already on the remote tier)")
    print(f"  chain verified       : {status.chain_verified}")
    attack = engine.classify()
    print(f"  attack window        : {format_duration(attack.window_us)} "
          f"starting at t={format_duration(attack.first_malicious_us)}")
    print(f"  malicious streams    : {attack.malicious_streams} ({attack.pattern})")

    profile = profile_streams(rssd.oplog.all_entries())[env.attacker_stream]
    print(f"  attacker profile     : {profile.writes} writes, "
          f"{profile.high_entropy_fraction:.0%} encrypted-looking, "
          f"{profile.read_then_overwrite} read-then-overwrite chains, "
          f"{profile.trims} trims")

    # Backtrack one victim page end to end.
    victim_file = outcome.victim_files[0]
    extent = outcome.original_extents[victim_file]
    history = engine.timeline.history(extent[0]).events
    print(f"\nper-page history of LBA {extent[0]} ({victim_file}):")
    for event in history[-6:]:
        print(f"  t={event.timestamp_us:>14}us  {event.op_type.value:<6} "
              f"stream={event.stream_id}  entropy={event.entropy:.2f}")

    # The evidence dates the first malicious operation: every page of the
    # file held clean data just before it.
    recovery = engine.recovery()
    image = recovery.rebuild_image(attack.first_malicious_us - 1, lbas=extent)
    written = recovery.apply(image)
    restored = env.fs.read_file(victim_file) if env.fs.exists(victim_file) else b""
    print(f"\nrolled {victim_file} back to its last clean version: "
          f"{written} pages restored, "
          f"content intact: {restored == outcome.original_contents[victim_file]}")


if __name__ == "__main__":
    main()
