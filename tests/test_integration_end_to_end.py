"""End-to-end integration tests: the full attack → detect → recover → investigate loop."""

import pytest

from repro.api import provision_environment
from repro.attacks.classic import ClassicRansomware, DestructionMode
from repro.attacks.gc_attack import GCAttack
from repro.attacks.timing_attack import TimingAttack
from repro.attacks.trimming_attack import TrimmingAttack
from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD
from repro.forensics import ForensicsEngine
from repro.host.blockdev import HostBlockDevice
from repro.host.filesystem import SimpleFS
from repro.ssd.geometry import SSDGeometry
from repro.workloads.replay import TraceReplayer
from repro.workloads.synthetic import ZipfianWorkload


def undo_attack(rssd, outcome):
    """Roll back every page the attacker's streams touched; return the image."""
    engine = ForensicsEngine(rssd)
    scope = engine.timeline.lbas_modified_since(
        outcome.start_us, streams=outcome.malicious_streams
    )
    image = engine.recovery().rebuild_image(outcome.start_us, simulate_fetch=True, lbas=scope)
    engine.recovery().apply(image)
    return image


def restore_files(rssd, env, outcome):
    """Recover victim data and rebuild any deleted namespace entries."""
    image = undo_attack(rssd, outcome)
    recovered = {}
    for name, original in outcome.original_contents.items():
        if env.fs.exists(name):
            recovered[name] = env.fs.read_file(name)
        else:
            extent = outcome.original_extents[name]
            recovered[name] = b"".join(rssd.read(lba) for lba in extent)[: len(original)]
    return image, recovered


@pytest.mark.parametrize(
    "attack_factory",
    [
        lambda: ClassicRansomware(destruction=DestructionMode.OVERWRITE),
        lambda: ClassicRansomware(destruction=DestructionMode.DELETE),
        lambda: GCAttack(),
        lambda: TimingAttack(camouflage_writes_per_batch=8),
        lambda: TrimmingAttack(),
    ],
    ids=["classic-overwrite", "classic-delete", "gc", "timing", "trimming"],
)
def test_full_loop_every_attack_is_recovered_and_attributed(attack_factory):
    rssd = RSSD(config=RSSDConfig.tiny())
    env = provision_environment(rssd, victim_files=16, file_size_bytes=8192)
    attack = attack_factory()
    outcome = attack.execute(env)
    rssd.drain_offload_queue()

    # 1. Zero data loss: every victim file's bytes are recoverable.
    image, recovered = restore_files(rssd, env, outcome)
    assert image.pages_lost == 0
    for name, original in outcome.original_contents.items():
        assert recovered[name] == original, name

    # 2. The retention invariant held throughout.
    assert rssd.data_loss_pages == 0

    # 3. The offloaded detector identifies the attack and the evidence chain
    #    verifies and points at the right stream.
    detection = rssd.detect()
    assert detection.detected
    engine = ForensicsEngine(rssd)
    assert engine.verify_chain().chain_verified
    assert env.attacker_stream in engine.classify().malicious_streams


def test_background_workload_interleaved_with_attack_still_recovers_cleanly():
    rssd = RSSD(config=RSSDConfig.tiny())
    env = provision_environment(rssd, victim_files=10, file_size_bytes=8192)

    # Interleave user traffic (upper half of the address space) with the attack.
    workload = ZipfianWorkload(
        capacity_pages=rssd.capacity_pages // 4,
        iops=400,
        write_fraction=0.5,
        seed=3,
        stream_id=env.user_stream,
    )
    TraceReplayer(rssd, honor_timestamps=False).replay(workload.generate(0.5))

    outcome = ClassicRansomware().execute(env)
    TraceReplayer(rssd, honor_timestamps=False).replay(workload.generate(0.2))
    rssd.drain_offload_queue()

    image, recovered = restore_files(rssd, env, outcome)
    assert image.pages_lost == 0
    for name, original in outcome.original_contents.items():
        assert recovered[name] == original


def test_remote_tier_holds_compressed_encrypted_history_in_order():
    rssd = RSSD(config=RSSDConfig.tiny())
    env = provision_environment(rssd, victim_files=12, file_size_bytes=8192)
    ClassicRansomware().execute(env)
    rssd.drain_offload_queue()
    assert rssd.remote.stored_entries > 0
    assert rssd.remote.verify_time_order()
    assert rssd.offload.stats.compression_ratio < 1.0
    assert rssd.offload.protocol.verify_ordering()


def test_same_scenario_on_plain_ssd_loses_data():
    """The contrast case: without RSSD the trimming attack destroys data."""
    from repro.ssd.device import SSD

    device = SSD(geometry=SSDGeometry.tiny())
    env = provision_environment(device, victim_files=12, file_size_bytes=8192)
    outcome = TrimmingAttack().execute(env)
    lost = 0
    for lba in outcome.victim_lbas:
        content = device.read_content(lba)
        if content is None or content.fingerprint != outcome.original_fingerprints.get(lba):
            lost += 1
    assert lost == len(outcome.victim_lbas)


def test_filesystem_rebuilt_from_recovered_extents_is_usable():
    rssd = RSSD(config=RSSDConfig.tiny())
    env = provision_environment(rssd, victim_files=8, file_size_bytes=8192)
    outcome = TrimmingAttack().execute(env)
    undo_attack(rssd, outcome)

    # Re-create the namespace on a fresh file system view and keep using it.
    blockdev = HostBlockDevice(rssd, stream_id=env.user_stream)
    for name, extent in outcome.original_extents.items():
        data = b"".join(rssd.read(lba) for lba in extent)[: len(outcome.original_contents[name])]
        assert data == outcome.original_contents[name]
