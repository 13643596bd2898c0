"""Edge-case and failure-injection tests across subsystems."""

import pytest

from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD
from repro.defenses.flashguard import FlashGuardDefense
from repro.defenses.ssdinsider import SSDInsiderDefense
from repro.forensics import ForensicsEngine
from repro.nvmeoe.remote import ObjectStore, StorageServer, TieredRemote
from repro.ssd.device import SSD
from repro.ssd.errors import CapacityExhaustedError, OutOfRangeError
from repro.ssd.flash import PageContent
from repro.ssd.geometry import SSDGeometry


def encrypted(tag):
    return PageContent.synthetic(tag, 4096, entropy=7.9, compress_ratio=0.98)


def normal(tag):
    return PageContent.synthetic(tag, 4096, entropy=3.2, compress_ratio=0.4)


class TestCapacityPressure:
    def test_plain_ssd_survives_sustained_full_device_overwrites(self):
        """Writing far more than the device size must never wedge a plain SSD."""
        ssd = SSD(geometry=SSDGeometry.tiny())
        working_set = ssd.capacity_pages // 2
        for round_index in range(8):
            for lba in range(working_set):
                ssd.write(lba, normal(round_index * 10_000 + lba))
        # Every live page still readable, WAF sane.
        for lba in range(working_set):
            assert ssd.read_content(lba) is not None
        assert 1.0 <= ssd.metrics.write_amplification < 5.0

    def test_rssd_survives_sustained_overwrites_without_data_loss(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        working_set = rssd.capacity_pages // 3
        for round_index in range(6):
            for lba in range(working_set):
                rssd.write(lba, normal(round_index * 10_000 + lba))
        assert rssd.data_loss_pages == 0
        assert rssd.retention.stats.stale_pages_seen > working_set

    def test_filling_every_exported_page_once_is_fine(self):
        ssd = SSD(geometry=SSDGeometry.tiny())
        # The device can hold its full exported capacity of live data (the
        # over-provisioned blocks provide the GC headroom).
        for lba in range(0, ssd.capacity_pages, 4):
            ssd.write(lba, [normal(lba + i) for i in range(4)])
        assert ssd.ftl.mapped_pages == ssd.capacity_pages

    def test_hardware_defense_pinning_eventually_stalls_instead_of_losing_data(self):
        """FlashGuard-style pinning refuses to destroy retained data even if
        that means the device eventually refuses writes under a flood."""
        defense = FlashGuardDefense(geometry=SSDGeometry.tiny())
        device = defense.device
        # Build up retained (read-then-overwritten) pages.
        for lba in range(48):
            device.write(lba, normal(lba))
        attack_start = defense.clock.now_us + 1
        defense.clock.advance(10)
        for lba in range(48):
            device.read(lba)
            device.write(lba, encrypted(1000 + lba))
        # Flood with new data until the device either absorbs it or stalls.
        stalled = False
        try:
            for lba in range(48, device.capacity_pages):
                device.write(lba, encrypted(5000 + lba))
        except CapacityExhaustedError:
            stalled = True
        # Either way, the retained pre-attack versions are still available.
        recovered = sum(
            1 for lba in range(48) if defense.pre_attack_version(lba, attack_start) is not None
        )
        assert recovered == 48
        assert stalled or device.ftl.stale_pages > 0

    def test_best_effort_defense_sheds_retained_data_under_the_same_flood(self):
        defense = SSDInsiderDefense(geometry=SSDGeometry.tiny())
        device = defense.device
        for lba in range(48):
            device.write(lba, normal(lba))
        attack_start = defense.clock.now_us + 1
        defense.clock.advance(10)
        for lba in range(48):
            device.read(lba)
            device.write(lba, encrypted(1000 + lba))
        try:
            for lba in range(48, device.capacity_pages):
                device.write(lba, encrypted(5000 + lba))
        except CapacityExhaustedError:
            pass
        recovered = sum(
            1 for lba in range(48) if defense.pre_attack_version(lba, attack_start) is not None
        )
        # The small undo buffer yields under pressure: victim data is lost.
        assert recovered < 48
        assert defense.policy.evicted_count > 0


class TestRemoteTierCapacity:
    def test_rssd_spills_to_cloud_when_storage_server_fills(self):
        config = RSSDConfig(
            geometry=SSDGeometry.tiny(),
            storage_server_capacity_bytes=64 * 1024,  # deliberately tiny
        )
        rssd = RSSD(config=config)
        for round_index in range(10):
            for lba in range(32):
                rssd.write(lba, normal(round_index * 100 + lba))
        rssd.drain_offload_queue()
        assert rssd.remote.server.stored_bytes <= config.storage_server_capacity_bytes
        assert rssd.remote.cloud.object_count > 0
        assert rssd.data_loss_pages == 0

    def test_tiered_remote_counts_are_consistent(self):
        remote = TieredRemote(server=StorageServer(capacity_bytes=10_000), cloud=ObjectStore())
        assert remote.stored_bytes == 0
        assert remote.stored_entries == 0


class TestAddressingEdges:
    def test_first_and_last_lba_usable(self):
        ssd = SSD(geometry=SSDGeometry.tiny())
        last = ssd.capacity_pages - 1
        ssd.write(0, normal(1))
        ssd.write(last, normal(2))
        assert ssd.read_content(0).fingerprint == normal(1).fingerprint
        assert ssd.read_content(last).fingerprint == normal(2).fingerprint

    def test_zero_page_read_rejected_only_when_out_of_range(self):
        ssd = SSD(geometry=SSDGeometry.tiny())
        with pytest.raises(OutOfRangeError):
            ssd.read(-1)
        with pytest.raises(OutOfRangeError):
            ssd.trim(ssd.capacity_pages, 1)

    def test_rssd_trim_of_never_written_range_is_harmless(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        records = rssd.trim(10, 4)
        assert records == []
        assert rssd.oplog.total_entries == 1  # the trim itself is still logged


class TestRecoveryEdgeCases:
    def test_recovery_with_no_damage_is_a_noop(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        rssd.write(0, b"data")
        entries = rssd.oplog.total_entries
        recovery = ForensicsEngine(rssd).recovery()
        image = recovery.rebuild_image(rssd.clock.now_us)
        assert image.pages_lost == 0
        assert recovery.apply(image) == 0
        # Nothing was rewritten, so nothing new was logged either.
        assert rssd.oplog.total_entries == entries

    def test_recovery_scoped_to_explicit_lbas_only(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        rssd.write(0, b"keep me original")
        rssd.write(1, b"also original")
        clean = rssd.clock.now_us
        rssd.clock.advance(10)
        rssd.write(0, b"encrypted!", stream_id=9)
        rssd.write(1, b"encrypted!", stream_id=9)
        recovery = ForensicsEngine(rssd).recovery()
        image = recovery.rebuild_image(clean, lbas=[0])
        assert sorted(image.pages) == [0]
        assert recovery.apply(image) == 1
        assert rssd.read(0).startswith(b"keep me original")
        assert rssd.read(1).startswith(b"encrypted!")

    def test_undo_attack_with_no_malicious_ops_restores_nothing(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        rssd.write(0, b"data")
        engine = ForensicsEngine(rssd)
        scope = engine.timeline.lbas_modified_since(0, streams=[999])
        assert scope == []
        image = engine.recovery().rebuild_image(0, lbas=scope)
        assert image.pages == {} and image.created_after == []
        assert engine.recovery().apply(image) == 0
        assert rssd.read(0).startswith(b"data")
