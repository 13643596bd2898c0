"""Tests for the baseline defenses and the RSSD defense adapter."""

import pytest

from repro.api import provision_environment
from repro.attacks.classic import ClassicRansomware
from repro.defenses.base import SelectiveRetentionPolicy
from repro.defenses.flashguard import FlashGuardDefense
from repro.defenses.rblocker import RBlockerDefense
from repro.defenses.rssd_adapter import RSSDDefense
from repro.defenses.software import (
    CloudBackupDefense,
    CryptoDropDefense,
    JournalingFSDefense,
    ShieldFSDefense,
    UnveilDefense,
)
from repro.defenses.ssdinsider import SSDInsiderDefense
from repro.defenses.timessd import TimeSSDDefense
from repro.defenses.unprotected import UnprotectedSSD
from repro.sim import SimClock, US_PER_DAY, US_PER_HOUR
from repro.ssd.flash import PageContent
from repro.ssd.ftl import InvalidationCause, StalePage
from repro.ssd.geometry import SSDGeometry


def encrypted(tag):
    return PageContent.synthetic(tag, 4096, entropy=7.9, compress_ratio=0.99)


def normal(tag):
    return PageContent.synthetic(tag, 4096, entropy=3.4, compress_ratio=0.4)


def stale(lpn, cause=InvalidationCause.OVERWRITE, written=0, invalidated=0, version=1):
    return StalePage(
        lpn=lpn,
        ppn=lpn + 200,
        content=normal(lpn * 7 + version),
        written_us=written,
        invalidated_us=invalidated,
        cause=cause,
        version=version,
    )


class TestSelectiveRetentionPolicy:
    def test_retains_only_selected_records(self):
        clock = SimClock()
        policy = SelectiveRetentionPolicy(
            clock, should_retain=lambda r: r.cause is InvalidationCause.OVERWRITE
        )
        overwrite = stale(1)
        trim = stale(2, cause=InvalidationCause.TRIM)
        policy.on_invalidate(overwrite)
        policy.on_invalidate(trim)
        assert not policy.may_release(overwrite)
        assert policy.may_release(trim)
        assert policy.retained_count == 1

    def test_window_expiry_releases_old_records(self):
        clock = SimClock()
        policy = SelectiveRetentionPolicy(clock, should_retain=lambda r: True, window_us=1000)
        record = stale(1, invalidated=0)
        policy.on_invalidate(record)
        assert not policy.may_release(record)
        clock.advance(2000)
        assert policy.may_release(record)
        assert policy.lookup(1, before_us=10**9) is None

    def test_capacity_eviction_oldest_first(self):
        clock = SimClock()
        policy = SelectiveRetentionPolicy(clock, should_retain=lambda r: True, capacity_pages=2)
        records = [stale(lpn) for lpn in range(3)]
        for record in records:
            policy.on_invalidate(record)
        assert policy.may_release(records[0])
        assert not policy.may_release(records[2])
        assert policy.evicted_count == 1

    def test_pressure_behaviour_depends_on_pinning(self):
        clock = SimClock()
        pinning = SelectiveRetentionPolicy(clock, should_retain=lambda r: True, pin_under_pressure=True)
        yielding = SelectiveRetentionPolicy(clock, should_retain=lambda r: True, pin_under_pressure=False)
        for policy in (pinning, yielding):
            for lpn in range(4):
                policy.on_invalidate(stale(lpn))
        assert pinning.reclaim_pressure(None, 2) == 0
        assert yielding.reclaim_pressure(None, 2) == 2

    def test_lookup_returns_newest_version_before_timestamp(self):
        clock = SimClock()
        policy = SelectiveRetentionPolicy(clock, should_retain=lambda r: True)
        policy.on_invalidate(stale(5, written=100, version=1))
        policy.on_invalidate(stale(5, written=200, version=2))
        found = policy.lookup(5, before_us=250)
        assert found is not None
        earlier = policy.lookup(5, before_us=150)
        assert earlier is not None
        assert policy.lookup(5, before_us=50) is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SelectiveRetentionPolicy(SimClock(), lambda r: True, window_us=0)
        with pytest.raises(ValueError):
            SelectiveRetentionPolicy(SimClock(), lambda r: True, capacity_pages=0)


class TestSoftwareDefenses:
    def test_detection_only_defenses_never_recover(self):
        for cls in (UnveilDefense, CryptoDropDefense):
            defense = cls(geometry=SSDGeometry.tiny())
            defense.device.write(0, normal(1))
            defense.device.write(0, encrypted(2))
            assert defense.pre_attack_version(0, 10**12) is None

    def test_unveil_detects_encryption_burst(self):
        defense = UnveilDefense(geometry=SSDGeometry.tiny())
        for index in range(64):
            defense.device.write(index % 32, encrypted(index))
        assert defense.detect()

    def test_cryptodrop_requires_multiple_indicators(self):
        defense = CryptoDropDefense(geometry=SSDGeometry.tiny())
        for index in range(80):
            defense.device.read(index % 64)
            defense.device.write(index % 64, encrypted(index))
        assert defense.detect()

    def test_software_defenses_can_be_compromised(self):
        defense = UnveilDefense(geometry=SSDGeometry.tiny())
        assert defense.compromise() is True
        for index in range(64):
            defense.device.write(index % 32, encrypted(index))
        assert not defense.detect()

    def test_cloud_backup_restores_last_snapshot(self):
        defense = CloudBackupDefense(geometry=SSDGeometry.tiny(), snapshot_interval_us=US_PER_HOUR)
        clock = defense.clock
        defense.device.write(3, normal(1))
        clock.advance(2 * US_PER_HOUR)
        defense.device.write(4, normal(2))  # triggers a snapshot of the dirty set
        attack_start = clock.now_us + 10
        clock.advance(US_PER_HOUR)
        defense.device.write(3, encrypted(3))
        version = defense.pre_attack_version(3, attack_start)
        assert version is not None
        assert version.fingerprint == normal(1).fingerprint
        assert defense.snapshots_taken >= 1

    def test_cloud_backup_loses_unsnapshotted_changes(self):
        defense = CloudBackupDefense(geometry=SSDGeometry.tiny(), snapshot_interval_us=US_PER_DAY)
        defense.device.write(3, normal(1))
        # No snapshot has happened yet when the attack begins.
        assert defense.pre_attack_version(3, defense.clock.now_us + 1) is None

    def test_cloud_backup_compromise_wipes_remote_copies(self):
        defense = CloudBackupDefense(geometry=SSDGeometry.tiny(), snapshot_interval_us=1)
        defense.device.write(3, normal(1))
        defense.device.write(4, normal(2))
        defense.compromise()
        assert defense.pre_attack_version(3, 10**15) is None

    def test_shieldfs_window_expiry(self):
        defense = ShieldFSDefense(geometry=SSDGeometry.tiny(), window_us=US_PER_HOUR)
        defense.device.write(5, normal(1))
        attack_start = defense.clock.now_us + 5
        # Within the window the copy is available...
        assert defense.pre_attack_version(5, attack_start) is not None
        # ...but a patient attacker just waits it out.
        defense.clock.advance(3 * US_PER_HOUR)
        assert defense.pre_attack_version(5, attack_start) is None

    def test_journaling_fs_history_is_tiny(self):
        defense = JournalingFSDefense(geometry=SSDGeometry.tiny(), journal_pages=8)
        attack_start_refs = {}
        defense.device.write(1, normal(1))
        attack_start = defense.clock.now_us + 1
        # Enough later writes cycle the journal and push the old entry out.
        for index in range(20):
            defense.device.write(50 + index, normal(100 + index))
        assert defense.pre_attack_version(1, attack_start) is None


class TestHardwareDefenses:
    def test_flashguard_retains_read_then_overwritten_pages(self):
        defense = FlashGuardDefense(geometry=SSDGeometry.tiny())
        defense.device.write(7, normal(1))
        attack_start = defense.clock.now_us + 1
        defense.clock.advance(10)
        defense.device.read(7)            # ransomware reads the file
        defense.device.write(7, encrypted(2))  # ...and overwrites it
        version = defense.pre_attack_version(7, attack_start)
        assert version is not None
        assert version.fingerprint == normal(1).fingerprint

    def test_flashguard_does_not_retain_unread_overwrites(self):
        defense = FlashGuardDefense(geometry=SSDGeometry.tiny())
        defense.device.write(7, normal(1))
        attack_start = defense.clock.now_us + 1
        defense.clock.advance(10)
        defense.device.write(7, encrypted(2))  # overwrite without a prior read
        assert defense.pre_attack_version(7, attack_start) is None

    def test_flashguard_window_expiry_defeated_by_patience(self):
        defense = FlashGuardDefense(geometry=SSDGeometry.tiny())
        defense.device.write(7, normal(1))
        attack_start = defense.clock.now_us + 1
        defense.device.read(7)
        defense.device.write(7, encrypted(2))
        defense.clock.advance(int(defense.window_us) + 1)
        assert defense.pre_attack_version(7, attack_start) is None

    def test_timessd_retains_all_overwrites_within_window(self):
        defense = TimeSSDDefense(geometry=SSDGeometry.tiny())
        defense.device.write(9, normal(1))
        attack_start = defense.clock.now_us + 1
        defense.clock.advance(10)
        defense.device.write(9, encrypted(2))
        assert defense.pre_attack_version(9, attack_start) is not None

    def test_hardware_defenses_cannot_be_compromised(self):
        for cls in (FlashGuardDefense, TimeSSDDefense, SSDInsiderDefense, RBlockerDefense):
            defense = cls(geometry=SSDGeometry.tiny())
            assert defense.compromise() is False
            assert not defense.compromised

    def test_ssdinsider_detects_bursts_but_yields_under_pressure(self):
        defense = SSDInsiderDefense(geometry=SSDGeometry.tiny())
        for index in range(64):
            defense.device.read(index % 16)
            defense.device.write(index % 16, encrypted(index))
        assert defense.detect()
        assert defense.policy.pin_under_pressure is False

    def test_rblocker_counts_blocked_writes_after_detection(self):
        defense = RBlockerDefense(geometry=SSDGeometry.tiny())
        for index in range(200):
            defense.device.write(index % 16, encrypted(index))
        assert defense.detect()
        assert defense.blocked_writes >= 0

    def test_unprotected_ssd_has_no_recovery(self):
        defense = UnprotectedSSD(geometry=SSDGeometry.tiny())
        defense.device.write(0, normal(1))
        defense.device.write(0, encrypted(2))
        assert defense.pre_attack_version(0, 10**12) is None


class TestRSSDDefenseAdapter:
    def test_full_recovery_capability_and_forensics(self):
        defense = RSSDDefense(geometry=SSDGeometry.tiny())
        env = provision_environment(defense.device, victim_files=8, file_size_bytes=8192)
        outcome = ClassicRansomware().execute(env)
        recovered = 0
        for lba in outcome.victim_lbas:
            version = defense.pre_attack_version(lba, outcome.start_us)
            if version is not None and version.fingerprint == outcome.original_fingerprints.get(lba):
                recovered += 1
        assert recovered == len(outcome.victim_lbas)
        assert defense.detect()
        assert defense.forensics_engine().verify_chain().chain_verified

    def test_adapter_reports_hardware_isolation(self):
        defense = RSSDDefense(geometry=SSDGeometry.tiny())
        assert defense.hardware_isolated
        assert defense.supports_forensics
        assert defense.compromise() is False
