"""Tests for the ransomware attack models."""

import pytest

from repro.api import provision_environment
from repro.attacks.classic import ClassicRansomware, DestructionMode
from repro.attacks.gc_attack import GCAttack
from repro.attacks.samples import ATTACK_PROFILES, make_attack
from repro.attacks.timing_attack import TimingAttack
from repro.attacks.trimming_attack import TrimmingAttack
from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD
from repro.forensics import ForensicsEngine
from repro.sim import US_PER_DAY
from repro.ssd.device import SSD
from repro.ssd.geometry import SSDGeometry


def plain_environment(victim_files=12):
    device = SSD(geometry=SSDGeometry.tiny())
    return provision_environment(device, victim_files=victim_files, file_size_bytes=8192)


def rssd_environment(victim_files=12):
    rssd = RSSD(config=RSSDConfig.tiny())
    return provision_environment(rssd, victim_files=victim_files, file_size_bytes=8192)


class TestEnvironment:
    def test_environment_populates_victim_files(self):
        env = plain_environment(victim_files=10)
        assert env.fs.file_count == 10
        assert env.attacker_process.is_malicious
        assert not env.user_process.is_malicious
        assert env.attacker_stream != env.user_stream


class TestClassicRansomware:
    def test_encrypts_every_file_in_place(self):
        env = plain_environment()
        outcome = ClassicRansomware(destruction=DestructionMode.OVERWRITE).execute(env)
        assert outcome.pages_encrypted >= len(outcome.victim_files)
        for name in outcome.victim_files:
            encrypted = env.fs.read_file(name)
            assert encrypted != outcome.original_contents[name]
        assert outcome.ransom_note_files

    def test_captures_ground_truth_before_encrypting(self):
        env = plain_environment()
        outcome = ClassicRansomware().execute(env)
        assert len(outcome.victim_lbas) >= len(outcome.victim_files)
        assert set(outcome.original_fingerprints) <= set(outcome.victim_lbas)
        assert outcome.original_extents.keys() == outcome.original_contents.keys()

    def test_delete_mode_creates_locked_files(self):
        env = plain_environment()
        outcome = ClassicRansomware(destruction=DestructionMode.DELETE).execute(env)
        for name in outcome.victim_files:
            assert not env.fs.exists(name)
            assert env.fs.exists(name + ".locked")

    def test_trim_mode_counts_trimmed_pages(self):
        env = plain_environment()
        outcome = ClassicRansomware(destruction=DestructionMode.TRIM).execute(env)
        assert outcome.pages_trimmed > 0

    def test_attacker_stream_used_for_destructive_writes(self):
        env = plain_environment()
        ClassicRansomware().execute(env)
        # The device observers would have seen attacker-tagged writes; the
        # block device wrapper must be back on the user stream afterwards.
        assert env.blockdev.stream_id == env.user_stream

    def test_classic_is_not_privileged(self):
        assert ClassicRansomware.aggressive is False

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ClassicRansomware(inter_file_delay_us=-1)


class TestGCAttack:
    def test_fills_capacity_with_junk(self):
        env = plain_environment()
        outcome = GCAttack(fill_fraction=0.95).execute(env)
        assert outcome.junk_pages_written > 0
        assert outcome.attack_name == "gc-attack"

    def test_forces_stale_data_release_on_commodity_ssd(self):
        env = plain_environment()
        device = env.device
        outcome = GCAttack().execute(env)
        # On an unprotected SSD the flood forces GC to destroy the stale
        # (pre-encryption) versions of the victim pages.
        stale_lbas = {record.lpn for record in device.ftl.iter_stale()}
        surviving_victims = stale_lbas & set(outcome.victim_lbas)
        assert len(surviving_victims) < len(outcome.victim_lbas)

    def test_cannot_evict_rssd_retained_data(self):
        env = rssd_environment()
        rssd = env.device
        outcome = GCAttack().execute(env)
        assert rssd.data_loss_pages == 0
        # Every victim page still has a pre-attack version available.
        for lba in outcome.victim_lbas:
            version = rssd.retention.latest_version_before(lba, outcome.start_us)
            live = rssd.ssd.ftl.lookup(lba)
            assert version is not None or (live is not None and live.written_us <= outcome.start_us)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GCAttack(fill_fraction=0.0)
        with pytest.raises(ValueError):
            GCAttack(junk_file_pages=0)


class TestTimingAttack:
    def test_spreads_encryption_over_days(self):
        env = plain_environment(victim_files=8)
        outcome = TimingAttack(files_per_batch=1, camouflage_writes_per_batch=4).execute(env)
        assert outcome.duration_us > 3 * US_PER_DAY
        for name in outcome.victim_files:
            assert env.fs.read_file(name) != outcome.original_contents[name]

    def test_does_not_disable_host_defenses(self):
        assert TimingAttack.aggressive is False

    def test_camouflage_traffic_uses_user_stream(self):
        env = rssd_environment(victim_files=4)
        TimingAttack(files_per_batch=1, camouflage_writes_per_batch=6).execute(env)
        entries = env.device.oplog.all_entries()
        user_entries = [entry for entry in entries if entry.stream_id == env.user_stream]
        attacker_entries = [entry for entry in entries if entry.stream_id == env.attacker_stream]
        assert len(user_entries) > 0
        assert len(attacker_entries) > 0
        # Camouflage makes the user stream the dominant write source.
        assert len(user_entries) > len(attacker_entries)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TimingAttack(files_per_batch=0)
        with pytest.raises(ValueError):
            TimingAttack(batch_interval_us=0)


class TestTrimmingAttack:
    def test_trims_original_extents(self):
        env = plain_environment()
        outcome = TrimmingAttack().execute(env)
        assert outcome.pages_trimmed >= len(outcome.victim_files)
        for name in outcome.victim_files:
            assert not env.fs.exists(name)
            assert env.fs.exists(name + ".locked")

    def test_physically_destroys_data_on_commodity_ssd(self):
        env = plain_environment()
        device = env.device
        outcome = TrimmingAttack().execute(env)
        # After eager trim GC, the plaintext pages are unreadable.
        destroyed = 0
        for lba in outcome.victim_lbas:
            content = device.read_content(lba)
            original = outcome.original_fingerprints.get(lba)
            if content is None or content.fingerprint != original:
                destroyed += 1
        assert destroyed == len(outcome.victim_lbas)

    def test_rssd_retains_trimmed_data(self):
        env = rssd_environment()
        rssd = env.device
        outcome = TrimmingAttack().execute(env)
        engine = ForensicsEngine(rssd)
        scope = engine.timeline.lbas_modified_since(
            outcome.start_us, streams=outcome.malicious_streams
        )
        image = engine.recovery().rebuild_image(outcome.start_us, lbas=scope)
        assert image.pages_lost == 0
        engine.recovery().apply(image)
        for lba in outcome.victim_lbas:
            live = rssd.read_content(lba)
            assert live is not None
            assert live.fingerprint == outcome.original_fingerprints[lba]


class TestSampleProfiles:
    def test_every_family_builds_an_attack(self):
        for family in sorted(ATTACK_PROFILES):
            attack = make_attack(ATTACK_PROFILES[family])
            assert attack.name

    def test_unknown_class_rejected(self):
        from repro.attacks.samples import AttackProfile

        with pytest.raises(ValueError):
            make_attack(AttackProfile(family="x", attack_class="mystery"))

    def test_profiles_cover_all_attack_classes(self):
        classes = {profile.attack_class for profile in ATTACK_PROFILES.values()}
        assert classes == {"classic", "gc", "timing", "trimming"}

    def test_wannacry_like_profile_runs_end_to_end(self):
        env = plain_environment(victim_files=6)
        attack = make_attack(ATTACK_PROFILES["wannacry-like"])
        outcome = attack.execute(env)
        assert outcome.pages_encrypted > 0
