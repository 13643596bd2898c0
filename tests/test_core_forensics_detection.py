"""Tests for post-attack analysis (evidence chain, attribution) and detection."""

import pytest

from repro.analysis.experiments import run_forensics_experiment
from repro.api import provision_environment
from repro.attacks.classic import ClassicRansomware
from repro.attacks.timing_attack import TimingAttack
from repro.core.config import RSSDConfig
from repro.core.detection import LocalDetector, profile_streams, suspect_streams
from repro.core.rssd import RSSD
from repro.forensics import ForensicsEngine
from repro.ssd.device import HostOp, HostOpType
from repro.ssd.flash import PageContent


def encrypted_content(tag):
    return PageContent.synthetic(fingerprint=tag, length=4096, entropy=7.9, compress_ratio=0.99)


def normal_content(tag):
    return PageContent.synthetic(fingerprint=tag, length=4096, entropy=3.5, compress_ratio=0.4)


class TestPostAttackAnalyzer:
    def test_evidence_chain_verifies_and_identifies_attacker(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        env = provision_environment(rssd, victim_files=12, file_size_bytes=8192)
        outcome = ClassicRansomware().execute(env)
        rssd.drain_offload_queue()
        engine = ForensicsEngine(rssd)
        status = engine.verify_chain()
        assert status.chain_verified
        assert status.tampered_at is None
        assert status.total_entries == rssd.oplog.total_entries
        attack = engine.classify()
        assert env.attacker_stream in attack.malicious_streams
        assert env.user_stream not in attack.malicious_streams
        assert attack.first_malicious_us is not None
        assert (
            outcome.start_us
            <= attack.first_malicious_us
            <= attack.last_malicious_us
            <= outcome.end_us + 1
        )

    def test_backtracking_reconstructs_page_history(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        env = provision_environment(rssd, victim_files=6, file_size_bytes=4096)
        victim = env.fs.list_files()[0]
        lba = env.fs.file_lbas(victim)[0]
        ClassicRansomware().execute(env)
        history = ForensicsEngine(rssd).timeline.history(lba).events
        ops = [event.op_type for event in history]
        # The page was written when the file was created, read by the
        # attacker, and overwritten with ciphertext -- in that order.
        assert HostOpType.WRITE in ops
        assert HostOpType.READ in ops
        write_events = [e for e in history if e.op_type is HostOpType.WRITE]
        assert write_events[-1].entropy > 7.0

    def test_rollback_to_first_malicious_op_restores_every_file(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        env = provision_environment(rssd, victim_files=12, file_size_bytes=8192)
        outcome = ClassicRansomware().execute(env)
        engine = ForensicsEngine(rssd)
        attack = engine.classify()
        assert attack.first_malicious_us is not None
        assert attack.first_malicious_us >= outcome.start_us
        extents = sorted(
            lba for extent in outcome.original_extents.values() for lba in extent
        )
        recovery = engine.recovery()
        recovery.apply(recovery.rebuild_image(attack.first_malicious_us - 1, lbas=extents))
        assert len(outcome.original_contents) == 12
        for name, original in outcome.original_contents.items():
            assert env.fs.read_file(name) == original, name

    def test_attack_under_the_suspect_floor_offers_no_clean_point(self):
        # Six one-page files: the attacker's 7 writes (6 ciphertext) stay
        # under the hindsight rule's 8-operation floor.  The evidence then
        # names no attacker, so nothing may claim a "clean" point -- the
        # old last-clean-write query returned the attacker's own write.
        rssd = RSSD(config=RSSDConfig.tiny())
        env = provision_environment(rssd, victim_files=6, file_size_bytes=4096)
        ClassicRansomware().execute(env)
        profiles = profile_streams(rssd.oplog.all_entries())
        attacker = profiles[env.attacker_stream]
        assert (attacker.writes, attacker.high_entropy_writes) == (7, 6)
        assert suspect_streams(profiles) == []
        engine = ForensicsEngine(rssd)
        attack = engine.classify()
        assert attack.pattern == "none"
        assert attack.malicious_streams == []
        assert engine.investigate().recovery_target_us is None

    def test_reconstruction_time_grows_with_log_size(self):
        small, large = run_forensics_experiment(background_ops_list=[200, 1000])
        assert small.log_entries < large.log_entries
        assert small.reconstruction_seconds < large.reconstruction_seconds

    def test_profiles_capture_stream_behaviour(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        for index in range(20):
            rssd.write(index, normal_content(index), stream_id=1)
        for index in range(20):
            rssd.read(index, stream_id=7)
            rssd.write(index, encrypted_content(1000 + index), stream_id=7)
        profiles = profile_streams(rssd.oplog.all_entries())
        assert profiles[7].high_entropy_fraction > 0.9
        assert profiles[7].read_then_overwrite > 0
        assert profiles[1].high_entropy_fraction < 0.1

    def test_profiles_count_entropy_jumps_across_streams(self):
        # Mid-entropy overwrites of user text: below the absolute line,
        # but a clear jump over the replaced data.
        rssd = RSSD(config=RSSDConfig.tiny())
        for index in range(12):
            rssd.write(index, normal_content(index), stream_id=1)
        for index in range(12):
            rssd.write(
                index,
                PageContent.synthetic(500 + index, 4096, entropy=6.9),
                stream_id=7,
            )
        profiles = profile_streams(rssd.oplog.all_entries())
        assert profiles[7].entropy_jump_writes == 12
        assert profiles[7].jump_fraction == 1.0
        assert profiles[1].entropy_jump_writes == 0

    def test_benign_discard_trims_are_not_suspected(self):
        # A stream trimming pages nobody read recently is ordinary
        # delete/discard traffic, not a wipe: it must not be suspected.
        rssd = RSSD(config=RSSDConfig.tiny())
        for index in range(24):
            rssd.write(index, normal_content(index), stream_id=1)
        for index in range(24):
            rssd.trim(index, stream_id=1)
        assert suspect_streams(profile_streams(rssd.oplog.all_entries())) == []

    def test_read_then_trim_wipe_is_suspected(self):
        # The same trims *after the data was read back* carry the
        # read-then-destroy signature of a trim wipe.
        rssd = RSSD(config=RSSDConfig.tiny())
        for index in range(24):
            rssd.write(index, normal_content(index), stream_id=1)
        for index in range(24):
            rssd.read(index, stream_id=1)
        for index in range(24):
            rssd.trim(index, stream_id=7)
        profiles = profile_streams(rssd.oplog.all_entries())
        assert profiles[7].trims_of_read_data == 24
        assert suspect_streams(profiles) == [7]


class TestLocalDetector:
    def test_detects_burst_of_encrypted_overwrites(self):
        detector = LocalDetector(window_size=32)
        for index in range(64):
            detector.on_host_op(
                HostOp(index, HostOpType.WRITE, index, 1, index * 100, 5.0,
                       encrypted_content(index), stream_id=9)
            )
        report = detector.report()
        assert report.detected
        assert report.detection_time_us is not None
        assert 9 in report.suspected_streams

    def test_ignores_normal_traffic(self):
        detector = LocalDetector(window_size=32)
        for index in range(200):
            detector.on_host_op(
                HostOp(index, HostOpType.WRITE, index, 1, index * 100, 5.0,
                       normal_content(index), stream_id=1)
            )
        assert not detector.report().detected

    def test_paced_attack_evades_window_detector(self):
        detector = LocalDetector(window_size=32, min_writes_per_second=50.0)
        # One encrypted write every 10 seconds: far below the rate threshold.
        for index in range(64):
            detector.on_host_op(
                HostOp(index, HostOpType.WRITE, index, 1, index * 10_000_000, 5.0,
                       encrypted_content(index), stream_id=9)
            )
        assert not detector.report().detected

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LocalDetector(high_entropy_fraction=0.0)
        with pytest.raises(ValueError):
            LocalDetector(min_writes_per_second=0.0)


class TestRemoteDetector:
    def test_remote_detector_catches_timing_attack(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        env = provision_environment(rssd, victim_files=16, file_size_bytes=8192)
        TimingAttack(camouflage_writes_per_batch=8).execute(env)
        rssd.drain_offload_queue()
        local = rssd.local_detector.report()
        remote = rssd.detect()
        assert not local.detected  # the whole point of the timing attack
        assert remote.detected
        assert env.attacker_stream in remote.suspected_streams
        # The detector and the forensic classifier share one hindsight rule.
        assert remote.suspected_streams == ForensicsEngine(rssd).classify().malicious_streams

    def test_remote_detector_clean_workload_no_false_positive(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        for index in range(300):
            rssd.write(index % 64, normal_content(index), stream_id=1)
        report = rssd.detect()
        assert not report.detected
        assert report.suspected_streams == []
