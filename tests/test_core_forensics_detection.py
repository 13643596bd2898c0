"""Tests for post-attack analysis (evidence chain) and detection."""

import pytest

from repro.api import provision_environment
from repro.attacks.classic import ClassicRansomware
from repro.attacks.timing_attack import TimingAttack
from repro.core.config import RSSDConfig
from repro.core.detection import LocalDetector, RemoteDetector
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
        report = rssd.investigate()
        assert report.chain_verified
        assert report.tampered_at is None
        assert env.attacker_stream in report.suspected_streams
        assert env.user_stream not in report.suspected_streams
        assert report.total_entries == rssd.oplog.total_entries
        assert report.attack_window_us is not None
        start, end = report.attack_window_us
        assert outcome.start_us <= start <= end <= outcome.end_us + 1

    def test_backtracking_reconstructs_page_history(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        env = provision_environment(rssd, victim_files=6, file_size_bytes=4096)
        victim = env.fs.list_files()[0]
        lba = env.fs.file_lbas(victim)[0]
        ClassicRansomware().execute(env)
        analyzer = rssd.analyzer()
        history = analyzer.backtrack_lba(lba)
        ops = [entry.op_type for entry in history]
        # The page was written when the file was created, read by the
        # attacker, and overwritten with ciphertext -- in that order.
        assert HostOpType.WRITE in ops
        assert HostOpType.READ in ops
        write_entries = [e for e in history if e.op_type is HostOpType.WRITE]
        assert write_entries[-1].entropy > 7.0

    def test_last_clean_timestamp(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        env = provision_environment(rssd, victim_files=6, file_size_bytes=4096)
        victim = env.fs.list_files()[0]
        lba = env.fs.file_lbas(victim)[0]
        ClassicRansomware().execute(env)
        analyzer = rssd.analyzer()
        suspects = analyzer.suspect_streams()
        clean_ts = analyzer.last_clean_timestamp(lba, suspects)
        assert clean_ts is not None
        # Every page of the file is producible as of that timestamp.
        image = ForensicsEngine(rssd).recovery().rebuild_image(
            clean_ts, lbas=env.fs.file_lbas(victim)
        )
        assert image.pages_lost == 0

    def test_reconstruction_time_grows_with_log_size(self):
        small = RSSD(config=RSSDConfig.tiny())
        for index in range(50):
            small.write(index % 32, normal_content(index))
        small_report = small.investigate()

        large = RSSD(config=RSSDConfig.tiny())
        for index in range(600):
            large.write(index % 32, normal_content(index))
        large_report = large.investigate()
        assert large_report.reconstruction_us > small_report.reconstruction_us

    def test_profiles_capture_stream_behaviour(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        for index in range(20):
            rssd.write(index, normal_content(index), stream_id=1)
        for index in range(20):
            rssd.read(index, stream_id=7)
            rssd.write(index, encrypted_content(1000 + index), stream_id=7)
        profiles = rssd.analyzer().profile_streams()
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
        profiles = rssd.analyzer().profile_streams()
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
        analyzer = rssd.analyzer()
        assert analyzer.suspect_streams() == []

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
        analyzer = rssd.analyzer()
        profiles = analyzer.profile_streams()
        assert profiles[7].trims_of_read_data == 24
        assert analyzer.suspect_streams() == [7]


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

    def test_remote_detector_clean_workload_no_false_positive(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        for index in range(300):
            rssd.write(index % 64, normal_content(index), stream_id=1)
        report = rssd.detect()
        assert not report.detected
        assert report.suspected_streams == []

    def test_remote_detector_without_analyzer(self):
        rssd = RSSD(config=RSSDConfig.tiny())
        detector = RemoteDetector(rssd.oplog, analyzer=None)
        assert not detector.analyze().detected
