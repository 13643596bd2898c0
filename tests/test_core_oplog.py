"""Tests for the hardware-assisted operation log."""

import pytest

from repro.core.oplog import LogEntry, OperationLog
from repro.ssd.device import HostOp, HostOpType
from repro.ssd.flash import PageContent


def host_op(sequence, op_type=HostOpType.WRITE, lba=0, ts=1000, stream=1, entropy=3.0):
    content = None
    if op_type is HostOpType.WRITE:
        content = PageContent.synthetic(fingerprint=sequence, length=4096, entropy=entropy)
    return HostOp(
        sequence=sequence,
        op_type=op_type,
        lba=lba,
        npages=1,
        timestamp_us=ts,
        latency_us=10.0,
        content=content,
        stream_id=stream,
    )


class TestLogAppend:
    def test_appends_in_order(self):
        log = OperationLog(segment_entries=100)
        for index in range(10):
            log.on_host_op(host_op(index, lba=index))
        assert log.total_entries == 10
        assert [entry.sequence for entry in log.all_entries()] == list(range(10))

    def test_out_of_order_append_rejected(self):
        log = OperationLog()
        entry = LogEntry(5, 0, HostOpType.WRITE, 0, 1, 0, 0.0, 0)
        with pytest.raises(ValueError):
            log.append(entry)

    def test_segments_sealed_at_interval(self):
        log = OperationLog(segment_entries=8)
        for index in range(20):
            log.on_host_op(host_op(index))
        assert len(log.sealed_segments()) == 2
        assert log.open_entries == 4
        segment = log.sealed_segments()[0]
        assert segment.entry_count == 8
        assert segment.first_sequence == 0
        assert segment.last_sequence == 7

    def test_manual_seal(self):
        log = OperationLog(segment_entries=1000)
        for index in range(5):
            log.on_host_op(host_op(index))
        segment = log.seal_segment()
        assert segment is not None
        assert log.open_entries == 0
        assert log.seal_segment() is None

    def test_unoffloaded_filter(self):
        log = OperationLog(segment_entries=4)
        for index in range(8):
            log.on_host_op(host_op(index))
        segments = log.sealed_segments()
        segments[0].offloaded = True
        assert len(log.sealed_segments(unoffloaded_only=True)) == 1


class TestLogIntegrity:
    def test_verify_clean_log(self):
        log = OperationLog(segment_entries=16)
        for index in range(40):
            log.on_host_op(host_op(index))
        assert log.verify_integrity()

    def test_tampered_entry_detected(self):
        log = OperationLog(checkpoint_interval=8)
        for index in range(30):
            log.on_host_op(host_op(index, lba=index))
        entries = log.all_entries()
        forged = LogEntry(
            sequence=entries[10].sequence,
            timestamp_us=entries[10].timestamp_us,
            op_type=entries[10].op_type,
            lba=999,  # the attacker rewrites history to hide the victim LBA
            npages=1,
            stream_id=entries[10].stream_id,
            entropy=entries[10].entropy,
            fingerprint=entries[10].fingerprint,
        )
        tampered = entries[:10] + [forged] + entries[11:]
        assert not log.verify_integrity(tampered)
        divergence = log.find_tampering(tampered)
        assert divergence is not None and divergence >= 10

    def test_truncated_log_detected(self):
        log = OperationLog()
        for index in range(10):
            log.on_host_op(host_op(index))
        assert not log.verify_integrity(log.all_entries()[:-2])

    def test_entry_serialisation_is_stable(self):
        entry = LogEntry(1, 2, HostOpType.TRIM, 3, 4, 5, 6.0, 7)
        assert entry.to_bytes() == entry.to_bytes()
        other = LogEntry(1, 2, HostOpType.TRIM, 3, 4, 5, 6.0, 8)
        assert entry.to_bytes() != other.to_bytes()
