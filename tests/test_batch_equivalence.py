"""Property tests: the batched I/O path is equivalent to the per-op path.

Two levels of guarantee are pinned down here:

1. *Strict* -- one ``write_batch`` / ``read_batch`` / ``trim_range``
   call is bit-identical to the corresponding per-op call: same FTL
   mapping, stale pool, metrics, clock, operation-log entries and even
   the evidence-chain hash head.
2. *Logical* -- coalescing replay (merging contiguous records into
   fewer, larger commands) preserves the logical device state: every
   live page holds the same content version, and page-level counters
   match, even though the command stream itself is merged.
"""

import random

import pytest

from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD
from repro.forensics import ForensicsEngine
from repro.ssd.device import SSDBuilder
from repro.ssd.flash import PageContent
from repro.ssd.geometry import SSDGeometry
from repro.workloads.records import TraceOp, TraceRecord
from repro.workloads.replay import BatchTraceReplayer, TraceReplayer


def random_ops(seed, count, capacity, write_fraction=0.55, trim_fraction=0.15):
    """A randomized mixed trace of (kind, lba, npages, contents) tuples."""
    rng = random.Random(seed)
    ops = []
    sequence = 0
    for _ in range(count):
        npages = rng.choice([1, 1, 1, 2, 3, 4])
        lba = rng.randrange(capacity - npages)
        roll = rng.random()
        if roll < write_fraction:
            contents = []
            for _ in range(npages):
                sequence += 1
                contents.append(
                    PageContent.synthetic(
                        fingerprint=sequence,
                        length=4096,
                        entropy=rng.uniform(0.5, 7.9),
                        compress_ratio=rng.uniform(0.1, 1.0),
                    )
                )
            ops.append(("write", lba, npages, contents))
        elif roll < write_fraction + trim_fraction:
            ops.append(("trim", lba, npages, None))
        else:
            ops.append(("read", lba, npages, None))
    return ops


def drive(device, ops, batched):
    for kind, lba, npages, contents in ops:
        if kind == "write":
            (device.write_batch if batched else device.write)(lba, contents)
        elif kind == "trim":
            (device.trim_range if batched else device.trim)(lba, npages)
        else:
            (device.read_batch if batched else device.read)(lba, npages)


def mapping_snapshot(ssd):
    return {
        lpn: (meta.ppn, meta.version, meta.written_us)
        for lpn, meta in ssd.ftl._mapping.items()
    }


def stale_snapshot(ssd):
    return sorted(
        (r.lpn, r.ppn, r.version, r.cause.value, r.offloaded, r.released)
        for r in ssd.ftl.iter_stale()
    )


class TestStrictEquivalenceOnRSSD:
    """Per-call equivalence on the full RSSD stack (log, retention, offload)."""

    @pytest.mark.parametrize("seed", [3, 17, 92])
    def test_randomized_trace_is_bit_identical(self, seed):
        ops = random_ops(seed, 1500, RSSDConfig.tiny().geometry.exported_pages)
        per_op = RSSD(RSSDConfig.tiny())
        batched = RSSD(RSSDConfig.tiny())
        drive(per_op, ops, batched=False)
        drive(batched, ops, batched=True)

        assert mapping_snapshot(per_op.ssd) == mapping_snapshot(batched.ssd)
        assert stale_snapshot(per_op.ssd) == stale_snapshot(batched.ssd)
        assert per_op.metrics.summary() == batched.metrics.summary()
        assert per_op.clock.now_us == batched.clock.now_us
        # Operation log: same entry count and the same hash-chain head,
        # i.e. byte-identical evidence chains.
        assert per_op.oplog.total_entries == batched.oplog.total_entries
        assert per_op.oplog.chain.head == batched.oplog.chain.head
        # Retention/offload pipeline agrees too.
        assert per_op.summary() == batched.summary()

    def test_read_batch_returns_same_bytes(self):
        per_op = RSSD(RSSDConfig.tiny())
        batched = RSSD(RSSDConfig.tiny())
        for device in (per_op, batched):
            device.write(0, b"batched reads must see the same data" * 20)
        assert per_op.read(0, 4) == batched.read_batch(0, 4)

    def test_trim_range_matches_trim(self):
        per_op = RSSD(RSSDConfig.tiny())
        batched = RSSD(RSSDConfig.tiny())
        for device in (per_op, batched):
            for lba in range(8):
                device.write(lba, b"x" * 64)
        records_a = per_op.trim(2, 4)
        records_b = batched.trim_range(2, 4)
        assert [r.lpn for r in records_a] == [r.lpn for r in records_b]
        assert per_op.trim_handler.stats == batched.trim_handler.stats
        assert per_op.clock.now_us == batched.clock.now_us


class TestStrictEquivalenceOnPlainSSD:
    """Same property on a bare SSD (greedy GC, passthrough retention)."""

    @pytest.mark.parametrize("seed", [7, 41])
    def test_randomized_trace_is_bit_identical(self, seed):
        geometry = SSDGeometry.tiny()
        ops = random_ops(seed, 2000, geometry.exported_pages, trim_fraction=0.2)
        per_op = SSDBuilder().with_geometry(geometry).build()
        batched = SSDBuilder().with_geometry(geometry).build()
        drive(per_op, ops, batched=False)
        drive(batched, ops, batched=True)

        assert mapping_snapshot(per_op) == mapping_snapshot(batched)
        assert stale_snapshot(per_op) == stale_snapshot(batched)
        assert per_op.metrics.summary() == batched.metrics.summary()
        assert per_op.clock.now_us == batched.clock.now_us


class TestCoalescedReplayEquivalence:
    """Coalescing merges commands but never changes logical contents."""

    def make_trace(self, seed, count, capacity):
        rng = random.Random(seed)
        records = []
        timestamp = 0
        cursor = 0
        for _ in range(count):
            timestamp += rng.randint(1, 50)
            npages = rng.choice([1, 1, 2, 4])
            roll = rng.random()
            if roll < 0.55:
                records.append(
                    TraceRecord(timestamp, TraceOp.WRITE, cursor % (capacity - 8), npages)
                )
                cursor += npages
            elif roll < 0.8:
                records.append(
                    TraceRecord(timestamp, TraceOp.READ, rng.randrange(capacity - 8), npages)
                )
            elif roll < 0.95:
                records.append(
                    TraceRecord(timestamp, TraceOp.TRIM, rng.randrange(capacity - 8), npages)
                )
            else:
                records.append(TraceRecord(timestamp, TraceOp.FLUSH, 0, 0))
        return records

    @pytest.mark.parametrize("seed", [5, 23])
    def test_live_contents_and_page_counters_match(self, seed):
        per_op = RSSD(RSSDConfig.tiny())
        batched = RSSD(RSSDConfig.tiny())
        trace = self.make_trace(seed, 3000, per_op.capacity_pages)
        result_a = TraceReplayer(per_op, honor_timestamps=True).replay(trace)
        result_b = BatchTraceReplayer(
            batched, honor_timestamps=True, max_batch_pages=32
        ).replay(trace)

        assert result_a.records_replayed == result_b.records_replayed == len(trace)
        # Logical state: every live LBA holds the same content version.
        live_a = {
            lpn: per_op.ssd.flash.read(meta.ppn).fingerprint
            for lpn, meta in per_op.ssd.ftl._mapping.items()
        }
        live_b = {
            lpn: batched.ssd.flash.read(meta.ppn).fingerprint
            for lpn, meta in batched.ssd.ftl._mapping.items()
        }
        assert live_a == live_b
        # Page-level traffic identical; command counts reflect merging.
        assert per_op.metrics.host_pages_written == batched.metrics.host_pages_written
        assert per_op.metrics.host_pages_read == batched.metrics.host_pages_read
        assert per_op.metrics.host_pages_trimmed == batched.metrics.host_pages_trimmed
        assert result_b.device_calls <= result_a.device_calls
        assert result_b.coalescing_factor >= 1.0

    def test_coalescing_respects_batch_cap_and_stream_boundaries(self):
        device = RSSD(RSSDConfig.tiny())
        trace = [
            TraceRecord(t, TraceOp.WRITE, lba=t, npages=1, stream_id=t % 2)
            for t in range(64)
        ]
        result = BatchTraceReplayer(
            device, honor_timestamps=False, max_batch_pages=16
        ).replay(trace)
        # Alternating streams break every run: no coalescing happens.
        assert result.device_calls == 64

    def test_oplog_covers_every_page_once(self):
        device = RSSD(RSSDConfig.tiny())
        trace = [
            TraceRecord(t, TraceOp.WRITE, lba=t, npages=1, stream_id=0)
            for t in range(40)
        ]
        result = BatchTraceReplayer(
            device, honor_timestamps=False, max_batch_pages=8
        ).replay(trace)
        assert result.device_calls == 5
        assert device.oplog.total_entries == 5
        # The aggregated entries still cover every written LBA, once.
        timeline = ForensicsEngine(device).timeline
        for lba in range(40):
            assert timeline.history(lba).writes == 1
