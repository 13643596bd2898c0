"""The columnar batched replay against the per-record loop it replaced.

``BatchTraceReplayer.replay`` plans a replay as array passes over a
:class:`~repro.workloads.records.Trace`: LBA mapping, run breaks, the
``max_batch_pages`` split, write fingerprints and content stretches.
``reference_replay`` below is the per-record grouping loop it replaced,
kept verbatim as the reference.  Both drive fresh twin devices through
hypothesis-generated traces, and everything observable must be equal
(``==``, never approximately): the ``ReplayResult``, the device
metrics, the kernel's mapping and page columns, the per-LBA
fingerprints, the oplog chain head, the clock and ``_write_sequence``,
also across two consecutive replays on one replayer.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD
from repro.sim import SimClock
from repro.ssd.device import SSD
from repro.ssd.flash import PageContent
from repro.ssd.geometry import SSDGeometry
from repro.workloads.records import Trace, TraceOp, TraceRecord
from repro.workloads.replay import BatchTraceReplayer, ReplayResult, TraceReplayer

GEOMETRY = SSDGeometry.tiny()
CAPACITY = GEOMETRY.exported_pages

#: (entropy, compress_ratio) pool: few enough values that consecutive
#: writes often share a descriptor, and sometimes differ in only one of
#: the two fields.
DESCRIPTORS = ((6.5, 0.9), (6.5, 0.5), (4.0, 0.5), (8.0, 1.0))

KERNEL_COLUMNS = (
    "page_state",
    "page_lpn",
    "page_ts",
    "block_next_off",
    "block_valid",
    "block_invalid",
    "block_erase",
    "block_last_ts",
    "map_ppn",
    "map_written_us",
    "map_version",
)


def reference_replay(replayer: BatchTraceReplayer, records) -> ReplayResult:
    """The per-record grouping loop ``BatchTraceReplayer.replay`` replaced."""
    trace = records if isinstance(records, list) else list(records)
    result = ReplayResult()
    device = replayer.device
    metrics = device.metrics
    before_read = metrics.latency["read"].total_us
    before_write = metrics.latency["write"].total_us
    max_pages = replayer.max_batch_pages
    honor_timestamps = replayer.honor_timestamps
    capacity = device.capacity_pages
    page_size = device.page_size
    synthetic_run = PageContent.synthetic_run
    mask = 0xFFFFFFFFFFFFFFFF
    write_seq = replayer._write_sequence
    advance_to = device.clock.advance_to
    write_batch = device.write_batch
    read_batch = device.read_batch
    trim_range = device.trim_range
    WRITE, READ, FLUSH = TraceOp.WRITE, TraceOp.READ, TraceOp.FLUSH

    index = 0
    total = len(trace)
    while index < total:
        record = trace[index]
        op = record.op
        if op is FLUSH:
            if honor_timestamps:
                advance_to(record.timestamp_us)
            device.flush(stream_id=record.stream_id)
            result.flushes += 1
            result.device_calls += 1
            result.records_replayed += 1
            index += 1
            continue
        stream = record.stream_id
        npages = record.npages
        raw_lba = record.lba
        if npages:
            modulus = capacity - npages
            start_lba = raw_lba % (modulus if modulus > 1 else 1)
        else:
            npages = 1
            start_lba = raw_lba
        pages = npages
        merged = 1
        if op is WRITE:
            contents = synthetic_run(
                [
                    hash((stream, raw_lba + offset, write_seq + 1 + offset)) & mask
                    for offset in range(npages)
                ],
                page_size,
                record.entropy,
                record.compress_ratio,
            )
            write_seq += npages
        cursor = index + 1
        while cursor < total:
            nxt = trace[cursor]
            if nxt.op is not op or nxt.stream_id != stream:
                break
            next_pages = nxt.npages
            raw_lba = nxt.lba
            if next_pages:
                if pages + next_pages > max_pages:
                    break
                modulus = capacity - next_pages
                lba = raw_lba % (modulus if modulus > 1 else 1)
            else:
                next_pages = 1
                if pages + 1 > max_pages:
                    break
                lba = raw_lba
            if lba != start_lba + pages:
                break
            if op is WRITE:
                contents.extend(
                    synthetic_run(
                        [
                            hash((stream, raw_lba + offset, write_seq + 1 + offset)) & mask
                            for offset in range(next_pages)
                        ],
                        page_size,
                        nxt.entropy,
                        nxt.compress_ratio,
                    )
                )
                write_seq += next_pages
            pages += next_pages
            merged += 1
            cursor += 1
        if honor_timestamps:
            advance_to(trace[cursor - 1].timestamp_us)
        if op is WRITE:
            write_batch(start_lba, contents, stream_id=stream)
            result.writes += merged
            result.pages_written += pages
        elif op is READ:
            read_batch(start_lba, pages, stream_id=stream)
            result.reads += merged
            result.pages_read += pages
        else:
            trim_range(start_lba, pages, stream_id=stream)
            result.trims += merged
            result.pages_trimmed += pages
        result.device_calls += 1
        result.records_replayed += merged
        index = cursor

    replayer._write_sequence = write_seq
    result.end_timestamp_us = device.clock.now_us
    result.total_read_latency_us = metrics.latency["read"].total_us - before_read
    result.total_write_latency_us = metrics.latency["write"].total_us - before_write
    return result


@st.composite
def traces(draw) -> List[TraceRecord]:
    """Records that often continue the previous record's LBA run.

    A fresh LBA is drawn only on a jump, so contiguous runs (and their
    breaks by op, stream, page count and the batch cap) are common.
    """
    streams = draw(st.integers(1, 3))
    count = draw(st.integers(0, 40))
    records: List[TraceRecord] = []
    timestamp = 0
    lba = 0
    for _ in range(count):
        op = draw(st.sampled_from(list(TraceOp)))
        npages = draw(st.integers(0, 5))
        if not records or draw(st.booleans()):
            lba = draw(st.integers(0, 2 * CAPACITY))
        else:
            lba = records[-1].lba + max(1, records[-1].npages)
        timestamp += draw(st.integers(0, 50))
        entropy, ratio = draw(st.sampled_from(DESCRIPTORS))
        records.append(
            TraceRecord(
                timestamp_us=timestamp,
                op=op,
                lba=lba,
                npages=npages,
                stream_id=draw(st.integers(0, streams - 1)),
                entropy=entropy,
                compress_ratio=ratio,
            )
        )
    return records


def fresh_device(kind: str):
    if kind == "ssd":
        return SSD(geometry=GEOMETRY, clock=SimClock())
    return RSSD(RSSDConfig(geometry=GEOMETRY))


def run(replay, replayer, records):
    """``replay(replayer, records)``, or the exception it raised."""
    try:
        return asdict(replay(replayer, records))
    except Exception as error:  # compared, never swallowed: both sides must agree
        return (type(error), str(error))


def device_state(device) -> dict:
    ssd = getattr(device, "ssd", device)
    kernel = ssd.ftl.kernel
    state = {name: getattr(kernel, name).tolist() for name in KERNEL_COLUMNS}
    state["page_content"] = list(kernel.page_content)
    state["mapped_count"] = kernel.mapped_count
    state["payload_pages"] = kernel.payload_pages
    state["fingerprints"] = [
        None if content is None else content.fingerprint
        for content in (ssd.read_content(lba) for lba in range(ssd.capacity_pages))
    ]
    state["metrics"] = device.metrics
    state["now_us"] = device.clock.now_us
    oplog = getattr(device, "oplog", None)
    if oplog is not None:
        state["oplog_head"] = oplog.chain.head
    return state


def new_replay(replayer, records):
    return replayer.replay(records)


def assert_same_replay(records, kind, max_batch_pages, honor_timestamps, make_input):
    """Replay ``records`` in two halves with both implementations."""
    reference_device, device = fresh_device(kind), fresh_device(kind)
    reference = BatchTraceReplayer(
        reference_device, honor_timestamps=honor_timestamps, max_batch_pages=max_batch_pages
    )
    replayer = BatchTraceReplayer(
        device, honor_timestamps=honor_timestamps, max_batch_pages=max_batch_pages
    )
    middle = len(records) // 2
    for part in (records[:middle], records[middle:]):
        expected = run(reference_replay, reference, part)
        got = run(new_replay, replayer, make_input(part))
        assert got == expected
        assert replayer._write_sequence == reference._write_sequence
        assert device_state(device) == device_state(reference_device)


INPUTS = {
    "list": list,
    "trace": Trace.from_records,
    "generator": lambda records: (record for record in records),
}


@given(
    records=traces(),
    kind=st.sampled_from(["ssd", "rssd"]),
    max_batch_pages=st.sampled_from([1, 2, 3, 8, 64, 256]),
    honor_timestamps=st.booleans(),
    input_kind=st.sampled_from(sorted(INPUTS)),
)
@settings(max_examples=150, deadline=None)
def test_columnar_replay_matches_the_per_record_loop(
    records, kind, max_batch_pages, honor_timestamps, input_kind
):
    assert_same_replay(records, kind, max_batch_pages, honor_timestamps, INPUTS[input_kind])


def test_every_input_kind_on_a_fixed_trace():
    """List, Trace and generator inputs over runs that merge and split."""
    records = (
        [TraceRecord(timestamp_us=t, op=TraceOp.WRITE, lba=t, npages=2) for t in range(0, 40, 2)]
        + [TraceRecord(timestamp_us=50, op=TraceOp.FLUSH, lba=0, npages=0)]
        + [TraceRecord(timestamp_us=60 + t, op=TraceOp.READ, lba=t, npages=0) for t in range(30)]
        + [
            TraceRecord(timestamp_us=100, op=TraceOp.WRITE, lba=7, npages=1, entropy=8.0,
                        compress_ratio=1.0, stream_id=1),
            TraceRecord(timestamp_us=101, op=TraceOp.WRITE, lba=8, npages=3, stream_id=1),
            TraceRecord(timestamp_us=102, op=TraceOp.TRIM, lba=0, npages=5),
        ]
    )
    for kind in ("ssd", "rssd"):
        for make_input in INPUTS.values():
            for max_batch_pages in (1, 3, 64):
                assert_same_replay(records, kind, max_batch_pages, True, make_input)


def test_records_as_large_as_the_device_map_like_the_reference():
    """``npages`` near the capacity drives the modulus to its floor of 1."""
    records = [
        TraceRecord(timestamp_us=index, op=op, lba=lba, npages=npages)
        for index, (op, lba, npages) in enumerate(
            [
                (TraceOp.WRITE, 3, CAPACITY - 2),
                (TraceOp.TRIM, 5, CAPACITY - 1),
                (TraceOp.WRITE, 7, CAPACITY),
                (TraceOp.READ, 9, CAPACITY - 1),
                (TraceOp.READ, 11, CAPACITY + 1),
            ]
        )
    ]
    for kind in ("ssd", "rssd"):
        for max_batch_pages in (1, 1024):
            assert_same_replay(records, kind, max_batch_pages, False, list)


def test_a_record_op_that_is_not_a_trace_op_is_rejected():
    """The per-record loop issued such a record as a trim, silently."""
    device = fresh_device("ssd")
    records = [TraceRecord(timestamp_us=0, op="write", lba=0)]
    with pytest.raises(ValueError, match="record 0: op"):
        BatchTraceReplayer(device).replay(records)
    assert device.metrics.host_trims == device.metrics.host_writes == 0


def test_per_op_replay_rejects_a_record_op_that_is_not_a_trace_op():
    """The per-op loop counted such a record as replayed, yet issued nothing."""
    device = fresh_device("ssd")
    replayer = TraceReplayer(device)
    records = [
        TraceRecord(timestamp_us=5, op=TraceOp.WRITE, lba=1),
        TraceRecord(timestamp_us=1_000_000, op="write", lba=3),
    ]
    with pytest.raises(ValueError, match="trace record 1: op 'write' is not a TraceOp"):
        replayer.replay(records)
    assert device.metrics.host_writes == 1
    assert device.clock.now_us < 1_000_000
