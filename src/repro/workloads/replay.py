"""Replay block traces against any device that speaks the SSD interface."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.ssd.device import SSD
from repro.ssd.flash import PageContent
from repro.workloads.records import OP_CODES, Trace, TraceOp, TraceRecord

_FINGERPRINT_MASK = 0xFFFFFFFFFFFFFFFF
_READ, _WRITE, _TRIM, _FLUSH = (
    OP_CODES[op] for op in (TraceOp.READ, TraceOp.WRITE, TraceOp.TRIM, TraceOp.FLUSH)
)


@dataclass
class ReplayResult:
    """Summary of one trace replay."""

    records_replayed: int = 0
    reads: int = 0
    writes: int = 0
    trims: int = 0
    flushes: int = 0
    pages_written: int = 0
    pages_read: int = 0
    pages_trimmed: int = 0
    #: Host commands actually issued to the device.  Equals
    #: ``records_replayed`` on the per-op path; smaller when the batched
    #: replayer coalesces contiguous runs into one command.
    device_calls: int = 0
    total_read_latency_us: float = 0.0
    total_write_latency_us: float = 0.0
    end_timestamp_us: int = 0

    @property
    def coalescing_factor(self) -> float:
        """Trace records per issued device command (1.0 = no coalescing)."""
        return self.records_replayed / self.device_calls if self.device_calls else 0.0

    @property
    def mean_write_latency_us(self) -> float:
        """Device write latency accrued during the replay, per write record."""
        return self.total_write_latency_us / self.writes if self.writes else 0.0

    @property
    def mean_read_latency_us(self) -> float:
        """Device read latency accrued during the replay, per read record."""
        return self.total_read_latency_us / self.reads if self.reads else 0.0


class TraceReplayer:
    """Replays a trace in timestamp order against a device.

    The replayer synthesises descriptor-only page contents from each
    record's entropy / compressibility attributes (carrying real bytes
    for multi-gigabyte traces is neither necessary nor feasible).  A
    deterministic fingerprint is derived from (stream, lba, sequence) so
    recovery tests can check *which version* of a page was restored.
    """

    def __init__(self, device: SSD, honor_timestamps: bool = True) -> None:
        self.device = device
        self.honor_timestamps = honor_timestamps
        self._write_sequence = 0

    def _content_for(self, record: TraceRecord, page_offset: int) -> PageContent:
        self._write_sequence += 1
        fingerprint = hash(
            (record.stream_id, record.lba + page_offset, self._write_sequence)
        ) & _FINGERPRINT_MASK
        return PageContent.synthetic(
            fingerprint=fingerprint,
            length=self.device.page_size,
            entropy=record.entropy,
            compress_ratio=record.compress_ratio,
        )

    def replay(self, records: Iterable[TraceRecord]) -> ReplayResult:
        """Apply every record to the device, in the order given."""
        result = ReplayResult()
        before_read = self.device.metrics.latency["read"].total_us
        before_write = self.device.metrics.latency["write"].total_us
        for index, record in enumerate(records):
            if not isinstance(record.op, TraceOp):
                raise ValueError(f"trace record {index}: op {record.op!r} is not a TraceOp")
            if self.honor_timestamps:
                self.device.clock.advance_to(record.timestamp_us)
            self._apply(record, result)
            result.records_replayed += 1
            result.end_timestamp_us = self.device.clock.now_us
        result.total_read_latency_us = (
            self.device.metrics.latency["read"].total_us - before_read
        )
        result.total_write_latency_us = (
            self.device.metrics.latency["write"].total_us - before_write
        )
        return result

    def _mapped_lba(self, record: TraceRecord) -> int:
        """Map a trace LBA into the device's exported range."""
        capacity = self.device.capacity_pages
        return record.lba % max(1, capacity - record.npages) if record.npages else record.lba

    def _apply(self, record: TraceRecord, result: ReplayResult) -> None:
        lba = self._mapped_lba(record)
        result.device_calls += 1
        if record.op is TraceOp.READ:
            npages = max(1, record.npages)
            self.device.read(lba, npages, stream_id=record.stream_id)
            result.reads += 1
            result.pages_read += npages
        elif record.op is TraceOp.WRITE:
            npages = max(1, record.npages)
            contents = [self._content_for(record, offset) for offset in range(npages)]
            self.device.write(lba, contents, stream_id=record.stream_id)
            result.writes += 1
            result.pages_written += npages
        elif record.op is TraceOp.TRIM:
            npages = max(1, record.npages)
            self.device.trim(lba, npages, stream_id=record.stream_id)
            result.trims += 1
            result.pages_trimmed += npages
        elif record.op is TraceOp.FLUSH:
            self.device.flush(stream_id=record.stream_id)
            result.flushes += 1


class BatchTraceReplayer(TraceReplayer):
    """Replays a trace through the device's batched (vectorized) path.

    Runs of consecutive records with the same operation type and stream
    whose page ranges are contiguous are coalesced into one
    ``write_batch`` / ``read_batch`` / ``trim_range`` call of up to
    ``max_batch_pages`` pages -- the software analogue of doorbell
    batching on a real NVMe submission queue.

    Equivalence contract: a batch call is bit-identical to the per-op
    call covering the same pages (the equivalence property tests pin
    this down), so replaying coalesced preserves the *logical* device
    state exactly -- every live page holds the same content version as
    under per-op replay, and host page counters match.  What changes is
    the command stream itself: host command counts, the operation log
    (one aggregated entry per batch) and background-maintenance cadence
    (GC/wear checks run per command) follow the merged commands, so
    physical page placement may legitimately differ.
    """

    def __init__(
        self,
        device: SSD,
        honor_timestamps: bool = True,
        max_batch_pages: int = 64,
    ) -> None:
        super().__init__(device, honor_timestamps=honor_timestamps)
        if max_batch_pages < 1:
            raise ValueError("max_batch_pages must be at least 1")
        self.max_batch_pages = max_batch_pages

    def replay(self, records: Iterable[TraceRecord]) -> ReplayResult:
        """Apply every record, coalescing contiguous same-op runs.

        The replay is planned over the trace's columns (a non-:class:`Trace`
        input is converted once), so the only Python loops left are one
        per device call and one hash per written page:

        * LBAs are mapped into the device range as a column;
        * a run breaks on an op or stream change, on a discontiguity
          (``mapped[i] != mapped[i-1] + pages[i-1]``) and at every FLUSH,
          so each FLUSH is a call of its own;
        * each run is split greedily at ``max_batch_pages`` by a search
          over the cumulative page column (a chunk's first record always
          goes in, even when it alone exceeds the cap);
        * write contents come from one ``PageContent.synthetic_run`` per
          stretch of write records sharing ``(entropy, compress_ratio)``.
        """
        trace = Trace.from_records(records)
        device = self.device
        metrics = device.metrics
        before_read = metrics.latency["read"].total_us
        before_write = metrics.latency["write"].total_us
        result = ReplayResult(records_replayed=len(trace))
        write_seq = self._write_sequence
        if len(trace):
            write_seq = self._replay_columns(trace, result, write_seq)
        self._write_sequence = write_seq
        result.end_timestamp_us = device.clock.now_us
        result.total_read_latency_us = metrics.latency["read"].total_us - before_read
        result.total_write_latency_us = metrics.latency["write"].total_us - before_write
        return result

    def _replay_columns(self, trace: Trace, result: ReplayResult, write_seq: int) -> int:
        """Plan and issue the device calls; returns the new write sequence."""
        device = self.device
        codes = trace.op
        streams = trace.stream_id
        npages = trace.npages
        total = len(trace)
        pages = np.maximum(npages, 1)
        modulus = np.maximum(device.capacity_pages - npages, 1)
        mapped = np.where(npages > 0, trace.lba % modulus, trace.lba)
        flush = codes == _FLUSH
        breaks = np.ones(total, dtype=bool)
        breaks[1:] = (
            (codes[1:] != codes[:-1])
            | (streams[1:] != streams[:-1])
            | (mapped[1:] != mapped[:-1] + pages[:-1])
            | flush[1:]
        )
        through = np.cumsum(pages)
        starts = self._split_runs(np.flatnonzero(breaks), through, pages)
        stops = np.append(starts[1:], total)
        chunk_pages = through[stops - 1] - through[starts] + pages[starts]

        write = codes == _WRITE
        write_pages = np.where(write, pages, 0)
        contents = self._write_contents(trace, write, write_pages, write_seq)
        page_offsets = np.cumsum(write_pages) - write_pages

        read, trim = codes == _READ, codes == _TRIM
        result.reads = int(np.count_nonzero(read))
        result.writes = int(np.count_nonzero(write))
        result.trims = int(np.count_nonzero(trim))
        result.flushes = int(np.count_nonzero(flush))
        result.pages_read = int(pages[read].sum())
        result.pages_written = len(contents)
        result.pages_trimmed = int(pages[trim].sum())
        result.device_calls = len(starts)

        honor_timestamps = self.honor_timestamps
        advance_to = device.clock.advance_to
        write_batch = device.write_batch
        read_batch = device.read_batch
        trim_range = device.trim_range
        for code, stream, lba, count, offset, stamp in zip(
            codes[starts].tolist(),
            streams[starts].tolist(),
            mapped[starts].tolist(),
            chunk_pages.tolist(),
            page_offsets[starts].tolist(),
            trace.timestamp_us[stops - 1].tolist(),
        ):
            if honor_timestamps:
                advance_to(stamp)
            if code == _WRITE:
                write_batch(lba, contents[offset : offset + count], stream_id=stream)
            elif code == _READ:
                read_batch(lba, count, stream_id=stream)
            elif code == _TRIM:
                trim_range(lba, count, stream_id=stream)
            else:
                device.flush(stream_id=stream)
        return write_seq + len(contents)

    def _split_runs(
        self, run_starts: np.ndarray, through: np.ndarray, pages: np.ndarray
    ) -> np.ndarray:
        """Chunk starts: each run split greedily at ``max_batch_pages``.

        ``through[i]`` counts the pages of records ``0..i``; it strictly
        increases, so a search finds the first record that would overflow
        the chunk begun at ``start``.
        """
        max_pages = self.max_batch_pages
        before = through - pages
        run_stops = np.append(run_starts[1:], len(pages))
        oversized = through[run_stops - 1] - before[run_starts] > max_pages
        splits: List[int] = []
        for start, stop in zip(run_starts[oversized].tolist(), run_stops[oversized].tolist()):
            while True:
                limit = int(before[start]) + max_pages
                start = max(start + 1, int(through.searchsorted(limit, side="right")))
                if start >= stop:
                    break
                splits.append(start)
        if not splits:
            return run_starts
        return np.union1d(run_starts, np.array(splits, dtype=np.int64))

    def _write_contents(
        self, trace: Trace, write: np.ndarray, write_pages: np.ndarray, write_seq: int
    ) -> List[PageContent]:
        """Every written page's content, in trace order.

        Page ``k`` of a write record gets fingerprint
        ``hash((stream_id, lba + k, seq)) & MASK``, where ``lba`` is the
        record's raw (unmapped) LBA and ``seq`` counts written pages
        from the replayer's ``_write_sequence`` on.
        """
        per_record = write_pages[write]
        if not per_record.size:
            return []
        first_page = np.cumsum(per_record) - per_record
        page_in_record = np.arange(int(per_record.sum()), dtype=np.int64) - np.repeat(
            first_page, per_record
        )
        mask = _FINGERPRINT_MASK
        fingerprints = [
            hash(key) & mask
            for key in zip(
                np.repeat(trace.stream_id[write], per_record).tolist(),
                (np.repeat(trace.lba[write], per_record) + page_in_record).tolist(),
                range(write_seq + 1, write_seq + 1 + len(page_in_record)),
            )
        ]
        # Stretches of consecutive write records whose descriptors are
        # bit-identical share one synthetic_run call.
        entropy = trace.entropy[write]
        ratio = trace.compress_ratio[write]
        same = (entropy.view(np.int64)[1:] == entropy.view(np.int64)[:-1]) & (
            ratio.view(np.int64)[1:] == ratio.view(np.int64)[:-1]
        )
        stretch_starts = np.flatnonzero(np.append(True, ~same))
        page_bounds = np.append(first_page[stretch_starts], len(fingerprints)).tolist()
        page_size = self.device.page_size
        synthetic_run = PageContent.synthetic_run
        contents: List[PageContent] = []
        for begin, end, stretch_entropy, stretch_ratio in zip(
            page_bounds,
            page_bounds[1:],
            entropy[stretch_starts].tolist(),
            ratio[stretch_starts].tolist(),
        ):
            contents += synthetic_run(
                fingerprints[begin:end], page_size, stretch_entropy, stretch_ratio
            )
        return contents
