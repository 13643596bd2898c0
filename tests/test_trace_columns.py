"""The columnar :class:`Trace` contract and the bursty generator that emits it.

``BurstyWorkload.generate`` draws into plain lists and builds a
``Trace`` once.  ``reference_generate`` below is the per-record
generator it replaced, kept as the reference: the records and the
generator's ``rng.getstate()`` afterwards must be equal, because the
draw order is part of the determinism contract.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from typing import List

import numpy as np
import pytest

from repro.workloads import Trace as ExportedTrace
from repro.workloads.records import TRACE_OPS, Trace, TraceOp, TraceRecord
from repro.workloads.synthetic import BurstyWorkload


def reference_generate(workload: BurstyWorkload, n_records: int, start_us: int = 0):
    """The per-record ``BurstyWorkload.generate`` the columnar one replaced."""
    rng = workload.rng
    records: List[TraceRecord] = []
    timestamp = start_us
    cursor = 0
    lo, hi = workload.burst_records
    gap_lo, gap_hi = workload.interarrival_us
    span = workload.span
    npages = workload.request_pages
    while len(records) < n_records:
        roll = rng.random()
        burst = rng.randint(lo, hi)
        if roll < workload.write_fraction:
            for _ in range(burst):
                timestamp += rng.randint(gap_lo, gap_hi)
                records.append(
                    TraceRecord(
                        timestamp_us=timestamp,
                        op=TraceOp.WRITE,
                        lba=cursor % span,
                        npages=npages,
                        stream_id=workload.stream_id,
                        entropy=workload.entropy,
                        compress_ratio=workload.compress_ratio,
                    )
                )
                cursor += npages
        elif roll < workload.write_fraction + workload.read_fraction:
            start = rng.randrange(max(1, cursor)) % span if cursor else 0
            for offset in range(burst):
                timestamp += rng.randint(gap_lo, gap_hi)
                records.append(
                    TraceRecord(
                        timestamp_us=timestamp,
                        op=TraceOp.READ,
                        lba=(start + offset * npages) % span,
                        npages=npages,
                        stream_id=workload.stream_id,
                    )
                )
        else:
            start = max(0, (cursor % span) - rng.randint(4 * burst, 8 * burst))
            for offset in range(burst // 2 + 1):
                timestamp += rng.randint(gap_lo, gap_hi)
                records.append(
                    TraceRecord(
                        timestamp_us=timestamp,
                        op=TraceOp.TRIM,
                        lba=(start + offset * npages) % span,
                        npages=npages,
                        stream_id=workload.stream_id,
                    )
                )
    return records[:n_records]


def sample_records() -> List[TraceRecord]:
    return [
        TraceRecord(timestamp_us=5, op=TraceOp.WRITE, lba=10, npages=2, stream_id=1,
                    entropy=6.5, compress_ratio=0.9),
        TraceRecord(timestamp_us=7, op=TraceOp.READ, lba=0, npages=0),
        TraceRecord(timestamp_us=7, op=TraceOp.TRIM, lba=3, npages=4, stream_id=2),
        TraceRecord(timestamp_us=9, op=TraceOp.FLUSH, lba=0, npages=0, entropy=0.0,
                    compress_ratio=1.0),
    ]


def columns(records: List[TraceRecord], **overrides) -> dict:
    values = {
        "timestamp_us": [record.timestamp_us for record in records],
        "op": [TRACE_OPS.index(record.op) for record in records],
        "lba": [record.lba for record in records],
        "npages": [record.npages for record in records],
        "stream_id": [record.stream_id for record in records],
        "entropy": [record.entropy for record in records],
        "compress_ratio": [record.compress_ratio for record in records],
    }
    values.update(overrides)
    return values


class TestTraceContract:
    def test_exported_from_the_package(self):
        assert ExportedTrace is Trace

    def test_from_records_round_trip(self):
        records = sample_records()
        trace = Trace.from_records(records)
        assert len(trace) == 4
        assert list(trace) == records
        assert Trace.from_records(list(trace)) == trace
        assert Trace.from_records(iter(records)) == trace
        assert Trace.from_records(trace) is trace

    def test_column_dtypes(self):
        trace = Trace.from_records(sample_records())
        for name in ("timestamp_us", "lba", "npages", "stream_id"):
            assert getattr(trace, name).dtype == np.int64
        assert trace.entropy.dtype == trace.compress_ratio.dtype == np.float64
        assert trace.op.dtype == np.int8
        assert [TRACE_OPS[code] for code in trace.op] == [r.op for r in sample_records()]

    def test_records_carry_python_values(self):
        for record in Trace.from_records(sample_records()):
            for name in ("timestamp_us", "lba", "npages", "stream_id"):
                assert type(getattr(record, name)) is int
            assert type(record.entropy) is float and type(record.compress_ratio) is float
            assert isinstance(record.op, TraceOp)

    def test_indexing_and_negative_indices(self):
        records = sample_records()
        trace = Trace.from_records(records)
        for index in range(-4, 4):
            assert trace[index] == records[index]
        assert trace[np.int64(1)] == records[1]
        for index in (4, -5):
            with pytest.raises(IndexError):
                trace[index]

    def test_slicing_gives_a_trace(self):
        records = sample_records()
        trace = Trace.from_records(records)
        for window in (slice(1, 3), slice(None, None, 2), slice(-2, None), slice(3, 1)):
            sliced = trace[window]
            assert isinstance(sliced, Trace)
            assert sliced == records[window]
            assert list(sliced) == records[window]

    def test_equality_with_lists_and_traces(self):
        records = sample_records()
        trace = Trace.from_records(records)
        assert trace == records and records == trace
        assert trace == tuple(records)
        assert trace == Trace.from_records(records)
        assert trace != records[:3]
        assert trace != Trace.from_records(records[:3])
        changed = records[:3] + [TraceRecord(timestamp_us=9, op=TraceOp.FLUSH, lba=1, npages=0)]
        assert trace != changed
        assert trace != Trace.from_records(changed)
        assert trace != 42

    @pytest.mark.parametrize(
        "field, value",
        [("timestamp_us", 6), ("op", 0), ("lba", 1), ("npages", 3), ("stream_id", 9),
         ("entropy", 6.0), ("compress_ratio", 0.7)],
    )
    def test_a_difference_in_any_column_is_unequal(self, field, value):
        records = sample_records()
        trace = Trace.from_records(records)
        changed = Trace(**columns(records, **{field: [value] + columns(records)[field][1:]}))
        assert changed != trace and trace != changed
        assert changed != records and list(changed) != records

    def test_the_empty_trace(self):
        empty = Trace.from_records([])
        assert len(empty) == 0
        assert list(empty) == []
        assert empty == [] and empty == Trace(**columns([]))
        assert empty[0:5] == []
        with pytest.raises(IndexError):
            empty[0]

    def test_columns_are_read_only(self):
        trace = Trace.from_records(sample_records())
        for name in ("timestamp_us", "op", "lba", "npages", "stream_id", "entropy",
                     "compress_ratio"):
            with pytest.raises(ValueError):
                getattr(trace, name)[0] = 1
            with pytest.raises(ValueError):
                getattr(trace[1:], name)[0] = 1
        with pytest.raises(AttributeError):
            trace.lba = np.zeros(4, dtype=np.int64)

    def test_construction_copies_its_inputs(self):
        lbas = np.array([1, 2, 3, 4])
        trace = Trace(**columns(sample_records(), lba=lbas))
        lbas[0] = 99
        assert trace[0].lba == 1

    def test_pickle_and_copy(self):
        trace = Trace.from_records(sample_records())
        for clone in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
            assert clone == trace
            assert not clone.lba.flags.writeable

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("timestamp_us", -1, "timestamp_us must be non-negative"),
            ("lba", -1, "lba must be non-negative"),
            ("npages", -1, "npages must be non-negative"),
            ("entropy", 8.5, "entropy must be within"),
            ("entropy", -0.1, "entropy must be within"),
            ("entropy", float("nan"), "entropy must be within"),
            ("compress_ratio", 0.0, "compress_ratio must be within"),
            ("compress_ratio", 1.5, "compress_ratio must be within"),
        ],
    )
    def test_validation_names_the_first_bad_record(self, field, bad, message):
        records = sample_records()
        with pytest.raises(ValueError, match=message):  # the per-record rule
            dataclasses.replace(records[2], **{field: bad})
        values = columns(records)
        values[field] = list(values[field])
        values[field][2] = bad
        values[field][3] = bad
        with pytest.raises(ValueError, match=f"record 2: {message}"):
            Trace(**values)

    def test_the_earliest_record_wins_across_rules(self):
        values = columns(sample_records())
        values["compress_ratio"][1] = 2.0
        values["lba"][3] = -1
        with pytest.raises(ValueError, match="record 1: compress_ratio"):
            Trace(**values)

    @pytest.mark.parametrize("code", [-1, len(TRACE_OPS), 127])
    def test_unknown_op_codes_are_rejected(self, code):
        values = columns(sample_records())
        values["op"][1] = code
        with pytest.raises(ValueError, match="record 1: op must be a code"):
            Trace(**values)

    def test_a_record_op_that_is_not_a_trace_op_is_rejected(self):
        records = sample_records()
        records.insert(1, TraceRecord(timestamp_us=6, op="write", lba=4))
        with pytest.raises(ValueError, match="record 1: op must be a code"):
            Trace.from_records(records)

    def test_ragged_columns_are_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Trace(**columns(sample_records(), lba=[1, 2, 3]))
        with pytest.raises(ValueError, match="1-D"):
            Trace(**columns(sample_records(), npages=[[1, 1, 1, 1]]))


MIXES = {
    "default": {},
    "replay-mix": {"write_fraction": 0.25, "read_fraction": 0.70},
    "all-write": {"write_fraction": 1.0, "read_fraction": 0.0},
    "all-read": {"write_fraction": 0.0, "read_fraction": 1.0},
    "trim-only": {"write_fraction": 0.0, "read_fraction": 0.0},
}


class TestBurstyGeneratorReference:
    @pytest.mark.parametrize("seed", [1, 11, 12])
    @pytest.mark.parametrize("n_records", [1, 63, 64, 1000, 20000])
    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_records_and_rng_state_match_the_reference(self, seed, n_records, mix):
        columnar = BurstyWorkload(5000, seed=seed, **MIXES[mix])
        reference = BurstyWorkload(5000, seed=seed, **MIXES[mix])
        trace = columnar.generate(n_records)
        assert isinstance(trace, Trace)
        assert trace == reference_generate(reference, n_records)
        assert columnar.rng.getstate() == reference.rng.getstate()

    @pytest.mark.parametrize("seed", [1, 11, 12])
    def test_request_pages_start_offset_and_stream(self, seed):
        options = dict(request_pages=3, stream_id=2, entropy=7.5, compress_ratio=0.95,
                       burst_records=(1, 9), interarrival_us=(0, 3), span_fraction=0.5)
        columnar = BurstyWorkload(777, seed=seed, **options)
        reference = BurstyWorkload(777, seed=seed, **options)
        for n_records in (1000, 64):  # consecutive calls continue the same rng
            trace = columnar.generate(n_records, start_us=10**6)
            assert trace == reference_generate(reference, n_records, start_us=10**6)
            assert columnar.rng.getstate() == reference.rng.getstate()

    def test_reads_and_trims_keep_the_default_descriptors(self):
        trace = BurstyWorkload(5000, seed=3, entropy=7.0, compress_ratio=0.8).generate(5000)
        default = TraceRecord(timestamp_us=0, op=TraceOp.READ, lba=0)
        for record in trace:
            if record.op is TraceOp.WRITE:
                assert (record.entropy, record.compress_ratio) == (7.0, 0.8)
            else:
                assert (record.entropy, record.compress_ratio) == (
                    default.entropy,
                    default.compress_ratio,
                )


class TestBurstyInterarrival:
    @pytest.mark.parametrize("gaps", [(-20, 5), (-1, -1), (40, 5), (1, 0)])
    def test_a_bad_interarrival_pair_is_rejected_at_construction(self, gaps):
        with pytest.raises(ValueError, match="interarrival_us"):
            BurstyWorkload(1000, interarrival_us=gaps)

    @pytest.mark.parametrize("gaps", [(0, 0), (0, 5), (7, 7)])
    def test_timestamps_never_go_backwards(self, gaps):
        trace = BurstyWorkload(1000, interarrival_us=gaps, seed=4).generate(2000, start_us=10**6)
        stamps = trace.timestamp_us
        assert stamps[0] >= 10**6 + gaps[0]
        assert np.all(np.diff(stamps) >= gaps[0])
        assert np.all(np.diff(stamps) <= gaps[1])
