"""Block trace records, the columnar :class:`Trace`, and summary statistics."""

from __future__ import annotations

import enum
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, List, Tuple, Union, overload

import numpy as np

from repro.compat import DATACLASS_SLOTS, field_setters


class TraceParseError(ValueError):
    """A trace file line that could not be parsed.

    Carries the file path and 1-based line number so loader errors
    point at the offending line, not just the offending file.
    """

    def __init__(self, message: str, *, path: str = "", line_no: int = 0) -> None:
        location = f"{path}:{line_no}: " if path else ""
        super().__init__(f"{location}{message}")
        self.path = path
        self.line_no = line_no


class TraceOp(enum.Enum):
    """Operation types that appear in block traces."""

    READ = "read"
    WRITE = "write"
    TRIM = "trim"
    FLUSH = "flush"


@dataclass(frozen=True, **DATACLASS_SLOTS)
class TraceRecord:
    """One block-level I/O request.

    Attributes
    ----------
    timestamp_us:
        Issue time relative to the start of the trace.
    op:
        Request type.
    lba:
        Starting logical page address.
    npages:
        Number of logical pages touched.
    stream_id:
        Which process / VM issued the request (attacks and user
        workloads run as separate streams in the same trace).
    entropy:
        Content entropy of written data in bits/byte (ignored for reads).
    compress_ratio:
        Expected compression ratio of written data.
    """

    timestamp_us: int
    op: TraceOp
    lba: int
    npages: int = 1
    stream_id: int = 0
    entropy: float = 4.0
    compress_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.timestamp_us < 0:
            raise ValueError("timestamp_us must be non-negative")
        if self.lba < 0:
            raise ValueError("lba must be non-negative")
        if self.npages < 0:
            raise ValueError("npages must be non-negative")
        if not 0.0 <= self.entropy <= 8.0:
            raise ValueError("entropy must be within [0, 8]")
        if not 0.0 < self.compress_ratio <= 1.0:
            raise ValueError("compress_ratio must be within (0, 1]")

    def to_line(self) -> str:
        """Serialise the record as one CSV line (MSR-style column order)."""
        return (
            f"{self.timestamp_us},{self.op.value},{self.lba},{self.npages},"
            f"{self.stream_id},{self.entropy:.3f},{self.compress_ratio:.3f}"
        )

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        """Parse a record serialised by :meth:`to_line`."""
        fields = line.strip().split(",")
        if len(fields) != 7:
            raise ValueError(f"malformed trace line: {line!r}")
        return cls(
            timestamp_us=int(fields[0]),
            op=TraceOp(fields[1]),
            lba=int(fields[2]),
            npages=int(fields[3]),
            stream_id=int(fields[4]),
            entropy=float(fields[5]),
            compress_ratio=float(fields[6]),
        )


#: The columns of a :class:`Trace`, in :class:`TraceRecord` field order.
TRACE_COLUMNS = ("timestamp_us", "op", "lba", "npages", "stream_id", "entropy", "compress_ratio")

#: ``Trace.op`` holds int8 codes into this tuple.
TRACE_OPS = (TraceOp.READ, TraceOp.WRITE, TraceOp.TRIM, TraceOp.FLUSH)

#: The ``Trace.op`` code of each operation.
OP_CODES = {op: code for code, op in enumerate(TRACE_OPS)}

_RECORD_SETTERS = field_setters(TraceRecord, TRACE_COLUMNS)

#: Rows converted to Python values per step while iterating a
#: :class:`Trace`, so iteration never holds a Python object per value of
#: the whole trace at once.
_ITER_RECORDS = 1024


class Trace(Sequence[TraceRecord]):
    """An immutable block trace held as numpy columns.

    One read-only array per :class:`TraceRecord` field, in field order
    (:data:`TRACE_COLUMNS`): ``timestamp_us``, ``lba``, ``npages`` and
    ``stream_id`` as int64, ``entropy`` and ``compress_ratio`` as
    float64, and ``op`` as int8 codes into :data:`TRACE_OPS`.
    Construction validates every record with :class:`TraceRecord`'s
    rules in one pass and raises :class:`ValueError` naming the first
    bad record; ragged columns and unknown op codes raise too.

    A ``Trace`` is a ``Sequence[TraceRecord]``: ``len``, integer
    indexing (negative too) and iteration give records carrying plain
    Python ``int``/``float``/:class:`TraceOp` values, and slicing gives
    a ``Trace`` over views of the same columns.  It equals a ``Trace``
    with equal columns and any record sequence with equal records.
    :meth:`~repro.workloads.synthetic.BurstyWorkload.generate` emits it
    directly and :class:`~repro.workloads.replay.BatchTraceReplayer`
    plans a replay over the columns, so neither builds an object per
    record.
    """

    __slots__ = TRACE_COLUMNS

    timestamp_us: np.ndarray
    op: np.ndarray
    lba: np.ndarray
    npages: np.ndarray
    stream_id: np.ndarray
    entropy: np.ndarray
    compress_ratio: np.ndarray

    def __init__(
        self,
        *,
        timestamp_us: Iterable[int],
        op: Iterable[int],
        lba: Iterable[int],
        npages: Iterable[int],
        stream_id: Iterable[int],
        entropy: Iterable[float],
        compress_ratio: Iterable[float],
    ) -> None:
        columns = (
            np.array(timestamp_us, dtype=np.int64),
            np.array(op, dtype=np.int64),
            np.array(lba, dtype=np.int64),
            np.array(npages, dtype=np.int64),
            np.array(stream_id, dtype=np.int64),
            np.array(entropy, dtype=np.float64),
            np.array(compress_ratio, dtype=np.float64),
        )
        if len({column.shape for column in columns}) != 1 or columns[0].ndim != 1:
            shapes = (f"{name}={column.shape}" for name, column in zip(TRACE_COLUMNS, columns))
            raise ValueError(
                "trace columns must be 1-D and of equal length, got " + ", ".join(shapes)
            )
        stamps, codes, lbas, pages, _, entropies, ratios = columns
        rules = (
            (stamps < 0, "timestamp_us must be non-negative"),
            (
                (codes < 0) | (codes >= len(TRACE_OPS)),
                f"op must be a code in [0, {len(TRACE_OPS)})",
            ),
            (lbas < 0, "lba must be non-negative"),
            (pages < 0, "npages must be non-negative"),
            (~((entropies >= 0.0) & (entropies <= 8.0)), "entropy must be within [0, 8]"),
            (~((ratios > 0.0) & (ratios <= 1.0)), "compress_ratio must be within (0, 1]"),
        )
        failures = [(int(bad.argmax()), message) for bad, message in rules if bad.any()]
        if failures:
            index, message = min(failures, key=operator.itemgetter(0))
            raise ValueError(f"trace record {index}: {message}")
        self._adopt(stamps, codes.astype(np.int8), *columns[2:])

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "Trace":
        """Columnar copy of any record iterable (a ``Trace`` is returned as is)."""
        if isinstance(records, Trace):
            return records
        rows = records if isinstance(records, (list, tuple)) else list(records)

        def column(name: str, dtype: type) -> np.ndarray:
            values = map(operator.attrgetter(name), rows)
            if name == "op":
                # -1 marks an op that is not a TraceOp; validation names it.
                values = map(OP_CODES.get, values, repeat(-1))
            return np.fromiter(values, dtype, len(rows))

        return cls(
            timestamp_us=column("timestamp_us", np.int64),
            op=column("op", np.int8),
            lba=column("lba", np.int64),
            npages=column("npages", np.int64),
            stream_id=column("stream_id", np.int64),
            entropy=column("entropy", np.float64),
            compress_ratio=column("compress_ratio", np.float64),
        )

    def _adopt(self, *columns: np.ndarray) -> "Trace":
        """Take validated columns as this trace's read-only state."""
        for name, column in zip(TRACE_COLUMNS, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        return self

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in TRACE_COLUMNS)

    def _iter_records(self, start: int, stop: int) -> Iterator[TraceRecord]:
        """Records ``start:stop``, built without re-validation."""
        new = TraceRecord.__new__
        set_stamp, set_op, set_lba, set_npages, set_stream, set_entropy, set_ratio = (
            _RECORD_SETTERS
        )
        ops = TRACE_OPS
        columns = self._columns()
        for first in range(start, stop, _ITER_RECORDS):
            last = min(first + _ITER_RECORDS, stop)
            for stamp, code, lba, npages, stream, entropy, ratio in zip(
                *(column[first:last].tolist() for column in columns)
            ):
                record = new(TraceRecord)
                set_stamp(record, stamp)
                set_op(record, ops[code])
                set_lba(record, lba)
                set_npages(record, npages)
                set_stream(record, stream)
                set_entropy(record, entropy)
                set_ratio(record, ratio)
                yield record

    def __len__(self) -> int:
        return len(self.op)

    @overload
    def __getitem__(self, index: int) -> TraceRecord: ...

    @overload
    def __getitem__(self, index: slice) -> "Trace": ...

    def __getitem__(self, index: Union[int, slice]) -> Union[TraceRecord, "Trace"]:
        if isinstance(index, slice):
            return _trace_from_columns(*(column[index] for column in self._columns()))
        position = operator.index(index)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError("trace index out of range")
        return next(self._iter_records(position, position + 1))

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._iter_records(0, len(self))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self._columns(), other._columns())
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Trace is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Trace is immutable; cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        return (_trace_from_columns, self._columns())

    def __repr__(self) -> str:
        return f"Trace({len(self)} records)"


def _trace_from_columns(*columns: np.ndarray) -> Trace:
    """A :class:`Trace` over already-validated columns (slices, unpickling)."""
    return Trace.__new__(Trace)._adopt(*columns)


@dataclass(frozen=True)
class TraceStats:
    """Aggregate statistics of a trace."""

    records: int
    reads: int
    writes: int
    trims: int
    pages_read: int
    pages_written: int
    pages_trimmed: int
    duration_us: int
    unique_lbas_written: int

    @property
    def write_fraction(self) -> float:
        """Writes among reads and writes (trims and flushes excluded); 0 when none."""
        total = self.reads + self.writes
        return self.writes / total if total else 0.0

    @property
    def bytes_written(self) -> int:
        """Pages written x 4 KiB (the library's canonical page size)."""
        return self.pages_written * 4096

    @property
    def overwrite_ratio(self) -> float:
        """Pages written per unique LBA written (>= 1 implies overwrites)."""
        if self.unique_lbas_written == 0:
            return 0.0
        return self.pages_written / self.unique_lbas_written

    def write_bandwidth_mb_per_day(self) -> float:
        """Average write bandwidth extrapolated to a full day."""
        if self.duration_us == 0:
            return 0.0
        bytes_per_us = self.bytes_written / self.duration_us
        return bytes_per_us * 86_400 * 1_000_000 / (1024 * 1024)


def collect_stats(records: Iterable[TraceRecord]) -> TraceStats:
    """Compute :class:`TraceStats` over any iterable of records."""
    reads = writes = trims = 0
    pages_read = pages_written = pages_trimmed = 0
    duration = 0
    count = 0
    unique_written = set()
    for record in records:
        count += 1
        duration = max(duration, record.timestamp_us)
        if record.op is TraceOp.READ:
            reads += 1
            pages_read += record.npages
        elif record.op is TraceOp.WRITE:
            writes += 1
            pages_written += record.npages
            for offset in range(record.npages):
                unique_written.add(record.lba + offset)
        elif record.op is TraceOp.TRIM:
            trims += 1
            pages_trimmed += record.npages
    return TraceStats(
        records=count,
        reads=reads,
        writes=writes,
        trims=trims,
        pages_read=pages_read,
        pages_written=pages_written,
        pages_trimmed=pages_trimmed,
        duration_us=duration,
        unique_lbas_written=len(unique_written),
    )


def merge_traces(*traces: List[TraceRecord]) -> List[TraceRecord]:
    """Merge several traces into one, ordered by timestamp (stable)."""
    merged: List[TraceRecord] = []
    for trace in traces:
        merged.extend(trace)
    merged.sort(key=lambda record: record.timestamp_us)
    return merged


def save_trace(records: Iterable[TraceRecord], path: str) -> int:
    """Write a trace to ``path`` in the line format.  Returns records written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_line() + "\n")
            count += 1
    return count


def load_trace(path: str) -> List[TraceRecord]:
    """Load a trace previously written by :func:`save_trace`."""
    records: List[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                records.append(TraceRecord.from_line(line))
    return records
