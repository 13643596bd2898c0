"""Block trace records and the columnar :class:`Trace`."""

from __future__ import annotations

import enum
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, List, Tuple, Union, overload

import numpy as np

from repro.compat import DATACLASS_SLOTS, field_setters


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


def merge_traces(*traces: List[TraceRecord]) -> List[TraceRecord]:
    """Merge several traces into one, ordered by timestamp (stable)."""
    merged: List[TraceRecord] = []
    for trace in traces:
        merged.extend(trace)
    merged.sort(key=lambda record: record.timestamp_us)
    return merged
