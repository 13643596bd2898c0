"""Write-ahead checkpoint journal for resumable sweeps.

A sweep that dies mid-run -- OOM kill, pre-emption, SIGKILL -- should
restart where it stopped and still produce the *same bytes* as an
uninterrupted run.  The mechanism is a :class:`CheckpointJournal`: an
append-only JSONL file whose first line is a header pinning what the
sweep is (kind, seed, grid, artifact schema version, code fingerprint)
and every following line is one completed cell's JSON payload.  Each
append is flushed and ``fsync``'d before the sweep moves on, so the
journal always reflects every cell that finished -- the cell currently
executing is the only work a crash can lose.

Crash realities the loader handles:

* a **torn final line** (the process died mid-``write``) is truncated
  away with a warning -- that cell simply re-runs on resume; the loader
  never crashes on a partially written record;
* a **corrupt interior line** or a missing/mismatched header means the
  file is not a journal for this sweep, which raises
  :class:`CheckpointError` instead of silently resuming the wrong run.

:class:`CrashAfterNCells` is the fault-injection hook the resume test
harness (and the CI ``smoke`` job's resume step, via
``REPRO_CRASH_AFTER_CELLS``) uses to kill a sweep at an exact cell
boundary.  Standard library only, like the runner and the cache.
"""

from __future__ import annotations

import io
import json
import os
import warnings
from typing import Dict, Iterator, List, Optional, Tuple

#: Bump when the journal record format changes; resumers refuse other
#: versions rather than guessing.
JOURNAL_VERSION = 1


class CheckpointError(RuntimeError):
    """The checkpoint journal cannot be used for this sweep.

    Raised for a missing journal on ``--resume``, a corrupt interior
    record, or a header that pins a different sweep (other grid, seed,
    artifact version or code fingerprint).
    """


class InjectedCrash(RuntimeError):
    """The fault-injection hook killed the sweep at a cell boundary."""


class CrashAfterNCells:
    """Fault-injection hook: kill the sweep after ``n`` durable cells.

    Passed as the ``after_cell`` hook of a sweep, it counts executed
    cells and, when the ``n``-th becomes durable, either raises
    :class:`InjectedCrash` (``mode="raise"``, the in-process harness)
    or exits the interpreter without any cleanup via ``os._exit(137)``
    (``mode="exit"``, indistinguishable from SIGKILL to the journal:
    no ``atexit``, no buffer flush beyond the journal's own fsync).
    """

    def __init__(self, n: int, mode: str = "raise") -> None:
        """Arm the hook to fire after the ``n``-th executed cell."""
        if n < 1:
            raise ValueError("n must be at least 1")
        if mode not in ("raise", "exit"):
            raise ValueError(f"unknown crash mode {mode!r}")
        self.n = n
        self.mode = mode
        self.cells_seen = 0

    def __call__(self, index: int, spec: object, result: object) -> None:
        """Count one durable cell; crash when the quota is reached."""
        self.cells_seen += 1
        if self.cells_seen >= self.n:
            if self.mode == "exit":
                os._exit(137)
            raise InjectedCrash(
                f"injected crash after {self.cells_seen} cells "
                f"(cell index {index})"
            )


def crash_hook_from_env() -> Optional[CrashAfterNCells]:
    """The CLI's fault hook: ``REPRO_CRASH_AFTER_CELLS=N`` arms a hard exit.

    Returns ``None`` when the variable is unset or empty, so production
    runs pay nothing; the CI ``smoke`` job's resume step and the subprocess
    kill tests set it to die at a deterministic cell boundary.
    """
    raw = os.environ.get("REPRO_CRASH_AFTER_CELLS", "").strip()
    if not raw:
        return None
    return CrashAfterNCells(int(raw), mode="exit")


class CheckpointJournal:
    """An append-only, fsync'd JSONL journal of completed cells.

    One journal belongs to one sweep: :meth:`start` writes the header
    (truncating any previous journal -- a fresh run is a fresh
    journal), :meth:`append_cell` makes one cell durable, and
    :meth:`load` rebuilds the completed-cell map for ``--resume``.
    :meth:`iter_payloads_sorted` streams cells back in artifact order
    without holding every payload in memory, which is what lets
    million-cell grids serialize their artifact from disk.
    """

    def __init__(self, path: str) -> None:
        """Wrap the journal file at ``path`` (created on :meth:`start`)."""
        self.path = path
        self._handle: Optional[io.TextIOWrapper] = None
        #: Keys appended or loaded through this object (provenance for
        #: reports; the on-disk file is the source of truth).
        self.keys_written: List[str] = []

    # -- writing -----------------------------------------------------------

    def start(self, header: Dict[str, object]) -> None:
        """Begin a fresh journal: truncate and write the header record.

        ``header`` pins the sweep (see :func:`build_header`); resuming
        later verifies it field by field.
        """
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._append({"type": "header", **header})

    def resume(self) -> None:
        """Re-open an existing journal for appending (after :meth:`load`)."""
        self._handle = open(self.path, "a", encoding="utf-8")

    def append_cell(self, key: str, payload: object) -> None:
        """Make one completed cell durable: write, flush, fsync."""
        if self._handle is None:
            raise CheckpointError(
                "journal is not open for writing; call start() or resume()"
            )
        self._append({"type": "cell", "key": key, "payload": payload})
        self.keys_written.append(key)

    def _append(self, record: Dict[str, object]) -> None:
        """Write one record as a single line and force it to disk."""
        assert self._handle is not None
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the underlying file handle (appends re-open lazily)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -----------------------------------------------------------

    def load(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Read the journal back: ``(header, completed key->payload)``.

        A torn final line (the signature of a mid-write crash) is
        truncated off the file with a warning -- never an error; that
        cell re-runs.  A missing file, missing header or corrupt
        interior line raises :class:`CheckpointError`.  Duplicate keys
        keep the newest payload, so a journal that recorded a cache
        refresh stays loadable.
        """
        header, cells = self._scan(collect_payloads=True)
        completed = {key: payload for key, _, payload in cells}
        self.keys_written = [key for key, _, _ in cells]
        return header, completed

    def completed_keys(self) -> List[str]:
        """The distinct completed cell keys, in first-seen order."""
        _, cells = self._scan(collect_payloads=False)
        seen = []
        for key, _, _ in cells:
            if key not in seen:
                seen.append(key)
        return seen

    def iter_payloads_sorted(
        self, keys: Optional[set] = None
    ) -> Iterator[object]:
        """Yield cell payloads sorted by key, reading each lazily.

        Only the ``key -> file offset`` index is held in memory; each
        payload is re-read from disk when its turn comes, which is the
        streaming half of the artifact writer
        (:func:`repro.campaign.results.write_artifact_stream`).
        ``keys`` restricts the stream (a resumed run may carry journal
        cells a narrower ``--filter`` excludes from the artifact).
        """
        _, cells = self._scan(collect_payloads=False)
        offsets: Dict[str, int] = {}
        for key, offset, _ in cells:  # later records win, as in load()
            if keys is None or key in keys:
                offsets[key] = offset
        with open(self.path, "rb") as handle:
            for key in sorted(offsets):
                handle.seek(offsets[key])
                record = json.loads(handle.readline().decode("utf-8"))
                yield record["payload"]

    def _scan(
        self, collect_payloads: bool
    ) -> Tuple[Dict[str, object], List[Tuple[str, int, object]]]:
        """Parse the journal: header plus ``(key, offset, payload)`` rows.

        Implements the torn-final-line recovery: if the last line is
        incomplete (no newline, or not valid JSON), the file is
        truncated back to the end of the last good record and a
        warning names how many bytes were dropped.
        """
        if not os.path.exists(self.path):
            raise CheckpointError(f"no checkpoint journal at {self.path}")
        size = os.path.getsize(self.path)
        cells: List[Tuple[str, int, object]] = []
        header: Optional[Dict[str, object]] = None
        offset = 0
        lineno = 0
        with open(self.path, "rb") as handle:
            for raw in handle:
                lineno += 1
                try:
                    record = json.loads(raw.decode("utf-8"))
                    if not isinstance(record, dict) or "type" not in record:
                        raise ValueError("not a journal record")
                except (ValueError, UnicodeDecodeError):
                    if offset + len(raw) >= size:
                        # The line runs to end-of-file: the signature
                        # of a crash mid-append.  Drop it; the cell it
                        # would have recorded simply re-runs.
                        self._truncate(offset, len(raw))
                        break
                    raise CheckpointError(
                        f"corrupt journal record at {self.path}:{lineno}"
                    )
                if record["type"] == "header":
                    if lineno != 1:
                        raise CheckpointError(
                            f"unexpected header mid-journal at "
                            f"{self.path}:{lineno}"
                        )
                    header = {k: v for k, v in record.items() if k != "type"}
                elif record["type"] == "cell":
                    cells.append(
                        (
                            str(record["key"]),
                            offset,
                            record["payload"] if collect_payloads else None,
                        )
                    )
                offset += len(raw)
        if header is None:
            raise CheckpointError(f"journal {self.path} has no header record")
        return header, cells

    def _truncate(self, good_end: int, torn_bytes: int) -> None:
        """Drop a torn trailing record, warning about what was lost."""
        warnings.warn(
            f"checkpoint journal {self.path} ends in a torn record "
            f"({torn_bytes} bytes dropped); the interrupted cell will "
            "re-run on resume",
            RuntimeWarning,
            stacklevel=3,
        )
        with open(self.path, "r+b") as handle:
            handle.truncate(good_end)


def build_header(
    kind: str,
    artifact_version: int,
    campaign_seed: int,
    grid: Dict[str, object],
    fingerprint: Optional[str] = None,
) -> Dict[str, object]:
    """The header record pinning what sweep a journal belongs to."""
    from repro.campaign.cache import code_fingerprint

    return {
        "journal_version": JOURNAL_VERSION,
        "kind": kind,
        "artifact_version": artifact_version,
        "campaign_seed": campaign_seed,
        "grid": grid,
        "code_fingerprint": fingerprint or code_fingerprint(),
    }


def verify_header(found: Dict[str, object], expected: Dict[str, object]) -> None:
    """Refuse to resume a journal that pins a different sweep.

    Every header field must match: resuming with a different grid,
    seed, schema version or code fingerprint would splice cells from
    two different experiments into one artifact.
    """
    mismatched = sorted(
        name
        for name in set(found) | set(expected)
        if found.get(name) != expected.get(name)
    )
    if mismatched:
        details = "; ".join(
            f"{name}: journal has {found.get(name)!r}, "
            f"this run expects {expected.get(name)!r}"
            for name in mismatched
        )
        raise CheckpointError(
            f"checkpoint journal pins a different sweep ({details}); "
            "refusing to resume"
        )
