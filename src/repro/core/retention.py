"""Conservative retention of stale data.

The :class:`RetentionManager` is RSSD's retention policy: every page
invalidated by an overwrite *or a trim* is retained.  A stale page may
only be physically destroyed after the offload engine has shipped it to
the remote tier; until then garbage collection must preserve it.  The
manager also keeps the version archive (local and offloaded) that the
recovery engine searches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.ssd.ftl import FTL, InvalidationCause, StalePage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.offload import OffloadEngine


@dataclass
class RetentionStats:
    """Counters kept by the retention manager."""

    stale_pages_seen: int = 0
    pages_offloaded: int = 0
    pages_released_after_offload: int = 0
    pages_released_unoffloaded: int = 0
    relocations: int = 0
    reclaim_pressure_events: int = 0
    pages_pressure_evicted: int = 0

    @property
    def data_loss_pages(self) -> int:
        """Retained pages destroyed before reaching the remote tier.

        RSSD's invariant is that this stays at zero; the counter exists
        so tests can assert it and so misconfigured variants (used in
        ablations) can be measured.
        """
        return self.pages_released_unoffloaded


class RetentionManager:
    """RSSD's retention policy plus the version archive.

    Implements the :class:`repro.ssd.ftl.RetentionPolicy` protocol.
    """

    def __init__(
        self,
        offload_engine: Optional["OffloadEngine"] = None,
        retain_trimmed: bool = True,
        retain_overwrites: bool = True,
    ) -> None:
        self._offload_engine = offload_engine
        #: RSSD's enhanced trim retains trimmed data; the trim ablation
        #: disables this to measure what the enhancement buys.
        self.retain_trimmed = retain_trimmed
        #: Selective retention of overwrite-invalidated pages; the
        #: ``selective-retention`` ablation disables this, making
        #: overwritten versions expendable exactly like a stock SSD.
        self.retain_overwrites = retain_overwrites
        #: The ``retention-eviction`` ablation sets this: under GC
        #: pressure the manager force-evicts the oldest pending pages
        #: (counted as data loss) instead of draining the NVMe-oE path.
        self.evict_under_pressure = False
        self.stats = RetentionStats()
        self._pending: Deque[StalePage] = deque()
        self._archive: Dict[int, List[StalePage]] = {}
        self._expendable: set = set()
        self._pressure_evicted: set = set()

    # -- wiring ----------------------------------------------------------------

    def attach_offload_engine(self, engine: "OffloadEngine") -> None:
        """Connect the offload engine (done by the RSSD facade at build time)."""
        self._offload_engine = engine

    # -- RetentionPolicy protocol ------------------------------------------------

    def on_invalidate(self, record: StalePage) -> None:
        """Retain a newly stale page and queue it for offload, in time order."""
        self.stats.stale_pages_seen += 1
        if record.cause is InvalidationCause.TRIM:
            retain = self.retain_trimmed
        else:
            retain = self.retain_overwrites
        if not retain:
            self._expendable.add(id(record))
            return
        self._pending.append(record)
        self._archive.setdefault(record.lpn, []).append(record)

    def may_release(self, record: StalePage) -> bool:
        """Stale data may be destroyed only once it is safe on the remote tier."""
        if id(record) in self._expendable:
            return True
        if record.offloaded:
            return True
        return id(record) in self._pressure_evicted

    def count_releasable(self, records: List[StalePage]) -> int:
        """Batched :meth:`may_release` used by GC victim accounting.

        GC scores candidate blocks on every pass, so the per-record
        policy call is replaced by one tight scan with identical
        semantics.
        """
        expendable = self._expendable
        evicted = self._pressure_evicted
        if expendable or evicted:
            return sum(
                1 for record in records
                if record.offloaded
                or id(record) in expendable
                or id(record) in evicted
            )
        return sum(1 for record in records if record.offloaded)

    def on_release(self, record: StalePage) -> None:
        if id(record) in self._expendable:
            self._expendable.discard(id(record))
            return
        if id(record) in self._pressure_evicted:
            self._pressure_evicted.discard(id(record))
            self.stats.pages_released_unoffloaded += 1
            return
        if record.offloaded:
            self.stats.pages_released_after_offload += 1
        else:
            self.stats.pages_released_unoffloaded += 1

    def on_relocate(self, record: StalePage, new_ppn: int) -> None:
        self.stats.relocations += 1

    def reclaim_pressure(self, ftl: FTL, needed_pages: int) -> int:
        """GC cannot find releasable space: drain the offload path synchronously.

        This is RSSD's answer to the GC attack -- instead of dropping
        retained data, the device momentarily throttles foreground
        writes while the NVMe-oE path catches up.  Two ablation variants
        change the answer: when :attr:`evict_under_pressure` is set (or
        the offload engine is disabled) the manager instead force-evicts
        the oldest pending pages, which is honest data loss and is
        counted as such.
        """
        self.stats.reclaim_pressure_events += 1
        if self._offload_engine is None:
            return 0
        if self.evict_under_pressure or not self._offload_engine.enabled:
            return self._evict_pending(needed_pages)
        target = max(needed_pages, self._offload_engine.batch_pages)
        return self._offload_engine.drain(max_pages=target)

    def _evict_pending(self, needed_pages: int) -> int:
        """Force-evict the oldest pending pages, counting each as data loss.

        The evicted records become releasable by GC without ever reaching
        the remote tier; :meth:`on_release` books them under
        ``pages_released_unoffloaded`` so
        :attr:`RetentionStats.data_loss_pages` measures the damage.
        """
        evicted = 0
        while self._pending and evicted < needed_pages:
            record = self._pending.popleft()
            if record.offloaded:
                continue
            self._pressure_evicted.add(id(record))
            self.stats.pages_pressure_evicted += 1
            evicted += 1
        return evicted

    # -- offload integration ---------------------------------------------------------

    def take_pending(self, max_pages: int) -> List[StalePage]:
        """Hand up to ``max_pages`` un-offloaded stale pages, oldest first."""
        if max_pages < 1:
            raise ValueError("max_pages must be at least 1")
        batch: List[StalePage] = []
        while self._pending and len(batch) < max_pages:
            record = self._pending.popleft()
            if record.offloaded:
                continue
            batch.append(record)
        return batch

    def mark_offloaded(self, records: List[StalePage]) -> None:
        """Mark records as durably stored on the remote tier."""
        for record in records:
            record.offloaded = True
            self.stats.pages_offloaded += 1

    # -- queries -----------------------------------------------------------------------

    @property
    def pending_pages(self) -> int:
        """Stale pages still waiting to be offloaded.

        O(1): records only enter the queue unoffloaded and are only
        marked offloaded after :meth:`take_pending` has removed them, so
        the queue length is exactly the unoffloaded total (the offload
        engine polls this on every drain, so it must not rescan).
        """
        return len(self._pending)

    @property
    def archived_versions(self) -> int:
        return sum(len(versions) for versions in self._archive.values())

    def versions_for(self, lpn: int) -> List[StalePage]:
        """Every retained stale version of ``lpn``, oldest first."""
        versions = list(self._archive.get(lpn, []))
        versions.sort(key=lambda record: record.version)
        return versions

    def latest_version_before(self, lpn: int, timestamp_us: int) -> Optional[StalePage]:
        """Newest retained version of ``lpn`` written at or before ``timestamp_us``."""
        best: Optional[StalePage] = None
        for record in self._archive.get(lpn, []):
            if record.written_us <= timestamp_us:
                if best is None or record.written_us > best.written_us:
                    best = record
        return best

    def retained_lbas(self) -> List[int]:
        """All logical pages that have at least one retained old version."""
        return sorted(self._archive)
