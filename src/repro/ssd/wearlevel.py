"""Static wear leveling.

Dynamic wear leveling (always open the least-worn free block) lives in
:class:`repro.ssd.ftl.BlockAllocator`.  This module adds a static
wear-leveling pass that migrates cold data out of under-erased blocks
when the wear spread grows too large.
"""

from __future__ import annotations

from repro.ssd.flash import FlashArray, PageState
from repro.ssd.ftl import FTL


class StaticWearLeveler:
    """Migrates cold valid data out of the least-worn blocks.

    Triggered when the erase-count spread exceeds ``threshold``.  The
    migration itself reuses the FTL's relocation path, so retained stale
    pages are never destroyed by wear leveling.
    """

    def __init__(self, threshold: int = 20, max_blocks_per_pass: int = 2) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if max_blocks_per_pass < 1:
            raise ValueError("max_blocks_per_pass must be at least 1")
        self.threshold = threshold
        self.max_blocks_per_pass = max_blocks_per_pass
        self.migrations = 0

    def should_run(self, flash: FlashArray) -> bool:
        """True when the wear spread exceeds the configured threshold."""
        return flash.max_erase_count() - flash.min_erase_count() >= self.threshold

    def run(self, ftl: FTL) -> int:
        """Migrate valid pages out of the coldest blocks.  Returns pages moved."""
        if not self.should_run(ftl.flash):
            return 0
        moved = 0
        candidates = sorted(
            ftl.closed_blocks(), key=lambda block: block.erase_count
        )[: self.max_blocks_per_pass]
        for block in candidates:
            for page in list(block.iter_pages(PageState.VALID)):
                ftl.relocate_valid_page(page.ppn)
                moved += 1
                self.migrations += 1
        return moved
