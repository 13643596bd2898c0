"""Host block layer: byte-addressable helpers over the SSD page interface."""

from __future__ import annotations

from typing import List

from repro.ssd.device import SSD
from repro.ssd.flash import PageContent


class HostBlockDevice:
    """A thin byte-addressable wrapper around an :class:`SSD`.

    The file system and ransomware samples operate on byte ranges; the
    wrapper handles page alignment and read-modify-write of partial
    pages.  All accesses carry a ``stream_id`` so the device observers
    can attribute operations to a process.
    """

    def __init__(self, ssd: SSD, stream_id: int = 0) -> None:
        self.ssd = ssd
        self.stream_id = stream_id

    @property
    def page_size(self) -> int:
        return self.ssd.page_size

    @property
    def capacity_bytes(self) -> int:
        return self.ssd.capacity_pages * self.ssd.page_size

    @property
    def capacity_pages(self) -> int:
        return self.ssd.capacity_pages

    def _split_range(self, offset: int, length: int) -> List[tuple]:
        """Split a byte range into (lba, page_offset, chunk_length) pieces."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        if offset + length > self.capacity_bytes:
            raise ValueError("byte range exceeds device capacity")
        pieces = []
        position = offset
        remaining = length
        while remaining > 0:
            lba = position // self.page_size
            page_offset = position % self.page_size
            chunk = min(remaining, self.page_size - page_offset)
            pieces.append((lba, page_offset, chunk))
            position += chunk
            remaining -= chunk
        return pieces

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at byte ``offset``."""
        output = bytearray()
        for lba, page_offset, chunk in self._split_range(offset, length):
            page = self.ssd.read(lba, 1, stream_id=self.stream_id)
            output.extend(page[page_offset : page_offset + chunk])
        return bytes(output)

    def write_bytes(self, offset: int, data: bytes) -> int:
        """Write ``data`` starting at byte ``offset``.  Returns bytes written."""
        if not data:
            return 0
        for lba, page_offset, chunk in self._split_range(offset, len(data)):
            start = (lba * self.page_size + page_offset) - offset
            piece = data[start : start + chunk]
            if page_offset == 0 and chunk == self.page_size:
                page_bytes = piece
            else:
                existing = self.ssd.read(lba, 1, stream_id=self.stream_id)
                page_bytes = (
                    existing[:page_offset] + piece + existing[page_offset + chunk :]
                )
            self.ssd.write(
                lba, PageContent.from_bytes(page_bytes), stream_id=self.stream_id
            )
        return len(data)

    def write_pages(self, lba: int, contents: List[PageContent]) -> None:
        """Write whole pages (used by trace-driven callers)."""
        self.ssd.write(lba, contents, stream_id=self.stream_id)

    def trim_pages(self, lba: int, npages: int) -> None:
        """Issue a trim for ``npages`` pages starting at ``lba``."""
        self.ssd.trim(lba, npages, stream_id=self.stream_id)

    def flush(self) -> None:
        self.ssd.flush(stream_id=self.stream_id)
