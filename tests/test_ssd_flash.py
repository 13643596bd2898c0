"""Tests for the NAND flash array and page contents."""

import pytest

from repro.ssd.errors import FlashStateError
from repro.ssd.flash import (
    FlashArray,
    PageContent,
    PageState,
    shannon_entropy,
)
from repro.ssd.geometry import SSDGeometry


class TestShannonEntropy:
    def test_empty_is_zero(self):
        assert shannon_entropy(b"") == 0.0

    def test_constant_data_is_zero(self):
        assert shannon_entropy(b"\x00" * 1024) == 0.0

    def test_uniform_random_is_near_eight(self):
        data = bytes(range(256)) * 16
        assert shannon_entropy(data) == pytest.approx(8.0)

    def test_text_is_intermediate(self):
        entropy = shannon_entropy(b"the quick brown fox jumps over the lazy dog " * 50)
        assert 2.0 < entropy < 6.0


class TestPageContent:
    def test_from_bytes_carries_payload(self):
        content = PageContent.from_bytes(b"hello world")
        assert content.payload == b"hello world"
        assert content.length == 11
        assert 0.0 <= content.entropy <= 8.0

    def test_from_bytes_identical_data_same_fingerprint(self):
        first = PageContent.from_bytes(b"same data")
        second = PageContent.from_bytes(b"same data")
        assert first.fingerprint == second.fingerprint

    def test_from_bytes_different_data_different_fingerprint(self):
        assert (
            PageContent.from_bytes(b"data A").fingerprint
            != PageContent.from_bytes(b"data B").fingerprint
        )

    def test_encrypted_looking_data(self):
        import os

        random_page = bytes((i * 131 + 17) % 256 for i in range(4096))
        content = PageContent.from_bytes(random_page)
        assert content.looks_encrypted

    def test_synthetic_validation(self):
        with pytest.raises(ValueError):
            PageContent.synthetic(1, -1)
        with pytest.raises(ValueError):
            PageContent.synthetic(1, 10, entropy=9.0)
        with pytest.raises(ValueError):
            PageContent.synthetic(1, 10, compress_ratio=0.0)

    def test_compressed_size(self):
        content = PageContent.synthetic(1, 4096, compress_ratio=0.25)
        assert content.compressed_size() == 1024

    @pytest.mark.parametrize(
        "length, entropy, ratio", [(4096, 6.5, 0.9), (512, 0.0, 1.0), (0, 8, 0.05), (1, 4.0, 1)]
    )
    def test_synthetic_run_equals_synthetic_per_page(self, length, entropy, ratio):
        """Field values *and* types match the validated constructor."""
        fingerprints = [0, 1, 2**64 - 1, 12345]
        run = PageContent.synthetic_run(fingerprints, length, entropy, ratio)
        expected = [PageContent.synthetic(fp, length, entropy, ratio) for fp in fingerprints]
        assert run == expected
        for got, want in zip(run, expected):
            assert type(got) is PageContent
            for name in ("fingerprint", "length", "entropy", "compress_ratio", "payload"):
                assert type(getattr(got, name)) is type(getattr(want, name))
        assert PageContent.synthetic_run([], length, entropy, ratio) == []

    def test_synthetic_run_validates_the_shared_fields(self):
        for length, entropy, ratio in ((-1, 4.0, 0.5), (10, 9.0, 0.5), (10, 4.0, 0.0)):
            with pytest.raises(ValueError):
                PageContent.synthetic_run([1], length, entropy, ratio)


class TestFlashArray:
    @pytest.fixture
    def flash(self):
        return FlashArray(SSDGeometry.tiny())

    def test_initial_state_all_free(self, flash):
        counts = flash.state_counts()
        assert counts[PageState.FREE] == 512
        assert counts[PageState.VALID] == 0

    def test_program_then_read(self, flash):
        content = PageContent.from_bytes(b"payload")
        ppn = flash.program(0, content, lpn=5, timestamp_us=100)
        assert flash.page(ppn).state is PageState.VALID
        assert flash.read(ppn).payload == b"payload"
        assert flash.page(ppn).lpn == 5

    def test_programs_fill_block_in_order(self, flash):
        geometry = flash.geometry
        ppns = [
            flash.program(0, PageContent.synthetic(i, 10), lpn=i, timestamp_us=0)
            for i in range(geometry.pages_per_block)
        ]
        assert ppns == list(range(geometry.pages_per_block))
        with pytest.raises(FlashStateError):
            flash.program(0, PageContent.synthetic(99, 10), lpn=99, timestamp_us=0)

    def test_read_unprogrammed_page_fails(self, flash):
        with pytest.raises(FlashStateError):
            flash.read(0)

    def test_invalidate_requires_valid_page(self, flash):
        with pytest.raises(FlashStateError):
            flash.invalidate(0)
        ppn = flash.program(0, PageContent.synthetic(1, 10), lpn=1, timestamp_us=0)
        flash.invalidate(ppn)
        assert flash.page(ppn).state is PageState.INVALID
        with pytest.raises(FlashStateError):
            flash.invalidate(ppn)

    def test_invalidated_data_still_readable_until_erase(self, flash):
        content = PageContent.from_bytes(b"old version")
        ppn = flash.program(0, content, lpn=1, timestamp_us=0)
        flash.invalidate(ppn)
        assert flash.read(ppn).payload == b"old version"

    def test_erase_refuses_blocks_with_valid_pages(self, flash):
        flash.program(0, PageContent.synthetic(1, 10), lpn=1, timestamp_us=0)
        with pytest.raises(FlashStateError):
            flash.erase(0)

    def test_erase_resets_block_and_counts(self, flash):
        ppn = flash.program(0, PageContent.synthetic(1, 10), lpn=1, timestamp_us=0)
        flash.invalidate(ppn)
        block = flash.erase(0)
        assert block.erase_count == 1
        assert block.is_erased
        assert flash.page(ppn).state is PageState.FREE
        with pytest.raises(FlashStateError):
            flash.read(ppn)

    def test_wear_statistics(self, flash):
        ppn = flash.program(0, PageContent.synthetic(1, 10), lpn=1, timestamp_us=0)
        flash.invalidate(ppn)
        flash.erase(0)
        assert flash.total_erases() == 1
        assert flash.max_erase_count() == 1
        assert flash.min_erase_count() == 0

    def test_block_state_counters(self, flash):
        block = flash.block(0)
        assert block.free_pages == 16
        ppn = flash.program(0, PageContent.synthetic(1, 10), lpn=1, timestamp_us=0)
        assert block.valid_pages == 1
        flash.invalidate(ppn)
        assert block.invalid_pages == 1
        assert block.free_pages == 15
