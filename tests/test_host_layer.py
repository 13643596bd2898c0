"""Tests for the host substrate: block device, file system, processes."""

import pytest

from repro.host.blockdev import HostBlockDevice
from repro.host.filesystem import FileSystemError, SimpleFS
from repro.host.process import Privilege, ProcessRegistry


@pytest.fixture
def blockdev(ssd):
    return HostBlockDevice(ssd, stream_id=1)


@pytest.fixture
def fs(blockdev):
    return SimpleFS(blockdev)


class TestHostBlockDevice:
    def test_aligned_roundtrip(self, blockdev):
        data = b"A" * blockdev.page_size
        blockdev.write_bytes(0, data)
        assert blockdev.read_bytes(0, len(data)) == data

    def test_unaligned_write_preserves_surrounding_bytes(self, blockdev):
        page = blockdev.page_size
        blockdev.write_bytes(0, b"\xaa" * page)
        blockdev.write_bytes(100, b"hello")
        read_back = blockdev.read_bytes(0, page)
        assert read_back[100:105] == b"hello"
        assert read_back[:100] == b"\xaa" * 100
        assert read_back[105:] == b"\xaa" * (page - 105)

    def test_cross_page_write(self, blockdev):
        page = blockdev.page_size
        data = bytes(range(256)) * ((page * 2) // 256 + 1)
        data = data[: page + 500]
        blockdev.write_bytes(page // 2, data)
        assert blockdev.read_bytes(page // 2, len(data)) == data

    def test_out_of_range_rejected(self, blockdev):
        with pytest.raises(ValueError):
            blockdev.read_bytes(blockdev.capacity_bytes - 10, 100)
        with pytest.raises(ValueError):
            blockdev.write_bytes(-1, b"data")

    def test_empty_write_is_noop(self, blockdev):
        assert blockdev.write_bytes(0, b"") == 0

    def test_stream_id_propagated(self, ssd):
        seen = []

        class Observer:
            def on_host_op(self, op):
                seen.append(op.stream_id)

        ssd.add_observer(Observer())
        blockdev = HostBlockDevice(ssd, stream_id=42)
        blockdev.write_bytes(0, b"data")
        assert set(seen) == {42}


class TestSimpleFS:
    def test_create_read_roundtrip(self, fs):
        fs.create_file("report.txt", b"quarterly numbers")
        assert fs.read_file("report.txt") == b"quarterly numbers"
        assert fs.exists("report.txt")
        assert fs.file_count == 1

    def test_duplicate_create_rejected(self, fs):
        fs.create_file("a.txt", b"x")
        with pytest.raises(FileSystemError):
            fs.create_file("a.txt", b"y")

    def test_empty_file_rejected(self, fs):
        with pytest.raises(FileSystemError):
            fs.create_file("empty.txt", b"")

    def test_missing_file_errors(self, fs):
        with pytest.raises(FileSystemError):
            fs.read_file("ghost.txt")
        with pytest.raises(FileSystemError):
            fs.delete_file("ghost.txt")
        with pytest.raises(FileSystemError):
            fs.stat("ghost.txt")

    def test_overwrite_in_place(self, fs):
        fs.create_file("doc.txt", b"original content here")
        fs.overwrite_file("doc.txt", b"ENCRYPTED?!          ")
        assert fs.read_file("doc.txt") == b"ENCRYPTED?!          "

    def test_overwrite_growing_file_reallocates(self, fs):
        fs.create_file("doc.txt", b"small")
        big = b"B" * (fs.blockdev.page_size * 3)
        fs.overwrite_file("doc.txt", big)
        assert fs.read_file("doc.txt") == big

    def test_delete_frees_extent_for_reuse(self, fs):
        fs.create_file("temp.bin", b"T" * fs.blockdev.page_size * 2)
        free_before = fs.free_pages_remaining()
        fs.delete_file("temp.bin")
        assert fs.free_pages_remaining() == free_before + 2
        # The freed extent is reused by the next allocation.
        fs.create_file("new.bin", b"N" * fs.blockdev.page_size * 2)
        assert fs.read_file("new.bin") == b"N" * fs.blockdev.page_size * 2

    def test_delete_with_trim_issues_trim_to_device(self, fs, ssd):
        fs.create_file("secret.txt", b"S" * fs.blockdev.page_size)
        lbas = fs.file_lbas("secret.txt")
        fs.delete_file("secret.txt", trim=True)
        assert ssd.metrics.host_trims == 1
        assert all(ssd.read_content(lba) is None for lba in lbas)

    def test_no_space_raises(self, fs):
        huge = b"Z" * (fs.blockdev.capacity_bytes + fs.blockdev.page_size)
        with pytest.raises(FileSystemError):
            fs.create_file("huge.bin", huge)

    def test_populate_creates_requested_files(self, fs):
        names = fs.populate(10, 8192)
        assert len(names) == 10
        assert fs.file_count == 10
        for name in names:
            assert len(fs.read_file(name)) == 8192

    def test_file_lbas_match_reads(self, fs, ssd):
        fs.create_file("doc.txt", b"D" * (fs.blockdev.page_size * 2))
        lbas = fs.file_lbas("doc.txt")
        assert len(lbas) == 2
        for lba in lbas:
            assert ssd.read_content(lba) is not None


class TestProcessRegistry:
    def test_spawn_assigns_unique_streams(self):
        registry = ProcessRegistry()
        first = registry.spawn("user")
        second = registry.spawn("backup", privilege=Privilege.ADMIN)
        assert first.stream_id != second.stream_id
        assert len(registry) == 2

    def test_malicious_streams_tracked(self):
        registry = ProcessRegistry()
        registry.spawn("user")
        evil = registry.spawn("ransomware", is_malicious=True)
        assert registry.malicious_streams() == [evil.stream_id]
