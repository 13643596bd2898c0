"""Tests for the embedded NIC, NVMe-oE protocol and remote targets."""

import pytest

from repro.nvmeoe.link import NetworkLink
from repro.nvmeoe.nic import EmbeddedNIC
from repro.nvmeoe.protocol import Capsule, CapsuleType, NVMeOEProtocol
from repro.nvmeoe.remote import (
    ObjectStore,
    RemoteTargetError,
    StorageServer,
    TieredRemote,
)
from repro.sim import SimClock
from repro.ssd.errors import FirmwareProtectionError


def make_nic():
    clock = SimClock()
    link = NetworkLink(clock, bandwidth_gbps=1.0, propagation_us=10.0)
    return EmbeddedNIC(clock, link)


class TestHardwareIsolation:
    def test_firmware_token_issued_once(self):
        nic = make_nic()
        token = nic.issue_firmware_token()
        assert token is not None
        with pytest.raises(FirmwareProtectionError):
            nic.issue_firmware_token()

    def test_send_without_token_rejected(self):
        nic = make_nic()
        nic.issue_firmware_token()
        with pytest.raises(FirmwareProtectionError):
            nic.send_capsule(None, 1000)
        assert nic.stats.rejected_host_accesses == 1

    def test_send_with_foreign_token_rejected(self):
        nic_a = make_nic()
        nic_b = make_nic()
        token_b = nic_b.issue_firmware_token()
        nic_a.issue_firmware_token()
        with pytest.raises(FirmwareProtectionError):
            nic_a.send_capsule(token_b, 1000)

    def test_send_with_valid_token_succeeds(self):
        nic = make_nic()
        token = nic.issue_firmware_token()
        completion = nic.send_capsule(token, 4096)
        assert completion > 0
        assert nic.stats.tx_capsules == 1
        assert nic.stats.tx_payload_bytes == 4096

    def test_receive_path_also_guarded(self):
        nic = make_nic()
        token = nic.issue_firmware_token()
        with pytest.raises(FirmwareProtectionError):
            nic.receive_capsule(None, 100)
        assert nic.receive_capsule(token, 100) > 0


class TestProtocol:
    def test_capsule_wire_size_includes_metadata(self):
        capsule = Capsule(CapsuleType.OFFLOAD_PAGES, 0, payload_bytes=1000, entries=10)
        assert capsule.wire_payload_bytes > 1000

    def test_capsule_validation(self):
        with pytest.raises(ValueError):
            Capsule(CapsuleType.ACK, -1, 0)
        with pytest.raises(ValueError):
            Capsule(CapsuleType.ACK, 0, -1)

    def test_sequences_increase_monotonically(self):
        protocol = NVMeOEProtocol()
        protocol.offload_pages(100, 4, 1, 4)
        protocol.offload_log_segment(50, 8, 0)
        protocol.fetch_pages(2)
        protocol.ack(0)
        assert protocol.capsules_sent == 4
        assert protocol.verify_ordering()
        assert [c.sequence for c in protocol.history] == [0, 1, 2, 3]


class TestObjectStore:
    def test_put_and_get(self):
        store = ObjectStore()
        protocol = NVMeOEProtocol()
        capsule = protocol.offload_pages(1000, 8, 1, 8)
        obj = store.put_capsule(capsule, arrival_us=10.0)
        assert store.get(obj.key).entries == 8
        assert store.object_count == 1
        assert store.stored_bytes == capsule.wire_payload_bytes

    def test_objects_are_immutable(self):
        store = ObjectStore()
        capsule = Capsule(CapsuleType.OFFLOAD_PAGES, 1, 100, entries=1)
        store.put_capsule(capsule, 1.0)
        with pytest.raises(RemoteTargetError):
            store.put_capsule(capsule, 2.0)

    def test_missing_key_rejected(self):
        with pytest.raises(RemoteTargetError):
            ObjectStore().get("nothing/here")

    def test_time_order_verification(self):
        store = ObjectStore()
        protocol = NVMeOEProtocol()
        for index in range(5):
            store.put_capsule(protocol.offload_pages(10, 1, index, index), float(index))
        assert store.verify_time_order()

    def test_list_keys_by_prefix(self):
        store = ObjectStore()
        protocol = NVMeOEProtocol()
        store.put_capsule(protocol.offload_pages(10, 1, 0, 0), 0.0)
        store.put_capsule(protocol.offload_log_segment(10, 1, 0), 1.0)
        assert len(store.list_keys("offload_pages/")) == 1
        assert len(store.list_keys()) == 2


class TestStorageServerAndTiering:
    def test_append_until_full_then_error(self):
        server = StorageServer(capacity_bytes=5_000)
        capsule = Capsule(CapsuleType.OFFLOAD_PAGES, 0, 2000, entries=2)
        server.append_capsule(capsule, 1.0)
        assert server.segment_count == 1
        big = Capsule(CapsuleType.OFFLOAD_PAGES, 1, 10_000, entries=4)
        with pytest.raises(RemoteTargetError):
            server.append_capsule(big, 2.0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            StorageServer(capacity_bytes=0)

    def test_tiered_remote_spills_to_cloud(self):
        remote = TieredRemote(server=StorageServer(capacity_bytes=3_000), cloud=ObjectStore())
        small = Capsule(CapsuleType.OFFLOAD_PAGES, 0, 1000, entries=1)
        large = Capsule(CapsuleType.OFFLOAD_PAGES, 1, 100_000, entries=10)
        remote.store_capsule(small, 1.0)
        remote.store_capsule(large, 2.0)
        assert remote.server.segment_count == 1
        assert remote.cloud.object_count == 1
        assert remote.stored_entries == 11
        assert remote.verify_time_order()
