"""Tests for Ethernet framing and the link model."""

import pytest

from repro.nvmeoe.frame import (
    DEFAULT_MTU,
    ETHERNET_HEADER_BYTES,
    wire_bytes_for_payload,
)
from repro.nvmeoe.link import NetworkLink
from repro.sim import SimClock, US_PER_SECOND


class TestFraming:
    def test_zero_payload_costs_no_wire_bytes(self):
        assert wire_bytes_for_payload(0) == 0

    def test_invalid_wire_arguments_rejected(self):
        with pytest.raises(ValueError):
            wire_bytes_for_payload(-1)
        with pytest.raises(ValueError):
            wire_bytes_for_payload(100, mtu=10)

    def test_wire_bytes_accounts_for_per_frame_overhead(self):
        single = wire_bytes_for_payload(1500)
        double = wire_bytes_for_payload(3000)
        assert double == 2 * single

    @pytest.mark.parametrize(
        "payload, mtu, frames",
        [
            (1, DEFAULT_MTU, 1),
            (DEFAULT_MTU, DEFAULT_MTU, 1),
            (DEFAULT_MTU + 1, DEFAULT_MTU, 2),
            (9000, 9000, 1),
        ],
    )
    def test_one_header_per_mtu_sized_frame(self, payload, mtu, frames):
        assert wire_bytes_for_payload(payload, mtu=mtu) == payload + frames * ETHERNET_HEADER_BYTES


class TestNetworkLink:
    def test_bandwidth_determines_serialization_time(self):
        link = NetworkLink(SimClock(), bandwidth_gbps=1.0, propagation_us=0.0)
        one_mb = 1024 * 1024
        serialization = link.serialization_us(one_mb)
        # 1 MB over 1 Gb/s is ~8.4 ms; framing overhead adds a little.
        assert 8_000 < serialization < 10_000

    def test_faster_link_is_faster(self):
        slow = NetworkLink(SimClock(), bandwidth_gbps=1.0)
        fast = NetworkLink(SimClock(), bandwidth_gbps=10.0)
        assert fast.serialization_us(10**6) < slow.serialization_us(10**6)

    def test_transfers_serialize_behind_each_other(self):
        link = NetworkLink(SimClock(), bandwidth_gbps=1.0, propagation_us=100.0)
        first = link.transfer(100_000)
        second = link.transfer(100_000)
        assert second > first
        assert link.stats.transfers == 2
        assert link.backlog_us() > 0

    def test_transfer_includes_propagation(self):
        link = NetworkLink(SimClock(), bandwidth_gbps=100.0, propagation_us=500.0)
        completion = link.transfer(1000)
        assert completion >= 500.0

    def test_utilization_bounded_by_one(self):
        clock = SimClock()
        link = NetworkLink(clock, bandwidth_gbps=0.1)
        link.transfer(10**7)
        clock.advance(US_PER_SECOND)
        assert 0.0 < link.stats.utilization(float(US_PER_SECOND)) <= 1.0

    def test_raw_utilization_exceeds_one_under_backlog(self):
        # Commit far more transmit time than will have elapsed: the raw
        # view must expose the oversubscription the clamped view hides.
        clock = SimClock()
        link = NetworkLink(clock, bandwidth_gbps=0.1)
        for _ in range(5):
            link.transfer(10**7)
        clock.advance(US_PER_SECOND)
        elapsed = float(US_PER_SECOND)
        assert link.stats.raw_utilization(elapsed) > 1.0
        assert link.stats.utilization(elapsed) == 1.0
        assert link.backlog_us() > 0
        assert link.saturated

    def test_not_saturated_once_backlog_drains(self):
        clock = SimClock()
        link = NetworkLink(clock, bandwidth_gbps=1.0)
        link.transfer(1000)
        assert link.saturated
        clock.advance(US_PER_SECOND)
        assert not link.saturated
        assert link.backlog_us() == 0.0

    def test_raw_utilization_zero_elapsed(self):
        link = NetworkLink(SimClock())
        assert link.stats.raw_utilization(0.0) == 0.0

    def test_sustained_throughput_below_line_rate(self):
        link = NetworkLink(SimClock(), bandwidth_gbps=1.0)
        assert link.sustained_throughput_bytes_per_s() < 1e9 / 8

    def test_sustained_throughput_uses_the_frame_header_constant(self):
        # Pins the satellite fix: the efficiency factor must come from
        # frame.ETHERNET_HEADER_BYTES, not a hardcoded copy of it.
        for mtu in (DEFAULT_MTU, 9000):
            link = NetworkLink(SimClock(), bandwidth_gbps=1.0, mtu=mtu)
            expected = (1e9 / 8.0) * mtu / (mtu + ETHERNET_HEADER_BYTES)
            assert link.sustained_throughput_bytes_per_s() == pytest.approx(expected)

    def test_transfer_computes_wire_bytes_exactly_once(self, monkeypatch):
        import repro.nvmeoe.link as link_module

        calls = []
        real = link_module.wire_bytes_for_payload

        def counting(payload_bytes, mtu=DEFAULT_MTU):
            calls.append(payload_bytes)
            return real(payload_bytes, mtu=mtu)

        monkeypatch.setattr(link_module, "wire_bytes_for_payload", counting)
        link = NetworkLink(SimClock(), bandwidth_gbps=1.0)
        link.transfer(100_000)
        assert len(calls) == 1
        # And the counters agree with the closed form.
        assert link.stats.wire_bytes_sent == real(100_000)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NetworkLink(SimClock(), bandwidth_gbps=0)
        with pytest.raises(ValueError):
            NetworkLink(SimClock(), propagation_us=-1)
        with pytest.raises(ValueError):
            NetworkLink(SimClock()).transfer(-5)
