"""Tests for the latency model."""

import pytest

from repro.ssd.latency import LatencyModel


class TestLatencyModel:
    def test_defaults_are_ordered_sensibly(self):
        latency = LatencyModel()
        assert latency.read_us < latency.program_us < latency.erase_us

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(read_us=-1.0)
        with pytest.raises(ValueError):
            LatencyModel(log_append_us=-0.1)

    def test_transfer_scales_with_size(self):
        latency = LatencyModel(bus_transfer_us_per_kb=2.0)
        assert latency.transfer_us(1024) == pytest.approx(2.0)
        assert latency.transfer_us(4096) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            latency.transfer_us(-1)

    def test_page_operations_include_controller_and_transfer(self):
        latency = LatencyModel()
        read = latency.read_page_us(4096)
        assert read > latency.read_us
        program = latency.program_page_us(4096)
        assert program > latency.program_us
        assert latency.copyback_page_us(4096) == pytest.approx(read + program)

    def test_erase_block(self):
        latency = LatencyModel()
        assert latency.erase_block_us() == pytest.approx(
            latency.controller_us + latency.erase_us
        )

    def test_presets(self):
        assert LatencyModel.cosmos_openssd().read_us > LatencyModel().read_us
