"""Tests for the shared simulation primitives."""

import pytest

from repro.sim import (
    SimClock,
    US_PER_DAY,
    US_PER_SECOND,
    format_duration,
    percentile,
)


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now_us == 0

    def test_starts_at_given_time(self):
        assert SimClock(start_us=42).now_us == 42

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(start_us=-1)

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock.advance(100)
        assert clock.now_us == 100

    def test_advance_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(500)
        assert clock.now_us == 500

    def test_advance_to_past_is_noop(self):
        clock = SimClock(start_us=1000)
        clock.advance_to(500)
        assert clock.now_us == 1000

    def test_now_seconds_and_days(self):
        clock = SimClock()
        clock.advance(US_PER_SECOND)
        assert clock.now_seconds == pytest.approx(1.0)
        clock.advance_to(US_PER_DAY)
        assert clock.now_days == pytest.approx(1.0)


class TestFormatDuration:
    def test_microseconds(self):
        assert format_duration(500) == "500us"

    def test_milliseconds(self):
        assert format_duration(2_500) == "2.50ms"

    def test_seconds(self):
        assert format_duration(3 * US_PER_SECOND) == "3.00s"

    def test_days(self):
        assert format_duration(2 * US_PER_DAY) == "2.00days"


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_median_of_even_list(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_p99_close_to_max(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 0.99) == pytest.approx(99.01)

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
