import pytest

from repro.utils import units


class TestConstants:
    def test_size_constants_are_decimal(self):
        assert units.KB == 1e3
        assert units.MB == 1e6
        assert units.GB == 1e9
        assert units.TB == 1e12

    def test_bandwidth_constants_are_bytes_per_second(self):
        # 1 Gbps = 125 MB/s
        assert units.Gbps == pytest.approx(125e6)
        assert units.Mbps == pytest.approx(125e3)
        assert units.Tbps == pytest.approx(125e9)

    def test_time_constants(self):
        assert units.MINUTE == 60.0
        assert units.HOUR == 3600.0
        assert units.MILLISECOND == 1e-3


class TestFormatTime:
    def test_milliseconds(self):
        assert units.format_time(0.0042) == "4.200 ms"

    def test_seconds(self):
        assert units.format_time(12.5) == "12.500 s"

    def test_minutes(self):
        assert units.format_time(90) == "1.50 min"

    def test_hours(self):
        assert units.format_time(7200) == "2.00 h"

    def test_microseconds(self):
        assert units.format_time(2e-6) == "2.000 us"

    def test_negative(self):
        assert units.format_time(-0.5).startswith("-")
