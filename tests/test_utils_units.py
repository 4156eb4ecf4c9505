"""Unit tests for repro.utils.units."""

from repro.utils import units


class TestMultipliers:
    def test_giga_is_decimal(self):
        assert units.GIGA == 10**9

    def test_gibi_is_binary(self):
        assert units.GIBI == 2**30
        # The 1000-vs-1024 gap the module exists to keep straight: ~7.4%.
        assert units.GIBI / units.GIGA == 1.073741824
