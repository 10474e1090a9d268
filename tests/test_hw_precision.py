"""Tests for repro.hw.precision."""

import pytest

from repro.errors import ConfigError, PrecisionNotFoundError, exit_code, http_status
from repro.hw.precision import (
    ALL_PRECISIONS,
    FP32,
    INT8,
    INT16,
    Precision,
    precision_by_name,
)


class TestPrecisionProperties:
    def test_int8_is_one_byte(self):
        assert INT8.bytes == 1

    def test_int16_is_two_bytes(self):
        assert INT16.bytes == 2

    def test_fp32_is_four_bytes(self):
        assert FP32.bytes == 4

    def test_fixed_point_costs_one_dsp_per_mac(self):
        assert INT8.dsps_per_mac == 1
        assert INT16.dsps_per_mac == 1

    def test_fp32_costs_five_dsps_per_mac(self):
        # Sec. 4.1: "it needs 5 DSPs to perform a floating point MAC".
        assert FP32.dsps_per_mac == 5

    def test_only_fp32_is_floating_point(self):
        assert FP32.is_floating_point
        assert not INT8.is_floating_point
        assert not INT16.is_floating_point

    def test_str_is_name(self):
        assert str(INT8) == "int8"

    def test_all_precisions_ordering(self):
        assert ALL_PRECISIONS == (INT8, INT16, FP32)


class TestPrecisionValidation:
    def test_rejects_non_byte_width(self):
        with pytest.raises(ValueError):
            Precision(name="odd", bits=12, dsps_per_mac=1)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            Precision(name="zero", bits=0, dsps_per_mac=1)

    def test_rejects_zero_dsps(self):
        with pytest.raises(ValueError):
            Precision(name="free", bits=8, dsps_per_mac=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            INT8.bits = 16


class TestPrecisionLookup:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("int8", INT8),
            ("INT16", INT16),
            ("fp32", FP32),
            ("8-bit", INT8),
            ("16", INT16),
            ("32-bit", FP32),
            ("float32", FP32),
            ("  int8  ", INT8),
        ],
    )
    def test_lookup(self, name, expected):
        assert precision_by_name(name) is expected

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown precision"):
            precision_by_name("int4")

    @pytest.mark.parametrize("name", ["int3", "", "bf16"])
    def test_unknown_name_is_a_config_error(self, name):
        """User input, so the taxonomy maps it to exit 2 / HTTP 400."""
        with pytest.raises(PrecisionNotFoundError) as info:
            precision_by_name(name)
        assert isinstance(info.value, ConfigError)
        assert isinstance(info.value, KeyError)
        assert exit_code(info.value) == 2
        assert http_status(info.value) == 400
        assert str(info.value).startswith(f"unknown precision {name!r}; known: ")
