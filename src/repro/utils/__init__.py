"""Shared helpers: unit conversions and FP16 emulation."""

from repro.utils.units import (
    GIGA,
    KIBI,
    MEBI,
    GIBI,
    bytes_to_gib,
    bytes_to_mib,
    cycles_to_seconds,
    seconds_to_cycles,
    seconds_to_ms,
    ms_to_seconds,
    seconds_to_us,
    gbps_to_bytes_per_second,
    bytes_per_second_to_gbps,
)
from repro.utils.fp16 import (
    FP16_MAX,
    FP16_MIN_NORMAL,
    to_fp16,
    fp16_matmul,
    fp16_add,
    fp16_mul,
    quantization_error,
)

__all__ = [
    "GIGA",
    "KIBI",
    "MEBI",
    "GIBI",
    "bytes_to_gib",
    "bytes_to_mib",
    "cycles_to_seconds",
    "seconds_to_cycles",
    "seconds_to_ms",
    "ms_to_seconds",
    "seconds_to_us",
    "gbps_to_bytes_per_second",
    "bytes_per_second_to_gbps",
    "FP16_MAX",
    "FP16_MIN_NORMAL",
    "to_fp16",
    "fp16_matmul",
    "fp16_add",
    "fp16_mul",
    "quantization_error",
]
