"""Aurora 64b/66b ring-link model (paper Sec. V-E).

FPGA-to-FPGA communication uses QSFP transceivers at 100 Gb/s driven by the
Xilinx Aurora 64b/66b IP, a light link-layer protocol with ~3% encoding
overhead.  Each device has two QSFP ports, so the cluster forms a ring; an
all-gather circulates every device's slice ``num_devices - 1`` hops around the
ring, with all links active simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import check_number
from repro.fpga.u280 import DEFAULT_U280, U280Spec

#: Aurora 64b/66b encoding efficiency (64 payload bits per 66 line bits).
AURORA_ENCODING_EFFICIENCY = 64.0 / 66.0


@dataclass(frozen=True)
class AuroraLinkModel:
    """Timing model of one QSFP/Aurora link hop.

    Attributes:
        spec: Device spec providing the raw line rate.
        per_hop_latency_s: Serialization-independent latency per hop:
            transceiver, Aurora framing, router buffering (~1 µs measured on
            comparable Alveo deployments).
    """

    spec: U280Spec = DEFAULT_U280
    per_hop_latency_s: float = 1.0e-6

    def __post_init__(self) -> None:
        check_number("per_hop_latency_s", self.per_hop_latency_s, 0.0)

    @property
    def effective_bandwidth_bytes(self) -> float:
        """Payload bandwidth of one link in bytes/s after 64b/66b encoding."""
        return self.spec.qsfp_bandwidth_bits * AURORA_ENCODING_EFFICIENCY / 8.0

    def hop_seconds(self, payload_bytes: int) -> float:
        """Seconds for one hop carrying ``payload_bytes``."""
        check_number("payload_bytes", payload_bytes, 0, integer=True)
        return self.per_hop_latency_s + payload_bytes / self.effective_bandwidth_bytes

    def ring_all_gather_seconds(self, total_payload_bytes: int, num_devices: int) -> float:
        """Seconds for a ring all-gather of a vector of ``total_payload_bytes``.

        Every device owns ``total / num_devices`` bytes.  The gather proceeds
        in ``num_devices - 1`` steps; in each step every device forwards the
        slice it most recently received, so all links are busy concurrently
        and the wall-clock cost is ``(D - 1)`` hops of one slice each.
        """
        check_number("num_devices", num_devices, 1, integer=True)
        if num_devices == 1:
            return 0.0
        slice_bytes = total_payload_bytes / num_devices
        return (num_devices - 1) * self.hop_seconds(int(round(slice_bytes)))
