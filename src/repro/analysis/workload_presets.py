"""Service-level workload presets and appliance pairings used in experiments.

The paper pairs each model size with an equal number of accelerators on both
appliances: 345M on 1 GPU vs 1 FPGA, 774M on 2 vs 2, 1.5B on 4 vs 4
(Sec. VII-B).  This module records those pairings so the experiment drivers
and examples use consistent setups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.config import GPT2Config, GPT2_1_5B, GPT2_345M, GPT2_774M


@dataclass(frozen=True)
class EvaluationSetup:
    """One model-size column of Fig. 14: a model and its device count."""

    config: GPT2Config
    num_devices: int

    @property
    def label(self) -> str:
        """Label like ``"1.5B, 4 GPUs vs 4 FPGAs"``."""
        short = self.config.name.replace("gpt2-", "").upper()
        suffix = "s" if self.num_devices > 1 else ""
        return f"{short}, {self.num_devices} GPU{suffix} vs {self.num_devices} FPGA{suffix}"


#: The three evaluation setups of Fig. 14 (345M/1, 774M/2, 1.5B/4).
PAPER_EVALUATION_SETUPS: tuple[EvaluationSetup, ...] = (
    EvaluationSetup(config=GPT2_345M, num_devices=1),
    EvaluationSetup(config=GPT2_774M, num_devices=2),
    EvaluationSetup(config=GPT2_1_5B, num_devices=4),
)

#: Setup used for the cost analysis and the breakdown/throughput figures.
PRIMARY_SETUP = EvaluationSetup(config=GPT2_1_5B, num_devices=4)

#: Setup used for the GFLOPS and scalability studies (Fig. 17/18).
SCALABILITY_SETUP = EvaluationSetup(config=GPT2_345M, num_devices=1)
