"""Quickstart: simulate one text-generation request on DFX and on the GPU baseline.

Run with:  python examples/quickstart.py

This walks through the library's three main entry points:

1. the functional GPT-2 substrate (generate text with synthetic weights);
2. the DFX appliance performance simulator (latency, throughput, breakdown);
3. the calibrated GPU-appliance baseline for comparison.
"""

from __future__ import annotations

from repro import (
    DFXAppliance,
    GPT2_1_5B,
    GPT2_TEST_SMALL,
    GPUAppliance,
    GPT2Model,
    TextGenerator,
    Workload,
)
from repro.analysis.reports import format_fractions, format_table
from repro.model.numerics import FP16_DFX


def run_functional_demo() -> None:
    """Generate a few tokens with the functional model (synthetic weights)."""
    print("== 1. Functional GPT-2 (synthetic weights, FP16 + LUT-GELU numerics) ==")
    model = GPT2Model.from_config(GPT2_TEST_SMALL, numerics=FP16_DFX, seed=0)
    generator = TextGenerator(model)
    text, result = generator.generate_text(
        "hello my name is", max_new_tokens=8, temperature=0.0
    )
    print(f"prompt tokens    : {result.input_token_ids}")
    print(f"generated tokens : {result.output_token_ids}")
    print(f"detokenized      : {text!r}")
    print(f"KV cache length  : {result.kv_cache_length} positions\n")


def run_performance_demo() -> None:
    """Simulate the paper's chatbot-like workload on both appliances."""
    print("== 2. DFX appliance vs GPU appliance (GPT-2 1.5B, 4 devices each) ==")
    workload = Workload(input_tokens=64, output_tokens=64)

    dfx = DFXAppliance(GPT2_1_5B, num_devices=4).run(workload)
    gpu = GPUAppliance(GPT2_1_5B, num_devices=4).run(workload)

    print(format_table(
        ["platform", "latency (ms)", "tokens/s", "energy (J)"],
        [
            ["GPU appliance (4x V100)", gpu.latency_ms, gpu.tokens_per_second, gpu.energy_joules],
            ["DFX (4x Alveo U280)", dfx.latency_ms, dfx.tokens_per_second, dfx.energy_joules],
        ],
    ))
    print(f"\nspeedup            : {gpu.latency_ms / dfx.latency_ms:.2f}x  (paper: ~5.6x on the full grid)")
    print(f"energy efficiency  : {dfx.tokens_per_joule / gpu.tokens_per_joule:.2f}x (paper: ~4.0x)\n")

    print("DFX latency breakdown (paper Fig. 15 phases):")
    print(format_fractions(dfx.breakdown_fractions()))
    print()


def main() -> None:
    run_functional_demo()
    run_performance_demo()
    print("Done. See examples/chatbot_service.py and examples/article_writing.py "
          "for service-level scenarios, and scripts/run_all_experiments.py for "
          "every paper figure.")


if __name__ == "__main__":
    main()
