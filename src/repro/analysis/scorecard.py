"""The paper scorecard: each number the DFX paper reports, next to the model's.

:data:`PAPER_ROWS` declares every paper number and shape claim once: its
driver in :data:`DRIVERS` ("figure"), quantity, paper value, unit, bound,
and the accessor that reads the model's value from the driver's result.
:func:`score` runs each driver it needs once and judges its rows.

A row has at most one bound, relative (to the paper value) or absolute (in
the row's unit): twice the model's relative error when declared, at least
5%; for a share (Figs. 4, 13, 15) its error plus 2 pp; exact stays exact.
A row whose paper value is ``None`` is a shape claim whose accessor returns
a bool.  Fig. 17's GFLOP/s rows are reported, not bounded: the model counts
fewer FLOPs per token than the paper (see
:func:`~repro.analysis.metrics.stage_gflops`); its shape rows are its gate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.analysis import experiments
from repro.analysis.metrics import average_latency_ms
from repro.analysis.projections import GPT3_FAMILY, project_family
from repro.analysis.reports import format_table
from repro.errors import ConfigurationError
from repro.fpga.floorplan import plan_floorplan
from repro.model.config import GPT2_1_5B
from repro.results import PHASE_FFN, PHASE_LAYERNORM, PHASE_RESIDUAL, PHASE_SELF_ATTENTION, PHASE_SYNC
from repro.workloads import Workload

#: Every registered driver, in the paper's order: name -> (title, driver).
DRIVERS: dict[str, tuple[str, Callable[[], Any]]] = {
    "table1": ("Table I — model configurations", experiments.run_table1),
    "figure3": ("Figure 3 — GPU sequential bottleneck (1.5B, 4 GPUs)", experiments.run_figure3),
    "figure4": ("Figure 4 — GPU latency vs operation breakdown", experiments.run_figure4),
    "figure8": ("Figure 8 — tile-shape DSE", experiments.run_figure8),
    "figure13": ("Figure 13 — resource utilization (d=64, l=16)", experiments.run_figure13),
    "figure14": ("Figure 14 — latency grid", experiments.run_figure14),
    "figure15": ("Figure 15 — DFX latency breakdown (1.5B, 4 FPGAs)", experiments.run_figure15),
    "figure16": ("Figure 16 — throughput and energy efficiency (1.5B)", experiments.run_figure16),
    "figure17": ("Figure 17 — GFLOP/s by platform (345M, 64:64)", experiments.run_figure17),
    "figure18": ("Figure 18 — scalability (345M, 64:64)", experiments.run_figure18),
    "table2": ("Table II — cost analysis (1.5B, 64:64)", experiments.run_table2),
    "accuracy": ("Sec. VII-A — accuracy (synthetic cloze)", experiments.run_accuracy_comparison),
    "ablation-dataflow": ("Ablation — calibration sensitivity", experiments.run_dataflow_ablation),
    "ablation-parallelism": ("Ablation — intra-layer vs pipelined", experiments.run_parallelism_ablation),
    "projection-gpt3": ("Projection — GPT-3-family models on DFX (64:64)",
                        lambda: project_family((GPT2_1_5B,) + GPT3_FAMILY, Workload(64, 64))),
    "serving-capacity": ("Serving — one appliance under chatbot traffic", experiments.run_serving_study),
}


@dataclass(frozen=True)
class PaperRow:
    """One paper number, or one shape claim when ``paper`` is ``None``."""

    figure: str
    quantity: str
    paper: float | None
    unit: str
    read: Callable[[Any], Any]
    rel_tol: float | None = None
    abs_tol: float | None = None

    def __post_init__(self) -> None:
        if self.rel_tol is not None and self.abs_tol is not None:
            raise ConfigurationError(f"{self.quantity}: a row has at most one bound")

    def judge(self, model: Any) -> Score:
        """Score ``model``, the value this row's accessor read."""
        if self.paper is None:
            return Score(self, model, None, bool(model))
        if self.abs_tol is not None:
            error = model - self.paper
            return Score(self, model, error, abs(error) <= self.abs_tol)
        error = (model - self.paper) / self.paper
        return Score(self, model, error, self.rel_tol is None or abs(error) <= self.rel_tol)


@dataclass(frozen=True)
class Score:
    """A judged row; ``error`` is in the row's unit under an absolute bound,
    relative to the paper value otherwise, and ``None`` for a shape claim."""

    row: PaperRow
    model: Any
    error: float | None
    passed: bool


def _shape(figure: str, claim: str, read: Callable[[Any], bool]) -> PaperRow:
    return PaperRow(figure, claim, None, "", read)


def _fig14(model: str, read: Callable[[Any], float]) -> Callable[[Any], float]:
    return lambda r: read(next(c for c in r.columns if c.setup.config.name == model))


def _tps(result: Any, side: str, label: str) -> float:
    row = next(row for row in result.rows if row.workload.label == label)
    return getattr(row, side).tokens_per_second


def _ordered(sweep: dict[float, float], holds: Callable[[float, float], bool]) -> bool:
    latencies = [latency for _, latency in sorted(sweep.items())]
    return all(holds(a, b) for a, b in zip(latencies, latencies[1:]))


def _projection(result: Any, model: str) -> Any:
    return next(projection for projection in result if projection.config.name == model)


_TABLE1 = {  # model -> embedding dimension, heads, head dimension, layers
    "gpt2-345m": (1024, 16, 64, 24), "gpt2-774m": (1280, 20, 64, 36),
    "gpt2-1.5b": (1536, 24, 64, 48),
}
_FIG4 = {  # phase -> GPU latency share, GPU operation share (%)
    PHASE_LAYERNORM: (9.9, 0.1), PHASE_SELF_ATTENTION: (56.5, 33.31),
    PHASE_RESIDUAL: (12.9, 0.01), PHASE_FFN: (20.7, 66.59),
}
_FIG13 = {  # resource -> total utilization (%), bound (pp)
    "lut": (39.93, 2.05), "ff": (42.52, 3.66), "bram_36k": (59.13, 2.0),
    "uram": (10.83, 2.0), "dsp": (39.15, 2.0),
}
_FIG14 = {  # model -> (paper, relative bound) of mean speedup, GPU ms, DFX ms
    "gpt2-345m": ((3.20, 0.064), (2531.6, 0.056), (790.2, 0.05)),
    "gpt2-774m": ((4.46, 0.05), (4333.1, 0.098), (970.7, 0.118)),
    "gpt2-1.5b": ((5.58, 0.077), (5479.7, 0.12), (982.8, 0.05)),
}
# The model gives attention 8.4 pp less than Fig. 15 and the FFN 7.5 pp
# more; the gap is recorded, not fit by calibration.
_FIG15 = {  # phase -> DFX latency share (%), bound (pp)
    PHASE_SELF_ATTENTION: (43.0, 10.4), PHASE_FFN: (29.6, 9.5), PHASE_SYNC: (17.3, 6.9),
    PHASE_LAYERNORM: (9.3, 5.7), PHASE_RESIDUAL: (0.8, 2.3),
}
_FIG17 = {  # platform -> summarization, generation, total GFLOP/s
    "gpu": (1632.1, 40.6, 80.4), "tpu": (674.5, 8.2, 16.1), "dfx": (185.6, 181.8, 184.1),
}
_FIG18 = {1: (93.10, 0.056), 2: (146.25, 0.128), 4: (207.56, 0.05)}  # FPGAs -> tok/s, bound

#: Every paper number and shape claim, grouped by figure in :data:`DRIVERS` order.
PAPER_ROWS: tuple[PaperRow, ...] = (
    *(PaperRow("table1", f"{column.replace('_', ' ')}, {model}", value, "",
               lambda r, m=model, c=column: next(row[c] for row in r if row["model"] == m),
               abs_tol=0)
      for model, values in _TABLE1.items()
      for column, value in zip(
          ("embedding_dimension", "attention_heads", "head_dimension", "layers"), values)),
    _shape("table1", "three models", lambda r: len(r) == 3),
    PaperRow("figure3", "marginal output-token cost", 75.45, "ms",
             lambda r: r.marginal_output_token_ms, rel_tol=0.26),
    PaperRow("figure3", "marginal input-token cost", 0.02, "ms",
             lambda r: r.marginal_input_token_ms, rel_tol=1.07),
    _shape("figure3", "an output token costs > 300 input tokens",
           lambda r: r.marginal_output_token_ms > 300 * r.marginal_input_token_ms),
    *(PaperRow("figure4", f"{phase} latency share", latency, "%",
               lambda r, p=phase: 100 * r.latency_fractions[p], abs_tol=2.0)
      for phase, (latency, _) in _FIG4.items()),
    *(PaperRow("figure4", f"{phase} operation share", operations, "%",
               lambda r, p=phase: 100 * r.operation_fractions[p], abs_tol=2.0)
      for phase, (_, operations) in _FIG4.items()),
    _shape("figure4", "attention latency share > 40%",
           lambda r: r.latency_fractions[PHASE_SELF_ATTENTION] > 0.4),
    _shape("figure4", "FFN operation share > 60%", lambda r: r.operation_fractions[PHASE_FFN] > 0.6),
    _shape("figure4", "LayerNorm + residual latency share > 20%",
           lambda r: r.latency_fractions[PHASE_LAYERNORM] + r.latency_fractions[PHASE_RESIDUAL] > 0.2),
    _shape("figure4", "LayerNorm + residual operation share < 1%",
           lambda r: r.operation_fractions[PHASE_LAYERNORM] + r.operation_fractions[PHASE_RESIDUAL]
           < 0.01),
    _shape("figure8", "(64, 16) is among the best points and the cheapest of them",
           lambda r: (64, 16) in r.best_performing_points() and r.cheapest_best_point() == (64, 16)),
    _shape("figure8", "(8, 128) and (128, 8) fall behind",
           lambda r: not {(8, 128), (128, 8)} & set(r.best_performing_points())),
    _shape("figure8", "the sweep has 5 design points", lambda r: len(r.mha_gflops) == 5),
    *(PaperRow("figure13", f"total {kind} utilization", share, "%",
               lambda r, k=kind: 100 * r.utilization()["total"][k], abs_tol=bound)
      for kind, (share, bound) in _FIG13.items()),
    _shape("figure13", "the core fits the U280", lambda r: r.total.fits(r.spec.resources)),
    _shape("figure13", "the SLR floorplan is feasible", lambda r: plan_floorplan().feasible),
    *(row for model, (speedup, gpu_ms, dfx_ms) in _FIG14.items() for row in (
        PaperRow("figure14", f"mean speedup, {model}", speedup[0], "x",
                 _fig14(model, lambda c: c.average_speedup), rel_tol=speedup[1]),
        PaperRow("figure14", f"mean GPU latency, {model}", gpu_ms[0], "ms",
                 _fig14(model, lambda c: average_latency_ms([row.baseline for row in c.rows])),
                 rel_tol=gpu_ms[1]),
        PaperRow("figure14", f"mean DFX latency, {model}", dfx_ms[0], "ms",
                 _fig14(model, lambda c: average_latency_ms([row.dfx for row in c.rows])),
                 rel_tol=dfx_ms[1]))),
    PaperRow("figure14", "DFX latency [32:64], gpt2-1.5b", 660.4, "ms", _fig14(
        "gpt2-1.5b", lambda c: next(row.dfx.latency_ms for row in c.rows
                                    if row.workload == Workload(32, 64))), rel_tol=0.05),
    _shape("figure14", "speedup grows with model size",
           lambda r: r.speedups()["gpt2-345m"] < r.speedups()["gpt2-774m"]
           < r.speedups()["gpt2-1.5b"]),
    *(PaperRow("figure15", f"{phase} share", share, "%",
               lambda r, p=phase: 100 * r.fractions[p], abs_tol=bound)
      for phase, (share, bound) in _FIG15.items()),
    _shape("figure15", "attention + FFN share > 55%",
           lambda r: r.fractions[PHASE_SELF_ATTENTION] + r.fractions[PHASE_FFN] > 0.55),
    _shape("figure15", "5% < sync share < 30%", lambda r: 0.05 < r.fractions[PHASE_SYNC] < 0.30),
    _shape("figure15", "residual share < 5%", lambda r: r.fractions[PHASE_RESIDUAL] < 0.05),
    _shape("figure15", "LayerNorm share < 20%", lambda r: r.fractions[PHASE_LAYERNORM] < 0.20),
    PaperRow("figure16", "mean throughput gain", 3.78, "x",
             lambda r: r.throughput_gain, rel_tol=0.05),
    PaperRow("figure16", "mean energy-efficiency gain", 3.99, "x",
             lambda r: r.energy_efficiency_gain, rel_tol=0.05),
    _shape("figure16", "DFX tok/s on [32:256] > on [32:4]",
           lambda r: _tps(r, "dfx", "[32:256]") > _tps(r, "dfx", "[32:4]")),
    _shape("figure16", "GPU tok/s on [32:256] < 3x on [32:4]",
           lambda r: _tps(r, "baseline", "[32:256]") < 3 * _tps(r, "baseline", "[32:4]")),
    *(PaperRow("figure17", f"{platform} {stage} GFLOP/s", value, "GFLOP/s",
               lambda r, p=platform, s=stage: getattr(getattr(r, p), f"{s}_gflops"))
      for platform, values in _FIG17.items()
      for stage, value in zip(("summarization", "generation", "total"), values)),
    *(_shape("figure17", f"{platform} summarization > 10x generation GFLOP/s",
             lambda r, p=platform: getattr(r, p).summarization_gflops
             > 10 * getattr(r, p).generation_gflops)
      for platform in ("gpu", "tpu")),
    _shape("figure17", "DFX stages within 20% of each other",
           lambda r: abs(r.dfx.summarization_gflops - r.dfx.generation_gflops)
           < 0.2 * r.dfx.summarization_gflops),
    _shape("figure17", "DFX generation > 2x GPU and > 5x TPU generation",
           lambda r: r.dfx.generation_gflops
           > max(2 * r.gpu.generation_gflops, 5 * r.tpu.generation_gflops)),
    *(PaperRow("figure18", f"tok/s on {count} FPGA(s)", value, "tok/s",
               lambda r, n=count: r.tokens_per_second[r.device_counts.index(n)], rel_tol=bound)
      for count, (value, bound) in _FIG18.items()),
    PaperRow("figure18", "scaling 1 -> 2 FPGAs", 1.57, "x",
             lambda r: r.scaling_factors()[0], rel_tol=0.19),
    PaperRow("figure18", "scaling 2 -> 4 FPGAs", 1.42, "x",
             lambda r: r.scaling_factors()[1], rel_tol=0.076),
    _shape("figure18", "tok/s rises with device count",
           lambda r: r.tokens_per_second[0] < r.tokens_per_second[1] < r.tokens_per_second[2]),
    PaperRow("table2", "upfront accelerator saving", 14_652, "$",
             lambda r: r.upfront_saving_usd, abs_tol=0),
    PaperRow("table2", "GPU tok/s", 13.01, "tok/s", lambda r: r.gpu.tokens_per_second,
             rel_tol=0.196),
    PaperRow("table2", "DFX tok/s", 72.68, "tok/s", lambda r: r.dfx.tokens_per_second,
             rel_tol=0.05),
    PaperRow("table2", "cost-effectiveness gain", 8.21, "x",
             lambda r: r.cost_effectiveness_gain, rel_tol=0.182),
    _shape("accuracy", "three cloze datasets", lambda r: len(r) == 3),
    _shape("accuracy", "pipelines agree on >= 97% of every dataset",
           lambda r: all(c.agreement >= 0.97 for c in r)),
    _shape("accuracy", "|accuracy delta| <= 2 pp on every dataset",
           lambda r: all(abs(c.accuracy_delta) <= 0.02 for c in r)),
    _shape("ablation-dataflow", "ideal < no issue overhead < default latency",
           lambda r: r["ideal"] < r["no_issue_overhead"] < r["default"]),
    _shape("ablation-dataflow", "latency falls as HBM efficiency rises",
           lambda r: _ordered(r["hbm"], operator.gt)),
    _shape("ablation-dataflow", "latency never falls as ring hop latency rises",
           lambda r: _ordered(r["hop"], operator.le)),
    _shape("ablation-dataflow", "HBM 0.30 -> 1.00 swing > ring hop 0 -> 5 us swing",
           lambda r: r["hbm"][0.30] - r["hbm"][1.00] > r["hop"][5e-6] - r["hop"][0.0]),
    _shape("ablation-parallelism", "pipelined latency >= 95% of one FPGA's",
           lambda r: r["pipelined_ms"] >= 0.95 * r["single_ms"]),
    _shape("ablation-parallelism", "intra-layer latency < 60% of one FPGA's",
           lambda r: r["intra_layer_ms"] < 0.6 * r["single_ms"]),
    _shape("ablation-parallelism", "intra-layer beats pipelined",
           lambda r: r["intra_layer_ms"] < r["pipelined_ms"]),
    PaperRow("ablation-parallelism", "ring syncs per token (4 per layer)", 4 * GPT2_1_5B.n_layer,
             "", lambda r: r["syncs_per_token"], abs_tol=0),
    _shape("projection-gpt3", "gpt2-1.5b, gpt3-6.7b and gpt3-13b all fit",
           lambda r: {"gpt2-1.5b", "gpt3-6.7b", "gpt3-13b"} <= {p.config.name for p in r}),
    _shape("projection-gpt3", "gpt3-6.7b needs more FPGAs than gpt2-1.5b",
           lambda r: _projection(r, "gpt3-6.7b").sizing.num_devices
           > _projection(r, "gpt2-1.5b").sizing.num_devices),
    _shape("projection-gpt3", "gpt3-13b needs at least gpt3-6.7b's FPGAs",
           lambda r: _projection(r, "gpt3-13b").sizing.num_devices
           >= _projection(r, "gpt3-6.7b").sizing.num_devices),
    _shape("projection-gpt3", "gpt3-13b is slower per token than gpt2-1.5b",
           lambda r: _projection(r, "gpt3-13b").per_token_generation_ms
           > _projection(r, "gpt2-1.5b").per_token_generation_ms),
    _shape("serving-capacity", "DFX p95 response < GPU p95",
           lambda r: r["dfx-x1"].response_time_percentile_s(95)
           < r["gpu-x1"].response_time_percentile_s(95)),
    _shape("serving-capacity", "DFX output tok/s >= GPU",
           lambda r: r["dfx-x1"].output_tokens_per_second >= r["gpu-x1"].output_tokens_per_second),
    _shape("serving-capacity", "a second DFX cluster does not raise p95",
           lambda r: r["dfx-x2"].response_time_percentile_s(95)
           <= r["dfx-x1"].response_time_percentile_s(95)),
    _shape("serving-capacity", "DFX energy per request < GPU",
           lambda r: r["dfx-x1"].energy_per_request_joules < r["gpu-x1"].energy_per_request_joules),
)


def score(figures: Iterable[str] | None = None) -> list[Score]:
    """Run each named driver once (every driver by default) and judge its rows."""
    names = list(DRIVERS if figures is None else figures)
    unknown = [name for name in names if name not in DRIVERS]
    if unknown:
        raise ConfigurationError(f"unknown figure(s) {unknown}; expected some of {list(DRIVERS)}")
    scores = []
    for name in names:
        result = DRIVERS[name][1]()
        scores.extend(row.judge(row.read(result)) for row in PAPER_ROWS if row.figure == name)
    return scores


def format_scores(scores: Sequence[Score]) -> str:
    """One line per score: quantity, model and paper values, error, bound, verdict.

    An absolute error and bound are in the row's unit (``pp`` for a share in
    percent); a relative one is a percentage of the paper value.
    """
    lines = []
    for s in scores:
        row = s.row
        if row.paper is None:
            cells = ["yes" if s.model else "no", "-", "", "", "shape"]
        elif row.abs_tol is not None:
            unit = "pp" if row.unit == "%" else row.unit
            bound = f"±{row.abs_tol:g} {unit}".rstrip() if row.abs_tol else "exact"
            cells = [f"{s.model:.6g}", f"{row.paper:.6g}", row.unit,
                     f"{s.error:+.2f} {unit}".rstrip(), bound]
        else:
            bound = "none" if row.rel_tol is None else f"±{100 * row.rel_tol:.3g}%"
            cells = [f"{s.model:.6g}", f"{row.paper:.6g}", row.unit,
                     f"{100 * s.error:+.1f}%", bound]
        lines.append([row.quantity, *cells, "ok" if s.passed else "FAIL"])
    return format_table(["quantity", "model", "paper", "unit", "error", "bound", "verdict"], lines)
