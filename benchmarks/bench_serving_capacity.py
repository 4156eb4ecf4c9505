"""Extension study: serving capacity of one appliance under live traffic.

Not a paper figure — it extends the evaluation to the datacenter-serving
setting the paper motivates (Sec. I / Sec. VI): a Poisson trace of mixed
requests is replayed against the DFX and GPU appliances, and the second DFX
cluster of the 4U host is enabled to show the capacity headroom.
"""

from _bench_helpers import print_header, run_once

from repro.analysis.reports import format_table
from repro.backends import make_backend
from repro.model.config import GPT2_1_5B
from repro.serving import ApplianceServer, CHATBOT_MIX, poisson_trace

TRACE_SECONDS = 300.0
ARRIVAL_RATE = 0.8


def _run_serving_study():
    trace = poisson_trace(ARRIVAL_RATE, TRACE_SECONDS, CHATBOT_MIX, seed=11)
    dfx = make_backend("dfx", config=GPT2_1_5B, devices=4)
    gpu = make_backend("gpu", config=GPT2_1_5B, devices=4)
    return {
        "trace_length": len(trace),
        "gpu_1": ApplianceServer(gpu, 1, "gpu").serve(trace),
        "dfx_1": ApplianceServer(dfx, 1, "dfx").serve(trace),
        "dfx_2": ApplianceServer(dfx, 2, "dfx-x2").serve(trace),
    }


def test_serving_capacity_study(benchmark):
    data = run_once(benchmark, _run_serving_study)

    print_header(
        f"Serving study — {data['trace_length']} chatbot requests over "
        f"{TRACE_SECONDS / 60:.0f} min at {ARRIVAL_RATE} req/s (GPT-2 1.5B)"
    )
    rows = []
    for label, key in (("GPU appliance (1 cluster)", "gpu_1"),
                       ("DFX (1 cluster)", "dfx_1"),
                       ("DFX (2 clusters)", "dfx_2")):
        report = data[key]
        rows.append([
            label,
            report.response_time_percentile_s(50),
            report.response_time_percentile_s(95),
            report.requests_per_hour,
            100 * report.utilization,
            report.energy_per_request_joules,
        ])
    print(format_table(
        ["configuration", "p50 (s)", "p95 (s)", "req/hour", "util %", "J/request"],
        rows,
    ))

    gpu_report, dfx_report, dfx2_report = data["gpu_1"], data["dfx_1"], data["dfx_2"]
    # DFX sustains the offered load with far lower tail latency than the GPU
    # appliance, and the second cluster strictly helps.
    assert dfx_report.response_time_percentile_s(95) < gpu_report.response_time_percentile_s(95)
    assert dfx_report.output_tokens_per_second >= gpu_report.output_tokens_per_second
    assert dfx2_report.response_time_percentile_s(95) <= dfx_report.response_time_percentile_s(95)
    assert dfx_report.energy_per_request_joules < gpu_report.energy_per_request_joules
