"""Tests for the datacenter serving layer (traces, mixes, queueing simulator)."""

import pytest

from repro.backends import DFXClusterBackend, GPUApplianceBackend
from repro.baselines.gpu import GPUAppliance
from repro.core.appliance import DFXAppliance
from repro.errors import ConfigurationError
from repro.model.config import GPT2_345M
from repro.serving.requests import (
    CHATBOT_MIX,
    DATACENTER_MIX,
    ServiceRequest,
    WorkloadMix,
    bursty_trace,
    constant_trace,
    diurnal_trace,
    merge_traces,
    poisson_trace,
    with_service_levels,
)
from repro.serving.server import ApplianceServer, LatencyOracle
from repro.workloads import Workload

import numpy as np
from serving_doubles import FixedLatencyPlatform as _FixedLatencyPlatform


class TestTraces:
    def test_poisson_trace_is_sorted_and_bounded(self):
        trace = poisson_trace(arrival_rate_per_s=5.0, duration_s=10.0, seed=1)
        times = [request.arrival_time_s for request in trace]
        assert times == sorted(times)
        assert all(0 <= time < 10.0 for time in times)

    def test_poisson_trace_rate_roughly_respected(self):
        trace = poisson_trace(arrival_rate_per_s=10.0, duration_s=100.0, seed=2)
        assert 700 < len(trace) < 1300

    def test_poisson_trace_deterministic_per_seed(self):
        first = poisson_trace(2.0, 20.0, seed=7)
        second = poisson_trace(2.0, 20.0, seed=7)
        assert [r.arrival_time_s for r in first] == [r.arrival_time_s for r in second]

    def test_invalid_trace_parameters(self):
        with pytest.raises(ConfigurationError):
            poisson_trace(0.0, 10.0)
        with pytest.raises(ConfigurationError):
            poisson_trace(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            constant_trace(-1.0, 5)
        with pytest.raises(ConfigurationError):
            ServiceRequest(0, -1.0, Workload(1, 1))

    def test_constant_trace(self):
        trace = constant_trace(2.0, 3, Workload(8, 8))
        assert [r.arrival_time_s for r in trace] == [0.0, 2.0, 4.0]


#: Valid arguments of each trace builder; each case spoils one of them.
_BUILDER_ARGUMENTS = {
    poisson_trace: {"arrival_rate_per_s": 1.0, "duration_s": 10.0, "limit": 3},
    constant_trace: {"interarrival_s": 1.0, "num_requests": 3, "start_time_s": 0.0},
    bursty_trace: {
        "burst_rate_per_s": 5.0, "idle_rate_per_s": 1.0, "duration_s": 10.0,
        "mean_burst_s": 2.0, "mean_idle_s": 2.0, "limit": 3,
    },
    diurnal_trace: {
        "peak_rate_per_s": 5.0, "duration_s": 10.0, "trough_rate_per_s": 1.0,
        "period_s": 20.0, "phase_s": 0.0, "limit": 3,
    },
}


@pytest.mark.parametrize(
    "builder, argument, value",
    [
        (builder, argument, value)
        for builder, arguments in _BUILDER_ARGUMENTS.items()
        for argument in arguments
        for value in (float("nan"), float("inf"))
    ],
    ids=lambda param: getattr(param, "__name__", str(param)),
)
def test_trace_builders_reject_nan_and_infinity(builder, argument, value):
    # Lazy, so a builder that lets the value through fails "DID NOT RAISE"
    # here instead of hanging or silently returning a truncated trace.
    arguments = {**_BUILDER_ARGUMENTS[builder], argument: value}
    with pytest.raises(ConfigurationError, match=argument):
        builder(**arguments, lazy=True)


class TestWorkloadMix:
    def test_sampling_respects_support(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert CHATBOT_MIX.sample(rng) in CHATBOT_MIX.workloads

    def test_mean_output_tokens(self):
        mix = WorkloadMix("m", (Workload(1, 10), Workload(1, 30)), (1.0, 3.0))
        outputs = np.array([w.output_tokens for w in mix.workloads], dtype=float)
        assert float(mix.probabilities() @ outputs) == pytest.approx(25.0)
        rng = np.random.default_rng(0)
        draws = [mix.sample(rng).output_tokens for _ in range(4000)]
        assert float(np.mean(draws)) == pytest.approx(25.0, abs=1.0)

    def test_invalid_mixes_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadMix("bad", (Workload(1, 1),), (1.0, 2.0))
        with pytest.raises(ConfigurationError):
            WorkloadMix("bad", (), ())
        with pytest.raises(ConfigurationError):
            WorkloadMix("bad", (Workload(1, 1),), (0.0,))

    def test_builtin_mixes_are_valid(self):
        for mix in (CHATBOT_MIX, DATACENTER_MIX):
            assert mix.probabilities().sum() == pytest.approx(1.0)

    def test_probabilities_cached_and_read_only(self):
        # Regression: ``sample`` used to renormalize the weights on every
        # draw; now the normalized vector is built once at construction.
        assert CHATBOT_MIX.probabilities() is CHATBOT_MIX.probabilities()
        assert not CHATBOT_MIX.probabilities().flags.writeable
        with pytest.raises(ValueError):
            CHATBOT_MIX.probabilities()[0] = 0.5

    def test_sampling_uses_cached_probabilities(self):
        mix = WorkloadMix("m", (Workload(1, 10), Workload(1, 30)), (3.0, 1.0))
        rng = np.random.default_rng(0)
        draws = [mix.sample(rng) for _ in range(400)]
        heavy = sum(1 for w in draws if w.output_tokens == 10)
        assert 240 < heavy < 360  # ~75% of 400


class TestServiceLevels:
    def test_with_service_levels_tags_without_changing_load(self):
        trace = constant_trace(1.0, 4)
        tagged = with_service_levels(
            trace, priority=2, slo_s=3.0, patience_s=9.0, service_class="chat"
        )
        assert [r.arrival_time_s for r in tagged] == [r.arrival_time_s for r in trace]
        assert all(r.priority == 2 for r in tagged)
        assert all(r.slo_s == 3.0 and r.patience_s == 9.0 for r in tagged)
        assert tagged[0].deadline_s == pytest.approx(3.0)
        assert tagged[1].abandon_time_s == pytest.approx(10.0)

    def test_untagged_request_never_abandons_or_violates(self):
        request = ServiceRequest(0, 1.0, Workload(1, 1))
        assert request.deadline_s == float("inf")
        assert request.abandon_time_s == float("inf")

    def test_invalid_service_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceRequest(0, 0.0, Workload(1, 1), slo_s=0.0)
        with pytest.raises(ConfigurationError):
            ServiceRequest(0, 0.0, Workload(1, 1), patience_s=-1.0)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected_naming_the_field(self, arrival):
        # Regression: a NaN arrival used to be accepted and crash the event
        # loop with an IndexError from the calendar queue.
        with pytest.raises(ConfigurationError, match="arrival_time_s"):
            ServiceRequest(0, arrival, Workload(1, 1))

    @pytest.mark.parametrize("field", ["slo_s", "patience_s"])
    def test_nan_service_level_rejected_naming_the_field(self, field):
        with pytest.raises(ConfigurationError, match=field):
            ServiceRequest(0, 0.0, Workload(1, 1), **{field: float("nan")})

    def test_merge_traces_sorts_and_renumbers(self):
        first = with_service_levels(constant_trace(2.0, 3), service_class="a")
        second = with_service_levels(
            constant_trace(2.0, 3, start_time_s=1.0), service_class="b"
        )
        merged = merge_traces(first, second)
        times = [r.arrival_time_s for r in merged]
        assert times == sorted(times)
        assert [r.request_id for r in merged] == list(range(6))
        assert [r.service_class for r in merged] == ["a", "b", "a", "b", "a", "b"]


class TestQueueingSimulator:
    def test_no_queueing_when_arrivals_are_sparse(self):
        server = ApplianceServer(_FixedLatencyPlatform(1.0), num_clusters=1)
        report = server.serve(constant_trace(interarrival_s=2.0, num_requests=5))
        assert report.mean_queueing_delay_s == pytest.approx(0.0)
        assert report.mean_response_time_s == pytest.approx(1.0)
        assert report.utilization == pytest.approx(5.0 / report.makespan_s, rel=1e-6)

    def test_queueing_builds_up_when_overloaded(self):
        server = ApplianceServer(_FixedLatencyPlatform(1.0), num_clusters=1)
        report = server.serve(constant_trace(interarrival_s=0.5, num_requests=10))
        assert report.mean_queueing_delay_s > 0.5
        # Utilization saturates at 1.0.
        assert report.utilization == pytest.approx(1.0, abs=0.05)

    def test_second_cluster_absorbs_the_overload(self):
        trace = constant_trace(interarrival_s=0.5, num_requests=10)
        one = ApplianceServer(_FixedLatencyPlatform(1.0), num_clusters=1).serve(trace)
        two = ApplianceServer(_FixedLatencyPlatform(1.0), num_clusters=2).serve(trace)
        assert two.mean_response_time_s < one.mean_response_time_s
        assert two.mean_queueing_delay_s == pytest.approx(0.0, abs=1e-9)

    def test_percentiles_monotone(self):
        server = ApplianceServer(_FixedLatencyPlatform(1.0), num_clusters=1)
        report = server.serve(constant_trace(0.5, 20))
        p50 = report.response_time_percentile_s(50)
        p95 = report.response_time_percentile_s(95)
        p99 = report.response_time_percentile_s(99)
        assert p50 <= p95 <= p99

    def test_energy_accounting(self):
        server = ApplianceServer(_FixedLatencyPlatform(2.0, power_watts=50.0))
        report = server.serve(constant_trace(10.0, 4))
        assert report.total_energy_joules == pytest.approx(4 * 2.0 * 50.0)
        assert report.energy_per_request_joules == pytest.approx(100.0)

    def test_empty_trace(self):
        report = ApplianceServer(_FixedLatencyPlatform(1.0)).serve([])
        assert report.num_requests == 0
        assert report.requests_per_hour == 0.0

    def test_invalid_cluster_count(self):
        with pytest.raises(ConfigurationError):
            ApplianceServer(_FixedLatencyPlatform(1.0), num_clusters=0)

    def test_makespan_measured_from_first_arrival(self):
        # Regression: the busy window used to start at t=0, understating
        # throughput and utilization for traces that start late.
        server = ApplianceServer(_FixedLatencyPlatform(1.0), num_clusters=1)
        report = server.serve(
            constant_trace(interarrival_s=2.0, num_requests=5, start_time_s=100.0)
        )
        # Busy window: first arrival t=100, last finish t=108+1=109.
        assert report.first_arrival_s == pytest.approx(100.0)
        assert report.makespan_s == pytest.approx(9.0)
        assert report.requests_per_hour == pytest.approx(5 / 9.0 * 3600.0)
        assert report.utilization == pytest.approx(5 / 9.0)

    def test_late_trace_matches_equivalent_early_trace(self):
        server = ApplianceServer(_FixedLatencyPlatform(1.0), num_clusters=1)
        early = server.serve(constant_trace(0.5, 10))
        late = server.serve(constant_trace(0.5, 10, start_time_s=1000.0))
        assert late.makespan_s == pytest.approx(early.makespan_s)
        assert late.utilization == pytest.approx(early.utilization)
        assert late.output_tokens_per_second == pytest.approx(
            early.output_tokens_per_second
        )


class TestReportEdgeCases:
    """Regression tests hardening ServingReport statistics at the edges."""

    def test_empty_trace_every_statistic_is_zero_or_empty(self):
        report = ApplianceServer(_FixedLatencyPlatform(1.0)).serve([])
        assert report.num_offered == 0
        assert report.mean_response_time_s == 0.0
        assert report.mean_queueing_delay_s == 0.0
        assert report.response_time_percentile_s(99) == 0.0
        assert report.requests_per_hour == 0.0
        assert report.output_tokens_per_second == 0.0
        assert report.utilization == 0.0
        assert report.abandonment_rate == 0.0
        assert report.slo_violation_rate == 0.0
        assert report.slo_attainment == 1.0
        assert report.energy_per_request_joules == 0.0
        assert report.service_classes() == []
        assert report.percentiles_by_class(95) == {}
        assert report.num_batches == 0
        assert report.mean_batch_size == 0.0
        assert report.batch_size_distribution() == {}
        assert report.batch_gather_delays_s().size == 0
        assert report.mean_batch_gather_delay_s == 0.0
        assert report.batch_gather_delay_percentile_s(99) == 0.0

    @pytest.mark.parametrize("retain_records", [True, False])
    def test_out_of_range_percentile_raises_in_both_modes(self, retain_records):
        # Regression: retained reports used to raise numpy's ValueError
        # here while streaming reports raised ConfigurationError.
        report = ApplianceServer(
            _FixedLatencyPlatform(1.0), retain_records=retain_records
        ).serve(constant_trace(0.5, 10))
        with pytest.raises(ConfigurationError):
            report.response_time_percentile_s(150)
        with pytest.raises(ConfigurationError):
            report.queueing_delay_percentile_s(-1)

    def test_single_request_statistics(self):
        report = ApplianceServer(_FixedLatencyPlatform(2.0)).serve(
            [ServiceRequest(0, 5.0, Workload(4, 8))]
        )
        assert report.num_requests == 1
        assert report.first_arrival_s == pytest.approx(5.0)
        assert report.makespan_s == pytest.approx(2.0)
        assert report.mean_response_time_s == pytest.approx(2.0)
        # Every percentile of a single sample is that sample.
        for percentile in (1, 50, 99):
            assert report.response_time_percentile_s(percentile) == pytest.approx(2.0)
        assert report.requests_per_hour == pytest.approx(1800.0)
        assert report.output_tokens_per_second == pytest.approx(4.0)
        assert report.utilization == pytest.approx(1.0)
        assert report.num_batches == 1
        assert report.mean_batch_size == pytest.approx(1.0)

    def test_zero_duration_busy_window_reports_zero_rates(self):
        # A zero-latency platform completes the only request at its arrival
        # instant: the busy window has zero width, so the rate statistics
        # must report 0 instead of dividing by it.
        report = ApplianceServer(_FixedLatencyPlatform(0.0), 1, "fixed").serve(
            [ServiceRequest(0, 1.0, Workload(1, 1))]
        )
        assert report.num_requests == 1
        assert report.makespan_s == 0.0
        assert report.requests_per_hour == 0.0
        assert report.output_tokens_per_second == 0.0
        assert report.utilization == 0.0
        assert report.utilization_by_appliance() == {"fixed": 0.0}
        assert report.mean_response_time_s == 0.0

    def test_percentiles_by_class_with_abandoned_only_class(self):
        # One class completes; the other abandons every request.  The
        # abandoned-only class must still appear (it was offered) with a
        # 0.0 percentile, not crash or be silently dropped.
        served = with_service_levels(
            constant_trace(0.0, 1), service_class="served"
        )
        impatient = with_service_levels(
            constant_trace(0.0, 2, start_time_s=0.0), patience_s=0.4,
            service_class="impatient"
        )
        report = ApplianceServer(_FixedLatencyPlatform(1.0)).serve(
            merge_traces(served, impatient)
        )
        # The first-dispatched request occupies the only cluster for 1 s;
        # the two impatient ones time out at 0.4 s.
        assert report.num_requests == 1
        assert report.num_abandoned == 2
        assert report.service_classes() == ["impatient", "served"]
        by_class = report.percentiles_by_class(95)
        assert by_class["impatient"] == 0.0
        assert by_class["served"] > 0.0


class TestBurstyTrace:
    def test_deterministic_per_seed(self):
        first = bursty_trace(8.0, 0.5, 60.0, seed=11)
        second = bursty_trace(8.0, 0.5, 60.0, seed=11)
        assert [r.arrival_time_s for r in first] == [
            r.arrival_time_s for r in second
        ]
        assert [r.workload for r in first] == [r.workload for r in second]
        different = bursty_trace(8.0, 0.5, 60.0, seed=12)
        assert [r.arrival_time_s for r in first] != [
            r.arrival_time_s for r in different
        ]

    def test_sorted_bounded_and_sequentially_numbered(self):
        trace = bursty_trace(10.0, 1.0, 30.0, seed=2)
        times = [r.arrival_time_s for r in trace]
        assert times == sorted(times)
        assert all(0 <= t < 30.0 for t in times)
        assert [r.request_id for r in trace] == list(range(len(trace)))

    def test_burst_and_idle_rates_separate(self):
        # With silent idle phases the trace must contain long gaps (idle)
        # and dense stretches (bursts): its per-window arrival counts are
        # overdispersed relative to a Poisson trace of the same mean rate.
        trace = bursty_trace(
            20.0, 0.0, 200.0, mean_burst_s=5.0, mean_idle_s=5.0, seed=7
        )
        times = np.array([r.arrival_time_s for r in trace])
        counts, _ = np.histogram(times, bins=np.arange(0.0, 201.0, 1.0))
        dispersion = counts.var() / counts.mean()
        assert dispersion > 2.0  # Poisson would be ~1
        # The mean rate sits between the idle and burst rates.
        assert 0.0 < len(trace) / 200.0 < 20.0

    def test_silent_idle_phases_have_no_arrivals(self):
        # idle_rate 0 with long idle phases: gaps longer than anything a
        # burst phase would produce must exist.
        trace = bursty_trace(
            50.0, 0.0, 100.0, mean_burst_s=2.0, mean_idle_s=10.0, seed=4
        )
        gaps = np.diff([r.arrival_time_s for r in trace])
        assert gaps.max() > 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            bursty_trace(0.0, 0.0, 10.0)
        with pytest.raises(ConfigurationError):
            bursty_trace(5.0, -1.0, 10.0)
        with pytest.raises(ConfigurationError):
            bursty_trace(5.0, 5.0, 10.0)  # no on-off separation
        with pytest.raises(ConfigurationError):
            bursty_trace(5.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            bursty_trace(5.0, 1.0, 10.0, mean_burst_s=0.0)
        with pytest.raises(ConfigurationError):
            bursty_trace(5.0, 1.0, 10.0, mean_idle_s=-1.0)

    def test_compatible_with_service_levels_and_merge(self):
        bursty = with_service_levels(
            bursty_trace(10.0, 0.5, 20.0, seed=1), service_class="bursty",
            slo_s=5.0,
        )
        steady = with_service_levels(
            poisson_trace(1.0, 20.0, seed=2), service_class="steady"
        )
        merged = merge_traces(bursty, steady)
        assert len(merged) == len(bursty) + len(steady)
        assert [r.request_id for r in merged] == list(range(len(merged)))
        times = [r.arrival_time_s for r in merged]
        assert times == sorted(times)
        assert {r.service_class for r in merged} == {"bursty", "steady"}
        report = ApplianceServer(_FixedLatencyPlatform(0.1), 2).serve(merged)
        assert report.num_offered == len(merged)


class TestWithRealApplianceBackends:
    def test_latency_oracle_caches_results(self):
        appliance = DFXAppliance(GPT2_345M, num_devices=1)
        oracle = LatencyOracle(DFXClusterBackend(appliance=appliance))
        first = oracle.result_for(Workload(32, 8))
        second = oracle.result_for(Workload(32, 8))
        assert first is second

    def test_dfx_appliance_serves_more_requests_than_gpu(self):
        trace = poisson_trace(arrival_rate_per_s=0.5, duration_s=60.0,
                              mix=CHATBOT_MIX, seed=3)
        dfx_report = ApplianceServer(
            DFXClusterBackend(appliance=DFXAppliance(GPT2_345M, num_devices=1)),
            platform_name="dfx",
        ).serve(trace)
        gpu_report = ApplianceServer(
            GPUApplianceBackend(appliance=GPUAppliance(GPT2_345M, num_devices=1)),
            platform_name="gpu",
        ).serve(trace)
        assert dfx_report.mean_response_time_s < gpu_report.mean_response_time_s
        assert dfx_report.output_tokens_per_second > gpu_report.output_tokens_per_second
