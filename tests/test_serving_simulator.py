"""Tests for the discrete-event serving simulator and its scheduling policies."""

import heapq

import pytest

from repro.backends import DFXClusterBackend
from repro.core.appliance import DFXAppliance
from repro.errors import ConfigurationError
from repro.model.config import GPT2_345M
from repro.serving import (
    ABANDON_INFEASIBLE,
    ABANDON_TIMEOUT,
    ApplianceServer,
    LatencyOracle,
    SCHEDULERS,
    ServerUnit,
    ServiceRequest,
    constant_trace,
    make_scheduler,
    merge_traces,
    poisson_trace,
    simulate,
    with_service_levels,
)
from repro.serving.schedulers import FIFOScheduler, SchedulingPolicy
from repro.workloads import Workload
from serving_doubles import (
    FixedLatencyPlatform as _FixedLatencyPlatform,
    TokenProportionalPlatform as _TokenProportionalPlatform,
)


def _legacy_fifo_serve(platform, num_clusters, trace):
    """The original single-loop ``ApplianceServer.serve()`` (pre-simulator).

    Kept verbatim as the equivalence oracle for the event-driven FIFO path.
    Returns (completions, total_energy, last_finish) where completions maps
    request_id -> (start, finish, cluster_id).
    """
    oracle = LatencyOracle(platform)
    ordered = sorted(trace, key=lambda request: request.arrival_time_s)
    free_at = [(0.0, cluster) for cluster in range(num_clusters)]
    heapq.heapify(free_at)
    completions = {}
    total_energy = 0.0
    last_finish = 0.0
    for request in ordered:
        cluster_free_time, cluster_id = heapq.heappop(free_at)
        result = oracle.result_for(request.workload)
        start = max(request.arrival_time_s, cluster_free_time)
        finish = start + result.latency_s
        heapq.heappush(free_at, (finish, cluster_id))
        completions[request.request_id] = (start, finish, cluster_id)
        total_energy += result.energy_joules
        last_finish = max(last_finish, finish)
    return completions, total_energy, last_finish


class TestFIFOEquivalence:
    """The event-driven simulator under FIFO must reproduce the legacy loop."""

    @pytest.mark.parametrize("num_clusters", [1, 2, 3])
    def test_exact_equivalence_on_poisson_trace(self, num_clusters):
        platform = _TokenProportionalPlatform(0.4)
        trace = poisson_trace(1.5, 60.0, seed=9)
        expected, expected_energy, last_finish = _legacy_fifo_serve(
            platform, num_clusters, trace
        )
        report = ApplianceServer(platform, num_clusters, "fixed").serve(trace)
        assert report.num_requests == len(trace)
        for completed in report.completed:
            start, finish, cluster = expected[completed.request.request_id]
            assert completed.start_time_s == pytest.approx(start, abs=1e-12)
            assert completed.finish_time_s == pytest.approx(finish, abs=1e-12)
            assert completed.cluster_id == cluster
        assert report.total_energy_joules == pytest.approx(expected_energy)
        first_arrival = min(r.arrival_time_s for r in trace)
        assert report.makespan_s == pytest.approx(last_finish - first_arrival)

    def test_exact_equivalence_on_real_appliance(self):
        platform = DFXClusterBackend(appliance=DFXAppliance(GPT2_345M, num_devices=1))
        trace = poisson_trace(0.8, 30.0, seed=4)
        expected, expected_energy, _ = _legacy_fifo_serve(platform, 2, trace)
        report = ApplianceServer(platform, 2, "dfx").serve(trace)
        for completed in report.completed:
            start, finish, cluster = expected[completed.request.request_id]
            assert completed.start_time_s == pytest.approx(start, abs=1e-9)
            assert completed.finish_time_s == pytest.approx(finish, abs=1e-9)
            assert completed.cluster_id == cluster
        assert report.total_energy_joules == pytest.approx(expected_energy)

    def test_fifo_completions_recorded_in_arrival_order(self):
        report = ApplianceServer(_FixedLatencyPlatform(1.0), 2).serve(
            poisson_trace(2.0, 30.0, seed=1)
        )
        ids = [c.request.request_id for c in report.completed]
        assert ids == sorted(ids)


class TestSchedulerInvariants:
    def test_fifo_preserves_arrival_order_per_cluster(self):
        report = ApplianceServer(_FixedLatencyPlatform(1.0), 2, scheduler="fifo").serve(
            poisson_trace(2.5, 40.0, seed=3)
        )
        for cluster in range(report.num_clusters):
            arrivals = [
                c.request.arrival_time_s
                for c in report.completed
                if c.cluster_id == cluster
            ]
            assert arrivals == sorted(arrivals)

    def test_sjf_never_increases_mean_response_time_on_backlogged_trace(self):
        # One long job in service, a second long job queued, then a burst of
        # short jobs: FIFO makes the shorts wait behind the long job, SJF
        # serves them first.
        platform = _TokenProportionalPlatform(0.1)
        long_job, short_job = Workload(1, 100), Workload(1, 5)
        trace = [ServiceRequest(0, 0.0, long_job), ServiceRequest(1, 0.1, long_job)]
        trace += [
            ServiceRequest(2 + i, 0.2 + 0.01 * i, short_job) for i in range(5)
        ]
        fifo = ApplianceServer(platform, 1, scheduler="fifo").serve(trace)
        sjf = ApplianceServer(platform, 1, scheduler="sjf").serve(trace)
        assert sjf.num_requests == fifo.num_requests == len(trace)
        assert sjf.mean_response_time_s < fifo.mean_response_time_s
        # Same total work, so the busy window is identical.
        assert sjf.makespan_s == pytest.approx(fifo.makespan_s)

    def test_priority_classes_jump_the_queue(self):
        platform = _FixedLatencyPlatform(1.0)
        trace = [
            ServiceRequest(0, 0.0, Workload(1, 1), priority=1),
            ServiceRequest(1, 0.1, Workload(1, 1), priority=1),
            ServiceRequest(2, 0.2, Workload(1, 1), priority=0),
        ]
        report = ApplianceServer(platform, 1, scheduler="priority").serve(trace)
        starts = {c.request.request_id: c.start_time_s for c in report.completed}
        # The urgent request (id 2) passes the earlier-arrived id 1.
        assert starts[2] == pytest.approx(1.0)
        assert starts[1] == pytest.approx(2.0)

    def test_deadline_scheduler_drops_exactly_the_infeasible_requests(self):
        platform = _FixedLatencyPlatform(1.0)
        trace = [
            ServiceRequest(0, 0.0, Workload(1, 1), slo_s=3.0),
            # Queued behind id 0; at t=1 its deadline (t=1.05) can no longer
            # be met (1 + 1s service > 1.05), so it must be dropped.
            ServiceRequest(1, 0.0, Workload(1, 1), slo_s=1.05),
            ServiceRequest(2, 0.5, Workload(1, 1), slo_s=10.0),
            ServiceRequest(3, 0.6, Workload(1, 1)),  # no SLO: deadline = inf
        ]
        report = ApplianceServer(platform, 1, scheduler="deadline").serve(trace)
        assert [a.request.request_id for a in report.abandoned] == [1]
        assert report.abandoned[0].reason == ABANDON_INFEASIBLE
        assert {c.request.request_id for c in report.completed} == {0, 2, 3}
        assert all(c.slo_met for c in report.completed)
        assert report.num_offered == len(trace)

    def test_patience_abandonment_is_exact(self):
        platform = _FixedLatencyPlatform(2.0)
        trace = with_service_levels(constant_trace(0.0, 5), patience_s=3.0)
        report = ApplianceServer(platform, 1, scheduler="fifo").serve(trace)
        # Service 0-2 and 2-4; the rest hit the 3 s patience while queued.
        assert report.num_requests == 2
        assert report.num_abandoned == 3
        for abandoned in report.abandoned:
            assert abandoned.reason == ABANDON_TIMEOUT
            assert abandoned.abandoned_time_s == pytest.approx(3.0)
            waited_s = abandoned.abandoned_time_s - abandoned.request.arrival_time_s
            assert waited_s == pytest.approx(3.0)
        assert report.num_offered == len(trace)
        assert report.abandonment_rate == pytest.approx(3 / 5)

    def test_conservation_under_every_policy(self):
        platform = _TokenProportionalPlatform(0.3)
        trace = with_service_levels(
            poisson_trace(3.0, 30.0, seed=6), slo_s=5.0, patience_s=8.0
        )
        for policy in SCHEDULERS:
            report = ApplianceServer(platform, 1, scheduler=policy).serve(trace)
            assert report.num_requests + report.num_abandoned == len(trace), policy


class TestReportExtensions:
    def test_slo_violation_accounting(self):
        platform = _FixedLatencyPlatform(1.0)
        trace = with_service_levels(constant_trace(0.0, 3), slo_s=1.5)
        report = ApplianceServer(platform, 1).serve(trace)
        # Responses are 1, 2, 3 seconds against a 1.5 s SLO.
        assert report.slo_violations == 2
        assert report.slo_violation_rate == pytest.approx(2 / 3)
        assert report.slo_attainment == pytest.approx(1 / 3)

    def test_slo_rate_ignores_unsloed_requests(self):
        platform = _FixedLatencyPlatform(1.0)
        sloed = with_service_levels(constant_trace(0.0, 2), slo_s=10.0,
                                    service_class="chat")
        best_effort = with_service_levels(
            constant_trace(0.0, 2, start_time_s=10.0), service_class="batch"
        )
        report = ApplianceServer(platform, 1).serve(merge_traces(sloed, best_effort))
        assert report.slo_violation_rate == 0.0
        assert report.slo_attainment == 1.0

    def test_per_class_percentiles(self):
        platform = _TokenProportionalPlatform(0.1)
        fast = with_service_levels(
            [ServiceRequest(0, 0.0, Workload(1, 5))], service_class="fast"
        )
        slow = with_service_levels(
            [ServiceRequest(0, 100.0, Workload(1, 50))], service_class="slow"
        )
        report = ApplianceServer(platform, 1).serve(merge_traces(fast, slow))
        assert report.service_classes() == ["fast", "slow"]
        by_class = report.percentiles_by_class(50)
        assert by_class["fast"] == pytest.approx(0.5)
        assert by_class["slow"] == pytest.approx(5.0)
        # The unfiltered percentile mixes both classes.
        assert report.response_time_percentile_s(50) == pytest.approx(2.75)
        # Unknown class: no samples.
        assert report.response_time_percentile_s(50, service_class="nope") == 0.0

    def test_report_records_scheduler_and_appliances(self):
        report = ApplianceServer(
            _FixedLatencyPlatform(1.0), 2, "dfx", scheduler="sjf"
        ).serve(constant_trace(1.0, 3))
        assert report.scheduler == "sjf"
        assert report.appliance_clusters == {"dfx": 2}
        assert set(report.utilization_by_appliance()) == {"dfx"}
        assert report.utilization_by_appliance()["dfx"] == pytest.approx(
            report.utilization
        )


class TestSimulatorFrontEnd:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            ApplianceServer(_FixedLatencyPlatform(1.0), scheduler="lifo").serve(
                constant_trace(1.0, 2)
            )
        with pytest.raises(ConfigurationError):
            make_scheduler(42)

    def test_scheduler_instance_passes_through(self):
        policy = FIFOScheduler()
        assert make_scheduler(policy) is policy
        report = ApplianceServer(
            _FixedLatencyPlatform(1.0), scheduler=policy
        ).serve(constant_trace(2.0, 2))
        assert report.scheduler == "fifo"

    def test_empty_trace(self):
        report = ApplianceServer(_FixedLatencyPlatform(1.0), scheduler="deadline").serve([])
        assert report.num_requests == 0
        assert report.num_abandoned == 0
        assert report.makespan_s == 0.0

    def test_duplicate_unit_ids_rejected(self):
        oracle = LatencyOracle(_FixedLatencyPlatform(1.0))
        units = [
            ServerUnit(unit_id=0, appliance="a", oracle=oracle),
            ServerUnit(unit_id=0, appliance="b", oracle=oracle),
        ]
        with pytest.raises(ConfigurationError):
            simulate(units, constant_trace(1.0, 2), FIFOScheduler(), platform="a+b")

    def test_non_positional_unit_ids_work(self):
        oracle = LatencyOracle(_FixedLatencyPlatform(1.0))
        units = [
            ServerUnit(unit_id=7, appliance="fixed", oracle=oracle),
            ServerUnit(unit_id=3, appliance="fixed", oracle=oracle),
        ]
        report = simulate(units, constant_trace(0.0, 4), FIFOScheduler(), platform="fixed")
        assert report.num_requests == 4
        assert {c.cluster_id for c in report.completed} == {3, 7}

    def test_custom_policy_that_idles_leaves_unserved_requests_accounted(self):
        class Refusenik(SchedulingPolicy):
            name = "refusenik"

            def select(self, now, queue, estimate):
                return None

        oracle = LatencyOracle(_FixedLatencyPlatform(1.0))
        units = [ServerUnit(unit_id=0, appliance="fixed", oracle=oracle)]
        report = simulate(units, constant_trace(1.0, 3), Refusenik(), platform="fixed")
        assert report.num_requests == 0
        assert report.num_abandoned == 3
        assert report.num_offered == 3
