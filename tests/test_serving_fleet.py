"""Tests for heterogeneous fleet serving and the capacity-planning API."""

import pytest

from repro.analysis.experiments import run_scheduler_comparison
from repro.errors import ConfigurationError
from repro.serving import (
    DATACENTER_MIX,
    ApplianceFleet,
    ApplianceServer,
    FleetMember,
    ServiceRequest,
    ServingScenario,
    capacity_search,
    constant_trace,
    poisson_trace,
    with_service_levels,
)
from repro.workloads import Workload
from serving_doubles import FixedLatencyPlatform as _FixedLatencyPlatform


def _two_speed_fleet(scheduler="fifo"):
    """A fast 2-cluster appliance plus a 4x-slower single-cluster one."""
    return ApplianceFleet(
        [
            FleetMember("fast", _FixedLatencyPlatform(1.0), num_clusters=2),
            FleetMember("slow", _FixedLatencyPlatform(4.0), num_clusters=1),
        ],
        scheduler=scheduler,
    )


class TestFleetDispatch:
    def test_fleet_metadata(self):
        fleet = _two_speed_fleet()
        assert fleet.num_clusters == 3
        report = fleet.serve(constant_trace(10.0, 2))
        assert report.platform == "fast+slow"
        assert report.num_clusters == 3
        assert report.appliance_clusters == {"fast": 2, "slow": 1}

    def test_idle_fleet_prefers_the_faster_appliance(self):
        fleet = _two_speed_fleet()
        report = fleet.serve(constant_trace(10.0, 4))
        # With everything idle at each arrival, the greedy earliest-finish
        # balancer always picks a fast unit.
        assert {c.appliance for c in report.completed} == {"fast"}

    def test_overflow_spills_to_the_slower_appliance(self):
        fleet = _two_speed_fleet()
        # Three simultaneous arrivals: two on the fast clusters, the third
        # starts immediately on the slow appliance instead of queueing.
        report = fleet.serve(constant_trace(0.0, 3))
        by_appliance = sorted(c.appliance for c in report.completed)
        assert by_appliance == ["fast", "fast", "slow"]
        assert all(c.queueing_delay_s == pytest.approx(0.0) for c in report.completed)

    def test_fleet_beats_its_fast_member_alone_under_overload(self):
        trace = constant_trace(0.4, 30)
        alone = ApplianceServer(_FixedLatencyPlatform(1.0), 2, "fast").serve(trace)
        fleet = _two_speed_fleet().serve(trace)
        assert fleet.mean_queueing_delay_s < alone.mean_queueing_delay_s

    def test_fleet_conserves_requests_under_abandonment(self):
        fleet = _two_speed_fleet()
        trace = with_service_levels(
            poisson_trace(4.0, 20.0, seed=2), slo_s=6.0, patience_s=2.0
        )
        report = fleet.serve(trace)
        assert report.num_requests + report.num_abandoned == len(trace)
        assert report.num_abandoned > 0  # the load is far beyond capacity

    def test_per_appliance_utilization(self):
        fleet = _two_speed_fleet()
        report = fleet.serve(poisson_trace(2.0, 40.0, seed=8))
        utilization = report.utilization_by_appliance()
        assert set(utilization) == {"fast", "slow"}
        for value in utilization.values():
            assert 0.0 <= value <= 1.0
        # Aggregate utilization is the cluster-weighted mean of the parts.
        weighted = (2 * utilization["fast"] + 1 * utilization["slow"]) / 3
        assert report.utilization == pytest.approx(weighted)

    def test_deadline_drops_use_system_best_service_time(self):
        # The fast unit is busy and only the slow one is idle; infeasibility
        # must be judged against the *system's* best service time, so a
        # request the fast unit can still save is not spuriously dropped.
        fleet = ApplianceFleet(
            [
                FleetMember("fast", _FixedLatencyPlatform(1.0), num_clusters=1),
                FleetMember("slow", _FixedLatencyPlatform(10.0), num_clusters=1),
            ],
            scheduler="deadline",
        )
        workload = Workload(1, 1)
        trace = [
            # Occupies the fast unit for [0, 1]; generous SLO.
            ServiceRequest(0, 0.0, workload, slo_s=100.0),
            # Arrives at t=0.5 with slo 3 s (deadline t=3.5): the idle slow
            # unit needs 10 s, but the fast unit frees at t=1 and can finish
            # by t=2.  It must be kept, not dropped as infeasible.
            ServiceRequest(1, 0.5, workload, slo_s=3.0),
        ]
        report = fleet.serve(trace)
        assert report.num_abandoned == 0
        late = {c.request.request_id: c for c in report.completed}[1]
        assert late.appliance == "fast"
        assert late.slo_met

    def test_invalid_fleets_rejected(self):
        with pytest.raises(ConfigurationError):
            ApplianceFleet([])
        with pytest.raises(ConfigurationError):
            ApplianceFleet(
                [
                    FleetMember("dup", _FixedLatencyPlatform(1.0)),
                    FleetMember("dup", _FixedLatencyPlatform(2.0)),
                ]
            )
        with pytest.raises(ConfigurationError):
            FleetMember("bad", _FixedLatencyPlatform(1.0), num_clusters=0)
        with pytest.raises(ConfigurationError):
            FleetMember("", _FixedLatencyPlatform(1.0))


class TestCapacityPlanning:
    @staticmethod
    def _trace_builder(rate):
        return poisson_trace(rate, 60.0, seed=3)

    def test_capacity_increases_with_clusters(self):
        platform = _FixedLatencyPlatform(1.0)
        one = capacity_search(
            ApplianceServer(platform, 1), self._trace_builder, slo_s=2.0
        )
        two = capacity_search(
            ApplianceServer(platform, 2), self._trace_builder, slo_s=2.0
        )
        assert 0.0 < one.max_rate_per_s < two.max_rate_per_s
        # An M/M/1-ish queue with 1 s service saturates near 1 req/s.
        assert one.max_rate_per_s < 1.0
        assert one.report_at_capacity is not None
        assert one.report_at_capacity.response_time_percentile_s(95) <= 2.0

    def test_capacity_zero_when_slo_unmeetable(self):
        plan = capacity_search(
            ApplianceServer(_FixedLatencyPlatform(5.0), 1),
            self._trace_builder,
            slo_s=1.0,
        )
        assert plan.max_rate_per_s == 0.0
        assert plan.max_requests_per_hour == 0.0
        assert plan.report_at_capacity is None

    def test_capacity_caps_at_rate_bound_when_slo_always_holds(self):
        plan = capacity_search(
            ApplianceServer(_FixedLatencyPlatform(0.001), 1),
            self._trace_builder,
            slo_s=10.0,
            rate_bounds=(0.5, 4.0),
        )
        assert plan.max_rate_per_s == pytest.approx(4.0)

    def test_invalid_search_parameters(self):
        server = ApplianceServer(_FixedLatencyPlatform(1.0), 1)
        with pytest.raises(ConfigurationError):
            capacity_search(server, self._trace_builder, slo_s=0.0)
        with pytest.raises(ConfigurationError):
            capacity_search(
                server, self._trace_builder, slo_s=1.0, rate_bounds=(2.0, 1.0)
            )
        with pytest.raises(ConfigurationError):
            capacity_search(
                server, self._trace_builder, slo_s=1.0, relative_tolerance=0.0
            )

    def test_fleet_capacity_exceeds_single_member_capacity(self):
        # The SLO (6 s) is loose enough for the slow member (4 s service) to
        # contribute, so the fleet sustains more load than its fast half.
        fleet = _two_speed_fleet()
        fleet_plan = capacity_search(fleet, self._trace_builder, slo_s=6.0)
        fast_plan = capacity_search(
            ApplianceServer(_FixedLatencyPlatform(1.0), 2, "fast"),
            self._trace_builder,
            slo_s=6.0,
        )
        assert fleet_plan.max_rate_per_s > fast_plan.max_rate_per_s
        assert fleet_plan.platform == "fast+slow"
        assert fleet_plan.scheduler == "fifo"

    def test_member_slower_than_the_slo_hurts_fleet_capacity(self):
        # Under a 2 s SLO every request spilled to the 4 s appliance is a
        # guaranteed violation, so the greedy balancer makes the fleet
        # *worse* than the fast appliance alone — adding hardware that
        # cannot meet the SLO is not free capacity.
        fleet = _two_speed_fleet()
        fleet_plan = capacity_search(fleet, self._trace_builder, slo_s=2.0)
        fast_plan = capacity_search(
            ApplianceServer(_FixedLatencyPlatform(1.0), 2, "fast"),
            self._trace_builder,
            slo_s=2.0,
        )
        assert fleet_plan.max_rate_per_s < fast_plan.max_rate_per_s

    def test_abandonment_constraint_lowers_capacity(self):
        def impatient_builder(rate):
            return with_service_levels(
                poisson_trace(rate, 60.0, seed=3), patience_s=1.5
            )

        server = ApplianceServer(_FixedLatencyPlatform(1.0), 1)
        lax = capacity_search(
            server, impatient_builder, slo_s=3.0, max_abandonment_rate=0.5
        )
        strict = capacity_search(
            server, impatient_builder, slo_s=3.0, max_abandonment_rate=0.0
        )
        assert strict.max_rate_per_s <= lax.max_rate_per_s


def _one_cluster_double(**fields) -> ServingScenario:
    """One 1 s test-double cluster serving the comparison's historical
    default trace (the datacenter mix, seed 11)."""
    member = FleetMember("fixed", _FixedLatencyPlatform(1.0), num_clusters=1)
    fields = {"mix": DATACENTER_MIX, "seed": 11, **fields}
    return ServingScenario(members=(member,), **fields)


class TestAnalysisDrivers:
    def test_run_scheduler_comparison_on_test_double(self):
        scenario = _one_cluster_double(rate_per_s=1.5, duration_s=40.0)
        result = run_scheduler_comparison(scenario)
        assert set(result.reports) == {"fifo", "sjf", "priority", "deadline"}
        trace_length = len(scenario.trace())
        assert all(
            r.num_requests + r.num_abandoned == trace_length
            for r in result.reports.values()
        )
        assert result.best_policy_by_p95() in result.reports

    def test_best_policy_cannot_win_by_shedding_load(self):
        # Overload with a tight SLO: the deadline scheduler abandons most of
        # the trace as infeasible and shows a tiny p95 over its survivors.
        # The ranking must count abandoned requests as infinite response
        # time, so FIFO (which served everyone, however slowly) wins.
        trace = with_service_levels(poisson_trace(2.0, 60.0, seed=5), slo_s=2.0)
        result = run_scheduler_comparison(
            _one_cluster_double(requests=trace), policies=("fifo", "deadline")
        )
        deadline = result.reports["deadline"]
        assert deadline.abandonment_rate > 0.05
        assert deadline.response_time_percentile_s(95) < result.reports[
            "fifo"
        ].response_time_percentile_s(95)
        assert result.best_policy_by_p95() == "fifo"

    def test_best_policy_refuses_streaming_reports(self):
        # Regression: streaming reports keep no completed records, so every
        # policy used to rank with an infinite p95, silently leaving the
        # choice to the abandonment rate alone.
        result = run_scheduler_comparison(
            _one_cluster_double(rate_per_s=1.5, duration_s=40.0, streaming=True)
        )
        with pytest.raises(ConfigurationError, match="retain_records"):
            result.best_policy_by_p95()
