"""Regression tests for fault injection and degraded-mode serving.

The property suite checks invariants over random fault campaigns; the tests
here pin exact behaviors on hand-built scenarios: schedule compilation,
fail-stop and transient outages, member dropout, retry arithmetic and
budgets, degraded-mode shedding, link degradation, edge cases (empty
traces, every request failing, mid-flight batch kills), and the
``num_clusters=None`` capability-count default.
"""

import math

import pytest

from repro.backends import make_backend
from repro.errors import ConfigurationError
from repro.serving import (
    ABANDON_SHED,
    ApplianceFleet,
    ApplianceServer,
    ContinuousBatching,
    Degradation,
    DegradedModePolicy,
    DynamicBatching,
    FAIL_BUDGET,
    FAIL_RETRIES,
    FAIL_UNIT,
    FaultSchedule,
    FleetMember,
    NetworkLink,
    NetworkModel,
    Outage,
    RetryPolicy,
    ServiceRequest,
    replay_trace,
)
from repro.serving.faults import EVENT_DOWN, EVENT_UP, FaultProcess, merge_windows
from repro.workloads import Workload
from serving_doubles import FixedLatencyPlatform, BatchableTokenPlatform


def request(request_id, arrival_s, output_tokens=8, **kwargs):
    return ServiceRequest(
        request_id=request_id,
        arrival_time_s=arrival_s,
        workload=Workload(4, output_tokens),
        **kwargs,
    )


def make_server(latency_s=1.0, num_clusters=1, **kwargs):
    return ApplianceServer(
        FixedLatencyPlatform(latency_s),
        num_clusters=num_clusters,
        platform_name="fixed",
        **kwargs,
    )


# --------------------------------------------------------------- compilation
class TestFaultScheduleCompile:
    class _Unit:
        def __init__(self, unit_id, appliance="fixed"):
            self.unit_id = unit_id
            self.appliance = appliance

    def test_empty_schedule_compiles_to_no_events(self):
        compiled = FaultSchedule().compile([self._Unit(0), self._Unit(1)])
        assert compiled.events == ()
        assert compiled.downtime == {}
        assert FaultSchedule().empty

    def test_scripted_windows_merge_and_order(self):
        schedule = FaultSchedule.scripted(
            Outage(start_s=2.0, duration_s=3.0, unit_id=0),
            Outage(start_s=4.0, duration_s=4.0, unit_id=0),  # overlaps above
            Outage(start_s=20.0, unit_id=0),  # fail-stop
        )
        compiled = schedule.compile([self._Unit(0)])
        assert compiled.downtime == {0: ((2.0, 8.0), (20.0, math.inf))}
        kinds = [(e.time_s, e.kind) for e in compiled.events]
        # The merged transient window emits down+up; the fail-stop only down.
        assert kinds == [(2.0, EVENT_DOWN), (8.0, EVENT_UP), (20.0, EVENT_DOWN)]

    def test_member_outage_takes_every_unit_of_the_appliance(self):
        units = [self._Unit(0, "a"), self._Unit(1, "a"), self._Unit(2, "b")]
        schedule = FaultSchedule.scripted(
            Outage(start_s=1.0, duration_s=2.0, member="a")
        )
        compiled = schedule.compile(units)
        assert set(compiled.downtime) == {0, 1}
        assert compiled.downtime[0] == compiled.downtime[1] == ((1.0, 3.0),)

    def test_unknown_targets_are_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.scripted(
                Outage(start_s=0.0, duration_s=1.0, unit_id=9)
            ).compile([self._Unit(0)])
        with pytest.raises(ConfigurationError):
            FaultSchedule.scripted(
                Outage(start_s=0.0, duration_s=1.0, member="nope")
            ).compile([self._Unit(0)])

    def test_outage_needs_exactly_one_target(self):
        with pytest.raises(ConfigurationError):
            Outage(start_s=0.0, duration_s=1.0)
        with pytest.raises(ConfigurationError):
            Outage(start_s=0.0, duration_s=1.0, unit_id=0, member="a")

    def test_poisson_compilation_is_seed_deterministic(self):
        units = [self._Unit(0), self._Unit(1)]
        one = FaultSchedule.poisson(10.0, 5.0, 100.0, seed=3).compile(units)
        two = FaultSchedule.poisson(10.0, 5.0, 100.0, seed=3).compile(units)
        other = FaultSchedule.poisson(10.0, 5.0, 100.0, seed=4).compile(units)
        assert one == two
        assert one != other

    def test_failstop_process_stops_after_first_failure(self):
        windows = FaultProcess(
            mtbf_s=5.0, mttr_s=None, horizon_s=1000.0, seed=0
        ).draw_windows(0)
        assert len(windows) == 1
        assert windows[0][1] == math.inf

    def test_merge_windows_handles_touching_and_infinite(self):
        assert merge_windows([(0.0, 1.0), (1.0, 2.0), (5.0, math.inf)]) == [
            (0.0, 2.0),
            (5.0, math.inf),
        ]


# ----------------------------------------------------------------- outcomes
class TestFailuresAndRetries:
    def test_failstop_kills_inflight_request_without_retry(self):
        # One unit, one request of 10 s, crash at t=5: no policy => failed.
        server = make_server(
            latency_s=10.0,
            faults=FaultSchedule.scripted(Outage(start_s=5.0, unit_id=0)),
        )
        report = server.serve([request(0, 0.0)])
        assert len(report.completed) == 0
        assert report.num_failed == 1
        failure = report.failed[0]
        assert failure.reason == FAIL_UNIT
        assert failure.failed_time_s == pytest.approx(5.0)
        assert failure.attempts == 1
        assert report.goodput_fraction == 0.0
        assert report.failure_rate == 1.0

    def test_transient_outage_retries_and_completes(self):
        # Crash at 5, repair at 8; backoff 1 s after the kill => restart at
        # max(6, 8) = 8, finish at 18, exactly one retry.
        server = make_server(
            latency_s=10.0,
            faults=FaultSchedule.scripted(
                Outage(start_s=5.0, duration_s=3.0, unit_id=0)
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=1.0),
        )
        report = server.serve([request(0, 0.0)])
        assert report.num_failed == 0
        assert len(report.completed) == 1
        completed = report.completed[0]
        assert completed.attempts == 2
        assert completed.start_time_s == pytest.approx(8.0)
        assert completed.finish_time_s == pytest.approx(18.0)
        assert report.num_retries == 1
        assert report.failover_delays_s == pytest.approx([3.0])
        assert report.mean_failover_delay_s == pytest.approx(3.0)

    def test_retries_exhausted_records_failure(self):
        # Every dispatch dies: 2 s outages every 1 s of uptime around a 10 s
        # request; max_attempts=2 => one retry then FAIL_RETRIES.
        server = make_server(
            latency_s=10.0,
            faults=FaultSchedule.scripted(
                Outage(start_s=1.0, duration_s=2.0, unit_id=0),
                Outage(start_s=4.0, duration_s=2.0, unit_id=0),
            ),
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
        report = server.serve([request(0, 0.0)])
        assert report.num_failed == 1
        assert report.failed[0].reason == FAIL_RETRIES
        assert report.failed[0].attempts == 2
        assert report.num_retries == 1

    def test_retry_budget_exhaustion(self):
        # Two requests killed at t=1 on two clusters, budget of 1 retry:
        # the first kill spends it, the second fails with FAIL_BUDGET.
        server = make_server(
            latency_s=10.0,
            num_clusters=2,
            faults=FaultSchedule.scripted(
                Outage(start_s=1.0, unit_id=0),
                Outage(start_s=1.0, unit_id=1),
            ),
            retry_policy=RetryPolicy(
                max_attempts=5, backoff_s=0.0, retry_budget=1
            ),
        )
        report = server.serve([request(0, 0.0), request(1, 0.0)])
        reasons = sorted(f.reason for f in report.failed)
        # Both eventually fail (no unit ever repairs): one burned the budget
        # first and died on its next kill, the other died immediately.
        assert FAIL_BUDGET in reasons
        assert report.num_retries == 1

    def test_non_retryable_request_fails_immediately(self):
        server = make_server(
            latency_s=10.0,
            faults=FaultSchedule.scripted(Outage(start_s=5.0, unit_id=0)),
            retry_policy=RetryPolicy(max_attempts=5),
        )
        report = server.serve([request(0, 0.0, retryable=False)])
        assert report.num_failed == 1
        assert report.failed[0].reason == FAIL_UNIT
        assert report.num_retries == 0

    def test_backoff_arithmetic(self):
        policy = RetryPolicy(backoff_s=0.5, backoff_multiplier=3.0)
        assert policy.delay_s(1) == pytest.approx(0.5)
        assert policy.delay_s(2) == pytest.approx(1.5)
        assert policy.delay_s(3) == pytest.approx(4.5)
        with pytest.raises(ConfigurationError):
            policy.delay_s(0)

    def test_dispatch_avoids_down_units(self):
        # Unit 0 is down for the whole trace: everything lands on unit 1.
        server = make_server(
            latency_s=1.0,
            num_clusters=2,
            faults=FaultSchedule.scripted(Outage(start_s=0.0, unit_id=0)),
        )
        report = server.serve([request(i, float(i)) for i in range(5)])
        assert len(report.completed) == 5
        assert {c.cluster_id for c in report.completed} == {1}

    def test_member_dropout_and_rejoin_in_a_fleet(self):
        # The "fast" member drops 2..4 s; arrivals in that window queue or
        # run on the slow member, and traffic returns after the rejoin.
        fleet = ApplianceFleet(
            [
                FleetMember("fast", FixedLatencyPlatform(0.1), num_clusters=2),
                FleetMember("slow", FixedLatencyPlatform(5.0), num_clusters=1),
            ],
            faults=FaultSchedule.scripted(
                Outage(start_s=2.0, duration_s=2.0, member="fast")
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.0),
        )
        trace = [request(i, 0.5 * i) for i in range(12)]
        report = fleet.serve(trace)
        assert report.num_failed == 0
        assert len(report.completed) == 12
        down_units = {
            uid for uid, windows in report.unit_downtime.items() if windows
        }
        assert down_units == {0, 1}  # both "fast" clusters, together
        for completed in report.completed:
            if completed.appliance == "fast":
                assert not 2.0 < completed.start_time_s < 4.0


# ------------------------------------------------------------- backoff cap
class TestBackoffCap:
    def test_cap_clamps_the_exponential(self):
        policy = RetryPolicy(
            backoff_s=0.5, backoff_multiplier=3.0, max_backoff_s=2.0
        )
        assert policy.delay_s(1) == pytest.approx(0.5)
        assert policy.delay_s(2) == pytest.approx(1.5)
        assert policy.delay_s(3) == 2.0
        assert policy.delay_s(50) == 2.0

    def test_hundred_failure_campaign_stays_finite_and_bounded(self):
        # The regression: before the cap, a long campaign of kills pushed
        # the retry instant astronomically past the trace (the 100th delay
        # of a doubling backoff is ~6e28 seconds).
        policy = RetryPolicy(
            max_attempts=101,
            backoff_s=0.1,
            backoff_multiplier=2.0,
            max_backoff_s=30.0,
        )
        delays = [policy.delay_s(failures) for failures in range(1, 101)]
        assert all(math.isfinite(d) and 0.0 < d <= 30.0 for d in delays)
        assert delays == sorted(delays)  # clamping keeps monotonicity
        uncapped = RetryPolicy(
            max_attempts=101, backoff_s=0.1, backoff_multiplier=2.0
        )
        assert uncapped.delay_s(100) > 1e28

    def test_cap_tames_an_overflowing_exponent(self):
        # Exponents large enough to overflow the float product still clamp
        # to the finite cap; uncapped they saturate to infinity instead of
        # raising mid-simulation.
        policy = RetryPolicy(
            backoff_s=0.1, backoff_multiplier=10.0, max_backoff_s=60.0
        )
        assert policy.delay_s(5000) == 60.0
        uncapped = RetryPolicy(backoff_s=0.1, backoff_multiplier=10.0)
        assert math.isinf(uncapped.delay_s(5000))

    def test_zero_backoff_retries_at_once_whatever_the_multiplier(self):
        policy = RetryPolicy(backoff_s=0.0, backoff_multiplier=1e300)
        assert policy.delay_s(3) == 0.0
        assert policy.delay_s(5000) == 0.0

    @pytest.mark.parametrize("retry_budget", [None, 2])
    def test_overflowing_backoff_fails_the_request(self, retry_budget):
        # The third kill's delay, 1e-300 * 1e300**2, overflows to infinity:
        # the request fails as retries-exhausted instead of pushing an
        # infinite retry instant into the event loop, and before the budget
        # (2, spent by the first two kills) is consulted.
        server = make_server(
            latency_s=0.1,
            faults=FaultSchedule.scripted(
                Outage(start_s=0.01, duration_s=0.005, unit_id=0),
                Outage(start_s=0.03, duration_s=0.005, unit_id=0),
                Outage(start_s=1.04, duration_s=0.005, unit_id=0),
            ),
            retry_policy=RetryPolicy(
                max_attempts=5,
                backoff_s=1e-300,
                backoff_multiplier=1e300,
                retry_budget=retry_budget,
            ),
        )
        report = server.serve([request(0, 0.0)])
        assert len(report.completed) == 0
        assert report.num_retries == 2
        (failure,) = report.failed
        assert failure.reason == FAIL_RETRIES
        assert failure.attempts == 3
        assert failure.failed_time_s == 1.04

    def test_huge_finite_backoff_retries_at_that_instant(self):
        # Only an instant past the float range fails the request: one far
        # beyond the trace still comes due, and the retry runs then.
        server = make_server(
            latency_s=1.0,
            faults=FaultSchedule.scripted(
                Outage(start_s=0.25, duration_s=0.125, unit_id=0)
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=1e300),
        )
        report = server.serve([request(0, 0.0)])
        assert report.num_failed == 0
        assert report.num_retries == 1
        (completion,) = report.completed
        assert completion.start_time_s == 0.25 + 1e300

    def test_default_is_uncapped_and_unchanged(self):
        assert RetryPolicy().max_backoff_s is None
        policy = RetryPolicy(backoff_s=0.5, backoff_multiplier=3.0)
        assert policy.delay_s(3) == pytest.approx(4.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_backoff_s=-1.0)

    def test_capped_retries_recover_sooner_end_to_end(self):
        # Four kills in a row: the uncapped 8x backoff parks the request
        # ~64 s out after the third kill, the capped policy retries within
        # 2 s of every kill and finishes two outages earlier.
        def run(max_backoff_s):
            server = make_server(
                latency_s=10.0,
                faults=FaultSchedule.scripted(
                    Outage(start_s=1.0, duration_s=1.0, unit_id=0),
                    Outage(start_s=11.0, duration_s=1.0, unit_id=0),
                    Outage(start_s=21.0, duration_s=1.0, unit_id=0),
                    Outage(start_s=31.0, duration_s=1.0, unit_id=0),
                ),
                retry_policy=RetryPolicy(
                    max_attempts=10,
                    backoff_s=1.0,
                    backoff_multiplier=8.0,
                    max_backoff_s=max_backoff_s,
                ),
            )
            report = server.serve([request(0, 0.0)])
            assert len(report.completed) == 1
            return report.completed[0]

        capped, uncapped = run(2.0), run(None)
        assert capped.finish_time_s < uncapped.finish_time_s
        assert capped.attempts >= uncapped.attempts


# ----------------------------------------------------------- degraded mode
class TestDegradedMode:
    def test_shedding_drops_low_priority_while_down(self):
        # Unit down 1..10 on a 1-unit server: priority-2 arrivals in the
        # window are shed, priority-0 waits and completes after repair.
        server = make_server(
            latency_s=1.0,
            faults=FaultSchedule.scripted(
                Outage(start_s=1.0, duration_s=9.0, unit_id=0)
            ),
            degraded_mode=DegradedModePolicy(shed_priority_above=1),
        )
        trace = [
            request(0, 2.0, priority=2),
            request(1, 3.0, priority=0),
        ]
        report = server.serve(trace)
        shed = [a for a in report.abandoned if a.reason == ABANDON_SHED]
        assert [a.request.request_id for a in shed] == [0]
        assert shed[0].abandoned_time_s == pytest.approx(2.0)
        assert [c.request.request_id for c in report.completed] == [1]
        assert report.completed[0].start_time_s == pytest.approx(10.0)

    def test_shedding_by_service_class(self):
        server = make_server(
            latency_s=1.0,
            faults=FaultSchedule.scripted(
                Outage(start_s=0.0, duration_s=5.0, unit_id=0)
            ),
            degraded_mode=DegradedModePolicy(shed_classes=("batchy",)),
        )
        trace = [
            request(0, 1.0, service_class="batchy"),
            request(1, 1.0, service_class="chat"),
        ]
        report = server.serve(trace)
        assert [a.reason for a in report.abandoned] == [ABANDON_SHED]
        assert report.abandoned[0].request.service_class == "batchy"
        assert [c.request.request_id for c in report.completed] == [1]

    def test_no_shedding_at_full_capacity(self):
        server = make_server(
            latency_s=1.0,
            degraded_mode=DegradedModePolicy(shed_priority_above=0),
        )
        report = server.serve([request(0, 0.0, priority=5)])
        assert len(report.completed) == 1
        assert not report.abandoned

    def test_policy_requires_a_shed_criterion(self):
        with pytest.raises(ConfigurationError):
            DegradedModePolicy()


# -------------------------------------------------------- link degradation
class TestLinkDegradation:
    def test_degradation_scales_service_time_in_window(self):
        # 1 s service; a 3x degradation over 10..20 makes a request priced
        # inside the window take 3 s.
        server = make_server(
            latency_s=1.0,
            faults=FaultSchedule.scripted(
                Degradation(start_s=10.0, duration_s=10.0, slowdown=3.0, unit_id=0)
            ),
        )
        report = server.serve([request(0, 0.0), request(1, 12.0)])
        by_id = {c.request.request_id: c for c in report.completed}
        assert by_id[0].finish_time_s - by_id[0].start_time_s == pytest.approx(1.0)
        assert by_id[1].finish_time_s - by_id[1].start_time_s == pytest.approx(3.0)
        # Degradation is not downtime: availability stays perfect.
        assert report.availability == 1.0
        assert report.unit_downtime == {}

    def test_overlapping_degradations_stack(self):
        server = make_server(
            latency_s=1.0,
            faults=FaultSchedule.scripted(
                Degradation(start_s=0.0, duration_s=50.0, slowdown=2.0, unit_id=0),
                Degradation(start_s=0.0, duration_s=50.0, slowdown=3.0, unit_id=0),
            ),
        )
        report = server.serve([request(0, 1.0)])
        completed = report.completed[0]
        assert completed.finish_time_s - completed.start_time_s == pytest.approx(6.0)


# ----------------------------------------------------------------- edges
class TestFaultEdgeCases:
    def test_empty_trace_with_faults(self):
        server = make_server(
            faults=FaultSchedule.scripted(
                Outage(start_s=1.0, duration_s=5.0, unit_id=0)
            )
        )
        report = server.serve([])
        assert report.num_offered == 0
        assert report.goodput_fraction == 1.0
        assert report.availability == 1.0  # no busy window to be down in
        assert report.unit_downtime == {0: ((1.0, 6.0),)}

    def test_all_requests_failed(self):
        # Fail-stop before anything can finish: zero completions, so the
        # busy window is empty and availability degenerates to 1.0 while
        # goodput drops to 0.
        server = make_server(
            latency_s=100.0,
            faults=FaultSchedule.scripted(Outage(start_s=1.0, unit_id=0)),
        )
        report = server.serve([request(i, 0.0) for i in range(3)])
        assert len(report.completed) == 0
        assert report.num_failed + report.num_abandoned == 3
        assert report.num_failed >= 1
        assert report.makespan_s == 0.0
        assert report.availability == 1.0
        assert report.goodput_fraction == 0.0
        assert report.mean_response_time_s == 0.0

    def test_fault_mid_flight_continuous_batch_repriced(self):
        # Two decode streams in flight under repricing when the unit dies:
        # both are killed, retried after repair, and complete exactly once.
        server = ApplianceServer(
            BatchableTokenPlatform(
                fixed_ms_per_token=500.0, marginal_ms_per_token=100.0
            ),
            num_clusters=1,
            platform_name="batchy",
            batch_policy=ContinuousBatching(4),
            max_batch_size=4,
            faults=FaultSchedule.scripted(
                Outage(start_s=2.0, duration_s=3.0, unit_id=0)
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.0),
        )
        trace = [request(0, 0.0, output_tokens=10), request(1, 0.5, output_tokens=10)]
        report = server.serve(trace)
        assert report.num_failed == 0
        assert sorted(c.request.request_id for c in report.completed) == [0, 1]
        assert all(c.attempts == 2 for c in report.completed)
        assert report.num_retries == 2
        for completed in report.completed:
            assert completed.start_time_s >= 5.0  # nothing completes from downtime
        # Killed-stream energy for the pre-crash segment stays accounted.
        assert report.total_energy_joules > 0.0

    def test_seeded_campaign_reproduces_identical_numbers(self):
        def run():
            server = make_server(
                latency_s=2.0,
                num_clusters=2,
                faults=FaultSchedule.poisson(8.0, 4.0, 60.0, seed=11),
                retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.1),
            )
            return server.serve([request(i, 0.7 * i) for i in range(40)])

        first, second = run(), run()
        assert first == second
        assert first.availability == second.availability
        assert first.goodput_fraction == second.goodput_fraction


# -------------------------------------------------- same-instant event order
class TestSameInstantOrder:
    """The loop's order for events at one instant: completions, then faults,
    then retries, then arrivals; flush deadlines yield to all of them."""

    def test_dispatch_finishing_as_its_unit_goes_down_completes(self):
        server = make_server(
            latency_s=1.0,
            faults=FaultSchedule.scripted(Outage(start_s=1.0, unit_id=0)),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        report = server.serve([request(0, 0.0)])
        assert len(report.completed) == 1
        assert report.completed[0].finish_time_s == 1.0
        assert report.num_failed == 0
        assert report.num_retries == 0

    def test_arrival_as_a_unit_goes_down_sees_the_reduced_capacity(self):
        # Both units idle: unit 0 would win the tie if it were still up.
        server = make_server(
            latency_s=1.0,
            num_clusters=2,
            faults=FaultSchedule.scripted(Outage(start_s=0.5, unit_id=0)),
        )
        report = server.serve([request(0, 0.5)])
        assert [c.cluster_id for c in report.completed] == [1]

    def test_retry_due_as_a_unit_goes_down_sees_the_reduced_capacity(self):
        # Killed on unit 0 at 0.25, the request is due back at 0.25 + 0.25,
        # the instant unit 1 goes down for good.  Unit 1 would win the pick
        # if it were still up (unit 0 keeps its killed dispatch's free-at
        # time, 1.0): the request restarts on the repaired unit 0 instead
        # of starting on unit 1 and dying there.
        server = make_server(
            latency_s=1.0,
            num_clusters=2,
            faults=FaultSchedule.scripted(
                Outage(start_s=0.25, duration_s=0.125, unit_id=0),
                Outage(start_s=0.5, unit_id=1),
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.25),
        )
        report = server.serve([request(0, 0.0)])
        assert [(c.cluster_id, c.start_time_s) for c in report.completed] == [(0, 0.5)]
        assert report.num_retries == 1
        assert report.num_failed == 0

    def test_retry_due_as_a_request_arrives_queues_first(self):
        # Request 0, killed at 0.25, is due back at 0.5, the instant request
        # 1 arrives; the one FIFO unit serves them in that order.
        server = make_server(
            latency_s=1.0,
            faults=FaultSchedule.scripted(
                Outage(start_s=0.25, duration_s=0.125, unit_id=0)
            ),
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.25),
        )
        report = server.serve([request(0, 0.0), request(1, 0.5)])
        starts = {c.request.request_id: c.start_time_s for c in report.completed}
        assert starts == {0: 0.5, 1: 1.5}
        assert report.num_retries == 1

    def test_arrival_at_a_flush_deadline_joins_the_held_batch(self):
        # Request 0 is held 0.5 s for company; request 1 arrives at that
        # deadline and leaves with it in one batch of 2.
        server = ApplianceServer(
            BatchableTokenPlatform(),
            num_clusters=1,
            platform_name="batchy",
            batch_policy=DynamicBatching(4, timeout_s=0.5),
            max_batch_size=4,
        )
        report = server.serve([request(0, 0.0), request(1, 0.5)])
        assert report.batch_size_distribution() == {2: 1}
        assert [c.start_time_s for c in report.completed] == [0.5, 0.5]


#: Builders of one setting each, keyed by how its error message names it.
NON_FINITE_BUILDERS = {
    "outage start_s": lambda x: Outage(start_s=x, unit_id=0),
    "outage duration_s": lambda x: Outage(start_s=1.0, duration_s=x, unit_id=0),
    "degradation start_s": lambda x: Degradation(
        start_s=x, duration_s=1.0, slowdown=2.0, unit_id=0
    ),
    "degradation duration_s": lambda x: Degradation(
        start_s=1.0, duration_s=x, slowdown=2.0, unit_id=0
    ),
    "slowdown": lambda x: Degradation(
        start_s=1.0, duration_s=1.0, slowdown=x, unit_id=0
    ),
    "mtbf_s": lambda x: FaultSchedule.poisson(x, 5.0, 30.0),
    "mttr_s": lambda x: FaultSchedule.poisson(10.0, x, 30.0),
    "horizon_s": lambda x: FaultSchedule.poisson(10.0, 5.0, x),
    "backoff_s": lambda x: RetryPolicy(backoff_s=x),
    "backoff_multiplier": lambda x: RetryPolicy(backoff_multiplier=x),
    "max_backoff_s": lambda x: RetryPolicy(max_backoff_s=x),
    "link latency_s": lambda x: NetworkLink(latency_s=x),
    "link bandwidth_bytes_per_s": lambda x: NetworkLink(bandwidth_bytes_per_s=x),
    "bytes_per_token": lambda x: NetworkModel.star(
        {"rack0": ("a",)}, bytes_per_token=x
    ),
}


class TestNonFiniteSettings:
    """Fault, retry and link settings reject NaN and infinity when built.

    Each used to pass its ``x < 0`` / ``x <= 0`` check and then fail deep in
    the event loop (an ``IndexError`` from the calendar queue), hang it (an
    infinite fault horizon), or serve silently wrong numbers (a NaN
    slowdown, a NaN MTBF that never fails).
    """

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", list(NON_FINITE_BUILDERS))
    def test_rejected_at_build_naming_the_field(self, field, bad):
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
            NON_FINITE_BUILDERS[field](bad)


# -------------------------------------------------- capability unit counts
class TestUnitCountDefaults:
    def test_dfx_4u_preset_has_two_units(self):
        backend = make_backend("dfx-4u")
        assert backend.capabilities().num_units == 2

    def test_server_defaults_num_clusters_from_capabilities(self):
        server = ApplianceServer(make_backend("dfx-4u", config="test-tiny"))
        assert server.num_clusters == 2
        report = server.serve([request(0, 0.0)])
        assert report.num_clusters == 2

    def test_explicit_num_clusters_still_wins(self):
        server = ApplianceServer(
            make_backend("dfx-4u", config="test-tiny"), num_clusters=3
        )
        assert server.num_clusters == 3

    def test_fleet_member_defaults_from_capabilities(self):
        fleet = ApplianceFleet(
            [
                FleetMember("4u", make_backend("dfx-4u", config="test-tiny")),
                FleetMember("solo", FixedLatencyPlatform(1.0)),
            ]
        )
        assert fleet.clusters_for("4u") == 2
        assert fleet.clusters_for("solo") == 1
        assert fleet.num_clusters == 3


# ------------------------------------------------------------- trace replay
class TestReplayRetryable:
    def test_replay_parses_retryable_column(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "request_id,arrival_time_s,input_tokens,output_tokens,retryable\n"
            "0,0.0,4,8,false\n"
            "1,1.0,4,8,true\n"
            "2,2.0,4,8,\n"
        )
        trace = replay_trace(path)
        assert [r.retryable for r in trace] == [False, True, True]

    def test_replay_rejects_bad_retryable(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "request_id,arrival_time_s,input_tokens,output_tokens,retryable\n"
            "0,0.0,4,8,maybe\n"
        )
        with pytest.raises(Exception):
            replay_trace(path)
