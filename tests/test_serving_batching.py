"""Tests for the batch-formation layer of the serving simulator."""

import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    ApplianceFleet,
    ApplianceServer,
    BATCH_POLICIES,
    BackendBatchCostModel,
    ContinuousBatching,
    DynamicBatching,
    FleetMember,
    LatencyOracle,
    NoBatching,
    ServerUnit,
    ServiceRequest,
    constant_trace,
    dominant_workload,
    make_batch_policy,
    poisson_trace,
    simulate,
)
from repro.serving.schedulers import (
    FIFOScheduler,
    SchedulingPolicy,
    make_scheduler,
)
from repro.workloads import Workload
from serving_doubles import (
    BatchableTokenPlatform as _BatchableTokenPlatform,
    FixedLatencyPlatform as _FixedLatencyPlatform,
)


class TestPolicyRegistry:
    def test_registry_names(self):
        assert set(BATCH_POLICIES) == {"none", "dynamic", "continuous"}

    def test_make_batch_policy_resolution(self):
        assert isinstance(make_batch_policy(None), NoBatching)
        assert isinstance(make_batch_policy("none"), NoBatching)
        assert isinstance(make_batch_policy("dynamic"), DynamicBatching)
        policy = DynamicBatching(4, 1.0)
        assert make_batch_policy(policy) is policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_batch_policy("static")
        with pytest.raises(ConfigurationError):
            make_batch_policy(42)

    def test_invalid_policy_parameters(self):
        with pytest.raises(ConfigurationError):
            DynamicBatching(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            DynamicBatching(timeout_s=-1.0)
        with pytest.raises(ConfigurationError):
            ContinuousBatching(max_batch_size=0)

    def test_capacity_is_min_of_policy_and_unit(self):
        policy = DynamicBatching(max_batch_size=8)
        assert policy.capacity(4) == 4
        assert policy.capacity(16) == 8
        assert policy.capacity(1) == 1


class TestBatchCostModel:
    def test_dominant_workload(self):
        shape = dominant_workload([Workload(10, 5), Workload(2, 50)])
        assert shape == Workload(10, 50)
        with pytest.raises(ConfigurationError):
            dominant_workload([])

    def test_requires_the_gpu_batching_interface(self):
        with pytest.raises(ConfigurationError):
            BackendBatchCostModel(_FixedLatencyPlatform(1.0))

    def test_batch_priced_at_dominant_shape(self):
        platform = _BatchableTokenPlatform(fixed_ms_per_token=100.0,
                                           marginal_ms_per_token=10.0)
        costs = BackendBatchCostModel(platform)
        workloads = [Workload(1, 10), Workload(1, 4)]
        expected_ms = platform.batched_request_latency_ms(Workload(1, 10), 2)
        assert costs.batch_latency_s(workloads) == pytest.approx(expected_ms / 1e3)

    def test_batch_energy_is_power_times_batch_wall_clock(self):
        # The appliance draws its full power for the batch's own wall
        # clock (the estimate the simulator pairs this call with).
        platform = _BatchableTokenPlatform(power_watts=50.0)
        costs = BackendBatchCostModel(platform)
        workloads = [Workload(1, 10), Workload(1, 4)]
        latency_s = costs.batch_latency_s(workloads)
        assert costs.batch_energy_joules(workloads, latency_s) == pytest.approx(
            50.0 * latency_s
        )

    def test_continuous_energy_shared_by_concurrency(self):
        platform = _BatchableTokenPlatform(power_watts=50.0)
        costs = BackendBatchCostModel(platform)
        alone = costs.continuous_energy_joules(Workload(1, 10), 1, 2.0)
        shared = costs.continuous_energy_joules(Workload(1, 10), 4, 2.0)
        assert shared == pytest.approx(alone / 4)


def _batched_server(max_batch_size=4, timeout_s=10.0, num_clusters=1,
                    platform=None, policy=None):
    platform = platform or _BatchableTokenPlatform(
        fixed_ms_per_token=1000.0, marginal_ms_per_token=100.0
    )
    return ApplianceServer(
        platform,
        num_clusters,
        "batchable",
        batch_policy=policy or DynamicBatching(max_batch_size, timeout_s),
        max_batch_size=max_batch_size,
    )


class TestDynamicBatching:
    def test_size_trigger_forms_full_batches(self):
        # 8 simultaneous arrivals, batch capacity 4, generous timeout: two
        # full batches dispatch back to back without waiting for the timer.
        report = _batched_server(max_batch_size=4, timeout_s=100.0).serve(
            constant_trace(0.0, 8, Workload(1, 1))
        )
        assert report.num_requests == 8
        assert report.batch_policy == "dynamic"
        assert report.batch_size_distribution() == {4: 2}
        assert report.num_batches == 2
        assert report.mean_batch_size == pytest.approx(4.0)
        # Members of one batch start and finish together.
        for dispatch in report.iter_dispatches():
            members = [c for c in report.completed if c.batch_id == dispatch.batch_id]
            assert len(members) == 4
            assert len({m.start_time_s for m in members}) == 1
            assert len({m.finish_time_s for m in members}) == 1

    def test_timeout_trigger_flushes_partial_batch(self):
        # Two arrivals then silence: nothing fills the batch, so the flush
        # timer must wake the loop and dispatch a partial batch at
        # first-arrival + timeout even with no further events.
        trace = [
            ServiceRequest(0, 0.0, Workload(1, 1)),
            ServiceRequest(1, 0.3, Workload(1, 1)),
        ]
        report = _batched_server(max_batch_size=4, timeout_s=2.0).serve(trace)
        assert report.num_requests == 2
        assert report.batch_size_distribution() == {2: 1}
        starts = {c.request.request_id: c.start_time_s for c in report.completed}
        assert starts[0] == pytest.approx(2.0)
        assert starts[1] == pytest.approx(2.0)
        assert report.mean_batch_gather_delay_s == pytest.approx(2.0)
        assert report.batch_gather_delay_percentile_s(50) == pytest.approx(2.0)
        # The per-batch array is a fresh copy: editing it leaves the
        # report's statistics alone.
        delays = report.batch_gather_delays_s()
        delays[:] = 0.0
        assert report.batch_gather_delays_s().tolist() == pytest.approx([2.0])
        assert report.mean_batch_gather_delay_s == pytest.approx(2.0)

    def test_zero_timeout_is_greedy_batching(self):
        # timeout 0 never holds: the first request dispatches alone, and the
        # three requests that queue behind it leave as one batch.
        trace = constant_trace(0.1, 4, Workload(1, 1))
        report = _batched_server(max_batch_size=4, timeout_s=0.0).serve(trace)
        assert report.num_requests == 4
        assert report.batch_size_distribution() == {1: 1, 3: 1}

    def test_batch_members_slow_each_other_down(self):
        # A gathered batch runs at the dominant shape and batched rate, so a
        # batched request is slower than it would be alone — the latency
        # price of batching.
        platform = _BatchableTokenPlatform(fixed_ms_per_token=1000.0,
                                           marginal_ms_per_token=100.0)
        alone = ApplianceServer(platform, 1, "batchable").serve(
            [ServiceRequest(0, 0.0, Workload(1, 1))]
        )
        batched = _batched_server(max_batch_size=2, timeout_s=100.0,
                                  platform=platform).serve(
            [ServiceRequest(0, 0.0, Workload(1, 1)),
             ServiceRequest(1, 0.0, Workload(1, 1))]
        )
        assert batched.completed[0].service_time_s > alone.completed[0].service_time_s
        # ...but the batch of 2 finishes earlier than 2 serial requests.
        assert batched.makespan_s < 2 * alone.completed[0].service_time_s

    def test_batching_raises_throughput_under_backlog(self):
        platform = _BatchableTokenPlatform(fixed_ms_per_token=1000.0,
                                           marginal_ms_per_token=50.0)
        trace = constant_trace(0.0, 16, Workload(1, 2))
        unbatched = ApplianceServer(platform, 1, "batchable").serve(trace)
        batched = _batched_server(max_batch_size=8, timeout_s=0.0,
                                  platform=platform).serve(trace)
        assert (
            batched.output_tokens_per_second
            > 2 * unbatched.output_tokens_per_second
        )

    def test_utilization_counts_each_batch_once(self):
        report = _batched_server(max_batch_size=4, timeout_s=100.0).serve(
            constant_trace(0.0, 4, Workload(1, 1))
        )
        # One batch spans the whole busy window: utilization is exactly 1,
        # not 4 (the old per-request sum would overcount members).
        assert report.utilization == pytest.approx(1.0)
        assert report.utilization_by_appliance()["batchable"] == pytest.approx(1.0)


class TestContinuousBatching:
    def test_requests_admitted_immediately_into_slots(self):
        report = _batched_server(
            max_batch_size=4, policy=ContinuousBatching(4)
        ).serve(constant_trace(0.0, 4, Workload(1, 1)))
        assert report.batch_policy == "continuous"
        assert report.num_requests == 4
        # No gather wait: every request starts at its arrival.
        assert all(c.queueing_delay_s == pytest.approx(0.0) for c in report.completed)
        # Recorded batch sizes are the decode occupancy at admission.
        assert report.batch_size_distribution() == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_slots_never_exceed_max_batch_size(self):
        report = _batched_server(
            max_batch_size=2, policy=ContinuousBatching(2)
        ).serve(constant_trace(0.0, 3, Workload(1, 1)))
        # The third request must wait for a slot.
        waits = sorted(c.queueing_delay_s for c in report.completed)
        assert waits[0] == waits[1] == pytest.approx(0.0)
        assert waits[2] > 0.0


class TestContinuousRepricing:
    """Default continuous mode re-prices in-flight decode streams whenever
    the unit's occupancy changes (the fix for the admission-time-only
    approximation the old docstring disclaimed)."""

    # _BatchableTokenPlatform service time for Workload(1, n) at
    # concurrency L: n * (1.0 + (L - 1) * 0.1) seconds.

    def test_new_admission_slows_inflight_stream(self):
        report = _batched_server(
            max_batch_size=2, policy=ContinuousBatching(2)
        ).serve(constant_trace(0.0, 2, Workload(1, 1)))
        by_id = {c.request.request_id: c for c in report.completed}
        # Request 0 is admitted alone, but request 1 lands at the same
        # instant: both streams decode the whole way at concurrency 2.
        assert by_id[0].service_time_s == pytest.approx(1.1)
        assert by_id[1].service_time_s == pytest.approx(1.1)
        # Recorded batch sizes stay the occupancy at admission.
        assert report.batch_size_distribution() == {1: 1, 2: 1}

    def test_departure_speeds_up_the_survivor(self):
        # Request 0 (1 token) decodes alone for 0.5 s, shares the unit
        # until it finishes, then request 1 (2 tokens) speeds back up:
        #   req0: 0.5 s alone (half done) + 0.5 * 1.1 shared = 1.05 s
        #   req1: 0.55 of 2.2 shared (quarter done) + 0.75 * 2.0 alone
        #         -> finishes at 1.05 + 1.5 = 2.55, service 2.05 s
        # Admission-time pricing would have charged request 1 the full
        # 2.2 s as if the neighbour never left.
        trace = [
            ServiceRequest(0, 0.0, Workload(1, 1)),
            ServiceRequest(1, 0.5, Workload(1, 2)),
        ]
        report = _batched_server(
            max_batch_size=2, policy=ContinuousBatching(2)
        ).serve(trace)
        by_id = {c.request.request_id: c for c in report.completed}
        assert by_id[0].service_time_s == pytest.approx(1.05)
        assert by_id[1].service_time_s == pytest.approx(2.05)
        assert by_id[1].service_time_s < 2.2  # faster than never re-pricing

    def test_records_keep_dispatch_order_and_admission_start(self):
        trace = [
            ServiceRequest(0, 0.0, Workload(1, 4)),
            ServiceRequest(1, 0.1, Workload(1, 1)),
        ]
        report = _batched_server(
            max_batch_size=2, policy=ContinuousBatching(2)
        ).serve(trace)
        # The short request finishes first but the completed list stays in
        # dispatch order (the provisional record is sealed in place).
        assert [c.request.request_id for c in report.completed] == [0, 1]
        assert report.completed[0].finish_time_s > report.completed[1].finish_time_s
        assert report.completed[0].start_time_s == pytest.approx(0.0)
        assert report.completed[1].start_time_s == pytest.approx(0.1)

    def test_energy_integrates_to_power_times_busy_time(self):
        # Per-segment billing (1/concurrency of the draw while that
        # concurrency held) must integrate to appliance power x busy time
        # while the unit continuously decodes.
        platform = _BatchableTokenPlatform(
            fixed_ms_per_token=1000.0, marginal_ms_per_token=100.0,
            power_watts=50.0,
        )
        report = _batched_server(
            max_batch_size=2, policy=ContinuousBatching(2), platform=platform
        ).serve(constant_trace(0.0, 2, Workload(1, 1)))
        assert report.makespan_s == pytest.approx(1.1)
        assert report.total_energy_joules == pytest.approx(50.0 * 1.1)


class TestHoldWithoutTimer:
    def test_size_only_policy_without_flush_terminates(self):
        # Regression: the base flush_at must mean "never" — a minimal
        # subclass that only implements ready() (holds until the batch
        # fills) must not hang the event loop; the never-filled batch is
        # accounted as unserved at end of trace.
        class SizeOnly(DynamicBatching):
            name = "size-only"

            def ready(self, now, oldest_arrival_s, queued, capacity):
                return queued >= capacity

            def flush_at(self, oldest_arrival_s):
                return super(DynamicBatching, self).flush_at(oldest_arrival_s)

        report = _batched_server(
            max_batch_size=4, policy=SizeOnly(4)
        ).serve(constant_trace(0.1, 2, Workload(1, 1)))
        assert report.num_requests == 0
        assert report.num_abandoned == 2
        assert all(a.reason == "unserved" for a in report.abandoned)


class TestBatchingValidation:
    def test_appliance_server_rejects_unbatchable_platform(self):
        with pytest.raises(ConfigurationError):
            ApplianceServer(_FixedLatencyPlatform(1.0), max_batch_size=2)

    def test_batch_capacity_derived_from_policy(self):
        # Regression: batch_policy="dynamic" with the default capacity used
        # to clamp every unit to batch size 1 and silently serve unbatched
        # while the report claimed the dynamic policy ran.
        platform = _BatchableTokenPlatform(fixed_ms_per_token=1000.0)
        server = ApplianceServer(
            platform, 1, "batchable",
            batch_policy=DynamicBatching(4, timeout_s=100.0),
        )
        assert server.members[0].max_batch_size == 4
        report = server.serve(constant_trace(0.0, 4, Workload(1, 1)))
        assert report.batch_size_distribution() == {4: 1}

    def test_derived_capacity_requires_batchable_platform(self):
        # Deriving capacity from a batching policy must surface the missing
        # batching interface instead of silently running unbatched.
        with pytest.raises(ConfigurationError):
            ApplianceServer(_FixedLatencyPlatform(1.0), batch_policy="dynamic")

    def test_appliance_server_rejects_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            ApplianceServer(_FixedLatencyPlatform(1.0), max_batch_size=0)

    def test_simulate_rejects_batch_units_without_costs(self):
        oracle = LatencyOracle(_FixedLatencyPlatform(1.0))
        units = [ServerUnit(unit_id=0, appliance="a", oracle=oracle,
                            max_batch_size=4)]
        with pytest.raises(ConfigurationError):
            simulate(units, constant_trace(1.0, 2), FIFOScheduler(), platform="a")

    def test_simulate_rejects_invalid_unit_batch_size(self):
        oracle = LatencyOracle(_FixedLatencyPlatform(1.0))
        units = [ServerUnit(unit_id=0, appliance="a", oracle=oracle,
                            max_batch_size=0)]
        with pytest.raises(ConfigurationError):
            simulate(units, constant_trace(1.0, 2), FIFOScheduler(), platform="a")

    def test_fleet_member_rejects_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            FleetMember("m", _FixedLatencyPlatform(1.0), max_batch_size=0)

    def test_fleet_rejects_unbatchable_batch_member_eagerly(self):
        with pytest.raises(ConfigurationError):
            ApplianceFleet(
                [FleetMember("m", _FixedLatencyPlatform(1.0), max_batch_size=4)]
            )


class TestBatchAwareScheduling:
    def test_select_batch_follows_policy_order(self):
        queue = [
            ServiceRequest(0, 0.0, Workload(1, 1), priority=2),
            ServiceRequest(1, 0.1, Workload(1, 1), priority=0),
            ServiceRequest(2, 0.2, Workload(1, 1), priority=1),
            ServiceRequest(3, 0.3, Workload(1, 1), priority=0),
        ]
        picked = make_scheduler("priority").select_batch(
            1.0, queue, lambda r: 1.0, 3
        )
        # The most urgent requests join the batch, arrival order within ties.
        assert picked == [1, 3, 2]
        fifo = make_scheduler("fifo").select_batch(1.0, queue, lambda r: 1.0, 3)
        assert fifo == [0, 1, 2]

    def test_select_batch_excludes_infeasible_requests(self):
        # The default greedy composition must never gather a request the
        # policy declared infeasible at the same instant.
        class _DropOdd(SchedulingPolicy):
            name = "drop-odd"

            def select(self, now, queue, estimate):
                return 0

            def infeasible(self, now, queue, estimate):
                return [
                    index
                    for index, request in enumerate(queue)
                    if request.request_id % 2 == 1
                ]

        queue = [ServiceRequest(i, 0.1 * i, Workload(1, 1)) for i in range(5)]
        picked = _DropOdd().select_batch(1.0, queue, lambda r: 1.0, 5)
        assert picked == [0, 2, 4]
        # The batch respects max_size after the filter, not before.
        assert _DropOdd().select_batch(1.0, queue, lambda r: 1.0, 2) == [0, 2]

    def test_deadline_batches_never_gather_expired_requests(self):
        queue = [
            ServiceRequest(0, 0.0, Workload(1, 1), slo_s=100.0),
            ServiceRequest(1, 0.0, Workload(1, 1), slo_s=1.0),  # expired
            ServiceRequest(2, 0.0, Workload(1, 1), slo_s=50.0),
        ]
        picked = make_scheduler("deadline").select_batch(
            10.0, queue, lambda r: 1.0, 3
        )
        assert picked == [2, 0]  # EDF order over the feasible survivors

    def test_select_batch_unchanged_for_policies_without_infeasible(self):
        # Equivalence with the pre-filter composition: for any policy whose
        # ``infeasible`` is the empty default, filtering first is a no-op.
        def compose_without_filter(policy, now, queue, estimate, max_size):
            remaining = list(queue)
            positions = list(range(len(queue)))
            picked = []
            while remaining and len(picked) < max_size:
                index = policy.select(now, remaining, estimate)
                if index is None:
                    break
                picked.append(positions.pop(index))
                remaining.pop(index)
            return picked

        queue = [
            ServiceRequest(0, 0.0, Workload(1, 9), priority=2),
            ServiceRequest(1, 0.1, Workload(1, 2), priority=0),
            ServiceRequest(2, 0.2, Workload(1, 7), priority=1),
            ServiceRequest(3, 0.3, Workload(1, 1), priority=0),
            ServiceRequest(4, 0.4, Workload(1, 5), priority=3),
        ]
        estimate = lambda r: 0.1 * r.workload.output_tokens
        for name in ("fifo", "sjf", "priority"):
            policy = make_scheduler(name)
            for max_size in (1, 2, 3, 5, 9):
                assert policy.select_batch(
                    1.0, queue, estimate, max_size
                ) == compose_without_filter(policy, 1.0, queue, estimate, max_size)

    def test_sjf_batches_the_shortest_requests(self):
        platform = _BatchableTokenPlatform(fixed_ms_per_token=1000.0)
        # A blocker occupies the unit while one long and two short requests
        # queue behind it; at the completion SJF must batch the two shorts.
        trace = [
            ServiceRequest(0, 0.0, Workload(1, 2)),
            ServiceRequest(1, 0.1, Workload(1, 8)),
            ServiceRequest(2, 0.2, Workload(1, 1)),
            ServiceRequest(3, 0.3, Workload(1, 1)),
        ]
        server = ApplianceServer(
            platform, 1, "batchable", scheduler="sjf",
            batch_policy=DynamicBatching(2, 0.0), max_batch_size=2,
        )
        report = server.serve(trace)
        batches = sorted(report.iter_dispatches(), key=lambda d: d.start_time_s)
        members = {
            c.request.request_id
            for c in report.completed
            if c.batch_id == batches[1].batch_id
        }
        assert members == {2, 3}

    def test_fleet_mixes_unbatched_dfx_with_batched_gpu(self):
        # The paper's asymmetry behind one queue: a fast batch=1 appliance
        # and a slow batch-capable one.  The fast member takes requests
        # alone; the slow member only ever sees gathered batches of the
        # overflow.
        fast = _FixedLatencyPlatform(1.0)
        slow = _BatchableTokenPlatform(fixed_ms_per_token=4000.0,
                                       marginal_ms_per_token=100.0)
        fleet = ApplianceFleet(
            [
                FleetMember("dfx", fast, num_clusters=1),
                FleetMember("gpu", slow, num_clusters=1, max_batch_size=4),
            ],
            batch_policy=DynamicBatching(4, timeout_s=0.5),
        )
        report = fleet.serve(constant_trace(0.0, 5, Workload(1, 1)))
        assert report.num_requests == 5
        by_appliance = {}
        for dispatch in report.iter_dispatches():
            by_appliance.setdefault(dispatch.appliance, []).append(dispatch)
        # One singleton on the fast unit, the 4 queued behind it batch on
        # the slow unit (greedy timeout-0 batching).
        assert [d.batch_size for d in by_appliance["dfx"]][0] == 1
        assert any(d.batch_size > 1 for d in by_appliance["gpu"])
        for dispatch in by_appliance["dfx"]:
            assert dispatch.batch_size == 1  # DFX stays a batch=1 passthrough


class TestBatchSizeOneEquivalence:
    """batch_policy="none" and dynamic(max=1) must reproduce the unbatched
    simulator bit for bit, mirroring the legacy-loop equivalence test."""

    @pytest.mark.parametrize("num_clusters", [1, 2, 3])
    def test_none_and_dynamic1_match_default_exactly(self, num_clusters):
        platform = _BatchableTokenPlatform(fixed_ms_per_token=400.0)
        trace = poisson_trace(1.5, 60.0, seed=9)
        baseline = ApplianceServer(platform, num_clusters, "p").serve(trace)
        explicit_none = ApplianceServer(
            platform, num_clusters, "p", batch_policy="none"
        ).serve(trace)
        dynamic_one = ApplianceServer(
            platform, num_clusters, "p",
            batch_policy=DynamicBatching(max_batch_size=1, timeout_s=5.0),
            # The units are batch-capable; the policy's size cap alone must
            # force the singleton passthrough.
            max_batch_size=8,
        ).serve(trace)
        assert explicit_none.completed == baseline.completed
        assert dynamic_one.completed == baseline.completed
        for other in (explicit_none, dynamic_one):
            assert other.abandoned == baseline.abandoned
            assert other.total_energy_joules == baseline.total_energy_joules
            assert other.makespan_s == baseline.makespan_s
            assert other.first_arrival_s == baseline.first_arrival_s
        assert baseline.batch_policy == "none"
        assert dynamic_one.batch_policy == "dynamic"
        assert all(c.batch_size == 1 for c in dynamic_one.completed)

    def test_unit_capacity_one_forces_passthrough_under_batchy_policy(self):
        platform = _BatchableTokenPlatform(fixed_ms_per_token=400.0)
        trace = poisson_trace(2.0, 40.0, seed=3)
        baseline = ApplianceServer(platform, 2, "p").serve(trace)
        capped = ApplianceServer(
            platform, 2, "p", batch_policy=DynamicBatching(8, 0.5),
            max_batch_size=1,
        ).serve(trace)
        assert capped.completed == baseline.completed
