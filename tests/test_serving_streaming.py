"""Streaming simulator core: event queue, quantile sketches, lazy traces.

Covers the three legs of the streaming core:

* :class:`~repro.serving.calendar.CalendarQueue`, the event queue, pops in
  `heapq`'s order over any event set (the event loop's ordering contract
  rides on this), across thousands of held events and pushes into the past;
* :class:`~repro.serving.stats.QuantileSketch` answers every percentile
  query within its hard rank-error bound (``eps * n + 1`` ranks), exactly
  for short streams, deterministically for seeded runs;
* streaming-mode reports (``retain_records=False``) agree with retained-
  mode reports on every counter statistic exactly and on every percentile
  within the sketch bound, across the randomized property-suite scenarios
  (including fault campaigns), while lazy traces serve identically to
  their eager twins.
"""

import heapq
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    ApplianceServer,
    bursty_trace,
    constant_trace,
    diurnal_trace,
    merge_traces,
    poisson_trace,
    with_service_levels,
)
from repro.serving.calendar import CalendarQueue
from repro.serving.requests import ServiceRequest
from repro.serving.stats import DEFAULT_EPS, ExactDistribution, QuantileSketch
from serving_doubles import FixedLatencyPlatform as _FixedLatencyPlatform
from test_serving_properties import (
    SEEDS,
    random_fault_scenario,
    random_scenario,
)
from repro.workloads import Workload


# --------------------------------------------------------------- CalendarQueue


class TestCalendarQueue:
    @pytest.mark.parametrize("seed", range(8))
    def test_pop_order_is_heap_identical(self, seed):
        """Random interleaved push/pop/peek matches heapq bit for bit."""
        rng = np.random.default_rng(seed)
        calendar = CalendarQueue()
        heap: list[tuple] = []
        clock = 0.0
        for step in range(600):
            action = rng.random()
            if action < 0.6 or not heap:
                # Mostly future events, occasionally duplicates of the
                # current time (tie-breaking) or pushes into the past.
                if rng.random() < 0.1:
                    time_s = max(0.0, clock - float(rng.exponential(2.0)))
                else:
                    time_s = clock + float(rng.exponential(5.0))
                event = (time_s, int(rng.integers(0, 4)), step)
                calendar.push(event)
                heapq.heappush(heap, event)
            else:
                assert calendar.peek() == heap[0]
                popped = calendar.pop()
                assert popped == heapq.heappop(heap)
                clock = popped[0]
            assert len(calendar) == len(heap)
        while heap:
            assert calendar.pop() == heapq.heappop(heap)
        assert not calendar

    def test_resize_grow_and_shrink_preserve_order(self):
        """Thousands of held events drain in sorted order."""
        rng = np.random.default_rng(42)
        times = rng.uniform(0.0, 5000.0, size=5000)
        calendar = CalendarQueue()
        for index, time_s in enumerate(times):
            calendar.push((float(time_s), index))
        drained = [calendar.pop() for _ in range(len(calendar))]
        assert drained == sorted(
            (float(t), i) for i, t in enumerate(times)
        )

    def test_equal_times_break_ties_lexicographically(self):
        calendar = CalendarQueue()
        for unit in (3, 1, 2, 0):
            calendar.push((7.5, unit, -1))
        assert [calendar.pop()[1] for _ in range(4)] == [0, 1, 2, 3]

    def test_push_into_the_past_after_pops(self):
        calendar = CalendarQueue()
        calendar.push((100.0, 0))
        assert calendar.pop() == (100.0, 0)
        calendar.push((1.0, 1))  # before the last popped time
        calendar.push((200.0, 2))
        assert calendar.pop() == (1.0, 1)
        assert calendar.pop() == (200.0, 2)

    def test_rejects_non_finite_and_negative_times(self):
        calendar = CalendarQueue()
        for bad in (float("inf"), float("nan"), -1.0):
            with pytest.raises(ConfigurationError):
                calendar.push((bad, 0))

    def test_rejected_push_leaves_the_queue_unchanged(self):
        calendar = CalendarQueue()
        calendar.push((2.0, 0))
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            calendar.push((-1.0, 1))
        assert len(calendar) == 1
        assert calendar.pop() == (2.0, 0)
        assert not calendar

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            CalendarQueue().pop()
        assert CalendarQueue().peek() is None


# -------------------------------------------------------------- QuantileSketch


def rank_distance(value: float, sorted_exact: np.ndarray, percentile: float) -> float:
    """How many ranks ``value`` sits from the percentile's target rank.

    ``value`` must be an observed value; duplicates occupy a rank *range*
    and the distance is measured to the nearest end of it.
    """
    n = len(sorted_exact)
    target = 1.0 + percentile / 100.0 * (n - 1)
    low = float(np.searchsorted(sorted_exact, value, side="left")) + 1.0
    high = float(np.searchsorted(sorted_exact, value, side="right"))
    assert low <= high, f"{value} is not an observed value"
    return max(low - target, target - high, 0.0)


class TestQuantileSketch:
    def test_short_stream_is_exact(self):
        """Below the compression threshold every answer is the exact order
        statistic (and matches numpy at whole-rank percentiles)."""
        rng = np.random.default_rng(0)
        data = rng.lognormal(0.0, 1.0, size=149)
        sketch = QuantileSketch()
        for value in data:
            sketch.add(float(value))
        assert sketch.query(0) == float(np.min(data))
        assert sketch.query(100) == float(np.max(data))
        # n = 149 makes p50's target rank integral (rank 75).
        assert sketch.query(50) == float(np.percentile(data, 50))

    @pytest.mark.parametrize("size", [1_000, 20_000])
    @pytest.mark.parametrize("eps", [0.005, 0.02])
    def test_rank_error_bound(self, size, eps):
        rng = np.random.default_rng(7)
        data = rng.lognormal(0.0, 1.5, size=size)
        sketch = QuantileSketch(eps)
        for value in data:
            sketch.add(float(value))
        sorted_exact = np.sort(data)
        for percentile in (1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0):
            answer = sketch.query(percentile)
            assert rank_distance(answer, sorted_exact, percentile) <= (
                sketch.rank_error_bound() + 1.0
            )

    def test_deterministic_and_comparable(self):
        rng = np.random.default_rng(3)
        data = [float(v) for v in rng.exponential(2.0, size=5_000)]
        first, second = QuantileSketch(), QuantileSketch()
        for value in data:
            first.add(value)
        for value in data:
            second.add(value)
        assert first == second
        assert first.query(99) == second.query(99)

    def test_running_moments(self):
        sketch = QuantileSketch()
        values = [3.0, 1.0, 2.0]
        for value in values:
            sketch.add(value)
        assert sketch.count == 3
        assert sketch.mean == pytest.approx(2.0)
        assert sketch.min == 1.0
        assert sketch.max == 3.0

    def test_empty_sketch_answers_zero(self):
        sketch = QuantileSketch()
        assert sketch.query(50) == 0.0
        assert sketch.mean == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch(0.0)
        with pytest.raises(ConfigurationError):
            QuantileSketch(0.5)
        with pytest.raises(ConfigurationError):
            QuantileSketch().query(101)


@pytest.mark.parametrize("slot", [QuantileSketch, ExactDistribution])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_distribution_slots_reject_non_finite_observations(slot, bad):
    distribution = slot()
    distribution.add(1.0)
    distribution.add(2.0)
    with pytest.raises(ConfigurationError, match=f"finite, got {bad}"):
        distribution.add(bad)
    distribution.add(3.0)
    # The rejected value left no trace: the slot answers as if fed 1, 2, 3.
    clean = slot()
    for value in (1.0, 2.0, 3.0):
        clean.add(value)
    assert distribution.count == clean.count == 3
    assert distribution.mean == clean.mean == 2.0
    assert distribution.query(99) == clean.query(99)
    assert math.isfinite(distribution.query(99))


# ------------------------------------------- streaming vs retained equivalence


def _streaming_twin(scenario_builder, seed):
    """Serve one property-suite scenario in both accounting modes."""
    built = scenario_builder(seed)
    trace, retained_server = built[0], built[1]
    streaming_server = scenario_builder(seed)[1]
    streaming_server.retain_records = False
    return trace, retained_server.serve(trace), streaming_server.serve(trace)


def _assert_counters_match(retained, streaming):
    assert streaming.stats is not None
    assert not streaming.completed and not streaming.abandoned
    assert streaming.num_requests == retained.num_requests
    assert streaming.num_offered == retained.num_offered
    assert streaming.num_abandoned == retained.num_abandoned
    assert streaming.num_failed == retained.num_failed
    assert streaming.num_retries == retained.num_retries
    assert streaming.total_energy_joules == retained.total_energy_joules
    assert streaming.makespan_s == retained.makespan_s
    assert streaming.first_arrival_s == retained.first_arrival_s
    # Busy time is a float sum accumulated in a different order per mode,
    # so utilization agrees to the ulp, not bit for bit.
    assert streaming.utilization == pytest.approx(
        retained.utilization, rel=1e-12
    )
    assert streaming.availability == pytest.approx(
        retained.availability, rel=1e-12
    )
    assert streaming.goodput_fraction == retained.goodput_fraction
    assert streaming.slo_attainment == retained.slo_attainment
    assert streaming.mean_batch_size == retained.mean_batch_size
    assert (
        streaming.batch_size_distribution() == retained.batch_size_distribution()
    )
    assert streaming.service_classes() == retained.service_classes()
    assert streaming.mean_response_time_s == pytest.approx(
        retained.mean_response_time_s, rel=1e-12, abs=1e-12
    )
    assert streaming.mean_queueing_delay_s == pytest.approx(
        retained.mean_queueing_delay_s, rel=1e-12, abs=1e-12
    )


def _assert_percentiles_within_rank_bound(retained, streaming):
    if not retained.completed:
        return
    sorted_exact = np.sort(
        [record.response_time_s for record in retained.completed]
    )
    bound = streaming.stats.response.rank_error_bound() + 1.0
    for percentile in (50.0, 95.0, 99.0):
        answer = streaming.response_time_percentile_s(percentile)
        assert rank_distance(answer, sorted_exact, percentile) <= bound


@pytest.mark.parametrize("seed", SEEDS)
class TestStreamingEquivalence:
    def test_counters_match_exactly(self, seed):
        _, retained, streaming = _streaming_twin(random_scenario, seed)
        _assert_counters_match(retained, streaming)

    def test_percentiles_within_rank_bound(self, seed):
        _, retained, streaming = _streaming_twin(random_scenario, seed)
        _assert_percentiles_within_rank_bound(retained, streaming)

    def test_fault_campaign_counters_match(self, seed):
        _, retained, streaming = _streaming_twin(random_fault_scenario, seed)
        _assert_counters_match(retained, streaming)
        _assert_percentiles_within_rank_bound(retained, streaming)
        if retained.failover_delays_s:
            sorted_failover = np.sort(retained.failover_delays_s)
            bound = streaming.stats.failover.rank_error_bound() + 1.0
            answer = streaming.failover_delay_percentile_s(95.0)
            assert rank_distance(answer, sorted_failover, 95.0) <= bound

    def test_streaming_reports_are_reproducible(self, seed):
        """Seeded streaming runs reproduce their whole report, sketches
        included (the sketch is deterministic in its value sequence)."""
        _, _, first = _streaming_twin(random_scenario, seed)
        _, _, second = _streaming_twin(random_scenario, seed)
        assert first == second

    def test_retained_mode_is_the_default_and_identical(self, seed):
        trace, default_server, _ = (
            random_scenario(seed)[0],
            random_scenario(seed)[1],
            None,
        )
        explicit_server = random_scenario(seed)[1]
        assert explicit_server.retain_records is True
        assert default_server.serve(trace) == explicit_server.serve(trace)


class TestStreamingReportSurface:
    def _streaming_report(self):
        trace = poisson_trace(4.0, 30.0, seed=9)
        server = ApplianceServer(
            _FixedLatencyPlatform(0.3),
            num_clusters=2,
            platform_name="solo",
            retain_records=False,
        )
        return server.serve(trace)

    def test_raw_record_accessors_refuse_streaming_mode(self):
        report = self._streaming_report()
        with pytest.raises(ConfigurationError):
            report.batch_gather_delays_s()

    def test_percentile_accessors_answer(self):
        report = self._streaming_report()
        assert report.response_time_percentile_s(99) > 0.0
        assert report.queueing_delay_percentile_s(50) >= 0.0
        assert report.has_slo_requests is False


# ----------------------------------------------------------------- lazy traces


class TestLazyTraces:
    @pytest.mark.parametrize(
        "eager_builder,lazy_builder",
        [
            (
                lambda: poisson_trace(5.0, 40.0, seed=3),
                lambda: poisson_trace(5.0, 40.0, seed=3, lazy=True),
            ),
            (
                lambda: bursty_trace(8.0, 1.0, 50.0, seed=4),
                lambda: bursty_trace(8.0, 1.0, 50.0, seed=4, lazy=True),
            ),
            (
                lambda: diurnal_trace(6.0, 80.0, seed=5),
                lambda: diurnal_trace(6.0, 80.0, seed=5, lazy=True),
            ),
            (
                lambda: constant_trace(0.5, 30),
                lambda: constant_trace(0.5, 30, lazy=True),
            ),
        ],
        ids=["poisson", "bursty", "diurnal", "constant"],
    )
    def test_lazy_equals_eager(self, eager_builder, lazy_builder):
        assert eager_builder() == list(lazy_builder())

    def test_limit_is_the_eager_prefix(self):
        full = poisson_trace(5.0, 40.0, seed=3)
        assert poisson_trace(5.0, 40.0, seed=3, limit=7) == full[:7]
        assert (
            list(poisson_trace(5.0, 40.0, seed=3, limit=7, lazy=True))
            == full[:7]
        )

    def test_limit_validation(self):
        with pytest.raises(ConfigurationError):
            poisson_trace(5.0, 40.0, limit=0)

    def test_lazy_trace_serves_bit_identically(self):
        server = ApplianceServer(
            _FixedLatencyPlatform(0.4), num_clusters=2, platform_name="solo"
        )
        eager_report = server.serve(poisson_trace(3.0, 30.0, seed=6))
        lazy_report = server.serve(poisson_trace(3.0, 30.0, seed=6, lazy=True))
        assert eager_report == lazy_report

    def test_out_of_order_lazy_trace_is_rejected(self):
        workload = Workload(8, 8)
        backwards = iter(
            [
                ServiceRequest(0, 5.0, workload),
                ServiceRequest(1, 1.0, workload),
            ]
        )
        server = ApplianceServer(
            _FixedLatencyPlatform(0.4), num_clusters=1, platform_name="solo"
        )
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            server.serve(backwards)

    def test_out_of_order_list_is_still_sorted(self):
        """Sized traces keep the historical sort-on-entry contract."""
        workload = Workload(8, 8)
        shuffled = [
            ServiceRequest(0, 5.0, workload),
            ServiceRequest(1, 1.0, workload),
        ]
        server = ApplianceServer(
            _FixedLatencyPlatform(0.4), num_clusters=1, platform_name="solo"
        )
        report = server.serve(shuffled)
        assert report.num_requests == 2

    def test_with_service_levels_preserves_laziness(self):
        trace = poisson_trace(5.0, 20.0, seed=1)
        tagged = with_service_levels(iter(trace), service_class="gold")
        assert not isinstance(tagged, list)
        assert [r.service_class for r in tagged] == ["gold"] * len(trace)

    def test_merge_traces_lazy_matches_eager(self):
        first = with_service_levels(
            poisson_trace(3.0, 30.0, seed=1), service_class="a"
        )
        second = with_service_levels(
            poisson_trace(2.0, 30.0, seed=2), service_class="b"
        )
        eager = merge_traces(first, second)
        lazy = merge_traces(iter(first), iter(second))
        assert not isinstance(lazy, list)
        assert eager == list(lazy)

    def test_merge_traces_tie_break_is_pinned_and_identical(self):
        """Ties on arrival time resolve by trace argument order, then order
        within each trace — identically on the eager (stable sort) and lazy
        (heapq.merge) paths, so the two merges are bit-identical."""
        workload = Workload(8, 8)
        first = [
            ServiceRequest(0, 1.0, workload, service_class="a"),
            ServiceRequest(1, 1.0, workload, service_class="a"),
            ServiceRequest(2, 2.0, workload, service_class="a"),
        ]
        second = [
            ServiceRequest(0, 1.0, workload, service_class="b"),
            ServiceRequest(1, 2.0, workload, service_class="b"),
            ServiceRequest(2, 2.0, workload, service_class="b"),
        ]
        eager = merge_traces(first, second)
        lazy = list(merge_traces(iter(first), iter(second)))
        assert eager == lazy
        # At t=1.0 every `first` tie precedes every `second` tie; within a
        # trace, original order survives.  Same again at t=2.0.
        assert [r.service_class for r in eager] == ["a", "a", "b", "a", "b", "b"]
        assert [r.request_id for r in eager] == list(range(6))
        # Argument order is the tie-break, so swapping the inputs swaps the
        # interleave — on both paths, identically.
        swapped = merge_traces(second, first)
        assert [r.service_class for r in swapped] == ["b", "a", "a", "b", "b", "a"]
        assert swapped == list(merge_traces(iter(second), iter(first)))

    def test_streaming_serve_of_lazy_trace_counts_everything(self):
        """End to end: a lazy trace through streaming accounting conserves
        requests without ever materializing records."""
        limit = 2_000
        trace = diurnal_trace(
            6.0, 1e9, period_s=600.0, seed=11, limit=limit, lazy=True
        )
        server = ApplianceServer(
            _FixedLatencyPlatform(0.05),
            num_clusters=4,
            platform_name="solo",
            retain_records=False,
        )
        report = server.serve(trace)
        assert report.num_offered == limit
        assert report.num_requests + report.num_abandoned == limit
        assert not report.completed
        assert math.isfinite(report.response_time_percentile_s(99))
