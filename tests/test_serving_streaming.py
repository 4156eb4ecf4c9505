"""Streaming simulator core: event queue, quantile sketches, lazy traces.

Covers the three legs of the streaming core:

* :class:`~repro.serving.calendar.CalendarQueue`, the event queue, pops in
  `heapq`'s order over any event set (the event loop's ordering contract
  rides on this), across thousands of held events and pushes into the past;
* :class:`~repro.serving.stats.QuantileSketch` answers every percentile
  query within relative error ``alpha`` of ``np.percentile`` over the same
  values, merges exactly, and answers the same whenever it is queried —
  checked on hypothesis-generated streams;
* streaming-mode reports (``retain_records=False``) agree with retained-
  mode reports on every counter statistic exactly and on every percentile
  of every slot within ``alpha``, across the randomized property-suite
  scenarios (including fault campaigns) and a datacenter-scale diurnal
  hour, while lazy traces serve identically to their eager twins.
"""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serving import (
    DATACENTER_MIX,
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
from repro.serving.stats import (
    DEFAULT_ALPHA,
    ExactDistribution,
    QuantileSketch,
    _octave,
)
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

#: Percentiles every value-contract check queries.
PERCENTILES = (0.0, 0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0)
#: Derandomized, so the suite draws the same streams on every run.
SKETCH_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)


def assert_within_alpha(answer: float, exact: float, alpha: float = DEFAULT_ALPHA):
    """The sketch's value contract: relative error ``alpha`` of a
    non-negative exact answer, plus a 1e-12 relative slack for rounding."""
    assert abs(answer - exact) <= (alpha + 1e-12) * exact, (answer, exact)


def filled(values, alpha: float = DEFAULT_ALPHA) -> QuantileSketch:
    sketch = QuantileSketch(alpha)
    for value in values:
        sketch.add(value)
    return sketch


@st.composite
def durations(draw) -> list[float]:
    """A non-negative stream: zeros, duplicates, constant streams, a single
    value, values from 1e-9 to 1e5 s, lengths across the 1024-value flush."""
    pool = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-9, 1e5)), min_size=1, max_size=30
    ))
    length = draw(st.one_of(st.integers(1, 40), st.integers(1000, 2600)))
    fresh_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picked = np.array(pool)[rng.integers(0, len(pool), size=length)]
    fresh = 10.0 ** rng.uniform(-9.0, 5.0, size=length)
    return np.where(rng.random(length) < fresh_share, fresh, picked).tolist()


class TestQuantileSketch:
    def test_min_and_max_are_exact(self):
        rng = np.random.default_rng(0)
        data = rng.lognormal(0.0, 1.0, size=149)
        sketch = filled(data.tolist())
        assert sketch.query(0) == float(np.min(data))
        assert sketch.query(100) == float(np.max(data))
        assert_within_alpha(sketch.query(50), float(np.percentile(data, 50)))

    @pytest.mark.parametrize("size", [1_000, 20_000])
    @pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, 0.02])
    def test_value_error_bound(self, size, alpha):
        rng = np.random.default_rng(7)
        data = rng.lognormal(0.0, 1.5, size=size)
        sketch = filled(data.tolist(), alpha)
        for percentile in PERCENTILES:
            assert_within_alpha(
                sketch.query(percentile), float(np.percentile(data, percentile)),
                alpha,
            )

    @SKETCH_SETTINGS
    @given(durations(), st.floats(0.0, 100.0))
    def test_every_query_is_within_alpha(self, values, percentile):
        sketch = filled(values)
        for p in (*PERCENTILES, percentile):
            assert_within_alpha(sketch.query(p), float(np.percentile(values, p)))
        assert sketch.count == len(values)
        assert sketch.min == min(values) and sketch.max == max(values)

    @SKETCH_SETTINGS
    @given(durations(), durations())
    def test_merge_equals_one_sketch_fed_both(self, first, second):
        merged = filled(first)
        merged.merge(filled(second))
        whole = filled(first + second)
        for percentile in PERCENTILES:
            assert merged.query(percentile) == whole.query(percentile)
        assert (merged.count, merged.min, merged.max) == (
            whole.count, whole.min, whole.max
        )
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)

    @SKETCH_SETTINGS
    @given(durations(), st.lists(st.integers(0, 2600), max_size=4))
    def test_a_query_between_adds_changes_no_later_answer(self, values, stops):
        queried = QuantileSketch()
        for index, value in enumerate(values):
            if index in stops:
                queried.query(50.0)
            queried.add(value)
        plain = filled(values)
        assert queried == plain
        for percentile in PERCENTILES:
            assert queried.query(percentile) == plain.query(percentile)
        assert queried.mean == plain.mean

    @pytest.mark.parametrize("alpha", [1e-4, DEFAULT_ALPHA, 0.02, 0.4999])
    def test_bucket_keys_match_a_search_over_the_bounds(self, alpha):
        """The cell table finds the bucket a binary search over the octave's
        bounds finds, on every bound, its neighbours, subnormals and values
        from 1e-300 to 1e300."""
        bounds, _ = _octave(alpha)
        rng = np.random.default_rng(11)
        values = np.concatenate([
            bounds[:-1], np.nextafter(bounds[1:], 0.0),
            np.nextafter(bounds[:-1], 1.0), rng.uniform(0.5, 1.0, 50_000),
            10.0 ** rng.uniform(-300.0, 300.0, 50_000),
            np.nextafter(0.0, 1.0) * np.arange(1.0, 101.0),
        ])
        mantissas, exponents = np.frexp(values)
        searched = np.searchsorted(bounds, mantissas, side="right") - 1
        expected = exponents * (bounds.size - 1) + searched
        assert np.array_equal(QuantileSketch(alpha)._keys(values), expected)

    def test_total_is_summed_in_insertion_order(self):
        values = [1.0, 1e-16, 1e-16] * 700
        total = 0.0
        for value in values:
            total += value
        assert filled(values).total == total

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
        with pytest.raises(ConfigurationError, match="alpha"):
            QuantileSketch().merge(QuantileSketch(0.01))


@pytest.mark.parametrize("slot", [QuantileSketch, ExactDistribution])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
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
    assert distribution == clean
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


#: Every percentile accessor of a report, one per distribution slot.
SLOT_QUERIES = (
    "response_time_percentile_s",
    "queueing_delay_percentile_s",
    "batch_gather_delay_percentile_s",
    "transfer_time_percentile_s",
    "cross_rack_response_percentile_s",
    "failover_delay_percentile_s",
)


def _assert_percentiles_within_alpha(retained, streaming):
    """Every percentile of every slot, per-class response included."""
    for name in SLOT_QUERIES:
        for percentile in PERCENTILES:
            assert_within_alpha(
                getattr(streaming, name)(percentile),
                getattr(retained, name)(percentile),
            )
    for label in retained.service_classes():
        for percentile in PERCENTILES:
            assert_within_alpha(
                streaming.response_time_percentile_s(percentile, label),
                retained.response_time_percentile_s(percentile, label),
            )


@pytest.mark.parametrize("seed", SEEDS)
class TestStreamingEquivalence:
    def test_counters_match_exactly(self, seed):
        _, retained, streaming = _streaming_twin(random_scenario, seed)
        _assert_counters_match(retained, streaming)

    def test_percentiles_within_alpha(self, seed):
        _, retained, streaming = _streaming_twin(random_scenario, seed)
        _assert_percentiles_within_alpha(retained, streaming)

    def test_fault_campaign_counters_match(self, seed):
        _, retained, streaming = _streaming_twin(random_fault_scenario, seed)
        _assert_counters_match(retained, streaming)
        _assert_percentiles_within_alpha(retained, streaming)

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


def test_percentiles_within_alpha_at_datacenter_scale():
    """One diurnal hour at peak 9 requests/s on 8 DFX clusters (17,766
    requests): every p50/p90/p99 of response, queueing and per-class
    response lies within alpha of the retained report's."""
    trace = diurnal_trace(
        9.0, 3600.0, period_s=3600.0, mix=DATACENTER_MIX, seed=7
    )
    retained = ApplianceServer("dfx", num_clusters=8).serve(trace)
    streaming = ApplianceServer(
        "dfx", num_clusters=8, retain_records=False
    ).serve(trace)
    assert streaming.num_offered == retained.num_offered == 17_766
    for percentile in (50.0, 90.0, 99.0):
        assert_within_alpha(
            streaming.response_time_percentile_s(percentile),
            retained.response_time_percentile_s(percentile),
        )
        assert_within_alpha(
            streaming.queueing_delay_percentile_s(percentile),
            retained.queueing_delay_percentile_s(percentile),
        )
        for label in retained.service_classes():
            assert_within_alpha(
                streaming.response_time_percentile_s(percentile, label),
                retained.response_time_percentile_s(percentile, label),
            )


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
