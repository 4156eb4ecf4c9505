"""Tests for the trace replay adapter and the diurnal trace generator."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    ApplianceServer,
    diurnal_trace,
    merge_traces,
    poisson_trace,
    replay_trace,
    with_service_levels,
)
from repro.workloads import Workload
from serving_doubles import FixedLatencyPlatform as _FixedLatencyPlatform


CSV_LOG = """\
arrival_time_s,input_tokens,output_tokens,priority,slo_s,patience_s,service_class
0.5,32,16,0,5.0,30.0,interactive
0.1,64,64,1,,,batch
2.25,50,150,0,8.5,,interactive
"""


class TestReplayCSV:
    def test_replays_sorted_with_sequential_ids(self, tmp_path):
        path = tmp_path / "requests.csv"
        path.write_text(CSV_LOG)
        trace = replay_trace(path)
        assert [r.arrival_time_s for r in trace] == [0.1, 0.5, 2.25]
        assert [r.request_id for r in trace] == [0, 1, 2]
        assert trace[0].workload == Workload(64, 64)
        assert trace[0].service_class == "batch"
        # Empty CSV cells mean "unset".
        assert trace[0].slo_s is None and trace[0].patience_s is None
        assert trace[1].slo_s == pytest.approx(5.0)
        assert trace[1].patience_s == pytest.approx(30.0)
        assert trace[2].slo_s == pytest.approx(8.5)
        assert trace[2].patience_s is None

    def test_explicit_request_ids_kept(self, tmp_path):
        path = tmp_path / "requests.csv"
        path.write_text(
            "request_id,arrival_time_s,input_tokens,output_tokens\n"
            "7,1.0,8,8\n5,0.5,4,4\n"
        )
        trace = replay_trace(path)
        assert [r.request_id for r in trace] == [5, 7]

    def test_mixed_ids_rejected(self, tmp_path):
        path = tmp_path / "requests.csv"
        path.write_text(
            "request_id,arrival_time_s,input_tokens,output_tokens\n"
            "7,1.0,8,8\n,0.5,4,4\n"
        )
        with pytest.raises(ConfigurationError):
            replay_trace(path)

    def test_duplicate_explicit_ids_rejected(self, tmp_path):
        path = tmp_path / "requests.csv"
        path.write_text(
            "request_id,arrival_time_s,input_tokens,output_tokens\n"
            "7,1.0,8,8\n7,0.5,4,4\n"
        )
        with pytest.raises(ConfigurationError, match="duplicate request_id"):
            replay_trace(path)

    def test_missing_required_field_reported_with_location(self, tmp_path):
        path = tmp_path / "requests.csv"
        path.write_text("arrival_time_s,input_tokens\n1.0,8\n")
        with pytest.raises(ConfigurationError, match="record 2"):
            replay_trace(path)

    def test_bad_value_reported(self, tmp_path):
        path = tmp_path / "requests.csv"
        path.write_text(
            "arrival_time_s,input_tokens,output_tokens\nsoon,8,8\n"
        )
        with pytest.raises(ConfigurationError):
            replay_trace(path)

    @pytest.mark.parametrize(
        "header, row, field",
        [
            ("input_tokens,output_tokens", "3.7,4", "input_tokens"),
            ("input_tokens,output_tokens", "4,true", "output_tokens"),
            ("input_tokens,output_tokens,priority", "4,4,1.9", "priority"),
            ("input_tokens,output_tokens,request_id", "4,4,0.5", "request_id"),
        ],
    )
    def test_non_integer_field_reported_with_location(
        self, tmp_path, header, row, field
    ):
        path = tmp_path / "requests.csv"
        path.write_text(f"arrival_time_s,{header}\n0.0,{row}\n")
        with pytest.raises(ConfigurationError, match=f"record 2: bad {field}"):
            replay_trace(path)

    @pytest.mark.parametrize("arrival", ["nan", "inf"])
    def test_non_finite_arrival_reported_with_location(self, tmp_path, arrival):
        # Regression: a NaN arrival used to load, then crash both accounting
        # modes deep in the event loop.
        path = tmp_path / "requests.csv"
        path.write_text(
            "arrival_time_s,input_tokens,output_tokens\n"
            f"0.5,8,8\n{arrival},8,8\n"
        )
        with pytest.raises(ConfigurationError, match="record 3: arrival_time_s"):
            replay_trace(path)

    def test_missing_file_and_bad_format(self, tmp_path):
        with pytest.raises(ConfigurationError):
            replay_trace(tmp_path / "absent.csv")
        path = tmp_path / "requests.csv"
        path.write_text(CSV_LOG)
        with pytest.raises(ConfigurationError):
            replay_trace(path, format="yaml")

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "requests.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            replay_trace(path)


class TestReplayJSONL:
    def test_replays_jsonl_by_suffix(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        records = [
            {"arrival_time_s": 3.0, "input_tokens": 32, "output_tokens": 8},
            {"arrival_time_s": 1.0, "input_tokens": 50, "output_tokens": 50,
             "slo_s": 6.0, "service_class": "chat"},
        ]
        path.write_text(
            "\n".join(json.dumps(record) for record in records) + "\n\n"
        )
        trace = replay_trace(path)
        assert [r.arrival_time_s for r in trace] == [1.0, 3.0]
        assert trace[0].service_class == "chat"
        assert trace[0].slo_s == pytest.approx(6.0)

    def test_explicit_format_overrides_suffix(self, tmp_path):
        path = tmp_path / "requests.log"
        path.write_text(json.dumps(
            {"arrival_time_s": 0.0, "input_tokens": 4, "output_tokens": 4}
        ) + "\n")
        trace = replay_trace(path, format="jsonl")
        assert len(trace) == 1

    def test_invalid_json_reported_with_line(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"arrival_time_s": 0.0, "input_tokens": 4}\nnot json\n')
        with pytest.raises(ConfigurationError):
            replay_trace(path)

    @pytest.mark.parametrize("arrival", ["NaN", "Infinity", '"nan"', '"inf"'])
    def test_non_finite_arrival_reported_with_line(self, tmp_path, arrival):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            '{"arrival_time_s": 0.5, "input_tokens": 4, "output_tokens": 4}\n'
            "\n"
            f'{{"arrival_time_s": {arrival}, "input_tokens": 4, '
            '"output_tokens": 4}\n'
        )
        with pytest.raises(ConfigurationError, match="record 3: arrival_time_s"):
            replay_trace(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("input_tokens", 3.7),
            ("input_tokens", True),
            ("output_tokens", False),
            ("priority", 1.9),
            ("priority", True),
            ("request_id", 2.5),
            ("arrival_time_s", True),
            ("slo_s", True),
        ],
    )
    def test_bool_or_fraction_reported_with_location(
        self, tmp_path, field, value
    ):
        # Regression: these used to replay truncated or coerced (3.7 tokens
        # as 3, priority 1.9 as 1, ``true`` as 1 token or as 1.0 s).
        record = {"arrival_time_s": 0.0, "input_tokens": 4, "output_tokens": 4}
        record[field] = value
        path = tmp_path / "requests.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n")
        with pytest.raises(ConfigurationError, match=f"record 2: bad {field}"):
            replay_trace(path)

    def test_integral_values_replay_exactly(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(json.dumps({
            "arrival_time_s": 0.0, "input_tokens": 32.0, "output_tokens": "8",
            "priority": 2, "request_id": 7,
        }) + "\n")
        (replayed,) = replay_trace(path)
        assert replayed.workload == Workload(32, 8)
        assert (replayed.priority, replayed.request_id) == (2, 7)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ConfigurationError, match="JSON object"):
            replay_trace(path)


class TestReplayRoundTrip:
    def test_replayed_trace_serves_like_the_original(self, tmp_path):
        """A synthetic trace written to a log and replayed serves identically."""
        original = with_service_levels(
            poisson_trace(2.0, 30.0, seed=9), slo_s=10.0, service_class="chat"
        )
        path = tmp_path / "requests.jsonl"
        with path.open("w") as handle:
            for request in original:
                handle.write(json.dumps({
                    "request_id": request.request_id,
                    "arrival_time_s": request.arrival_time_s,
                    "input_tokens": request.workload.input_tokens,
                    "output_tokens": request.workload.output_tokens,
                    "priority": request.priority,
                    "slo_s": request.slo_s,
                    "service_class": request.service_class,
                }) + "\n")
        replayed = replay_trace(path)
        assert replayed == original
        server = ApplianceServer(_FixedLatencyPlatform(0.5), 2)
        assert server.serve(replayed).completed == server.serve(original).completed


class TestDiurnalTrace:
    def test_rate_follows_the_daily_cycle(self):
        # One full day at a strong peak/trough contrast: the peak quarter
        # of the cycle must see far more arrivals than the trough quarter.
        period = 86_400.0
        trace = diurnal_trace(
            0.05, period, trough_rate_per_s=0.005, period_s=period, seed=4
        )
        quarter = period / 4.0
        trough_half = sum(
            1 for r in trace
            if r.arrival_time_s < quarter or r.arrival_time_s >= 3 * quarter
        )
        peak_half = len(trace) - trough_half
        assert peak_half > 2 * trough_half

    def test_phase_shifts_the_peak(self):
        period = 1000.0
        # phase_s = period/2 starts the trace at the peak.
        trace = diurnal_trace(
            2.0, period / 2, trough_rate_per_s=0.0, period_s=period,
            phase_s=period / 2, seed=1,
        )
        # Starting at the peak, the first half-window must be busier than
        # the second (which descends toward the trough).
        first = sum(1 for r in trace if r.arrival_time_s < period / 4)
        assert first > (len(trace) - first)

    def test_deterministic_and_sorted(self):
        first = diurnal_trace(1.0, 500.0, seed=11)
        second = diurnal_trace(1.0, 500.0, seed=11)
        assert first == second
        arrivals = [r.arrival_time_s for r in first]
        assert arrivals == sorted(arrivals)
        assert all(0 <= t < 500.0 for t in arrivals)
        assert [r.request_id for r in first] == list(range(len(first)))

    def test_mean_rate_between_trough_and_peak(self):
        duration = 20_000.0
        trace = diurnal_trace(
            1.0, duration, trough_rate_per_s=0.2, period_s=1000.0, seed=2
        )
        observed = len(trace) / duration
        # Sinusoid mean is (peak + trough) / 2 = 0.6 req/s.
        assert observed == pytest.approx(0.6, rel=0.1)

    def test_default_trough_is_a_tenth_of_peak(self):
        duration = 20_000.0
        trace = diurnal_trace(1.0, duration, period_s=1000.0, seed=3)
        assert len(trace) / duration == pytest.approx(0.55, rel=0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            diurnal_trace(0.0, 10.0)
        with pytest.raises(ConfigurationError):
            diurnal_trace(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            diurnal_trace(1.0, 10.0, trough_rate_per_s=-0.1)
        with pytest.raises(ConfigurationError):
            diurnal_trace(1.0, 10.0, trough_rate_per_s=2.0)
        with pytest.raises(ConfigurationError):
            diurnal_trace(1.0, 10.0, period_s=0.0)

    def test_composes_with_other_traces(self):
        merged = merge_traces(
            diurnal_trace(0.5, 100.0, seed=5),
            poisson_trace(0.5, 100.0, seed=6),
        )
        assert [r.request_id for r in merged] == list(range(len(merged)))
        arrivals = [r.arrival_time_s for r in merged]
        assert arrivals == sorted(arrivals)

    def test_serves_through_the_simulator(self):
        trace = diurnal_trace(2.0, 120.0, period_s=60.0, seed=7)
        report = ApplianceServer(_FixedLatencyPlatform(0.2), 2).serve(trace)
        assert report.num_requests == len(trace)
