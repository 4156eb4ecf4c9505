"""Tests for trace inspection tools, JSON export, and the command-line interface."""

import json

import pytest

from repro.analysis.export import result_to_dict, write_json
from repro.analysis.scorecard import DRIVERS
from repro.cli import build_parser, main
from repro.core.appliance import DFXAppliance
from repro.core.dma import DMAModel
from repro.core.mpu import MPUModel
from repro.core.router import RouterModel
from repro.core.scheduler import TimingScheduler
from repro.core.trace_tools import (
    critical_path_phases,
    idle_gaps,
    overlap_efficiency,
    render_gantt,
    unit_occupancies,
)
from repro.core.vpu import VPUModel
from repro.errors import ConfigurationError
from repro.isa.compiler import DFXCompiler
from repro.model.config import GPT2_345M, GPT2_1_5B
from repro.parallel.partitioner import build_partition_plan
from repro.workloads import Workload


@pytest.fixture(scope="module")
def traced_timing():
    plan = build_partition_plan(GPT2_1_5B, 4)
    program = DFXCompiler(GPT2_1_5B, plan, 0).compile_decoder_layer(1, 64)
    scheduler = TimingScheduler(MPUModel(), VPUModel(), DMAModel(), RouterModel(4))
    return scheduler.time_program(program, keep_traces=True)


@pytest.fixture(scope="module")
def untraced_timing():
    plan = build_partition_plan(GPT2_1_5B, 4)
    program = DFXCompiler(GPT2_1_5B, plan, 0).compile_decoder_layer(1, 64)
    scheduler = TimingScheduler(MPUModel(), VPUModel(), DMAModel(), RouterModel(4))
    return scheduler.time_program(program, keep_traces=False)


class TestTraceTools:
    def test_unit_occupancies_cover_all_units(self, traced_timing):
        occupancies = {o.unit: o for o in unit_occupancies(traced_timing)}
        assert {"mpu", "vpu", "dma", "router"} <= set(occupancies)
        assert all(0 < o.utilization <= 1.0 for o in occupancies.values())
        # The MPU is the busiest unit of a decoder layer.
        assert occupancies["mpu"].busy_cycles == max(
            o.busy_cycles for o in occupancies.values()
        )

    def test_untraced_timing_rejected(self, untraced_timing):
        with pytest.raises(ConfigurationError):
            unit_occupancies(untraced_timing)
        with pytest.raises(ConfigurationError):
            render_gantt(untraced_timing)

    def test_idle_gaps_are_ordered_intervals(self, traced_timing):
        gaps = idle_gaps(traced_timing, "mpu")
        for start, end in gaps:
            assert end > start
        assert idle_gaps(traced_timing, "nonexistent-unit") == []

    def test_render_gantt_shape(self, traced_timing):
        chart = render_gantt(traced_timing, max_instructions=10, width=40)
        lines = chart.splitlines()
        assert len(lines) == 11  # header + 10 instructions
        assert all("|" in line for line in lines[1:])
        with pytest.raises(ConfigurationError):
            render_gantt(traced_timing, max_instructions=0)

    def test_critical_path_phases_ranked(self, traced_timing):
        phases = critical_path_phases(traced_timing, top=3)
        assert len(phases) == 3
        shares = [share for _, share in phases]
        assert shares == sorted(shares, reverse=True)

    def test_overlap_efficiency_close_to_serial_or_better(self, traced_timing):
        # A decoder layer is dependency-dominated, so the schedule is close to
        # serial; pipeline drain can push the ratio slightly below 1.0, real
        # overlap pushes it above.
        efficiency = overlap_efficiency(traced_timing)
        assert 0.8 < efficiency < 4.0


class TestExport:
    def test_result_round_trip(self, tmp_path):
        result = DFXAppliance(GPT2_345M, num_devices=1).run(Workload(32, 4))
        payload = result_to_dict(result)
        path = write_json(payload, tmp_path / "result.json")
        # The file is valid JSON (no NumPy scalars leaked through).
        loaded = json.loads(path.read_text())
        assert loaded["platform"] == "dfx"
        assert loaded["workload"]["label"] == "[32:4]"
        assert loaded["latency_ms"] == pytest.approx(result.latency_ms)


class TestCLI:
    def test_parser_covers_both_commands(self):
        parser = build_parser()
        run_args = parser.parse_args(["run", "--model", "345m", "--devices", "1"])
        assert run_args.command == "run"
        experiment_args = parser.parse_args(["experiment", "figure18"])
        assert experiment_args.name == "figure18"

    def test_run_command_prints_table(self, capsys):
        exit_code = main([
            "run", "--model", "345m", "--devices", "1",
            "--input", "32", "--output", "4", "--compare-gpu",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "DFX" in output and "GPU appliance" in output
        assert "speedup" in output

    def test_run_command_writes_json(self, tmp_path, capsys):
        destination = tmp_path / "out.json"
        exit_code = main([
            "run", "--model", "345m", "--devices", "1",
            "--input", "32", "--output", "4", "--json", str(destination),
        ])
        assert exit_code == 0
        assert destination.exists()
        assert json.loads(destination.read_text())["model"] == "gpt2-345m"

    def test_experiment_command_table1(self, capsys):
        exit_code = main(["experiment", "table1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "gpt2-1.5b" in output

    def test_experiment_registry_names(self):
        assert {"figure14", "figure15", "table2", "accuracy"} <= set(DRIVERS)

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])


class TestCLIServe:
    def test_parser_covers_serve(self):
        args = build_parser().parse_args([
            "serve", "--backend", "gpu", "--model", "test-small",
            "--batch-policy", "dynamic", "--rate", "2.5",
        ])
        assert args.command == "serve"
        assert args.backend == "gpu"
        assert args.batch_policy == "dynamic"
        assert args.rate == 2.5

    def test_serve_synthetic_trace_on_dfx(self, capsys):
        exit_code = main([
            "serve", "--backend", "dfx", "--model", "test-tiny",
            "--rate", "2", "--duration", "10", "--clusters", "2",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "backend dfx: 2 cluster(s)" in output
        assert "p95 response (s)" in output
        assert "output tokens/s" in output

    def test_serve_batched_gpu_reports_batch_stats(self, capsys):
        exit_code = main([
            "serve", "--backend", "gpu", "--model", "test-tiny",
            "--batch-policy", "dynamic", "--rate", "4", "--duration", "10",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "batch_policy=dynamic" in output
        assert "mean batch size" in output

    def test_serve_replays_a_recorded_log(self, tmp_path, capsys):
        log = tmp_path / "requests.csv"
        log.write_text(
            "arrival_time_s,input_tokens,output_tokens\n"
            "0.0,8,8\n0.5,8,4\n1.5,4,8\n"
        )
        exit_code = main([
            "serve", "--backend", "tpu", "--model", "test-tiny",
            "--trace", str(log),
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "serving 3 requests" in output
        assert str(log) in output

    def test_serve_with_service_levels_reports_slo(self, capsys):
        exit_code = main([
            "serve", "--backend", "dfx", "--model", "test-tiny",
            "--rate", "2", "--duration", "10", "--slo-s", "5",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "SLO attainment" in output

    def test_serve_slo_override_keeps_replayed_service_levels(self, tmp_path,
                                                              capsys):
        # --slo-s must only set the SLO: the log's own priorities, patience,
        # and service classes survive (a priority scheduler still sees them).
        log = tmp_path / "requests.csv"
        log.write_text(
            "arrival_time_s,input_tokens,output_tokens,priority,service_class\n"
            "0.0,8,8,5,interactive\n0.2,8,8,0,batch\n"
        )
        exit_code = main([
            "serve", "--backend", "dfx", "--model", "test-tiny",
            "--trace", str(log), "--slo-s", "8", "--scheduler", "priority",
        ])
        assert exit_code == 0
        assert "SLO attainment" in capsys.readouterr().out
        from repro.serving import replay_trace
        replayed = replay_trace(log)
        assert [r.priority for r in replayed] == [5, 0]
        assert [r.service_class for r in replayed] == ["interactive", "batch"]

    def test_serve_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "npu"])

    @pytest.mark.parametrize("gbps", ["nan", "-5", "inf"])
    def test_serve_rejects_a_link_bandwidth_that_is_not_positive(self, gbps):
        # Only exactly 0 means a free link; these used to serve one silently.
        with pytest.raises(ConfigurationError, match="link_gbps"):
            main([
                "serve", "--backend", "dfx", "--model", "test-tiny",
                "--rate", "1", "--duration", "5", "--topology", "2x1",
                "--link-gbps", gbps,
            ])


class TestCLIDse:
    ARGS = [
        "dse", "--mode", "factorial", "--model", "test-tiny",
        "--backends", "dfx", "--schedulers", "fifo", "--batch-sizes", "1",
    ]

    @pytest.mark.parametrize("flag, value, field", [
        ("--duration", "nan", "serving_duration_s"),
        ("--duration", "-1", "serving_duration_s"),
        ("--duration", "inf", "serving_duration_s"),
        ("--rate", "nan", "arrival_rate_per_s"),
        ("--rate", "inf", "arrival_rate_per_s"),
    ])
    def test_rejects_a_rate_or_duration_that_is_not_finite_and_positive(
        self, flag, value, field
    ):
        with pytest.raises(ConfigurationError, match=field):
            main(self.ARGS + [flag, value])

    @pytest.mark.parametrize("flag, dimension", [
        ("--batch-sizes", "batch"),
        ("--devices", "devices"),
        ("--racks", "racks"),
    ])
    def test_rejects_a_count_level_below_one(self, flag, dimension):
        # Each used to exit 0 with every candidate infeasible.
        with pytest.raises(ConfigurationError, match=dimension):
            main(self.ARGS + [flag, "0"])
