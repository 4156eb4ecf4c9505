"""Tests for ``ServingScenario``: one serving run declared as a value."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    DATACENTER_MIX,
    ApplianceFleet,
    DynamicBatching,
    FleetMember,
    NetworkLink,
    NetworkModel,
    ServiceRequest,
    ServingScenario,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
)
from repro.workloads import Workload
from serving_doubles import FixedLatencyPlatform
from test_serving_golden import snapshot

LINK = NetworkLink(latency_s=0.2, bandwidth_bytes_per_s=1e6)


def _members():
    return (
        FleetMember("fast", FixedLatencyPlatform(1.0), num_clusters=2),
        FleetMember("slow", FixedLatencyPlatform(3.0), num_clusters=1),
    )


def _scenario(**fields) -> ServingScenario:
    base = {"members": _members(), "rate_per_s": 2.5, "duration_s": 40.0,
            "mix": DATACENTER_MIX, "seed": 4, "link": LINK}
    return ServingScenario(**{**base, **fields})


class TestFrontEnd:
    def test_without_racks_matches_a_hand_built_fleet(self):
        members = _members()
        by_hand = ApplianceFleet(members, scheduler="sjf").serve(
            poisson_trace(2.5, 40.0, DATACENTER_MIX, seed=4)
        )
        report = _scenario(members=members, scheduler="sjf").run()
        assert snapshot(report) == snapshot(by_hand)

    def test_racks_match_a_hand_built_star(self):
        members = _members()
        placement = {
            f"rack{rack}": (f"rack{rack}-fast", f"rack{rack}-slow")
            for rack in range(2)
        }
        by_hand = ApplianceFleet(
            [
                replace(member, name=f"rack{rack}-{member.name}")
                for rack in range(2)
                for member in members
            ],
            network=NetworkModel.star(placement, ingress="rack0", link=LINK),
        ).serve(poisson_trace(2.5, 40.0, DATACENTER_MIX, seed=4))
        report = _scenario(members=members, racks=2).run()
        assert report.num_cross_rack_dispatches > 0
        assert snapshot(report) == snapshot(by_hand)

    def test_unset_member_batch_size_takes_the_policy_size(self):
        member = FleetMember("gpu", "gpu", max_batch_size=None)
        fleet = ServingScenario(
            members=(member,), batch_policy=DynamicBatching(6, 1.0)
        ).front_end()
        assert fleet.members[0].max_batch_size == 6


class TestTrace:
    @pytest.mark.parametrize(
        "arrivals, builder",
        [
            ("poisson", lambda: poisson_trace(2.5, 40.0, DATACENTER_MIX, seed=4)),
            ("bursty", lambda: bursty_trace(
                2.5, 0.0, 40.0, mix=DATACENTER_MIX, seed=4)),
            ("diurnal", lambda: diurnal_trace(
                2.5, 40.0, period_s=30.0, mix=DATACENTER_MIX, seed=4)),
        ],
    )
    def test_arrivals_pick_the_trace_builder(self, arrivals, builder):
        scenario = _scenario(arrivals=arrivals, period_s=30.0)
        assert scenario.trace() == builder()

    def test_service_levels_override_only_their_two_fields(self):
        logged = ServiceRequest(
            0, 0.5, Workload(32, 16), priority=2, slo_s=9.0,
            service_class="batch", retryable=False,
        )
        tagged = _scenario(requests=[logged], slo_s=3.0).trace()
        assert tagged == [replace(logged, slo_s=3.0)]
        tagged = _scenario(requests=[logged], patience_s=1.5).trace()
        assert tagged == [replace(logged, patience_s=1.5)]
        assert _scenario(requests=[logged]).trace() == [logged]

    def test_streaming_is_lazy_and_keeps_no_records(self):
        retained = _scenario(racks=2, slo_s=4.0)
        streamed = replace(retained, streaming=True)
        trace = streamed.trace()
        assert not hasattr(trace, "__len__")
        assert list(trace) == retained.trace()
        report, expected = streamed.run(), retained.run()
        assert report.completed == [] and expected.completed
        counts, expected_counts = snapshot(report)["counts"], snapshot(expected)["counts"]
        assert counts == expected_counts


class TestValidation:
    def test_rejects_a_zero_rack_count(self):
        with pytest.raises(ConfigurationError, match="racks"):
            ServingScenario(racks=0)

    def test_rejects_an_unknown_arrival_process(self):
        with pytest.raises(ConfigurationError, match="arrivals"):
            ServingScenario(arrivals="uniform")

    def test_trace_fields_are_checked_by_the_builders(self):
        with pytest.raises(ConfigurationError, match="duration_s"):
            ServingScenario(duration_s=float("nan")).trace()
