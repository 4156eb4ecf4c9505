"""Tests for the rack/link network model and network-aware fleet serving.

The property suite checks invariants over random topologies; the tests here
pin exact behavior on hand-built scenarios: link arithmetic, model
validation, transfer pricing (the bit-exact oracle), the cross-rack latency
tax acceptance criterion, network-aware routing, link faults (severed and
degraded links), shape-aware batch gathering, and retained/streaming
report agreement.
"""

import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    ApplianceFleet,
    ApplianceServer,
    Degradation,
    DynamicBatching,
    FaultSchedule,
    FleetMember,
    NetworkLink,
    NetworkModel,
    Outage,
    ServiceRequest,
    ShapeAwareScheduler,
)
from repro.workloads import Workload
from serving_doubles import FixedLatencyPlatform

BYTES_PER_TOKEN = 4.0


def request(request_id, arrival_s, input_tokens=4, output_tokens=8, **kwargs):
    return ServiceRequest(
        request_id=request_id,
        arrival_time_s=arrival_s,
        workload=Workload(input_tokens, output_tokens),
        **kwargs,
    )


def two_rack_network(link: NetworkLink, hosts_per_rack: int = 1) -> NetworkModel:
    racks = {
        f"rack{rack}": tuple(
            f"rack{rack}-host{host}" for host in range(hosts_per_rack)
        )
        for rack in range(2)
    }
    return NetworkModel.star(racks, ingress="rack0", link=link)


def two_rack_fleet(
    link: NetworkLink | None,
    latency_s: float = 1.0,
    hosts_per_rack: int = 1,
    **kwargs,
) -> ApplianceFleet:
    """One fixed-latency host per rack (or more) behind a star network.

    ``link=None`` builds the same fleet with no network model at all.
    """
    members = [
        FleetMember(
            f"rack{rack}-host{host}", FixedLatencyPlatform(latency_s)
        )
        for rack in range(2)
        for host in range(hosts_per_rack)
    ]
    network = None if link is None else two_rack_network(link, hosts_per_rack)
    return ApplianceFleet(members, network=network, **kwargs)


# ------------------------------------------------------------------- links
class TestNetworkLink:
    def test_default_link_is_free(self):
        link = NetworkLink()
        assert link.is_free
        assert link.one_way_s(0.0) == 0.0
        assert link.one_way_s(1e12) == 0.0

    def test_one_way_arithmetic(self):
        link = NetworkLink(latency_s=0.01, bandwidth_bytes_per_s=1000.0)
        assert link.one_way_s(500.0) == pytest.approx(0.01 + 0.5)
        assert not link.is_free

    def test_latency_only_link_ignores_payload(self):
        link = NetworkLink(latency_s=0.25)
        assert link.one_way_s(1e9) == 0.25

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkLink(latency_s=-1.0)
        with pytest.raises(ConfigurationError):
            NetworkLink(bandwidth_bytes_per_s=0.0)
        with pytest.raises(ConfigurationError):
            NetworkLink().one_way_s(-1.0)


# ------------------------------------------------------------------- model
class TestNetworkModel:
    def test_star_links_every_non_ingress_rack(self):
        link = NetworkLink(latency_s=0.1)
        network = NetworkModel.star(
            {"a": ("m0",), "b": ("m1",), "c": ("m2",)}, link=link
        )
        assert network.ingress == "a"  # first rack by default
        linked_racks = {network.rack_of(m) for m in network.cross_rack_members()}
        assert linked_racks == {"b", "c"}
        assert network.link_for("m1") == link
        assert network.link_for("m0") is None
        assert network.link_name_for("m0") is None
        assert network.link_name_for("m2") == "c"

    def test_placement_queries(self):
        network = two_rack_network(NetworkLink(), hosts_per_rack=2)
        assert network.members == (
            "rack0-host0", "rack0-host1", "rack1-host0", "rack1-host1"
        )
        assert network.rack_of("rack1-host0") == "rack1"
        assert network.rack_of("rack0-host1") == network.ingress
        assert network.rack_of("rack1-host1") != network.ingress
        assert network.cross_rack_members() == frozenset(
            {"rack1-host0", "rack1-host1"}
        )
        with pytest.raises(ConfigurationError):
            network.rack_of("unplaced")

    def test_missing_link_defaults_to_free(self):
        network = NetworkModel(
            racks={"a": ("m0",), "b": ("m1",)}, ingress="a"
        )
        assert network.link_for("m1") == NetworkLink()
        assert network.is_free

    def test_is_free_tracks_every_link(self):
        free = two_rack_network(NetworkLink())
        priced = two_rack_network(NetworkLink(latency_s=0.1))
        assert free.is_free
        assert not priced.is_free

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(racks={}, ingress="a")
        with pytest.raises(ConfigurationError):
            NetworkModel(racks={"a": ("m0",)}, ingress="zzz")
        with pytest.raises(ConfigurationError):  # duplicate placement
            NetworkModel(racks={"a": ("m0",), "b": ("m0",)}, ingress="a")
        with pytest.raises(ConfigurationError):  # link for unknown rack
            NetworkModel(
                racks={"a": ("m0",)},
                ingress="a",
                links={"b": NetworkLink()},
            )
        with pytest.raises(ConfigurationError):  # priced ingress link
            NetworkModel(
                racks={"a": ("m0",), "b": ("m1",)},
                ingress="a",
                links={"a": NetworkLink(latency_s=1.0)},
            )
        with pytest.raises(ConfigurationError):
            NetworkModel(
                racks={"a": ("m0",)}, ingress="a", bytes_per_token=-1.0
            )

    def test_transfer_pricing(self):
        link = NetworkLink(latency_s=0.5, bandwidth_bytes_per_s=100.0)
        network = NetworkModel.star(
            {"a": ("m0",), "b": ("m1",)},
            ingress="a",
            link=link,
            bytes_per_token=BYTES_PER_TOKEN,
        )
        workload = Workload(10, 20)
        # Ingress members pay exactly nothing.
        assert network.transfer_time_s("m0", workload) == 0.0
        # Off-rack: prompt ingress plus token egress, one latency each leg.
        expected = link.one_way_s(10 * BYTES_PER_TOKEN) + link.one_way_s(
            20 * BYTES_PER_TOKEN
        )
        assert network.transfer_time_s("m1", workload) == expected
        assert expected == pytest.approx(2 * 0.5 + (40.0 + 80.0) / 100.0)


# --------------------------------------------------------- fleet integration
class TestFleetNetworkServing:
    def test_build_time_placement_validation(self):
        members = [FleetMember("only", FixedLatencyPlatform(1.0))]
        with pytest.raises(ConfigurationError):  # member not placed
            ApplianceFleet(
                members,
                network=NetworkModel.star({"a": ("someone-else",)}),
            )
        with pytest.raises(ConfigurationError):  # network names a stranger
            ApplianceFleet(
                members,
                network=NetworkModel.star({"a": ("only", "stranger")}),
            )

    def test_records_carry_the_oracle_transfer_time(self):
        # Saturate one host per rack so dispatches land on both racks, and
        # check every record's transfer against the model's own pricing —
        # bitwise, not approximately: the simulator and the oracle must
        # evaluate the identical expression.
        link = NetworkLink(latency_s=0.05, bandwidth_bytes_per_s=1000.0)
        fleet = two_rack_fleet(link)
        network = fleet.network
        trace = [request(i, 0.1 * i) for i in range(10)]
        report = fleet.serve(trace)
        assert len(report.completed) == 10
        racks_used = {network.rack_of(c.appliance) for c in report.completed}
        assert racks_used == {"rack0", "rack1"}  # both racks actually served
        for completed in report.completed:
            expected = network.transfer_time_s(
                completed.appliance, completed.request.workload
            )
            assert completed.transfer_time_s == expected
            if network.link_for(completed.appliance) is not None:
                assert completed.transfer_time_s > 0.0
            else:
                assert completed.transfer_time_s == 0.0

    def test_report_transfer_accounting_matches_recompute(self):
        link = NetworkLink(latency_s=0.05, bandwidth_bytes_per_s=1000.0)
        fleet = two_rack_fleet(link)
        report = fleet.serve([request(i, 0.1 * i) for i in range(10)])
        transfers = [d.transfer_time_s for d in report.iter_dispatches()]
        cross = [
            d
            for d in report.iter_dispatches()
            if d.appliance in report.cross_rack_members
        ]
        assert report.total_transfer_time_s == pytest.approx(sum(transfers))
        assert report.mean_transfer_time_s == pytest.approx(
            sum(transfers) / len(transfers)
        )
        assert report.num_cross_rack_dispatches == len(cross)
        assert report.cross_rack_dispatch_fraction == pytest.approx(
            len(cross) / report.num_batches
        )
        assert report.cross_rack_members == frozenset({"rack1-host0"})

    def test_cross_rack_p99_pays_the_latency_tax(self):
        # The acceptance criterion: the identical trace on the identical
        # fleet, once with a priced link and once with a zero-cost network —
        # cross-rack dispatches pay strictly more at the tail.
        trace = [request(i, 0.1 * i) for i in range(20)]
        priced = two_rack_fleet(
            NetworkLink(latency_s=0.25, bandwidth_bytes_per_s=1000.0)
        ).serve(trace)
        free = two_rack_fleet(NetworkLink()).serve(trace)
        assert priced.num_cross_rack_dispatches > 0
        assert free.num_cross_rack_dispatches > 0
        assert priced.cross_rack_response_percentile_s(
            99.0
        ) > free.cross_rack_response_percentile_s(99.0)
        assert priced.total_transfer_time_s > 0.0
        assert free.total_transfer_time_s == 0.0

    def test_routing_is_network_aware(self):
        # At trivial load behind a slow link, the greedy earliest-finish
        # router keeps everything on the ingress rack: the remote unit is
        # idle but its transfer tax always loses to serving locally.
        fleet = two_rack_fleet(NetworkLink(latency_s=10.0))
        report = fleet.serve([request(i, 3.0 * i) for i in range(6)])
        assert {c.appliance for c in report.completed} == {"rack0-host0"}
        assert report.num_cross_rack_dispatches == 0
        assert report.cross_rack_response_percentile_s(99.0) == 0.0

    def test_zero_cost_network_matches_no_network(self):
        # A free star prices every transfer at exactly 0.0: the records must
        # be bit-identical to the same fleet with no network model at all.
        trace = [request(i, 0.3 * i) for i in range(15)]
        with_net = two_rack_fleet(NetworkLink(), hosts_per_rack=2).serve(trace)
        without = two_rack_fleet(None, hosts_per_rack=2).serve(trace)
        assert with_net.completed == without.completed
        assert with_net.abandoned == without.abandoned
        assert with_net.failed == without.failed
        assert with_net.makespan_s == without.makespan_s
        assert with_net.total_energy_joules == without.total_energy_joules
        # The only difference is that the network names its cross-rack set.
        assert without.cross_rack_members == frozenset()
        assert with_net.cross_rack_members == frozenset(
            {"rack1-host0", "rack1-host1"}
        )

    def test_no_network_reports_zero_network_stats(self):
        report = two_rack_fleet(None).serve([request(0, 0.0)])
        assert report.total_transfer_time_s == 0.0
        assert report.num_cross_rack_dispatches == 0
        assert report.cross_rack_dispatch_fraction == 0.0
        assert report.cross_rack_response_percentile_s(99.0) == 0.0
        assert report.downtime_by_link() == {}

    def test_streaming_mode_agrees_with_retained(self):
        link = NetworkLink(latency_s=0.05, bandwidth_bytes_per_s=1000.0)
        trace = [request(i, 0.1 * i) for i in range(12)]
        retained = two_rack_fleet(link).serve(trace)
        streaming = two_rack_fleet(link, retain_records=False).serve(trace)
        assert not streaming.completed  # records really were streamed away
        assert streaming.total_transfer_time_s == pytest.approx(
            retained.total_transfer_time_s
        )
        assert streaming.mean_transfer_time_s == pytest.approx(
            retained.mean_transfer_time_s
        )
        assert (
            streaming.num_cross_rack_dispatches
            == retained.num_cross_rack_dispatches
        )
        assert streaming.cross_rack_dispatch_fraction == pytest.approx(
            retained.cross_rack_dispatch_fraction
        )
        assert streaming.cross_rack_response_percentile_s(50.0) > 0.0


# -------------------------------------------------------------- link faults
class TestLinkFaults:
    LINK = NetworkLink(latency_s=0.1)

    def test_severed_link_blocks_new_dispatches_until_repair(self):
        # rack1's link is down 2..6: arrivals in the window queue for rack0
        # or wait; nothing *starts* on rack1 inside the window.
        fleet = two_rack_fleet(self.LINK)
        trace = [request(i, 0.5 * i) for i in range(16)]
        fleet.faults = FaultSchedule.scripted(
            Outage(start_s=2.0, duration_s=4.0, link="rack1")
        )
        report = fleet.serve(trace)
        assert report.num_failed == 0
        assert len(report.completed) == 16
        for completed in report.completed:
            if completed.appliance == "rack1-host0":
                assert not 2.0 < completed.start_time_s < 6.0

    def test_severed_link_lets_inflight_work_complete(self):
        # A partition is not a crash: the request running on rack1 when the
        # link drops at t=1 finishes normally (no kill, no retry).
        fleet = two_rack_fleet(self.LINK, latency_s=4.0)
        fleet.faults = FaultSchedule.scripted(
            Outage(start_s=1.0, duration_s=10.0, link="rack1")
        )
        # Two simultaneous arrivals: one lands on each rack at t=0.
        report = fleet.serve([request(0, 0.0), request(1, 0.0)])
        assert report.num_failed == 0
        assert sorted(c.appliance for c in report.completed) == [
            "rack0-host0", "rack1-host0"
        ]

    def test_downtime_is_accounted_per_link(self):
        fleet = two_rack_fleet(self.LINK)
        fleet.faults = FaultSchedule.scripted(
            Outage(start_s=1.0, duration_s=2.0, link="rack1")
        )
        report = fleet.serve([request(i, 0.5 * i) for i in range(12)])
        assert report.link_downtime == {"rack1": ((1.0, 3.0),)}
        assert report.downtime_by_link() == pytest.approx({"rack1": 2.0})
        # A down link is a partition, not a unit failure: unit availability
        # is untouched.
        assert report.unit_downtime == {}
        assert report.availability == 1.0

    def test_degraded_link_stretches_transfer_only(self):
        # 3x degradation on rack1's link over 0..100: compute time is
        # unchanged, the transfer term triples.
        fleet = two_rack_fleet(self.LINK)
        network = fleet.network
        fleet.faults = FaultSchedule.scripted(
            Degradation(start_s=0.0, duration_s=100.0, slowdown=3.0, link="rack1")
        )
        report = fleet.serve([request(i, 0.1 * i) for i in range(10)])
        base = {
            c.request.request_id: network.transfer_time_s(
                c.appliance, c.request.workload
            )
            for c in report.completed
        }
        for completed in report.completed:
            expected = 3.0 * base[completed.request.request_id]
            if completed.appliance == "rack1-host0":
                assert completed.transfer_time_s == pytest.approx(expected)
                assert (
                    completed.finish_time_s - completed.start_time_s
                ) == pytest.approx(1.0 + expected)
            else:
                assert completed.transfer_time_s == 0.0

    def test_link_target_requires_a_network(self):
        fleet = two_rack_fleet(None)
        fleet.faults = FaultSchedule.scripted(
            Outage(start_s=0.0, duration_s=1.0, link="rack1")
        )
        with pytest.raises(ConfigurationError, match="link"):
            fleet.serve([request(0, 0.0)])
        server = ApplianceServer(
            FixedLatencyPlatform(1.0),
            num_clusters=1,
            platform_name="solo",
            faults=FaultSchedule.scripted(
                Outage(start_s=0.0, duration_s=1.0, link="rack1")
            ),
        )
        with pytest.raises(ConfigurationError, match="link"):
            server.serve([request(0, 0.0)])

    def test_unknown_link_name_is_rejected(self):
        fleet = two_rack_fleet(self.LINK)
        fleet.faults = FaultSchedule.scripted(
            Outage(start_s=0.0, duration_s=1.0, link="rack9")
        )
        with pytest.raises(ConfigurationError):
            fleet.serve([request(0, 0.0)])


# --------------------------------------------------- shape-aware batching
class TestShapeAwareScheduler:
    def test_singleton_dispatch_is_fifo(self):
        queue = [request(0, 0.0), request(1, 1.0)]
        assert ShapeAwareScheduler().select(0.0, queue, lambda r: 1.0) == 0

    def test_batch_gathers_closest_output_lengths(self):
        queue = [
            request(0, 0.0, output_tokens=10),
            request(1, 0.1, output_tokens=50),
            request(2, 0.2, output_tokens=11),
            request(3, 0.3, output_tokens=49),
        ]
        policy = ShapeAwareScheduler()
        # Anchor is the oldest request (10 tokens); 11 is its closest mate.
        assert policy.select_batch(1.0, queue, lambda r: 1.0, 2) == [0, 2]
        # With more seats the next-closest shapes join, in arrival order.
        assert policy.select_batch(1.0, queue, lambda r: 1.0, 3) == [0, 2, 3]
        assert policy.select_batch(1.0, queue, lambda r: 1.0, 9) == [0, 1, 2, 3]

    def test_ties_break_toward_arrival_order(self):
        queue = [
            request(0, 0.0, output_tokens=10),
            request(1, 0.1, output_tokens=12),
            request(2, 0.2, output_tokens=8),
        ]
        # |12-10| == |8-10|: the earlier arrival wins the last seat.
        batch = ShapeAwareScheduler().select_batch(1.0, queue, lambda r: 1.0, 2)
        assert batch == [0, 1]

    def test_end_to_end_batches_share_similar_shapes(self):
        # Short and long generations arrive interleaved; shape-aware
        # gathering under dynamic batching groups like with like.
        from serving_doubles import BatchableTokenPlatform

        server = ApplianceServer(
            BatchableTokenPlatform(fixed_ms_per_token=100.0),
            num_clusters=1,
            platform_name="batchy",
            scheduler="shape",
            batch_policy=DynamicBatching(2, 0.05),
            max_batch_size=2,
        )
        trace = [
            # A warmup request keeps the unit busy so the four shaped
            # requests are all queued when the first batch gathers.
            request(0, 0.0, output_tokens=8),
            request(1, 0.1, output_tokens=4),
            request(2, 0.2, output_tokens=64),
            request(3, 0.3, output_tokens=5),
            request(4, 0.4, output_tokens=63),
        ]
        report = server.serve(trace)
        batches: dict[object, list[int]] = {}
        for completed in report.completed:
            if completed.request.request_id == 0:
                continue
            batches.setdefault(completed.batch_id, []).append(
                completed.request.workload.output_tokens
            )
        shapes = sorted(sorted(members) for members in batches.values())
        assert shapes == [[4, 5], [63, 64]]
