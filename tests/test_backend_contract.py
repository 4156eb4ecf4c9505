"""The shared backend-contract suite, run against every registered backend.

Every backend in the registry must honour the same contract:

* registry round-trip — ``make_backend(name)`` builds it and it knows its
  name;
* estimate sanity — positive latency, the workload echoed back,
  deterministic repeat calls;
* batched/unbatched consistency — a batch of one is *exactly* the
  singleton estimate (the passthrough the serving equivalence relies on);
* capabilities honesty — ``supports_batching`` and ``max_batch_size``
  describe what ``batched_estimate`` actually accepts, and
  ``generates_tokens`` backends really generate.

The serving classes at the bottom hold the serving stack (oracle, front
ends, batch cost model) to the same boundary: it takes a backend instance
or a registry name, and rejects anything else by its type.
"""

import pytest

from repro.backends import (
    AnalyticBackend,
    BackendCapabilities,
    available_backends,
    is_backend,
    make_backend,
    register_backend,
)
from repro.baselines.gpu import GPUAppliance
from repro.errors import ConfigurationError
from repro.model.config import GPT2_TEST_TINY
from repro.serving import (
    ApplianceFleet,
    ApplianceServer,
    BackendBatchCostModel,
    DynamicBatching,
    FleetMember,
    LatencyOracle,
    ServiceRequest,
    poisson_trace,
)
from repro.workloads import Workload
from serving_doubles import (
    BatchableTokenPlatform as _BatchableTokenPlatform,
    FixedLatencyPlatform as _FixedLatencyPlatform,
)

WORKLOAD = Workload(8, 8)
BACKEND_NAMES = ("dfx", "dfx-4u", "dfx-sim", "gpu", "tpu")


@pytest.fixture(scope="module")
def backends():
    """One instance of every registered backend on the tiny test model."""
    return {name: make_backend(name, config=GPT2_TEST_TINY) for name in BACKEND_NAMES}


class TestRegistry:
    def test_registry_names(self):
        assert available_backends() == sorted(BACKEND_NAMES)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            make_backend("npu")
        with pytest.raises(ConfigurationError):
            make_backend(42)

    def test_instance_passthrough(self, backends):
        assert make_backend(backends["dfx"]) is backends["dfx"]

    def test_instance_passthrough_rejects_kwargs(self, backends):
        with pytest.raises(ConfigurationError):
            make_backend(backends["dfx"], devices=2)

    def test_register_backend_duplicate_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend("dfx", lambda **kwargs: None)
        with pytest.raises(ConfigurationError):
            register_backend("", lambda **kwargs: None)

    def test_register_backend_round_trip(self):
        from repro.backends.registry import BACKENDS

        def factory(**kwargs):
            return _FixedLatencyPlatform(1.0)

        register_backend("fixed-test", factory)
        try:
            backend = make_backend("fixed-test")
            assert backend.estimate(WORKLOAD).latency_s == pytest.approx(1.0)
        finally:
            del BACKENDS["fixed-test"]

    def test_preset_names_accepted(self):
        backend = make_backend("dfx", config="test-tiny")
        assert backend.appliance.config is GPT2_TEST_TINY


class TestCapabilitiesValidation:
    def test_dishonest_batching_declaration_rejected(self):
        with pytest.raises(ConfigurationError):
            BackendCapabilities(platform="x", supports_batching=True,
                                max_batch_size=1)
        with pytest.raises(ConfigurationError):
            BackendCapabilities(platform="x", supports_batching=False,
                                max_batch_size=4)
        with pytest.raises(ConfigurationError):
            BackendCapabilities(platform="x", max_batch_size=0)

    def test_wrapper_without_batching_hook_cannot_claim_batching(self):
        with pytest.raises(ConfigurationError):
            AnalyticBackend(_FixedLatencyPlatform(1.0), max_batch_size=4)

    def test_uncapped_cost_model_serves_batches_beyond_any_guessed_cap(self):
        # Regression: the legacy GPU batching hook has no architectural
        # cap, so the wrapper must not invent one — an 80-request batch
        # priced through the shim worked before the protocol and must
        # keep working.
        platform = _BatchableTokenPlatform(fixed_ms_per_token=100.0)
        server = ApplianceServer(
            platform, 1, "batchable",
            batch_policy=DynamicBatching(80, 10.0), max_batch_size=80,
        )
        trace = [ServiceRequest(i, 0.0, Workload(1, 1)) for i in range(80)]
        report = server.serve(trace)
        assert report.batch_size_distribution() == {80: 1}

    def test_declared_cap_fails_at_build_time_not_mid_simulation(self):
        backend = make_backend("gpu", config=GPT2_TEST_TINY, max_batch_size=4)
        with pytest.raises(ConfigurationError):
            ApplianceServer(
                backend, batch_policy=DynamicBatching(8, 1.0), max_batch_size=8
            )
        with pytest.raises(ConfigurationError):
            ApplianceFleet(
                [FleetMember("gpu", backend, num_clusters=1, max_batch_size=8)]
            )
        # At or under the declared cap, the same backend builds fine.
        ApplianceServer(
            backend, batch_policy=DynamicBatching(4, 1.0), max_batch_size=4
        )


@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestBackendContract:
    def test_knows_its_registry_name(self, backends, name):
        backend = backends[name]
        assert backend.name == name
        assert is_backend(backend)
        assert backend.capabilities().platform == name

    def test_estimate_sanity(self, backends, name):
        result = backends[name].estimate(WORKLOAD)
        assert result.workload == WORKLOAD
        assert result.latency_s > 0
        assert result.num_devices == backends[name].capabilities().num_devices

    def test_estimate_deterministic(self, backends, name):
        backend = backends[name]
        first = backend.estimate(WORKLOAD)
        second = backend.estimate(WORKLOAD)
        assert first.latency_s == second.latency_s
        assert first.energy_joules == second.energy_joules

    def test_energy_hook_honesty(self, backends, name):
        backend = backends[name]
        result = backend.estimate(WORKLOAD)
        if backend.capabilities().supports_energy:
            assert result.total_power_watts > 0
            assert result.energy_joules > 0

    def test_batch_of_one_is_the_singleton_estimate(self, backends, name):
        backend = backends[name]
        single = backend.estimate(WORKLOAD)
        for batch in (backend.batched_estimate([WORKLOAD]),
                      backend.batched_estimate([WORKLOAD], batch_size=1)):
            assert batch.batch_size == 1
            assert batch.workload == WORKLOAD
            assert batch.latency_s == single.latency_s
            assert batch.energy_joules == single.energy_joules

    def test_batched_estimate_matches_declared_capabilities(self, backends, name):
        backend = backends[name]
        capabilities = backend.capabilities()
        if not capabilities.supports_batching:
            with pytest.raises(ConfigurationError):
                backend.batched_estimate([WORKLOAD, WORKLOAD])
            return
        single = backend.estimate(WORKLOAD)
        batch = backend.batched_estimate([WORKLOAD, WORKLOAD])
        assert batch.batch_size == 2
        # A batch is slower than one request alone but faster than two in
        # sequence — otherwise batching would be free or pointless.
        assert single.latency_s <= batch.latency_s < 2 * single.latency_s
        # A declared (finite) cap must really be enforced; unbounded
        # backends (UNBOUNDED_BATCH_SIZE) have nothing to overflow.
        if capabilities.max_batch_size < 1024:
            with pytest.raises(ConfigurationError):
                backend.batched_estimate(
                    [WORKLOAD] * (capabilities.max_batch_size + 1)
                )

    def test_batched_estimate_priced_at_dominant_shape(self, backends, name):
        backend = backends[name]
        if not backend.capabilities().supports_batching:
            return
        mixed = backend.batched_estimate([Workload(8, 2), Workload(2, 8)])
        assert mixed.workload == Workload(8, 8)
        assert mixed.latency_s == backend.batched_estimate(
            [WORKLOAD, WORKLOAD]
        ).latency_s

    def test_batch_size_smaller_than_batch_rejected(self, backends, name):
        with pytest.raises(ConfigurationError):
            backends[name].batched_estimate([WORKLOAD, WORKLOAD], batch_size=1)
        with pytest.raises(ConfigurationError):
            backends[name].batched_estimate([WORKLOAD], batch_size=0)
        with pytest.raises(ConfigurationError):
            backends[name].batched_estimate([])

    def test_generates_tokens_honesty(self, backends, name):
        backend = backends[name]
        if not backend.capabilities().generates_tokens:
            assert not hasattr(backend, "generate")
            return
        generation = backend.generate([3, 1, 4], max_new_tokens=4)
        assert len(generation.output_token_ids) == 4
        assert generation.timing.workload == Workload(3, 4)

    def test_serves_a_trace_end_to_end(self, backends, name):
        trace = poisson_trace(2.0, 10.0, seed=1)
        report = ApplianceServer(backends[name], num_clusters=2).serve(trace)
        assert report.num_offered == len(trace)
        assert report.platform == name
        assert report.num_requests == len(trace)


class TestDFXSimBatchingHonesty:
    """dfx-sim really batches; the analytic dfx backends really don't."""

    def test_dfx_sim_declares_batching(self, backends):
        from repro.backends import UNBOUNDED_BATCH_SIZE

        capabilities = backends["dfx-sim"].capabilities()
        assert capabilities.supports_batching
        assert capabilities.max_batch_size == UNBOUNDED_BATCH_SIZE
        assert capabilities.generates_tokens

    def test_analytic_dfx_backends_stay_unbatched(self, backends):
        # The paper's appliance serves unbatched (Sec. III-A); only the
        # functional-sim backend grows the batched engine.
        for name in ("dfx", "dfx-4u"):
            capabilities = backends[name].capabilities()
            assert not capabilities.supports_batching
            assert capabilities.max_batch_size == 1

    def test_batch_priced_by_cohort_model_not_singleton(self, backends):
        backend = backends["dfx-sim"]
        single = backend.estimate(WORKLOAD)
        for size in (2, 4, 8):
            batch = backend.batched_estimate([WORKLOAD] * size)
            # Honest cohort pricing: slower than one request (per-stream KV
            # work is not amortized) but far cheaper than `size` sequential
            # requests (the weight stream is shared).
            assert single.latency_s < batch.latency_s < size * single.latency_s
            expected_s = backend._appliance.batched_request_seconds(WORKLOAD, size)
            assert batch.latency_s == pytest.approx(expected_s)

    def test_batched_energy_is_power_times_wall_clock(self, backends):
        backend = backends["dfx-sim"]
        single = backend.estimate(WORKLOAD)
        batch = backend.batched_estimate([WORKLOAD] * 4)
        power_watts = single.total_power_watts
        assert batch.energy_joules == pytest.approx(power_watts * batch.latency_s)

    def test_generate_batch_bit_identical_to_sequential(self, backends):
        backend = backends["dfx-sim"]
        prompts = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        batched = backend.generate_batch(prompts, 4)
        assert batched.batch_size == 3
        assert batched.latency_s > 0
        assert batched.aggregate_tokens_per_second > 0
        sequential = [
            backend.generate(prompt, 4).output_token_ids for prompt in prompts
        ]
        assert batched.output_token_ids == sequential

    def test_batched_server_runs_dfx_sim_end_to_end(self, backends):
        report = ApplianceServer(
            backends["dfx-sim"],
            batch_policy=DynamicBatching(4, timeout_s=0.5),
            max_batch_size=4,
        ).serve(poisson_trace(3.0, 20.0, seed=5))
        assert report.num_requests > 0
        assert max(report.batch_size_distribution()) > 1


class TestServingEquivalence:
    """The serving stack honors each backend's own models and names."""

    def test_custom_batched_energy_model_is_honored(self):
        """A backend whose batched energy is not power x wall clock keeps
        its own model in the serving report."""
        from repro.backends import BatchEstimate, dominant_workload

        class FlatEnergyBackend:
            """Batch energy is a flat 7 J regardless of size or latency."""

            name = "flat-energy"

            def estimate(self, workload):
                return _BatchableTokenPlatform().run(workload)

            def batched_estimate(self, workloads, batch_size=None):
                shape = dominant_workload(workloads)
                size = len(workloads) if batch_size is None else batch_size
                if size == 1:
                    result = self.estimate(shape)
                    return BatchEstimate(shape, 1, result.latency_s,
                                         result.energy_joules)
                latency = _BatchableTokenPlatform().batched_request_latency_ms(
                    shape, size) / 1e3
                return BatchEstimate(shape, size, latency, 7.0)

            def capabilities(self):
                from repro.backends import BackendCapabilities
                return BackendCapabilities(
                    platform=self.name, supports_batching=True, max_batch_size=8
                )

        costs = BackendBatchCostModel(FlatEnergyBackend())
        workloads = [Workload(1, 2), Workload(1, 3)]
        latency_s = costs.batch_latency_s(workloads)
        assert costs.batch_energy_joules(workloads, latency_s) == 7.0
        # An arbitrary wall clock bills the same draw model proportionally.
        assert costs.batch_energy_joules(workloads, latency_s / 2) == (
            pytest.approx(3.5)
        )

    def test_fleet_member_accepts_backend_names(self):
        fleet = ApplianceFleet(
            [FleetMember("dfx", make_backend("dfx", config=GPT2_TEST_TINY), 2)]
        )
        report = fleet.serve(poisson_trace(1.0, 10.0, seed=3))
        assert report.num_requests > 0
        assert fleet.backend_for("dfx").name == "dfx"
        with pytest.raises(ConfigurationError):
            fleet.backend_for("gpu")


class TestBackendBoundary:
    """Serving entry points take a backend instance or a registry name only."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda raw: ApplianceServer(raw, 1),
            lambda raw: ApplianceFleet([FleetMember("raw", raw, 1)]),
            LatencyOracle,
            BackendBatchCostModel,
        ],
        ids=["server", "fleet", "oracle", "batch-cost-model"],
    )
    def test_raw_platform_model_rejected_naming_its_type(self, build):
        # A bare timing model with run(workload) is not a Backend: wrap it in
        # its adapter (GPUApplianceBackend(appliance=...)) to serve it.
        raw = GPUAppliance(GPT2_TEST_TINY, num_devices=1)
        with pytest.raises(ConfigurationError, match="got GPUAppliance"):
            build(raw)
