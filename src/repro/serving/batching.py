"""Batch formation for the discrete-event serving simulator.

The paper's central serving argument (Sec. III-A): datacenters run
text generation *unbatched* because batching trades latency for
throughput — a GPU must gather several independent user requests before
its kernels are well utilized, and every gathered request waits for the
batch to fill and then for the whole batch's tokens.  DFX is built for
the unbatched regime.  This module adds the other side of that tradeoff
to the simulator, so the latency-vs-throughput argument can be played
out end to end instead of asserted:

* a :class:`BatchFormationPolicy` decides *when* queued requests are
  admitted as a batch (immediately, size-or-timeout, or continuously
  into decode slots);
* a :class:`BatchCostModel` prices a batch on a specific appliance.
  :class:`BackendBatchCostModel` prices batches through *any* registered
  :class:`~repro.backends.base.Backend` whose capabilities support
  batching (the GPU appliance backend derives its prices from
  :meth:`~repro.baselines.gpu.GPUAppliance.batched_request_latency_ms`);
  DFX units keep a batch=1 passthrough (their ``max_batch_size`` stays 1,
  so every dispatch takes the exact unbatched code path).

Adding a batch policy: subclass :class:`BatchFormationPolicy`, implement
``ready`` (and ``flush_at`` if partial batches must dispatch on a
timer), give it a unique ``name``, and register it in
:data:`BATCH_POLICIES`.  Everything that accepts a batch policy — the
:class:`~repro.serving.server.ApplianceFleet` front end (and its
one-member :class:`~repro.serving.server.ApplianceServer`) and
:func:`~repro.serving.simulator.simulate` — also accepts the registry
name, resolved through :func:`make_batch_policy`.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.backends.base import Backend, BatchEstimate, dominant_workload
from repro.backends.registry import make_backend
from repro.errors import ConfigurationError, check_number
from repro.workloads import Workload


class BatchCostModel(Protocol):
    """Prices request batches on one appliance.

    ``batch_*`` methods serve the gather-mode policies (all requests of a
    batch start and finish together); ``continuous_*`` methods serve the
    continuous policy (each request occupies one decode slot at a
    concurrency-dependent per-token rate).

    ``continuous_latency_s`` must be a pure function of its arguments: the
    simulator stores the total each decode stream was last priced at and
    banks the stream's progress from that total, without asking again.
    """

    def batch_latency_s(self, workloads: Sequence[Workload]) -> float:
        """Wall-clock seconds until a gathered batch finishes (all together)."""
        ...  # pragma: no cover - protocol

    def batch_energy_joules(
        self, workloads: Sequence[Workload], latency_s: float
    ) -> float:
        """Energy of serving the whole batch."""
        ...  # pragma: no cover - protocol

    def continuous_latency_s(self, workload: Workload, concurrency: int) -> float:
        """Latency of one request decoded alongside ``concurrency - 1`` others."""
        ...  # pragma: no cover - protocol

    def continuous_energy_joules(
        self, workload: Workload, concurrency: int, latency_s: float
    ) -> float:
        """This request's share of the appliance energy while it decodes."""
        ...  # pragma: no cover - protocol


class BackendBatchCostModel:
    """Prices batches through any :class:`~repro.backends.base.Backend`.

    This is the one cost model every batch-capable server unit uses —
    there is no GPU-only special case: whatever
    :meth:`~repro.backends.base.Backend.batched_estimate` prices, the
    simulator serves.  Gathered batches are priced at the dominant member
    shape (the batch finishes together); continuous admissions at the
    request's own shape with the per-token rate of the current decode
    concurrency.  Batch gather time is *not* billed here — the simulator
    models it explicitly as queue wait under the batch policy.

    Construction validates the backend's declared capabilities eagerly, so
    a misconfigured unit — batch-capable but a non-batching backend, or a
    unit capacity above the backend's declared ``max_batch_size`` — fails
    at build time, not mid-simulation.
    """

    def __init__(
        self, backend: Backend | str, max_batch_size: int | None = None
    ) -> None:
        self.backend = make_backend(backend)
        capabilities = self.backend.capabilities()
        if not capabilities.supports_batching:
            raise ConfigurationError(
                f"{self.backend.name} cannot price batches: its capabilities "
                f"report supports_batching=False"
            )
        if (
            max_batch_size is not None
            and max_batch_size > capabilities.max_batch_size
        ):
            raise ConfigurationError(
                f"{self.backend.name} caps batches at "
                f"{capabilities.max_batch_size}; units with "
                f"max_batch_size={max_batch_size} would fail to price"
            )
        # Memoized per (shape, size): batch pricing is hammered once per
        # dispatch by the sweeps, and the estimate depends only on the
        # dominant shape and the batch size.  Power is memoized per shape —
        # the protocol doesn't promise a constant draw across shapes.  Keys
        # are the shape's ints, which hash in C (a Workload key runs its
        # dataclass __hash__ and __eq__).
        self._estimates: dict[tuple[int, int, int], BatchEstimate] = {}
        self._power_watts: dict[tuple[int, int], float] = {}

    def _estimate(self, shape: Workload, size: int) -> BatchEstimate:
        key = (shape.input_tokens, shape.output_tokens, size)
        estimate = self._estimates.get(key)
        if estimate is None:
            estimate = self._estimates[key] = self.backend.batched_estimate(
                [shape], batch_size=size
            )
        return estimate

    def _power(self, workload: Workload) -> float:
        key = (workload.input_tokens, workload.output_tokens)
        power = self._power_watts.get(key)
        if power is None:
            power = self._power_watts[key] = float(
                self.backend.estimate(workload).total_power_watts
            )
        return power

    def batch_latency_s(self, workloads: Sequence[Workload]) -> float:
        shape = dominant_workload(workloads)
        return self._estimate(shape, len(workloads)).latency_s

    def batch_energy_joules(
        self, workloads: Sequence[Workload], latency_s: float
    ) -> float:
        # The backend's own batched energy estimate, billed over the
        # caller's wall clock: scaling by latency_s / estimate.latency_s
        # keeps a custom backend's draw model (which need not be simple
        # power x wall clock) while honoring the protocol's latency
        # argument.  The simulator pairs this call with batch_latency_s,
        # making the ratio exactly 1.0 — the estimate's energy verbatim.
        shape = dominant_workload(workloads)
        estimate = self._estimate(shape, len(workloads))
        if estimate.latency_s <= 0:
            return estimate.energy_joules
        return estimate.energy_joules * (latency_s / estimate.latency_s)

    def continuous_latency_s(self, workload: Workload, concurrency: int) -> float:
        return self._estimate(workload, concurrency).latency_s

    def continuous_energy_joules(
        self, workload: Workload, concurrency: int, latency_s: float
    ) -> float:
        # Power is shared by the requests decoding concurrently: each stream
        # is billed 1/concurrency of the draw over ``latency_s``, one
        # occupancy segment of the stream.
        return self._power(workload) * latency_s / concurrency


class BatchFormationPolicy:
    """Base class: decides when queued requests are admitted as a batch.

    The simulator consults the policy at every dispatch opportunity where
    the chosen unit can take more than one request (``capacity > 1``).
    ``ready`` may hold the batch open; the simulator then wakes at
    ``flush_at(oldest_arrival_s)`` to force a partial batch out, so both
    sides of the hold/flush decision must use the same arithmetic.
    """

    #: Registry name; recorded in ``ServingReport.batch_policy``.
    name = "base"
    #: Upper bound on members per batch (each unit may cap it further).
    max_batch_size: int = 1
    #: Continuous mode: units admit into per-slot decode streams instead of
    #: gathering synchronized batches.
    continuous: bool = False

    def capacity(self, unit_max_batch_size: int) -> int:
        """Members a batch on this unit may hold (never below 1)."""
        return max(1, min(self.max_batch_size, unit_max_batch_size))

    def ready(
        self, now: float, oldest_arrival_s: float, queued: int, capacity: int
    ) -> bool:
        """Whether a batch of ``queued`` (< capacity => partial) members may go."""
        return True

    def flush_at(self, oldest_arrival_s: float) -> float:
        """Absolute time a held partial batch must dispatch (``inf`` = never).

        The default never flushes: a policy whose ``ready`` holds waits for
        the next arrival or completion (leftovers are accounted as unserved
        at end of trace).  Timer-based policies must override this with the
        *same arithmetic* their ``ready`` uses, and the returned time must
        satisfy ``ready`` — the simulator wakes at it and asks again, so a
        deadline at or before the hold time would loop forever.
        """
        return float("inf")


class NoBatching(BatchFormationPolicy):
    """Batch size 1: every dispatch is a singleton (the paper's DFX regime).

    This is the default and reproduces the unbatched simulator bit for
    bit — singleton dispatches are priced by the per-request latency
    oracle, never by a batch cost model.
    """

    name = "none"
    max_batch_size = 1


class DynamicBatching(BatchFormationPolicy):
    """Size-or-timeout batching (classic dynamic batching).

    A batch dispatches as soon as ``max_batch_size`` requests are queued,
    or once the oldest queued request has waited ``timeout_s`` — whichever
    comes first.  ``timeout_s = 0`` degenerates to greedy batching (take
    whatever is queued right now, never hold), and ``max_batch_size = 1``
    degenerates to :class:`NoBatching` exactly.
    """

    name = "dynamic"

    def __init__(self, max_batch_size: int = 8, timeout_s: float = 0.5) -> None:
        check_number("max_batch_size", max_batch_size, 1, integer=True)
        check_number("timeout_s", timeout_s, 0.0)
        self.max_batch_size = max_batch_size
        self.timeout_s = timeout_s

    def ready(self, now, oldest_arrival_s, queued, capacity):
        # The timeout comparison must match ``flush_at`` exactly: the
        # simulator wakes at ``flush_at`` and asks again, so an inconsistent
        # float expression here could hold forever.
        return queued >= capacity or now >= self.flush_at(oldest_arrival_s)

    def flush_at(self, oldest_arrival_s):
        return oldest_arrival_s + self.timeout_s


class ContinuousBatching(BatchFormationPolicy):
    """Decode-step continuous batching, approximated at request granularity.

    Real continuous batching admits requests into an in-flight batch at
    decode-step boundaries.  The event-driven approximation: a unit with
    ``max_batch_size`` decode slots admits each request *immediately*
    (no gather wait) and prices it at the batched per-token rate of the
    concurrency at admission.

    In-flight decode streams are *re-priced* whenever the unit's
    occupancy changes: each stream's completed work fraction is carried
    over and its remaining work re-runs at the new concurrency's per-token
    rate, so a lone survivor really speeds up and a newly crowded stream
    really slows down.  Energy is billed per occupancy segment
    (1/concurrency of the appliance draw while that concurrency held), so
    whole-appliance energy integrates correctly.
    """

    name = "continuous"
    continuous = True

    def __init__(self, max_batch_size: int = 8) -> None:
        check_number("max_batch_size", max_batch_size, 1, integer=True)
        self.max_batch_size = max_batch_size


#: Registry of built-in batch-formation policies by name.
BATCH_POLICIES: dict[str, type[BatchFormationPolicy]] = {
    NoBatching.name: NoBatching,
    DynamicBatching.name: DynamicBatching,
    ContinuousBatching.name: ContinuousBatching,
}


def make_batch_policy(
    spec: str | BatchFormationPolicy | None,
) -> BatchFormationPolicy:
    """Resolve a batch-policy name (or ``None``) or pass an instance through."""
    if spec is None:
        return NoBatching()
    if isinstance(spec, BatchFormationPolicy):
        return spec
    if isinstance(spec, str):
        if spec not in BATCH_POLICIES:
            raise ConfigurationError(
                f"unknown batch policy {spec!r}; available: {sorted(BATCH_POLICIES)}"
            )
        return BATCH_POLICIES[spec]()
    raise ConfigurationError(
        f"batch policy must be a name or BatchFormationPolicy, "
        f"got {type(spec).__name__}"
    )
