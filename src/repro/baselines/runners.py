"""Measurement harnesses for the baseline protocols.

Engine-driving counterparts of the protocol classes in
:mod:`repro.baselines.rendezvous`, :mod:`repro.baselines.deterministic`,
:mod:`repro.baselines.aggregation`, and :mod:`repro.baselines.hopping`.
As in :mod:`repro.core.runners`, the split is the model's information
asymmetry made structural: protocol modules hold only node-side code
(lint rule R4), while these harnesses own the world — networks, engines,
and global channel ids.

Each runner supplies its factory, stop condition, budget, and result
fold, and hands building, timing, and telemetry to
:func:`repro.core.runners.drive` — the same driver the core runners
use — so baseline runs take the same optional instruments (probe,
metrics, resources, telemetry sink, backend) and leave the
same ``kind="run"`` manifests as the core protocols.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.baselines.aggregation import (
    BaselineAggregationResult,
    RendezvousCollector,
    RendezvousReporter,
)
from repro.baselines.deterministic import StayAndScanBroadcast
from repro.baselines.hopping import HoppingTogether
from repro.baselines.rendezvous import RendezvousBroadcast
from repro.core.cogcast import BroadcastResult
from repro.core.runners import drive
from repro.sim.backends import AllInformed
from repro.sim.channels import ChannelAssignment, Network
from repro.sim.collision import CollisionModel
from repro.sim.protocol import NodeView, Protocol
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.metrics import MetricsRegistry, ResourceSampler
    from repro.obs.probe import SlotProbe
    from repro.obs.telemetry import TelemetrySink
    from repro.sim.backends import EngineBackend


def run_rendezvous_broadcast(
    network: Network,
    *,
    source: NodeId = 0,
    seed: int = 0,
    max_slots: int,
    body: Any = None,
    collision: CollisionModel | None = None,
    probe: "SlotProbe | None" = None,
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> BroadcastResult:
    """Run the baseline until every node has heard the source."""

    def factory(view: NodeView) -> RendezvousBroadcast:
        return RendezvousBroadcast(
            view, is_source=(view.node_id == source), body=body
        )

    result, protocols = drive(
        "rendezvous-broadcast", network, factory, AllInformed, max_slots,
        seed=seed, collision=collision, probe=probe, metrics=metrics,
        resources=resources, telemetry=telemetry, backend=backend,
    )
    return BroadcastResult.from_run(result, protocols)


def run_stay_and_scan_broadcast(
    network: Network,
    *,
    source: NodeId = 0,
    seed: int = 0,
    max_slots: int | None = None,
    body: Any = None,
    collision: CollisionModel | None = None,
    probe: "SlotProbe | None" = None,
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> BroadcastResult:
    """Run the deterministic broadcast to completion (<= c^2 slots)."""
    c = network.channels_per_node
    budget = max_slots if max_slots is not None else c * c

    def factory(view: NodeView) -> StayAndScanBroadcast:
        return StayAndScanBroadcast(
            view, is_source=(view.node_id == source), body=body
        )

    result, protocols = drive(
        "stay-and-scan", network, factory, AllInformed, budget,
        seed=seed, collision=collision, probe=probe, metrics=metrics,
        resources=resources, telemetry=telemetry, backend=backend,
    )
    return BroadcastResult.from_run(result, protocols)


def run_rendezvous_aggregation(
    network: Network,
    values: Sequence[Any],
    *,
    source: NodeId = 0,
    seed: int = 0,
    max_slots: int,
    collision: CollisionModel | None = None,
    probe: "SlotProbe | None" = None,
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> BaselineAggregationResult:
    """Run the baseline until the source holds every node's value."""
    n = network.num_nodes
    if len(values) != n:
        raise ValueError(f"{len(values)} values for {n} nodes")

    def factory(view: NodeView) -> Protocol:
        if view.node_id == source:
            return RendezvousCollector(view)
        return RendezvousReporter(view, values[view.node_id])

    def all_collected(protocols: list[Protocol]) -> Callable[[Any], bool]:
        return lambda _: len(protocols[source].collected) >= n - 1

    result, protocols = drive(
        "rendezvous-aggregation", network, factory, all_collected, max_slots,
        seed=seed, collision=collision, probe=probe, metrics=metrics,
        resources=resources, telemetry=telemetry, backend=backend,
    )
    return BaselineAggregationResult(
        slots=result.slots,
        completed=result.completed,
        collected=dict(protocols[source].collected),
    )


def run_hopping_together(
    assignment: ChannelAssignment,
    *,
    source: NodeId = 0,
    seed: int = 0,
    max_slots: int,
    body: Any = None,
    collision: CollisionModel | None = None,
    probe: "SlotProbe | None" = None,
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> BroadcastResult:
    """Run the lockstep scan until every node is informed.

    Takes the :class:`ChannelAssignment` directly (not a network)
    because the protocol legitimately needs each node's global channel
    ids; the scan period is ``max(universe) + 1``, matching the dense
    global numbering the generators produce.
    """
    network = Network.static(assignment)
    universe_size = max(assignment.universe) + 1

    def factory(view: NodeView) -> HoppingTogether:
        return HoppingTogether(
            view,
            assignment.channels[view.node_id],
            universe_size,
            is_source=(view.node_id == source),
            body=body,
        )

    result, protocols = drive(
        "hopping-together", network, factory, AllInformed, max_slots,
        seed=seed, collision=collision, probe=probe, metrics=metrics,
        resources=resources, telemetry=telemetry, backend=backend,
    )
    return BroadcastResult.from_run(result, protocols)
