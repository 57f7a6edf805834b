"""Measurement harnesses for the core protocols, and the one run driver.

Each ``run_*`` function supplies what is specific to its protocol — the
per-node factory, the stop condition, the slot budget, the outcome
label, and the fold of per-node state into a result record — and hands
the rest to :func:`drive`.  They live here — not next to the protocol
classes — because of the model's information asymmetry: a *node* sees
only its :class:`~repro.sim.protocol.NodeView`, while the *harness*
legitimately owns the world (the :class:`~repro.sim.channels.Network`,
the engine, the trace).  The ``repro-lint`` rule R4 enforces the split:
modules defining :class:`~repro.sim.protocol.Protocol` subclasses must
never import the engine or the channel world-model.

:func:`drive` is the single home of the plumbing every runner shares,
including the baseline runners in :mod:`repro.baselines.runners`: it
composes the observability instruments from :mod:`repro.obs` into one
engine probe — a user *probe*, a *spans* probe
(:class:`repro.obs.spans.SpanProbe`) for causal tracing, *watchdogs*
(:class:`repro.obs.watchdog.WatchdogProbe`) that check the paper's
invariants live, and a :class:`~repro.obs.metrics.MetricsProbe` when a
*metrics* registry is given — builds the engine on the chosen
*backend*, times the build and the run with ``perf_counter`` (outside
the engine, so timing never disengages the fast kernel), and sends one
``kind="run"`` manifest to the *telemetry* sink, followed by the
watchdogs' ``kind="anomaly"`` records.  The manifest is emitted before a runner's
``require_completion`` check raises, so failed runs leave a record.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.aggregation import Aggregator, CollectAggregator
from repro.core.cogcast import BroadcastResult, CogCast
from repro.core.cogcomp import AggregationResult, CogComp
from repro.core.gossip import GossipCast, GossipResult
from repro.obs.metrics import MetricsProbe
from repro.obs.probe import MultiProbe
from repro.obs.telemetry import run_record
from repro.obs.watchdog import flush_anomalies
from repro.sim.adversary import Jammer
from repro.sim.backends import AllInformed, resolve_backend
from repro.sim.channels import Network
from repro.sim.collision import CollisionModel
from repro.sim.engine import RunResult, build_engine
from repro.sim.protocol import NodeView
from repro.sim.trace import EventTrace
from repro.types import NodeId, SimulationError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.metrics import MetricsRegistry, ResourceSampler
    from repro.obs.probe import SlotProbe
    from repro.obs.spans import SpanProbe
    from repro.obs.telemetry import TelemetrySink
    from repro.obs.watchdog import WatchdogProbe
    from repro.sim.backends import EngineBackend


def completion_outcome(result: RunResult, protocols: Sequence[Any]) -> str:
    """The default outcome label: ``"completed"`` or ``"budget"``."""
    return "completed" if result.completed else "budget"


def drive(
    protocol: str,
    network: Network,
    factory: Callable[[NodeView], Any],
    stop: Callable[[list[Any]], Callable[[Any], bool]],
    max_slots: int,
    *,
    seed: int,
    outcome: Callable[[RunResult, list[Any]], str] = completion_outcome,
    collision: CollisionModel | None = None,
    trace: EventTrace | None = None,
    jammer: Jammer | None = None,
    probe: "SlotProbe | None" = None,
    spans: "SpanProbe | None" = None,
    watchdogs: "Sequence[WatchdogProbe]" = (),
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> tuple[RunResult, list[Any]]:
    """Build, run, and record one population; return the run and its protocols.

    *protocol* names the run in its record and metric labels; *stop*
    receives the built protocols and returns the engine's
    ``stop_when`` predicate; *outcome* labels the finished run for the
    record.  The run record carries the execution path — ``backend``,
    ``fast_path`` and, when the exact engine took the general kernel,
    ``fast_path_reason``, plus the vector engine's
    ``vector_fallback_reason`` — plus two ``perf_counter`` durations:
    ``elapsed_s`` around :meth:`~repro.sim.engine.Engine.run` alone,
    and ``timings.build`` around :func:`~repro.sim.engine.build_engine`
    (views, protocols, and the engine).
    """
    instruments = [
        instrument
        for instrument in (probe, spans, *watchdogs)
        if instrument is not None
    ]
    if metrics is not None:
        instruments.append(MetricsProbe(metrics, protocol=protocol))
    if len(instruments) > 1:
        engine_probe: "SlotProbe | None" = MultiProbe(instruments)
    else:
        engine_probe = instruments[0] if instruments else None
    build_start = perf_counter()
    engine = build_engine(
        network,
        factory,
        seed=seed,
        collision=collision,
        trace=trace,
        jammer=jammer,
        probe=engine_probe,
        backend=backend,
    )
    build_s = perf_counter() - build_start
    protocols: list[Any] = engine.protocols
    stop_when = stop(protocols)
    run_start = perf_counter()
    result = engine.run(max_slots, stop_when=stop_when)
    elapsed_s = perf_counter() - run_start
    if telemetry is not None:
        telemetry.emit(
            run_record(
                protocol=protocol,
                seed=seed,
                network=network,
                slots=result.slots,
                outcome=outcome(result, protocols),
                probe=probe,
                spans=spans,
                metrics=metrics,
                resources=None if resources is None else resources.delta(),
                elapsed_s=elapsed_s,
                build_s=build_s,
                fast_path=engine.fast_path_engaged,
                fast_path_reason=getattr(engine, "fast_path_reason", None),
                backend=resolve_backend(backend).name,
                vector_fallback_reason=getattr(engine, "vector_fallback_reason", None),
            )
        )
        if watchdogs:
            flush_anomalies(telemetry, watchdogs, seed=seed, protocol=protocol)
    return result, protocols


def run_local_broadcast(
    network: Network,
    *,
    source: NodeId = 0,
    seed: int = 0,
    max_slots: int,
    body: Any = None,
    collision: CollisionModel | None = None,
    jammer: Jammer | None = None,
    trace: EventTrace | None = None,
    require_completion: bool = False,
    probe: "SlotProbe | None" = None,
    spans: "SpanProbe | None" = None,
    watchdogs: "Sequence[WatchdogProbe]" = (),
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> BroadcastResult:
    """Run COGCAST until every node is informed (or *max_slots*).

    This is the measurement entry point for the broadcast experiments:
    it reports *completion time* — the number of slots until the last
    node learns the message — rather than running for the fixed
    Theorem 4 bound.  *spans* reconstructs the distribution tree
    (:class:`repro.obs.spans.SpanProbe`); *watchdogs* check invariants
    live, their anomalies flowing to *telemetry* when given.
    *metrics* (a :class:`repro.obs.metrics.MetricsRegistry`) attaches a
    :class:`~repro.obs.metrics.MetricsProbe` and embeds its snapshot in
    the run record; *resources* (a started
    :class:`~repro.obs.metrics.ResourceSampler`) embeds its delta.
    Run records carry ``elapsed_s``, ``timings.build`` and the
    execution path (see :func:`drive`) when telemetry is attached.
    *backend* selects the execution backend (see
    :mod:`repro.sim.backends`); results are equivalent per the
    backend's tier, and ineligible configurations transparently run
    exact.
    """

    def factory(view: NodeView) -> CogCast:
        return CogCast(view, is_source=(view.node_id == source), body=body)

    result, protocols = drive(
        "cogcast", network, factory, AllInformed, max_slots,
        seed=seed, collision=collision, trace=trace, jammer=jammer,
        probe=probe, spans=spans, watchdogs=watchdogs, metrics=metrics,
        resources=resources, telemetry=telemetry, backend=backend,
    )
    if require_completion and not result.completed:
        raise SimulationError(
            f"local broadcast incomplete after {max_slots} slots "
            f"({sum(p.informed for p in protocols)}/{len(protocols)} informed)"
        )
    return BroadcastResult.from_run(result, protocols)


def run_data_aggregation(
    network: Network,
    values: Sequence[Any],
    *,
    source: NodeId = 0,
    seed: int = 0,
    aggregator: Aggregator | None = None,
    phase1_slots: int | None = None,
    max_phase4_steps: int | None = None,
    collision: CollisionModel | None = None,
    trace: EventTrace | None = None,
    require_completion: bool = False,
    probe: "SlotProbe | None" = None,
    spans: "SpanProbe | None" = None,
    watchdogs: "Sequence[WatchdogProbe]" = (),
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> AggregationResult:
    """Run COGCOMP end to end and return the source's aggregate.

    Parameters
    ----------
    values:
        ``values[u]`` is node ``u``'s datum.
    phase1_slots:
        Phase-one length ``l``; defaults to the Theorem 4 bound computed
        by :func:`repro.analysis.theory.cogcast_slot_bound`.
    max_phase4_steps:
        Safety budget for phase four; defaults to ``6n + 64`` steps
        (Theorem 10 guarantees ``O(n)``).
    spans:
        Optional :class:`repro.obs.spans.SpanProbe`; the runner hands it
        the protocol's exact phase timetable (``set_timetable(l)``) so
        its phase spans match ``phase2_start``/``phase3_start``/
        ``phase4_start`` by construction.
    watchdogs:
        Optional invariant watchdogs; anomalies flow to *telemetry*.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`; attaches a
        metrics probe and embeds the snapshot in the run record.
    resources:
        Optional started :class:`repro.obs.metrics.ResourceSampler`;
        its delta rides on the run record as ``resources``.
    backend:
        Execution backend selection (see :mod:`repro.sim.backends`).
        COGCOMP's phased protocol has no columnar program, so the
        vector backend transparently runs it exact.
    """
    from repro.analysis.theory import cogcast_slot_bound

    n = network.num_nodes
    if len(values) != n:
        raise ValueError(f"{len(values)} values for {n} nodes")
    agg = aggregator if aggregator is not None else CollectAggregator()
    l = (
        phase1_slots
        if phase1_slots is not None
        else cogcast_slot_bound(n, network.channels_per_node, network.overlap)
    )
    steps_budget = max_phase4_steps if max_phase4_steps is not None else 6 * n + 64
    max_slots = 2 * l + n + 3 * steps_budget
    if spans is not None:
        spans.set_timetable(l)

    def factory(view: NodeView) -> CogComp:
        return CogComp(
            view,
            phase1_slots=l,
            value=values[view.node_id],
            aggregator=agg,
            is_source=(view.node_id == source),
        )

    def source_done(protocols: list[CogComp]) -> Callable[[Any], bool]:
        return lambda _: protocols[source].done

    def outcome(result: RunResult, protocols: list[CogComp]) -> str:
        if any(protocol.failed for protocol in protocols):
            return "failed"
        return completion_outcome(result, protocols)

    result, protocols = drive(
        "cogcomp", network, factory, source_done, max_slots,
        seed=seed, outcome=outcome, collision=collision, trace=trace,
        probe=probe, spans=spans, watchdogs=watchdogs, metrics=metrics,
        resources=resources, telemetry=telemetry, backend=backend,
    )
    source_protocol = protocols[source]
    failures = tuple(
        node for node, protocol in enumerate(protocols) if protocol.failed
    )
    if require_completion and (not result.completed or failures):
        raise SimulationError(
            f"aggregation incomplete: completed={result.completed}, "
            f"failures={failures}"
        )
    phase4_slots = max(0, result.slots - (2 * l + n))
    return AggregationResult(
        value=source_protocol.aggregate if result.completed else None,
        completed=result.completed and not failures,
        total_slots=result.slots,
        phase1_slots=l,
        phase2_slots=n,
        phase3_slots=l,
        phase4_slots=phase4_slots,
        failures=failures,
        parents=tuple(protocol.parent for protocol in protocols),
        max_message_bits=max(
            protocol.max_message_bits for protocol in protocols
        ),
    )


def run_gossip(
    network: Network,
    sources: dict[NodeId, Any],
    *,
    seed: int = 0,
    max_slots: int,
    collision: CollisionModel | None = None,
    probe: "SlotProbe | None" = None,
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> GossipResult:
    """Run gossip until every node knows every source's message.

    ``sources`` maps originating node id to its message body.
    *metrics* / *resources* embed registry snapshots and sampler deltas
    in the run record, as in :func:`run_local_broadcast`.  *backend*
    selects the execution backend; gossip's stop predicate has no
    columnar form, so the vector backend transparently runs it exact.
    """
    if not sources:
        raise ValueError("need at least one source")
    n = network.num_nodes
    for node in sources:
        if not 0 <= node < n:
            raise ValueError(f"source {node} out of range")

    def factory(view: NodeView) -> GossipCast:
        initial = [sources[view.node_id]] if view.node_id in sources else []
        return GossipCast(view, initial)

    want = set(sources)

    def all_covered(protocols: list[GossipCast]) -> Callable[[Any], bool]:
        return lambda _: all(want <= set(protocol.known) for protocol in protocols)

    result, protocols = drive(
        "gossip", network, factory, all_covered, max_slots,
        seed=seed, collision=collision, probe=probe, metrics=metrics,
        resources=resources, telemetry=telemetry, backend=backend,
    )
    return GossipResult(
        slots=result.slots,
        completed=result.completed,
        messages=len(sources),
        coverage=tuple(len(protocol.known) for protocol in protocols),
    )
