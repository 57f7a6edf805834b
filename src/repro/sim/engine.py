"""The slot-synchronous simulation engine.

One :class:`Engine` drives one execution: each slot it collects an
action from every live protocol, translates local labels to physical
channels via the :class:`~repro.sim.channels.Network`, applies the
jammer (if any), resolves contention per channel with the configured
:class:`~repro.sim.collision.CollisionModel`, and feeds every node its
:class:`~repro.sim.actions.SlotOutcome`.

The engine enforces the information model: protocols only ever see local
labels and their own outcomes.  All global knowledge (physical channels,
who collided with whom) lives here and, optionally, in an
:class:`~repro.sim.trace.EventTrace` for analysis.

Observability: the engine carries one optional, duck-typed instrument
from :mod:`repro.obs` — a *probe* (fired per slot, per channel event,
and, for node-observing probes, per action/outcome).  It defaults to
``None`` and costs exactly one ``is None`` check per hook site when
absent, so un-instrumented runs keep their benchmark numbers.  The
engine deliberately does not import :mod:`repro.obs` (the dependency
points the other way); any object with the right hooks works.  The
engine reads no clock: :func:`repro.core.runners.drive` times the
build and the run around it.

Performance: :meth:`Engine.run` detects the common configuration —
static schedule, no jammer, the paper's single-winner collision model,
no instrumentation — and switches to a specialized step kernel that
precomputes the label→channel tables and skips every hook, while
producing bit-identical results (same outcomes, same RNG stream, same
errors).  Every kernel choice, here and in the vector backend, comes
from one ordered check list (:func:`plan_run`) and is recorded with
the reason the faster kernel declined; see ``docs/performance.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.sim.actions import Action, Broadcast, Envelope, Idle, Listen, SlotOutcome
from repro.sim.adversary import Jammer, NullJammer
from repro.sim.channels import DynamicSchedule, Network, StaticSchedule
from repro.sim.collision import CollisionModel, SingleWinnerCollision
from repro.sim.protocol import NodeView, Protocol
from repro.sim.rng import derive_rng
from repro.sim.trace import ChannelEvent, EventTrace
from repro.types import Channel, NodeId, ProtocolViolationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - types only; sim must not import obs
    from repro.obs.probe import SlotProbe


@dataclass(frozen=True, slots=True)
class RunResult:
    """Summary of one engine run.

    Attributes
    ----------
    slots: number of slots executed.
    completed: whether the stop condition was met (as opposed to the
        slot budget running out).
    all_done: whether every protocol had terminated when the run ended.
    """

    slots: int
    completed: bool
    all_done: bool


@dataclass(frozen=True, slots=True)
class ExecutionPlan:
    """The kernel one run uses, and why the faster candidate declined.

    Attributes
    ----------
    kernel: ``"fast"`` or ``"general"`` for :class:`Engine`;
        ``"vector"`` or ``"exact"`` (hand the run to the exact engine,
        which plans its own kernel) for the vector backend.
    reason: ``None`` when the candidate kernel engaged, otherwise the
        first check that declined it (e.g. ``"probe attached"``).
    """

    kernel: str
    reason: str | None = None


def _declined(engine: Any, stop_when: Any, candidate: str) -> str | None:
    """The first check declining *candidate* for this run, or ``None``.

    One ordered check list for both faster kernels: the shared checks
    first, then the fast kernel's static-schedule requirement, then the
    vector kernel's per-node checks, its two export checks last
    (``engine.vector_exports()`` snapshots every node once per run).
    Exact types, not ``isinstance``: a subclass overriding a hook would
    change semantics the faster kernels hard-code.
    """
    vector = candidate == "vector"
    if engine.trace is not None:
        return "event trace attached"
    probe = engine.probe
    if probe is not None:
        if not vector:
            return "probe attached"
        if not callable(getattr(probe, "on_vector_run", None)):
            return "probe without aggregate (on_vector_run) support"
    if type(engine.jammer) is not NullJammer:
        return "jamming adversary attached"
    if type(engine.collision) is not SingleWinnerCollision:
        return "non-default collision model"
    network = engine.network
    if type(network) is not Network:
        return "network subclass"
    if network.translation_probe is not None:
        return "translation probe attached"
    schedule = type(network.schedule)
    if not vector:
        return None if schedule is StaticSchedule else "non-static schedule"
    if schedule is not StaticSchedule and schedule is not DynamicSchedule:
        return "unknown schedule type"
    if stop_when is not None and (
        getattr(stop_when, "vector_condition", None) != "all_informed"
    ):
        return "stop condition has no columnar form"
    # Imported here, not at module top: backends import this module.
    from repro.sim.backends.base import VECTOR_CONTRACTS

    contracts = [
        VECTOR_CONTRACTS.get(type(protocol).__dict__.get("vector_kind"))
        for protocol in engine.protocols
    ]
    if None in contracts:
        return "protocol has no columnar program"
    exports = engine.vector_exports()
    for contract, export in zip(contracts, exports):
        missing = contract.missing_fields(export)
        if missing:
            return "vector export missing contract fields: " + ", ".join(missing)
    if any(export.get("keep_log") for export in exports):
        # Logs are per-slot Python records; populations that keep
        # them (COGCOMP phase one) take the exact engine.
        return "protocol keeps a per-slot log"
    return None


def plan_run(engine: Any, stop_when: Any, candidate: str) -> ExecutionPlan:
    """Plan one run of *engine* on *candidate* (``"fast"``/``"vector"``).

    Returns the candidate, or its fallback with the declining reason.
    Declining is never an error: the fallback kernel handles every
    configuration, so the plan changes speed only, never observable
    behavior.  The exact engine falls back to ``"general"``; the vector
    engine to ``"exact"``, which plans again between fast and general.
    """
    reason = _declined(engine, stop_when, candidate)
    if reason is None:
        return ExecutionPlan(candidate)
    return ExecutionPlan("general" if candidate == "fast" else "exact", reason)


class Engine:
    """Drives a set of per-node protocols over a network.

    Parameters
    ----------
    network:
        The world model (channel schedule + parameters).
    protocols:
        One protocol per node, indexed by node id.
    collision:
        Contention model; defaults to the paper's single-winner model.
    seed:
        Root seed for the engine's own randomness (collision tie-breaks).
        Node randomness comes from each protocol's own RNG.
    trace:
        Optional event trace to populate.
    jammer:
        Optional jamming adversary.
    probe:
        Optional streaming probe (see :mod:`repro.obs.probe`).  Fired
        per slot and per channel event; probes whose
        ``observes_nodes`` attribute is true additionally receive every
        node's action and outcome.  These hook points are the engine's
        whole instrumentation surface: spans, watchdogs, and the
        metrics registry feeder
        (:class:`repro.obs.metrics.MetricsProbe` — slots, broadcasts,
        collisions, deliveries) all ride them, so adding an instrument
        never adds a new hot-path branch.

    :meth:`run` uses the specialized fast kernel whenever
    :func:`plan_run` allows it.  The kernel is bit-identical to the
    general one — same outcomes, same RNG stream, same errors — so the
    choice is purely a performance matter; attaching any instrument
    (e.g. a no-op :class:`~repro.obs.probe.SlotProbe`) forces the
    general reference kernel.
    """

    def __init__(
        self,
        network: Network,
        protocols: Sequence[Protocol],
        *,
        collision: CollisionModel | None = None,
        seed: int = 0,
        trace: EventTrace | None = None,
        jammer: Jammer | None = None,
        probe: "SlotProbe | None" = None,
    ) -> None:
        if len(protocols) != network.num_nodes:
            raise ValueError(
                f"{len(protocols)} protocols for {network.num_nodes} nodes"
            )
        self.network = network
        self.protocols = list(protocols)
        self.collision = collision or SingleWinnerCollision()
        self.rng = derive_rng(seed, "engine-collision")
        self.trace = trace
        self.jammer = jammer or NullJammer()
        self._probe: "SlotProbe | None" = None
        self._node_probe: "SlotProbe | None" = None
        self._fast_run_active = False
        self.probe = probe
        self.slot = 0
        #: The most recent :meth:`run`'s plan (``None`` before any run).
        self.plan: ExecutionPlan | None = None

    @property
    def fast_path_engaged(self) -> bool:
        """Whether the most recent :meth:`run` used the fast kernel."""
        return self.plan is not None and self.plan.kernel == "fast"

    @property
    def fast_path_reason(self) -> str | None:
        """Why the most recent :meth:`run` took the general kernel."""
        return None if self.plan is None else self.plan.reason

    @property
    def probe(self) -> "SlotProbe | None":
        """The attached streaming probe, if any."""
        return self._probe

    @probe.setter
    def probe(self, probe: "SlotProbe | None") -> None:
        # The fast kernel fires no hooks, so a probe attached while it
        # is in flight (e.g. from a stop_when callback) would be
        # silently ignored for the rest of the run — refuse instead.
        # Between runs, attaching is safe: eligibility is re-checked at
        # the top of every run(), so the next run leaves the fast path.
        if probe is not None and self._fast_run_active:
            raise SimulationError(
                "cannot attach a probe while a fast-path run is in flight; "
                "attach it before run() or construct the engine with it"
            )
        # Resolve the per-node dispatch decision once, not per slot.
        self._probe = probe
        self._node_probe = (
            probe
            if probe is not None and getattr(probe, "observes_nodes", False)
            else None
        )

    @property
    def all_done(self) -> bool:
        return all(protocol.done for protocol in self.protocols)

    def step(self) -> None:
        """Execute one synchronous slot.

        Effects: rng.
        """
        slot = self.slot
        num_nodes = self.network.num_nodes
        probe = self._probe
        node_probe = self._node_probe
        if probe is not None:
            probe.on_slot_begin(slot)

        actions: dict[NodeId, Action] = {}
        for node, protocol in enumerate(self.protocols):
            if protocol.done:
                continue
            action = protocol.begin_slot(slot)
            actions[node] = action
            if node_probe is not None:
                node_probe.on_action(slot, node, action)

        jammed_at = self.jammer.jammed(slot, num_nodes)

        # Group participants by physical channel.
        broadcasters: dict[Channel, list[tuple[NodeId, Envelope]]] = {}
        listeners: dict[Channel, list[NodeId]] = {}
        jammed_participants: dict[Channel, set[NodeId]] = {}
        tuned: dict[NodeId, Channel] = {}
        for node, action in actions.items():
            if isinstance(action, Idle):
                continue
            channel = self.network.physical(slot, node, action.label)
            tuned[node] = channel
            if channel in jammed_at.get(node, frozenset()):
                jammed_participants.setdefault(channel, set()).add(node)
                continue
            if isinstance(action, Broadcast):
                envelope = Envelope(sender=node, payload=action.payload)
                broadcasters.setdefault(channel, []).append((node, envelope))
            else:
                listeners.setdefault(channel, []).append(node)

        # Resolve contention channel by channel.
        outcomes: dict[NodeId, SlotOutcome] = {}
        active_channels = sorted(set(broadcasters) | set(listeners) | set(jammed_participants))
        for channel in active_channels:
            channel_broadcasters = broadcasters.get(channel, [])
            channel_listeners = listeners.get(channel, [])
            channel_jammed = jammed_participants.get(channel, set())
            resolution = self.collision.resolve(
                [envelope for _, envelope in channel_broadcasters], self.rng
            )
            winner = resolution.winner

            for node, envelope in channel_broadcasters:
                success = winner is not None and envelope is winner
                extras = tuple(
                    extra for extra in resolution.extras if extra is not envelope
                )
                outcomes[node] = SlotOutcome(
                    slot=slot,
                    action=actions[node],
                    received=None if success else winner,
                    success=success,
                    extra_received=extras,
                )
            for node in channel_listeners:
                outcomes[node] = SlotOutcome(
                    slot=slot,
                    action=actions[node],
                    received=winner,
                    extra_received=resolution.extras,
                )
            for node in channel_jammed:
                outcomes[node] = SlotOutcome(
                    slot=slot,
                    action=actions[node],
                    received=None,
                    success=False if isinstance(actions[node], Broadcast) else None,
                    jammed=True,
                )

            if self.trace is not None or probe is not None:
                event = ChannelEvent(
                    slot=slot,
                    channel=channel,
                    broadcasters=tuple(
                        node for node, _ in channel_broadcasters
                    )
                    + tuple(
                        node
                        for node in channel_jammed
                        if isinstance(actions[node], Broadcast)
                    ),
                    listeners=tuple(channel_listeners)
                    + tuple(
                        node
                        for node in channel_jammed
                        if isinstance(actions[node], Listen)
                    ),
                    winner=winner,
                    jammed_nodes=frozenset(channel_jammed),
                )
                if self.trace is not None:
                    self.trace.record(event)
                if probe is not None:
                    probe.on_channel_event(event)

        # Idle nodes still get an outcome so protocols see every slot.
        for node, action in actions.items():
            if node not in outcomes:
                outcomes[node] = SlotOutcome(slot=slot, action=action)

        for node, outcome in outcomes.items():
            self.protocols[node].end_slot(slot, outcome)
            if node_probe is not None:
                node_probe.on_outcome(slot, node, outcome)

        if probe is not None:
            probe.on_slot_end(slot, len(actions))

        self.slot += 1

    def _run_fast(
        self, max_slots: int, condition: Callable[["Engine"], bool]
    ) -> tuple[int, bool]:
        """The specialized run loop; bit-identical to the general path.

        Equivalence invariants (guarded by tests/test_engine_fastpath.py):

        - label translation uses a precomputed per-node table from the
          static assignment, with the same bounds check and error as
          :meth:`Network.physical`;
        - channels resolve in sorted order and the collision RNG is
          consulted exactly when two or more nodes broadcast on one
          channel, via the same ``rng.choice`` call the general path's
          :class:`SingleWinnerCollision` makes — so the RNG stream is
          identical draw for draw;
        - outcomes are constructed with the same field values and
          delivered in the same order.

        Per-slot scratch dicts are allocated once and cleared, not
        rebuilt, which is safe because nothing retains the containers —
        outcomes hold the (immutable) actions and envelopes themselves.
        """
        protocols = self.protocols
        table = self.network.assignment_at(0).channels
        num_labels = self.network.channels_per_node
        choice = self.rng.choice
        # Hoisted constructors/sentinels: global lookups are not free at
        # ~one SlotOutcome per node per slot.
        outcome_cls = SlotOutcome
        envelope_cls = Envelope
        idle_cls = Idle
        broadcast_cls = Broadcast
        listen_cls = Listen
        broadcasters: dict[Channel, list[tuple[NodeId, Action, Envelope]]] = {}
        listeners: dict[Channel, list[tuple[NodeId, Action]]] = {}
        idles: list[tuple[NodeId, Action]] = []
        outcomes: dict[NodeId, SlotOutcome] = {}
        executed = 0
        completed = condition(self)
        while not completed and executed < max_slots:
            slot = self.slot
            broadcasters.clear()
            listeners.clear()
            idles.clear()
            outcomes.clear()
            for node, protocol in enumerate(protocols):
                if protocol.done:
                    continue
                action = protocol.begin_slot(slot)
                cls = action.__class__
                if cls is idle_cls:
                    idles.append((node, action))
                    continue
                if cls is not broadcast_cls and cls is not listen_cls:
                    # Action subclass: route by isinstance, exactly as
                    # the general kernel would.
                    if isinstance(action, idle_cls):
                        idles.append((node, action))
                        continue
                    cls = broadcast_cls if isinstance(action, broadcast_cls) else listen_cls
                label = action.label
                if not 0 <= label < num_labels:
                    raise ProtocolViolationError(
                        f"node {node} used local label {label}; "
                        f"valid labels are 0..{num_labels - 1}"
                    )
                channel = table[node][label]
                if cls is broadcast_cls:
                    entry = (node, action, envelope_cls(node, action.payload))
                    bucket = broadcasters.get(channel)
                    if bucket is None:
                        broadcasters[channel] = [entry]
                    else:
                        bucket.append(entry)
                else:
                    pair = (node, action)
                    pairs = listeners.get(channel)
                    if pairs is None:
                        listeners[channel] = [pair]
                    else:
                        pairs.append(pair)

            for channel in sorted(broadcasters.keys() | listeners.keys()):
                channel_broadcasters = broadcasters.get(channel)
                if channel_broadcasters is None:
                    winner = None
                elif len(channel_broadcasters) == 1:
                    # Single participant: no contention, no RNG draw —
                    # exactly what SingleWinnerCollision.resolve does.
                    node, action, winner = channel_broadcasters[0]
                    outcomes[node] = outcome_cls(slot, action, None, True)
                else:
                    winner = choice(
                        [envelope for _, _, envelope in channel_broadcasters]
                    )
                    for node, action, envelope in channel_broadcasters:
                        if envelope is winner:
                            outcomes[node] = outcome_cls(slot, action, None, True)
                        else:
                            outcomes[node] = outcome_cls(slot, action, winner, False)
                channel_listeners = listeners.get(channel)
                if channel_listeners is not None:
                    for node, action in channel_listeners:
                        outcomes[node] = outcome_cls(slot, action, winner)

            for node, outcome in outcomes.items():
                protocols[node].end_slot(slot, outcome)
            # Idle nodes still get an outcome, delivered after the
            # channel participants exactly as in the general kernel.
            for node, action in idles:
                protocols[node].end_slot(slot, outcome_cls(slot, action))

            self.slot += 1
            executed += 1
            completed = condition(self)
        return executed, completed

    def run(
        self,
        max_slots: int,
        *,
        stop_when: Callable[["Engine"], bool] | None = None,
        require_completion: bool = False,
    ) -> RunResult:
        """Run until the stop condition, all protocols terminate, or the budget.

        Parameters
        ----------
        max_slots:
            Hard budget on the number of slots executed by this call.
        stop_when:
            Optional predicate evaluated after every slot; the run stops
            as soon as it returns True.  When omitted, the run stops when
            every protocol reports :attr:`Protocol.done`.
        require_completion:
            When True, raise :class:`SimulationError` if the budget runs
            out before the stop condition is met.

        When the configuration allows (static schedule, no jammer, the
        default collision model, no instrumentation — see
        :func:`plan_run`), the run uses a specialized kernel that
        produces bit-identical results faster; the choice and its
        reason are recorded in :attr:`plan`.

        Effects: rng.
        """
        condition = stop_when if stop_when is not None else (lambda engine: engine.all_done)
        self.plan = plan_run(self, stop_when, "fast")
        probe = self._probe
        if probe is not None:
            probe.on_run_start(
                num_nodes=self.network.num_nodes,
                num_channels=self.network.channels_per_node,
                overlap=self.network.overlap,
            )
        if self.plan.kernel == "fast":
            self._fast_run_active = True
            try:
                executed, completed = self._run_fast(max_slots, condition)
            finally:
                self._fast_run_active = False
        else:
            executed = 0
            completed = condition(self)
            while not completed and executed < max_slots:
                self.step()
                executed += 1
                completed = condition(self)
        if probe is not None:
            probe.on_run_end(executed)
        if require_completion and not completed:
            raise SimulationError(
                f"run did not complete within {max_slots} slots"
            )
        return RunResult(slots=executed, completed=completed, all_done=self.all_done)


def make_views(network: Network, seed: int) -> list[NodeView]:
    """Construct one :class:`NodeView` per node with independent RNGs.

    Node ``i``'s stream is ``derive_rng(seed, "node", i)``, derived on
    the view's first draw: a population the vector kernel runs in
    numpy mode never seeds one.
    """
    c, k, n = network.channels_per_node, network.overlap, network.num_nodes
    return [NodeView(node, c, k, n, seed=seed) for node in range(n)]


def build_engine(
    network: Network,
    protocol_factory: Callable[[NodeView], Protocol],
    *,
    seed: int = 0,
    collision: CollisionModel | None = None,
    trace: EventTrace | None = None,
    jammer: Jammer | None = None,
    probe: "SlotProbe | None" = None,
    backend: object = None,
) -> Any:
    """Convenience constructor: build views, protocols, and the engine.

    *protocol_factory* receives each node's :class:`NodeView` and returns
    that node's protocol (it can branch on ``view.node_id`` to make one
    node the source).

    *backend* selects the execution backend: a registry name
    (``"exact"``, ``"vector"``, ``"vector-replay"``), an
    :class:`~repro.sim.backends.base.EngineBackend` instance, or
    ``None`` for the per-process default (``"exact"`` unless changed via
    :func:`repro.sim.backends.set_default_backend` / the CLI's
    ``--backend`` flag).  Whatever the backend, the returned object has
    the :class:`Engine` run surface; views, protocols, and seed
    derivation are identical across backends.
    """
    # Imported here, not at module top: backends import this module.
    from repro.sim.backends.base import resolve_backend

    views = make_views(network, seed)
    protocols = [protocol_factory(view) for view in views]
    return resolve_backend(backend).build(
        network,
        protocols,
        collision=collision,
        seed=seed,
        trace=trace,
        jammer=jammer,
        probe=probe,
    )
