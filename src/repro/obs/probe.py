"""The probe API: hook objects the engine fires as a run unfolds.

A probe is the streaming counterpart of an
:class:`~repro.sim.trace.EventTrace`: instead of *retaining* events it
*observes* them as they happen, so long runs can be instrumented in
constant memory.  Two granularities exist:

- :class:`SlotProbe` — slot- and channel-level hooks: run start/end,
  slot begin/end, one call per :class:`~repro.sim.trace.ChannelEvent`,
  plus the optional deeper hooks fired by the label-translation path
  (:meth:`~repro.sim.channels.Network.attach_probe`) and the collision
  layer (:class:`~repro.sim.collision.ProbedCollision`).
- :class:`ProtocolProbe` — adds per-node hooks: every action a node
  takes and every outcome it observes.  :class:`ActivityProbe` is the
  ready-made one: per-node broadcast/listen/idle and outcome tallies.

Channel-event counting has one reference fold,
:func:`repro.sim.metrics.compute_metrics` over a recorded trace, and
one streaming counter, :class:`repro.obs.metrics.MetricsProbe`, which
feeds a :class:`~repro.obs.metrics.MetricsRegistry`.

All hooks are no-ops on the base classes; subclass and override what
you need.  The engine checks ``probe is None`` before every hook, so an
un-probed run pays nothing beyond that check, and it consults
:attr:`SlotProbe.observes_nodes` once at attach time so slot-level
probes never pay the per-node dispatch.

Probes are *observers*, never *actors*: they see engine-side ground
truth (physical channels, global node ids) and therefore live strictly
on the analysis side of the information barrier.  Protocol modules must
not import them (lint rule R4).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable

from repro.sim.actions import Broadcast, Idle, Listen

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sim.actions import Action, SlotOutcome
    from repro.sim.collision import Resolution
    from repro.sim.engine import Engine
    from repro.sim.trace import ChannelEvent
    from repro.types import Channel, LocalLabel, NodeId, Slot


class SlotProbe:
    """Base probe: slot- and channel-granularity hooks, all no-ops.

    Subclass and override the hooks you need; unoverridden hooks cost
    one no-op call.  The engine guarantees hook order within a run:
    ``on_run_start``, then per slot ``on_slot_begin``, zero or more
    ``on_channel_event`` (in ascending channel order), ``on_slot_end``,
    and finally ``on_run_end``.  Slots arrive in strictly increasing
    order.
    """

    #: Whether the engine should also fire the per-node hooks
    #: (:meth:`ProtocolProbe.on_action` / :meth:`ProtocolProbe.on_outcome`).
    #: Checked once at attach time, not per slot.
    observes_nodes = False

    def on_run_start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """A run is starting on a network with the given ``(n, c, k)``."""

    def on_slot_begin(self, slot: "Slot") -> None:
        """Slot *slot* is about to execute."""

    def on_channel_event(self, event: "ChannelEvent") -> None:
        """One physical channel's fully-resolved activity this slot.

        The *event* is identical to what an attached
        :class:`~repro.sim.trace.EventTrace` would record, which is how
        streaming counters can reproduce trace metrics exactly.
        """

    def on_contention(self, contenders: int, resolution: "Resolution") -> None:
        """The collision layer resolved *contenders* concurrent broadcasts.

        Fired only when the engine's collision model is wrapped in a
        :class:`~repro.sim.collision.ProbedCollision` (see :func:`attach`
        with ``collision=True``).
        """

    def on_translation(
        self, slot: "Slot", node: "NodeId", label: "LocalLabel", channel: "Channel"
    ) -> None:
        """The network translated *node*'s local *label* to *channel*.

        Fired only when the probe is attached to the network
        (:meth:`~repro.sim.channels.Network.attach_probe`, or
        :func:`attach` with ``channels=True``).
        """

    def on_slot_end(self, slot: "Slot", active_nodes: int) -> None:
        """Slot *slot* finished; *active_nodes* protocols participated."""

    def on_run_end(self, slots: int) -> None:
        """The run finished after executing *slots* slots."""


class ProtocolProbe(SlotProbe):
    """A probe that additionally observes every node's actions and outcomes.

    Use for per-node accounting (airtime, listen/broadcast mix, idle
    fraction) that slot-level hooks cannot reconstruct.  Costs one call
    per live node per slot, so prefer :class:`SlotProbe` when channel
    events suffice.
    """

    observes_nodes = True

    def on_action(self, slot: "Slot", node: "NodeId", action: "Action") -> None:
        """*node* chose *action* for *slot*."""

    def on_outcome(self, slot: "Slot", node: "NodeId", outcome: "SlotOutcome") -> None:
        """*node* observed *outcome* at the end of *slot*."""


class MultiProbe(ProtocolProbe):
    """Fan one stream of hooks out to several probes.

    Per-node hooks are forwarded only to children that observe nodes;
    :attr:`observes_nodes` is the OR over children so a set of pure
    slot-probes still skips the per-node dispatch entirely.
    """

    def __init__(self, probes: Iterable[SlotProbe]) -> None:
        self.probes: tuple[SlotProbe, ...] = tuple(probes)
        self._node_probes = tuple(
            probe for probe in self.probes if probe.observes_nodes
        )
        self.observes_nodes = bool(self._node_probes)

    def on_run_start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """Forward to every child probe."""
        for probe in self.probes:
            probe.on_run_start(
                num_nodes=num_nodes, num_channels=num_channels, overlap=overlap
            )

    def on_slot_begin(self, slot: "Slot") -> None:
        """Forward to every child probe."""
        for probe in self.probes:
            probe.on_slot_begin(slot)

    def on_channel_event(self, event: "ChannelEvent") -> None:
        """Forward to every child probe."""
        for probe in self.probes:
            probe.on_channel_event(event)

    def on_contention(self, contenders: int, resolution: "Resolution") -> None:
        """Forward to every child probe."""
        for probe in self.probes:
            probe.on_contention(contenders, resolution)

    def on_translation(
        self, slot: "Slot", node: "NodeId", label: "LocalLabel", channel: "Channel"
    ) -> None:
        """Forward to every child probe."""
        for probe in self.probes:
            probe.on_translation(slot, node, label, channel)

    def on_slot_end(self, slot: "Slot", active_nodes: int) -> None:
        """Forward to every child probe."""
        for probe in self.probes:
            probe.on_slot_end(slot, active_nodes)

    def on_run_end(self, slots: int) -> None:
        """Forward to every child probe."""
        for probe in self.probes:
            probe.on_run_end(slots)

    def on_action(self, slot: "Slot", node: "NodeId", action: "Action") -> None:
        """Forward to the node-observing children only."""
        for probe in self._node_probes:
            probe.on_action(slot, node, action)  # type: ignore[attr-defined]

    def on_outcome(self, slot: "Slot", node: "NodeId", outcome: "SlotOutcome") -> None:
        """Forward to the node-observing children only."""
        for probe in self._node_probes:
            probe.on_outcome(slot, node, outcome)  # type: ignore[attr-defined]


class ActivityProbe(ProtocolProbe):
    """Per-node action accounting: who talks, who listens, who idles.

    A :class:`ProtocolProbe`: it observes every node's action and
    outcome, at one hook call per live node per slot.  Useful for
    spotting starved or chattering nodes that slot-level channel events
    cannot attribute.
    """

    def __init__(self) -> None:
        self.broadcasts: Counter[NodeId] = Counter()
        self.listens: Counter[NodeId] = Counter()
        self.idles: Counter[NodeId] = Counter()
        self.wins: Counter[NodeId] = Counter()
        self.receptions: Counter[NodeId] = Counter()
        self.jammed_slots: Counter[NodeId] = Counter()

    def on_action(self, slot: "Slot", node: "NodeId", action: "Action") -> None:
        """Tally the action kind for *node*."""
        if isinstance(action, Broadcast):
            self.broadcasts[node] += 1
        elif isinstance(action, Listen):
            self.listens[node] += 1
        elif isinstance(action, Idle):
            self.idles[node] += 1

    def on_outcome(self, slot: "Slot", node: "NodeId", outcome: "SlotOutcome") -> None:
        """Tally wins, receptions, and jammed slots for *node*."""
        if getattr(outcome, "success", None):
            self.wins[node] += 1
        if getattr(outcome, "received", None) is not None:
            self.receptions[node] += 1
        if getattr(outcome, "jammed", False):
            self.jammed_slots[node] += 1

    def active_slots(self, node: "NodeId") -> int:
        """Slots in which *node* was on the air (broadcast or listen)."""
        return self.broadcasts[node] + self.listens[node]

    def busiest(self, count: int = 5) -> "list[tuple[NodeId, int]]":
        """The *count* nodes with the most broadcast slots."""
        return self.broadcasts.most_common(count)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready totals (per-node detail collapsed to aggregates)."""
        nodes = (
            set(self.broadcasts) | set(self.listens) | set(self.idles)
        )
        return {
            "nodes_seen": len(nodes),
            "broadcast_slots": sum(self.broadcasts.values()),
            "listen_slots": sum(self.listens.values()),
            "idle_slots": sum(self.idles.values()),
            "win_slots": sum(self.wins.values()),
            "reception_slots": sum(self.receptions.values()),
            "jammed_slots": sum(self.jammed_slots.values()),
        }


def attach(
    engine: "Engine",
    probe: SlotProbe,
    *,
    channels: bool = False,
    collision: bool = False,
) -> "Engine":
    """Wire *probe* into *engine*'s observation points; returns the engine.

    Always sets the engine-level probe (slot/channel-event hooks).
    ``channels=True`` additionally attaches the probe to the network so
    :meth:`SlotProbe.on_translation` fires per label translation;
    ``collision=True`` wraps the engine's collision model in a
    :class:`~repro.sim.collision.ProbedCollision` so
    :meth:`SlotProbe.on_contention` fires per resolution.  Both deeper
    hooks cost one call per action per slot — leave them off unless a
    probe consumes them.
    """
    from repro.sim.collision import ProbedCollision

    engine.probe = probe
    if channels:
        engine.network.attach_probe(probe)
    if collision:
        engine.collision = ProbedCollision(engine.collision, probe)
    return engine
