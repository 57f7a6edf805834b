"""The protocol interface that node algorithms implement.

A :class:`Protocol` is a per-node state machine driven by the engine:

- :meth:`Protocol.begin_slot` is called at the start of each slot and
  must return an :class:`~repro.sim.actions.Action`;
- :meth:`Protocol.end_slot` is called with the resulting
  :class:`~repro.sim.actions.SlotOutcome`;
- :attr:`Protocol.done` tells the engine the node has terminated (a
  terminated node implicitly idles).

Protocols are constructed with a :class:`NodeView` — the *only* handle a
node algorithm gets on the world.  It exposes the node's identity, how
many channels it has, and its private RNG.  It deliberately does **not**
expose physical channel identifiers, other nodes' channel sets, or the
overlap structure: the paper's model gives nodes none of that.
"""

from __future__ import annotations

import abc
import random
from dataclasses import FrozenInstanceError

from repro.sim import rng as streams
from repro.sim.actions import Action, SlotOutcome
from repro.types import NodeId


class NodeView:
    """A node's local view of the network.

    An immutable record: attributes cannot be reassigned after
    construction.

    Attributes
    ----------
    node_id:
        This node's unique identity (known to the node, per the model).
    num_channels:
        ``c`` — how many channels this node can tune; local labels are
        ``0..num_channels-1``.
    overlap:
        ``k`` — the guaranteed pairwise overlap (known to nodes, per the
        model: "Each node knows the value of k").
    num_nodes:
        ``n`` — used by the paper's algorithms only to size their running
        time (Theorem 4's discussion notes no other dependence).
    rng:
        This node's private random stream.  Pass it directly, or pass
        ``seed=`` instead: the view then derives
        ``derive_rng(seed, "node", node_id)`` on first access and keeps
        it, so a population whose streams are never drawn from (a
        numpy-mode columnar run) seeds none of them.  Either way it is
        the same stream, draw for draw.
    """

    __slots__ = ("node_id", "num_channels", "overlap", "num_nodes", "_rng", "_seed")

    node_id: NodeId
    num_channels: int
    overlap: int
    num_nodes: int

    def __init__(
        self,
        node_id: NodeId,
        num_channels: int,
        overlap: int,
        num_nodes: int,
        rng: random.Random | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        if (rng is None) == (seed is None):
            raise TypeError("NodeView takes exactly one of rng= and seed=")
        init = object.__setattr__
        init(self, "node_id", node_id)
        init(self, "num_channels", num_channels)
        init(self, "overlap", overlap)
        init(self, "num_nodes", num_nodes)
        init(self, "_rng", rng)
        init(self, "_seed", seed)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (
            f"NodeView(node_id={self.node_id!r}, num_channels={self.num_channels!r}, "
            f"overlap={self.overlap!r}, num_nodes={self.num_nodes!r})"
        )

    @property
    def rng(self) -> random.Random:
        """This node's private random stream (derived on first access)."""
        rng = self._rng
        if rng is None:
            rng = streams.derive_rng(self._seed, "node", self.node_id)
            object.__setattr__(self, "_rng", rng)
        return rng

    def random_label(self) -> int:
        """A local channel label chosen uniformly at random."""
        # A stream is always truthy: once derived, one slot read.
        return (self._rng or self.rng).randrange(self.num_channels)


class Protocol(abc.ABC):
    """Base class for per-node algorithms.

    Subclasses receive their :class:`NodeView` however they like
    (conventionally as the first constructor argument) and implement the
    two slot hooks.  The engine guarantees ``begin_slot``/``end_slot``
    are called in strictly alternating order with increasing slot
    numbers, and stops calling both once :attr:`done` is true.
    """

    @abc.abstractmethod
    def begin_slot(self, slot: int) -> Action:
        """Choose this node's action for *slot*."""

    @abc.abstractmethod
    def end_slot(self, slot: int, outcome: SlotOutcome) -> None:
        """Observe the outcome of *slot*."""

    @property
    def done(self) -> bool:
        """Whether this node has terminated.  Defaults to never."""
        return False


class IdleProtocol(Protocol):
    """A protocol that never participates.  Useful in tests."""

    def __init__(self, view: NodeView) -> None:
        self.view = view

    def begin_slot(self, slot: int) -> Action:
        from repro.sim.actions import Idle

        return Idle()

    def end_slot(self, slot: int, outcome: SlotOutcome) -> None:
        return None
