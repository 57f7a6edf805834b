"""COGCAST: epidemic local broadcast (Section 4 of the paper).

The algorithm, verbatim from the paper: in every slot, every node picks
a channel uniformly at random from its own set; informed nodes broadcast
the message, uninformed nodes listen.  That is the whole protocol — its
power comes from the epidemic dynamics, and its simplicity is what makes
it robust to dynamic channel assignments (the node never consults
anything but its current channel set and a coin).

Theorem 4: after ``Theta((c/k) * max{1, c/n} * lg n)`` slots every node
is informed w.h.p.

This module provides the :class:`CogCast` protocol, an execution log
(consumed by COGCOMP's phases two and three), and the
:class:`BroadcastResult` record.  The measurement harness lives in
:func:`repro.core.runners.run_local_broadcast`: protocol modules never
import the engine (lint rule R4 — a node's only handle on the world is
its :class:`~repro.sim.protocol.NodeView`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.messages import InitPayload
from repro.sim.actions import Action, Broadcast, Listen, SlotOutcome
from repro.sim.protocol import NodeView, Protocol
from repro.types import NodeId, Slot


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One slot of a node's COGCAST execution record.

    COGCOMP's phase two needs to know where a node was informed; phase
    three replays the whole log backwards, so every slot is recorded:
    which local label the node tuned, whether it broadcast, whether the
    broadcast succeeded, and whether this is the slot the node was first
    informed.
    """

    slot: Slot
    label: int
    was_broadcast: bool
    success: Optional[bool]
    first_informed: bool


class CogCast(Protocol):
    """The COGCAST node protocol.

    Parameters
    ----------
    view:
        The node's local view.
    is_source:
        Whether this node starts informed (the designated source).
    body:
        Application payload the source disseminates.
    keep_log:
        Record a :class:`LogEntry` per slot (required when COGCAST runs
        as COGCOMP's phase one; optional otherwise).

    Notes
    -----
    The protocol never terminates on its own — the paper notes that in a
    long-lived system it has no dependence on any non-observable
    parameter.  Callers stop the engine externally (e.g. when all nodes
    report :attr:`informed`, or after the Theorem 4 slot bound).
    """

    #: Columnar program tag for the vector engine backend.  Duck-typed:
    #: this module imports nothing from ``repro.sim.backends`` (R4); the
    #: backend matches the tag and batch-executes the same per-slot rule.
    vector_kind = "epidemic-broadcast"

    def __init__(
        self,
        view: NodeView,
        *,
        is_source: bool = False,
        body: Any = None,
        keep_log: bool = False,
    ) -> None:
        self.view = view
        self.is_source = is_source
        self.informed = is_source
        self.message: InitPayload | None = (
            InitPayload(origin=view.node_id, body=body) if is_source else None
        )
        self.parent: NodeId | None = None
        self.informed_slot: Slot | None = -1 if is_source else None
        self.informed_label: int | None = None
        self.keep_log = keep_log
        self.log: list[LogEntry] = []
        self._current_label: int = 0

    def begin_slot(self, slot: int) -> Action:
        """Pick a uniform random channel; broadcast if informed, else listen."""
        self._current_label = self.view.random_label()
        if self.informed:
            assert self.message is not None
            return Broadcast(self._current_label, self.message)
        return Listen(self._current_label)

    def end_slot(self, slot: int, outcome: SlotOutcome) -> None:
        """Absorb the slot outcome: become informed on first reception; log."""
        first_informed = False
        if (
            not self.informed
            and outcome.received is not None
            and isinstance(outcome.received.payload, InitPayload)
        ):
            self.informed = True
            self.message = outcome.received.payload
            self.parent = outcome.received.sender
            self.informed_slot = slot
            self.informed_label = self._current_label
            first_informed = True
        if self.keep_log:
            was_broadcast = isinstance(outcome.action, Broadcast)
            self.log.append(
                LogEntry(
                    slot=slot,
                    label=self._current_label,
                    was_broadcast=was_broadcast,
                    success=outcome.success if was_broadcast else None,
                    first_informed=first_informed,
                )
            )

    def vector_export(self) -> dict[str, Any]:
        """Snapshot the state the vector backend batch-executes.

        ``draw`` is the node's bound :meth:`NodeView.random_label`:
        replay mode calls it once per slot, the exact engine's draw on
        the node's own stream, while numpy mode never calls it, so the
        stream is never derived.  ``keep_log`` tells the backend this
        node needs per-slot records it cannot produce, forcing the exact
        engine.
        """
        return {
            "informed": self.informed,
            "message": self.message,
            "parent": self.parent,
            "informed_slot": self.informed_slot,
            "informed_label": self.informed_label,
            "current_label": self._current_label,
            "keep_log": self.keep_log,
            "draw": self.view.random_label,
        }

    def vector_import(self, state: dict[str, Any]) -> None:
        """Restore state after a columnar run (plain Python values)."""
        self.informed = state["informed"]
        self.message = state["message"]
        self.parent = state["parent"]
        self.informed_slot = state["informed_slot"]
        self.informed_label = state["informed_label"]
        self._current_label = state["current_label"]


@dataclass(frozen=True, slots=True)
class BroadcastResult:
    """Outcome of one local-broadcast execution.

    Attributes
    ----------
    slots: slots executed before every node was informed (or the budget
        ran out).
    completed: whether every node was informed.
    informed_count: how many nodes ended up informed.
    parents: ``parents[u]`` is the node that first informed ``u``
        (``None`` for the source and for never-informed nodes) — the
        edge set of the distribution tree.
    informed_slots: slot at which each node was first informed (``-1``
        for the source, ``None`` if never).
    """

    slots: int
    completed: bool
    informed_count: int
    parents: tuple[Optional[NodeId], ...]
    informed_slots: tuple[Optional[Slot], ...]

    @classmethod
    def from_run(cls, run: Any, protocols: Any) -> "BroadcastResult":
        """Fold a run's ``slots``/``completed`` and per-node informed state.

        *protocols* is any population exposing ``informed``, ``parent``
        and ``informed_slot`` (COGCAST and the broadcast baselines).
        """
        return cls(
            slots=run.slots,
            completed=run.completed,
            informed_count=sum(protocol.informed for protocol in protocols),
            parents=tuple(protocol.parent for protocol in protocols),
            informed_slots=tuple(protocol.informed_slot for protocol in protocols),
        )
