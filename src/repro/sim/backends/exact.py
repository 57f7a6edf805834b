"""The exact backend: the reference per-node engine.

``ExactBackend`` is a thin factory over :class:`repro.sim.engine.Engine`
— the general kernel plus the PR-3 fast-path kernel, which remain the
semantics every other backend is measured against.  ``build_engine``
without a ``backend=`` argument resolves here (unless the process
default was changed), so historical call sites are bit-identical to
their pre-backend behavior.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.sim.backends.base import EngineBackend
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.adversary import Jammer
    from repro.sim.channels import Network
    from repro.sim.collision import CollisionModel
    from repro.sim.protocol import Protocol
    from repro.sim.trace import EventTrace


class ExactBackend(EngineBackend):
    """Build the reference :class:`~repro.sim.engine.Engine`."""

    name = "exact"

    def build(
        self,
        network: "Network",
        protocols: "Sequence[Protocol]",
        *,
        collision: "CollisionModel | None" = None,
        seed: int = 0,
        trace: "EventTrace | None" = None,
        jammer: "Jammer | None" = None,
        probe: Any = None,
    ) -> Engine:
        return Engine(
            network,
            protocols,
            collision=collision,
            seed=seed,
            trace=trace,
            jammer=jammer,
            probe=probe,
        )
