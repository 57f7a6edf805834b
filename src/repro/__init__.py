"""repro — a full reproduction of *Efficient Communication in Cognitive
Radio Networks* (Gilbert, Kuhn, Newport, Zheng; PODC 2015).

The package implements the paper's model and both of its algorithms,
the baselines it compares against, the lower-bound games its proofs are
built on, and an experiment harness that regenerates every quantitative
claim as a table.

Quickstart::

    import random
    from repro import assignment, core, sim

    rng = random.Random(7)
    network = sim.Network.static(
        assignment.shared_core(n=32, c=8, k=2, rng=rng).shuffled_labels(rng)
    )
    result = core.run_local_broadcast(network, source=0, seed=7, max_slots=10_000)
    print(f"broadcast completed in {result.slots} slots")

Subpackages
-----------
- :mod:`repro.sim` — slot-synchronous simulator (the model of Section 2)
- :mod:`repro.assignment` — channel-assignment generators
- :mod:`repro.core` — COGCAST and COGCOMP
- :mod:`repro.baselines` — rendezvous broadcast/aggregation, hopping-together
- :mod:`repro.games` — the bipartite hitting games and the Lemma 12 reduction
- :mod:`repro.backoff` — the decay-backoff substrate behind the collision model
- :mod:`repro.analysis` — bounds, statistics, scaling fits
- :mod:`repro.experiments` — the per-claim experiment registry
"""

# Defined before the subpackage imports: provenance reads it while they
# run, to stamp ``pkg-<version>`` outside a git checkout.
__version__ = "1.0.0"

from repro import (
    analysis,
    apps,
    assignment,
    backoff,
    baselines,
    core,
    games,
    sim,
    spectrum,
)
from repro.types import (
    Channel,
    GameError,
    InvalidAssignmentError,
    LocalLabel,
    NodeId,
    ProtocolViolationError,
    ReproError,
    SimulationError,
    Slot,
)

__all__ = [
    "Channel",
    "GameError",
    "InvalidAssignmentError",
    "LocalLabel",
    "NodeId",
    "ProtocolViolationError",
    "ReproError",
    "SimulationError",
    "Slot",
    "analysis",
    "apps",
    "assignment",
    "backoff",
    "baselines",
    "core",
    "games",
    "sim",
    "spectrum",
    "__version__",
]
