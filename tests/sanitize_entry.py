"""Sanitizer fixture entry points (``repro sanitize tests.sanitize_entry:...``).

Two ``run(trials=, seed=, fast=)`` entry points exercised by
``tests/test_sanitize.py``:

- :func:`run_clean` is deterministic under every perturbation the
  sanitizer applies — the green path.
- :func:`run_hidden_state` carries ISSUE 9's seeded fault:
  :class:`HiddenCast` mutates ``self.heard_total`` every slot in
  ``end_slot`` but never exports it in ``vector_export()``, so the
  columnar kernel cannot replay it and the exact vs ``vector-replay``
  captures diverge in the measured column.  Lint rule R11 flags the
  very same line statically (the ``lint: disable`` comments below keep
  the shipped tree clean; the test strips them and asserts the
  finding).
"""

from __future__ import annotations

import random
from typing import Any

from repro.core.cogcast import CogCast
from repro.core.runners import run_local_broadcast
from repro.experiments.harness import Table, map_trials, trial_seeds
from repro.sim.actions import SlotOutcome
from repro.sim.backends import AllInformed
from repro.sim.channels import Network
from repro.sim.engine import build_engine
from repro.sim.protocol import NodeView

from repro.assignment import shared_core

#: Small enough that a full sanitize (four subprocess captures) stays
#: in CI-smoke territory, large enough that the epidemic actually runs
#: for a few slots per trial.
_N, _C, _K = 16, 4, 2
_MAX_SLOTS = 600


def _make_network(seed: int) -> Network:
    rng = random.Random(seed)
    return Network.static(shared_core(_N, _C, _K, rng).shuffled_labels(rng))


class HiddenCast(CogCast):
    """COGCAST plus an un-exported reception counter — the seeded fault.

    ``heard_total`` is advanced by the exact engine's per-node
    ``end_slot`` every time a message arrives, but it is missing from
    ``vector_export()``: the columnar kernel never sees it, leaves it
    at zero, and the two backends diverge in exactly the column
    :func:`run_hidden_state` measures.
    """

    # Redeclared so the vector kernel engages for this subclass too
    # (the kernel matches ``vector_kind`` on the concrete class body).
    vector_kind = "epidemic-broadcast"

    def __init__(self, view: NodeView, **kwargs: Any) -> None:
        super().__init__(view, **kwargs)
        self.heard_total = 0

    def end_slot(self, slot: int, outcome: SlotOutcome) -> None:
        if outcome.received is not None:
            self.heard_total += 1  # lint: disable=R11
        super().end_slot(slot, outcome)

    def vector_export(self) -> dict[str, Any]:
        # Deliberately CogCast's field set verbatim: ``heard_total`` is
        # the hidden state under test and must NOT appear here.
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
        self.informed = state["informed"]
        self.message = state["message"]
        self.parent = state["parent"]
        self.informed_slot = state["informed_slot"]
        self.informed_label = state["informed_label"]
        self._current_label = state["current_label"]


def _measure_clean(seed: int) -> tuple[int, int]:
    """One seeded COGCAST run; backend resolves to the process default."""
    result = run_local_broadcast(
        _make_network(seed), seed=seed, max_slots=_MAX_SLOTS
    )
    return result.slots, result.informed_count


def _measure_hidden(seed: int) -> tuple[int, int]:
    """One seeded HiddenCast run; measures the un-exported counter."""
    network = _make_network(seed)

    def factory(view: NodeView) -> HiddenCast:
        return HiddenCast(view, is_source=(view.node_id == 0))

    engine = build_engine(network, factory, seed=seed)
    protocols: list[HiddenCast] = engine.protocols  # type: ignore[assignment]
    result = engine.run(_MAX_SLOTS, stop_when=AllInformed(protocols))
    return result.slots, sum(protocol.heard_total for protocol in protocols)


def _trials(trials: int | None, fast: bool) -> int:
    if trials is not None:
        return trials
    return 2 if fast else 3


def run_clean(
    trials: int | None = None, seed: int = 0, fast: bool = False
) -> Table:
    """Deterministic fixture: pure in ``(trials, seed, fast)``.

    Trials fan out through :func:`map_trials` with a module-level
    picklable measure function, so the sanitizer's ``jobs``
    perturbation genuinely exercises the process pool.
    """
    count = _trials(trials, fast)
    seeds = trial_seeds(seed, "sanitize-clean", count)
    rows = tuple(
        (index, slots, informed)
        for index, (slots, informed) in enumerate(map_trials(_measure_clean, seeds))
    )
    return Table(
        experiment_id="SAN-CLEAN",
        title="sanitizer fixture (deterministic)",
        claim="rows are a pure function of (trials, seed, fast)",
        columns=("trial", "slots", "informed"),
        rows=rows,
    )


def run_hidden_state(
    trials: int | None = None, seed: int = 0, fast: bool = False
) -> Table:
    """Faulty fixture: ``heard_total`` diverges under ``vector-replay``."""
    count = _trials(trials, fast)
    seeds = trial_seeds(seed, "sanitize-hidden", count)
    rows = tuple(
        (index, slots, heard)
        for index, (slots, heard) in enumerate(map_trials(_measure_hidden, seeds))
    )
    return Table(
        experiment_id="SAN-HIDDEN",
        title="sanitizer fixture (hidden protocol state)",
        claim="heard_total is hidden state the columnar kernel cannot replay",
        columns=("trial", "slots", "heard_total"),
        rows=rows,
    )
