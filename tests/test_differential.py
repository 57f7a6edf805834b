"""Randomized differential gate for the engine kernels.

COGCAST runs on three kernels: the general reference kernel (forced by
a no-op :class:`SlotProbe`), the exact engine's fast kernel, and the
columnar kernel replaying the exact engine's streams
(``vector-replay``).  Hypothesis draws the configuration — size,
channels, overlap, source, a static, label-shuffled or dynamic
schedule, a stop condition (``AllInformed``) or a fixed slot budget,
and optionally a random jammer and the destructive collision model.
Wherever a faster kernel engages it must be bit-identical to the
general one: same ``RunResult``, every node's state, every node's
stream, the engine's and the jammer's streams, and the same
``MetricsProbe`` snapshot on the exact and vector-replay backends.
Wherever it declines, :func:`repro.sim.engine.plan_run` must name the
reason.  COGCOMP runs fast against general through
:func:`repro.core.run_data_aggregation`.

Tier-1 runs Hypothesis's default example budget.  The
``differential`` profile registered in ``tests/conftest.py`` raises
it::

    PYTHONPATH=src python -m pytest tests/test_differential.py \\
        --hypothesis-profile=differential
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.runners as runners
from repro.assignment import dynamic_shared_core_schedule, shared_core
from repro.core import CogCast, SumAggregator, run_data_aggregation
from repro.obs.metrics import MetricsProbe, MetricsRegistry
from repro.obs.probe import SlotProbe
from repro.sim.adversary import RandomJammer
from repro.sim.backends import AllInformed, numpy_available
from repro.sim.channels import Network
from repro.sim.collision import DestructiveCollision
from repro.sim.engine import ExecutionPlan, build_engine
from repro.sim.rng import derive_rng

#: Slot cap for runs that stop at ``AllInformed``.  A jammed or
#: destructive single-channel world may never inform everyone.
MAX_SLOTS = 400

SCHEDULES = ("static", "shuffled", "dynamic")


@dataclass(frozen=True)
class Case:
    n: int
    c: int
    k: int
    source: int
    schedule: str
    seed: int
    budget: int | None  # None: stop at AllInformed within MAX_SLOTS
    jam_budget: int  # 0: no jammer
    destructive: bool


@st.composite
def cases(draw, *, schedules=SCHEDULES, max_n=40, adversaries=True):
    n = draw(st.integers(2, max_n))
    c = draw(st.integers(1, 6))
    # Half the cases have no adversary, so the faster kernels engage.
    adversarial = adversaries and draw(st.booleans())
    return Case(
        n=n,
        c=c,
        k=draw(st.integers(1, c)),
        source=draw(st.integers(0, n - 1)),
        schedule=draw(st.sampled_from(schedules)),
        seed=draw(st.integers(0, 2**32 - 1)),
        budget=draw(st.none() | st.integers(0, 60)),
        jam_budget=draw(st.integers(0, 2)) if adversarial else 0,
        destructive=draw(st.booleans()) if adversarial else False,
    )


def make_network(case: Case) -> Network:
    if case.schedule == "dynamic":
        return Network(
            dynamic_shared_core_schedule(case.n, case.c, case.k, seed=case.seed)
        )
    rng = random.Random(case.seed)
    assignment = shared_core(case.n, case.c, case.k, rng)
    if case.schedule == "shuffled":
        assignment = assignment.shuffled_labels(rng)
    return Network.static(assignment)


def make_jammer(case: Case) -> RandomJammer | None:
    if not case.jam_budget:
        return None
    universe = range(case.k + case.n * (case.c - case.k))
    return RandomJammer(
        universe,
        budget=min(case.jam_budget, len(universe)),
        rng=derive_rng(case.seed, "differential-jammer"),
    )


def run_cogcast(case: Case, *, backend: str = "exact", probe: Any = None):
    """One COGCAST run; returns the engine and everything observable."""
    jammer = make_jammer(case)
    engine = build_engine(
        make_network(case),
        lambda view: CogCast(view, is_source=(view.node_id == case.source)),
        seed=case.seed,
        collision=DestructiveCollision() if case.destructive else None,
        jammer=jammer,
        probe=probe,
        backend=backend,
    )
    protocols = engine.protocols
    if case.budget is None:
        result = engine.run(MAX_SLOTS, stop_when=AllInformed(protocols))
    else:
        result = engine.run(case.budget)
    observed = (
        result,
        [
            {name: value for name, value in vars(p).items() if name != "view"}
            for p in protocols
        ],
        [p.view.rng.getstate() for p in protocols],
        engine.rng.getstate(),
        None if jammer is None else jammer.rng.getstate(),
    )
    return engine, observed


def fast_reason(case: Case) -> str | None:
    """Why the exact engine's fast kernel must decline *case*."""
    if case.jam_budget:
        return "jamming adversary attached"
    if case.destructive:
        return "non-default collision model"
    if case.schedule == "dynamic":
        return "non-static schedule"
    return None


def vector_reason(case: Case) -> str | None:
    """Why the columnar kernel must decline *case* (dynamic is fine)."""
    if case.jam_budget or case.destructive:
        return fast_reason(case)
    return None


@given(case=cases())
@settings(deadline=None)
def test_cogcast_kernels_agree(case):
    general_engine, general = run_cogcast(case, probe=SlotProbe())
    assert general_engine.plan == ExecutionPlan("general", "probe attached")

    fast_engine, fast = run_cogcast(case)
    reason = fast_reason(case)
    assert fast_engine.plan == ExecutionPlan(
        "general" if reason else "fast", reason
    )
    assert fast == general

    if not numpy_available():
        return
    replay_engine, replay = run_cogcast(case, backend="vector-replay")
    reason = vector_reason(case)
    assert replay_engine.plan == ExecutionPlan(
        "exact" if reason else "vector", reason
    )
    # A fallen-back run's exact engine declines its fast kernel for the
    # same reason.
    assert replay_engine.fast_path_reason == reason
    assert replay == general

    snapshots = []
    for backend in ("exact", "vector-replay"):
        registry = MetricsRegistry()
        _, observed = run_cogcast(
            case, backend=backend, probe=MetricsProbe(registry)
        )
        assert observed == general
        snapshots.append(registry.snapshot())
    assert snapshots[0] == snapshots[1]


def run_cogcomp(case: Case, values: list[int], *, probe: Any = None):
    """One COGCOMP run; returns its result, plan and collision stream."""
    engines = []

    def recording_build(*args, **kwargs):
        engines.append(build_engine(*args, **kwargs))
        return engines[-1]

    with mock.patch.object(runners, "build_engine", recording_build):
        result = run_data_aggregation(
            make_network(case),
            values,
            source=case.source,
            seed=case.seed,
            aggregator=SumAggregator(),
            probe=probe,
        )
    (engine,) = engines
    return result, engine.plan, engine.rng.getstate()


@given(
    case=cases(schedules=("static", "shuffled"), max_n=24, adversaries=False),
    data=st.data(),
)
@settings(deadline=None)
def test_cogcomp_fast_and_general_agree(case, data):
    values = data.draw(
        st.lists(st.integers(-1000, 1000), min_size=case.n, max_size=case.n)
    )
    fast, fast_plan, fast_rng = run_cogcomp(case, values)
    general, general_plan, general_rng = run_cogcomp(
        case, values, probe=SlotProbe()
    )
    assert fast_plan == ExecutionPlan("fast")
    assert general_plan == ExecutionPlan("general", "probe attached")
    assert fast == general
    assert fast_rng == general_rng
    if fast.completed:
        assert fast.value == sum(values)
