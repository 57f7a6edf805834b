"""Fast-path kernel equivalence: bit-identical to the general engine.

The fast kernel (docs/performance.md) is only allowed to exist because
these tests hold: on every configuration where it engages, the run must
be indistinguishable from the general path — same ``RunResult``, same
final protocol states, same RNG stream, same errors, and a traced
re-run of the same seed must reproduce the exact ``EventTrace`` either
way.  Ineligible configurations must quietly take the general kernel.

The reference general kernel is forced the way users force it: by
attaching an instrument, here a no-op :class:`SlotProbe`.
"""

from __future__ import annotations

import random

import pytest

from repro.assignment import dynamic_shared_core_schedule, shared_core
from repro.core import (
    CogCast,
    SumAggregator,
    run_data_aggregation,
    run_local_broadcast,
)
from repro.obs.probe import SlotProbe
from repro.sim import EventTrace, Network
from repro.sim.actions import Broadcast, Listen
from repro.sim.adversary import RandomJammer
from repro.sim.collision import AllDeliveredCollision
from repro.sim.engine import ExecutionPlan, build_engine
from repro.sim.protocol import Protocol
from repro.types import ProtocolViolationError

SEEDS = [0, 1, 7, 11, 42]


def make_network(seed: int, n: int = 24, c: int = 6, k: int = 2) -> Network:
    rng = random.Random(seed)
    plan = shared_core(n, c, k, rng).shuffled_labels(rng)
    return Network.static(plan)


def cogcast_factory(view):
    return CogCast(view, is_source=(view.node_id == 0))


def drive_cogcast(seed: int, *, general: bool, trace=None):
    """One seeded COGCAST run to completion; returns everything observable.

    *general* attaches a no-op probe, which forces the general kernel.
    """
    engine = build_engine(
        make_network(seed),
        cogcast_factory,
        seed=seed,
        trace=trace,
        probe=SlotProbe() if general else None,
    )
    protocols = engine.protocols
    result = engine.run(
        10_000, stop_when=lambda _: all(p.informed for p in protocols)
    )
    states = [(p.informed, p.parent, p.informed_slot) for p in protocols]
    return engine, result, states


class TestCogcastEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_identical_result_states_and_rng_stream(self, seed):
        fast_engine, fast_result, fast_states = drive_cogcast(
            seed, general=False
        )
        slow_engine, slow_result, slow_states = drive_cogcast(
            seed, general=True
        )
        assert fast_engine.fast_path_engaged
        assert not slow_engine.fast_path_engaged
        assert fast_result == slow_result
        assert fast_states == slow_states
        # Strongest check: the engine RNGs consumed the exact same draws.
        assert fast_engine.rng.getstate() == slow_engine.rng.getstate()

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_traced_rerun_identical_eventtrace(self, seed):
        """Tracing a seed must yield one EventTrace, whichever kernel the
        untraced run used (tracing itself forces the general path)."""
        _, fast_result, _ = drive_cogcast(seed, general=False)
        trace_after_fast = EventTrace()
        _, traced_result, _ = drive_cogcast(
            seed, general=False, trace=trace_after_fast
        )
        trace_general = EventTrace()
        drive_cogcast(seed, general=True, trace=trace_general)
        assert traced_result == fast_result
        assert list(trace_after_fast.events) == list(trace_general.events)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_runner_entry_point_matches_traced_run(self, seed):
        """``run_local_broadcast`` defaults to the fast path; attaching a
        trace flips it to the general path — results must not move."""
        network = make_network(seed)
        fast = run_local_broadcast(
            network, source=0, seed=seed, max_slots=10_000
        )
        traced = run_local_broadcast(
            network, source=0, seed=seed, max_slots=10_000, trace=EventTrace()
        )
        assert fast == traced


class TestCogcompEquivalence:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_aggregation_identical_across_paths(self, seed):
        network = make_network(seed, n=16, c=5, k=2)
        values = list(range(network.num_nodes))
        fast = run_data_aggregation(
            network,
            values,
            source=0,
            seed=seed,
            aggregator=SumAggregator(),
            require_completion=True,
        )
        traced = run_data_aggregation(
            network,
            values,
            source=0,
            seed=seed,
            aggregator=SumAggregator(),
            trace=EventTrace(),
            require_completion=True,
        )
        assert fast == traced
        assert fast.value == sum(values)


class LabelAbuser(Protocol):
    """Broadcasts on an out-of-range local label to provoke the engine."""

    def __init__(self, view):
        self.view = view

    def begin_slot(self, slot):
        if self.view.node_id == 0:
            return Broadcast(self.view.num_channels, payload="bad")
        return Listen(0)

    def end_slot(self, slot, outcome):
        return None


class TestErrorEquivalence:
    def test_identical_protocol_violation_message(self):
        messages = []
        for probe in (None, SlotProbe()):
            engine = build_engine(make_network(3), LabelAbuser, seed=3, probe=probe)
            with pytest.raises(ProtocolViolationError) as excinfo:
                engine.run(10)
            assert engine.fast_path_engaged is (probe is None)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]


class TestEligibility:
    def test_noop_probe_forces_general_kernel(self):
        engine = build_engine(
            make_network(0), cogcast_factory, seed=0, probe=SlotProbe()
        )
        engine.run(5)
        assert not engine.fast_path_engaged
        assert engine.plan == ExecutionPlan("general", "probe attached")
        assert engine.fast_path_reason == "probe attached"

    def test_trace_disables(self):
        engine = build_engine(
            make_network(0), cogcast_factory, seed=0, trace=EventTrace()
        )
        engine.run(5)
        assert not engine.fast_path_engaged
        assert engine.fast_path_reason == "event trace attached"

    def test_jammer_disables(self):
        engine = build_engine(
            make_network(0),
            cogcast_factory,
            seed=0,
            jammer=RandomJammer(range(6), budget=1, rng=random.Random(0)),
        )
        engine.run(5)
        assert not engine.fast_path_engaged
        assert engine.fast_path_reason == "jamming adversary attached"

    def test_collision_model_disables(self):
        engine = build_engine(
            make_network(0),
            cogcast_factory,
            seed=0,
            collision=AllDeliveredCollision(),
        )
        engine.run(5)
        assert not engine.fast_path_engaged
        assert engine.fast_path_reason == "non-default collision model"

    def test_dynamic_schedule_disables(self):
        schedule = dynamic_shared_core_schedule(24, 6, 2, seed=0)
        engine = build_engine(
            Network(schedule), cogcast_factory, seed=0
        )
        engine.run(5)
        assert not engine.fast_path_engaged
        assert engine.fast_path_reason == "non-static schedule"

    def test_default_engages(self):
        engine = build_engine(make_network(0), cogcast_factory, seed=0)
        engine.run(5)
        assert engine.fast_path_engaged
        assert engine.plan == ExecutionPlan("fast")
