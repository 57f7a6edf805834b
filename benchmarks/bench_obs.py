"""Benchmarks for the observability subsystem: instrument overhead.

An un-instrumented run takes the engine's fast kernel, which fires no
hooks at all; attaching any probe moves the run onto the general
kernel, which fires every hook.  These benchmarks time the same seeded
COGCAST run bare, with the metrics registry feeder alone, and with the
instruments production runs attach (metrics, spans, and the COGCAST
watchdogs), so the cost of observing shows up as a ratio between
adjacent rows of ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import random

from repro import assignment, sim
from repro.core import run_local_broadcast
from repro.obs import (
    InformedSetWatchdog,
    MetricsRegistry,
    SlotBudgetWatchdog,
    SpanProbe,
)

SEED = 5
MAX_SLOTS = 2_000
ROUNDS = 5
N, C, K = 48, 12, 3


def _network() -> sim.Network:
    """A mid-size shared-core instance, identical across benchmarks."""
    rng = random.Random(11)
    plan = assignment.shared_core(n=N, c=C, k=K, rng=rng).shuffled_labels(rng)
    return sim.Network.static(plan)


def test_broadcast_bare(benchmark):
    network = _network()
    result = benchmark.pedantic(
        lambda: run_local_broadcast(network, seed=SEED, max_slots=MAX_SLOTS),
        rounds=ROUNDS,
        iterations=1,
    )
    assert result.completed


def test_broadcast_metrics(benchmark):
    network = _network()

    def run():
        registry = MetricsRegistry()
        result = run_local_broadcast(
            network, seed=SEED, max_slots=MAX_SLOTS, metrics=registry
        )
        return result, registry

    result, registry = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.completed
    slots = registry.instruments()["sim_slots"]
    assert slots.value(protocol="cogcast") == result.slots


def test_broadcast_full_instrumentation(benchmark):
    network = _network()

    def run():
        spans = SpanProbe()
        watchdogs = [SlotBudgetWatchdog(), InformedSetWatchdog(source=0)]
        result = run_local_broadcast(
            network,
            seed=SEED,
            max_slots=MAX_SLOTS,
            metrics=MetricsRegistry(),
            spans=spans,
            watchdogs=watchdogs,
        )
        return result, spans, watchdogs

    result, spans, watchdogs = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.completed
    assert len(spans.informed) == N
    assert not any(watchdog.anomalies for watchdog in watchdogs)
