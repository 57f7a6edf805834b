"""Benchmarks for the performance layer: engine fast path, parallel trials.

``test_engine_fast_path`` vs ``test_engine_general_path`` time the SAME
workload — eight seeded, uninstrumented, static-assignment COGCAST runs
driven to completion — through the two engine kernels; the ratio of
their means is the fast-path speedup recorded in ``BENCH_*.json``
(acceptance floor: 1.5x).  The general kernel is forced by attaching a
no-op ``SlotProbe``, whose hooks cost one empty call each.  Engine
construction happens in untimed setup, so the numbers isolate
``Engine.run``.

``test_trials_serial`` vs ``test_trials_parallel`` time the same
16-trial COGCAST sweep through ``map_trials`` with one worker and with
four; on a multi-core runner the ratio shows the trial-scaling win
(on a single-core box the parallel number just pays pool overhead —
the results are identical either way, which the tests assert).
"""

from __future__ import annotations

from functools import partial

from repro.assignment import shared_core
from repro.core.cogcast import CogCast
from repro.experiments.e01_cogcast_scaling_n import measure_cogcast_slots
from repro.experiments.harness import map_trials, trial_seeds
from repro.obs.probe import SlotProbe
from repro.sim import Network
from repro.sim.engine import Engine, build_engine
from repro.sim.rng import derive_rng

N, C, K = 256, 16, 4
ENGINE_SEEDS = range(8)
TRIAL_N = 256
TRIALS = 16


def _build_engines(fast_path: bool) -> list[Engine]:
    """Seeded engines; ``fast_path=False`` attaches a no-op probe."""
    engines = []
    for seed in ENGINE_SEEDS:
        rng = derive_rng(seed, "assignment")
        assignment = shared_core(N, C, K, rng).shuffled_labels(rng)
        network = Network.static(assignment, validate=False)
        engines.append(
            build_engine(
                network,
                lambda view: CogCast(view, is_source=(view.node_id == 0)),
                seed=seed,
                probe=None if fast_path else SlotProbe(),
            )
        )
    return engines


def _drive(engines: list[Engine]) -> int:
    total = 0
    for engine in engines:
        protocols = engine.protocols
        result = engine.run(
            100_000,
            stop_when=lambda _: all(p.informed for p in protocols),
        )
        total += result.slots
    return total


def test_engine_fast_path(benchmark):
    slots = benchmark.pedantic(
        _drive,
        setup=lambda: ((_build_engines(True),), {}),
        rounds=5,
        warmup_rounds=1,
    )
    assert slots > 0


def test_engine_general_path(benchmark):
    slots = benchmark.pedantic(
        _drive,
        setup=lambda: ((_build_engines(False),), {}),
        rounds=5,
        warmup_rounds=1,
    )
    assert slots > 0


def test_fast_path_engages_and_matches():
    """Not a timing: the two kernels must produce identical results."""
    fast = _build_engines(True)
    general = _build_engines(False)
    assert _drive(fast) == _drive(general)
    assert all(engine.fast_path_engaged for engine in fast)
    assert not any(engine.fast_path_engaged for engine in general)
    for a, b in zip(fast, general):
        assert [(p.informed, p.parent, p.informed_slot) for p in a.protocols] == [
            (p.informed, p.parent, p.informed_slot) for p in b.protocols
        ]


def _sweep(jobs: int) -> list[int]:
    return map_trials(
        partial(measure_cogcast_slots, TRIAL_N, C, K),
        trial_seeds(0, "bench-perf", TRIALS),
        jobs=jobs,
    )


def test_trials_serial(benchmark):
    samples = benchmark.pedantic(_sweep, args=(1,), rounds=3, warmup_rounds=1)
    assert len(samples) == TRIALS


def test_trials_parallel(benchmark):
    samples = benchmark.pedantic(_sweep, args=(4,), rounds=3, warmup_rounds=1)
    assert samples == _sweep(1)
