"""The benchmark's workloads and how one round of each runs.

A workload is a cycle of run configurations.  Op ``i`` (one runner
call) uses configuration ``cycle[i % len(cycle)]`` and seeds derived
from the workload seed and ``i`` alone, so a seed fixes every input.
A *round* is one pass through the cycle and is the latency sample:
the trials mixes are bimodal (COGCAST runs are several times shorter
than COGCOMP runs), so a median over single runs would fall between
the modes and flip with the parity of the run count.

On an observed workload each round is also one telemetry batch: its
runs write one JSONL shard, which is then ingested into a fresh
``RunStore``, ingested again (the dedup path) and queried.  Those store
steps are part of the round's time.

Only generated networks and values reach the program; the benchmark
calls its public runners and checks every result (see ``gate``).
"""

from __future__ import annotations

import hashlib
import random
import shutil
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, ContextManager

import repro.assignment as assignment
import repro.core.runners as runners
import repro.obs.query as query
from repro.analysis.theory import cogcast_slot_bound
from repro.core.aggregation import SumAggregator
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanProbe
from repro.obs.store import RunStore
from repro.obs.telemetry import TelemetrySink, read_telemetry, validate_record
from repro.obs.watchdog import (
    ClusterSizeAgreementWatchdog,
    InformedSetWatchdog,
    MediatorUniquenessWatchdog,
    SlotBudgetWatchdog,
)
from repro.sim.channels import Network

from benchlib import gate

#: Every run starts its broadcast (or aggregation) at node 0.
SOURCE = 0

#: Queries made on every observed batch's store.
QUERY_GROUP = ("protocol", "backend")
QUERY_STATS = ("slots", "metric:sim_broadcasts")


@dataclass(frozen=True)
class RunSpec:
    """One run configuration.

    *instruments* is ``"none"``, ``"observed"`` (metrics, spans and the
    protocol's watchdogs) or ``"metrics"`` (a metrics registry only).
    """

    protocol: str
    n: int
    c: int
    k: int
    backend: str
    instruments: str = "none"


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[RunSpec, ...]
    observed: bool = False


def workloads(*, tiny: bool = False) -> dict[str, Workload]:
    """The named workloads; *tiny* shrinks every ``n`` for tests and warm-up."""
    big, cast_n, comp_n = (300, 64, 16) if tiny else (100_000, 1024, 128)
    cast = RunSpec("cogcast", cast_n, 16, 4, "exact")
    comp = RunSpec("cogcomp", comp_n, 8, 2, "exact")
    comp_observed = RunSpec("cogcomp", comp_n, 8, 2, "exact", "observed")
    return {
        "broadcast-1e5-vector": Workload(
            "broadcast-1e5-vector", (RunSpec("cogcast", big, 16, 4, "vector"),)
        ),
        "trials-exact": Workload("trials-exact", (cast, comp)),
        # Same configuration and seed per op index as trials-exact; the
        # COGCAST slots alternate between the exact engine with every
        # instrument and the vector engine with metrics only.
        "trials-observed": Workload(
            "trials-observed",
            (
                RunSpec("cogcast", cast_n, 16, 4, "exact", "observed"),
                comp_observed,
                RunSpec("cogcast", cast_n, 16, 4, "vector", "metrics"),
                comp_observed,
            ),
            observed=True,
        ),
    }


def derive_seed(workload_seed: int, op: int, purpose: str) -> int:
    """A 31-bit seed for *purpose* of op *op*, fixed by the workload seed."""
    text = f"perfbench:{workload_seed}:{op}:{purpose}".encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "big") >> 1


@dataclass
class RoundResult:
    """One round: its time, its runs, and what failed."""

    seconds: float = 0.0
    runs: int = 0
    failed: int = 0
    node_slots: int = 0
    problems: list[str] = field(default_factory=list)


def _instruments(spec: RunSpec, sink: TelemetrySink | None) -> tuple[dict[str, Any], list]:
    if spec.instruments == "none":
        return {}, []
    kwargs: dict[str, Any] = {"metrics": MetricsRegistry(), "telemetry": sink}
    watchdogs: list = []
    if spec.instruments == "observed":
        if spec.protocol == "cogcast":
            watchdogs = [SlotBudgetWatchdog(), InformedSetWatchdog(source=SOURCE)]
        else:
            watchdogs = [MediatorUniquenessWatchdog(), ClusterSizeAgreementWatchdog()]
        kwargs["spans"] = SpanProbe(source=SOURCE)
        kwargs["watchdogs"] = watchdogs
    return kwargs, watchdogs


def run_one(
    spec: RunSpec, assignment_seed: int, engine_seed: int, sink: TelemetrySink | None
) -> tuple[Any, int, list]:
    """Generate the op's network and run it; return (result, slots, watchdogs).

    Entry points are looked up on their modules at call time, so the
    tracer's patches apply.
    """
    rng = random.Random(assignment_seed)
    generated = assignment.shared_core(spec.n, spec.c, spec.k, rng)
    network = Network.static(generated.shuffled_labels(rng), validate=False)
    kwargs, watchdogs = _instruments(spec, sink)
    if spec.protocol == "cogcast":
        result = runners.run_local_broadcast(
            network,
            source=SOURCE,
            seed=engine_seed,
            max_slots=2 * cogcast_slot_bound(spec.n, spec.c, spec.k),
            backend=spec.backend,
            **kwargs,
        )
        return result, result.slots, watchdogs
    result = runners.run_data_aggregation(
        network,
        list(range(spec.n)),
        source=SOURCE,
        seed=engine_seed,
        aggregator=SumAggregator(),
        backend=spec.backend,
        **kwargs,
    )
    return result, result.total_slots, watchdogs


def check_run(spec: RunSpec, result: Any) -> list[str]:
    if spec.protocol == "cogcast":
        return gate.check_broadcast(
            result,
            n=spec.n,
            source=SOURCE,
            slot_bound=cogcast_slot_bound(spec.n, spec.c, spec.k),
        )
    return gate.check_aggregation(result, n=spec.n)


class RoundRunner:
    """Runs the rounds of one workload for one seed.

    *workdir* holds each observed round's shard and store, deleted once
    the round is checked.  *clock* times the round's sections.  *tracer*,
    when given, gets a root span per op and per store batch plus the
    telemetry byte count.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        workdir: Path,
        *,
        clock: Callable[[], float] = perf_counter,
        tracer: Any = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.tracer = tracer

    def _root(self, name: str, op: int) -> ContextManager[None]:
        return nullcontext() if self.tracer is None else self.tracer.root(name, op)

    def round(self, number: int) -> RoundResult:
        cycle = self.workload.cycle
        out = RoundResult()
        shard = self.workdir / f"round-{number}.jsonl"
        sink = TelemetrySink(shard) if self.workload.observed else None
        anomalies = 0
        groups: Counter[tuple[str, str]] = Counter()
        run_slots: list[int] = []
        for offset, spec in enumerate(cycle):
            op = number * len(cycle) + offset
            a_seed = derive_seed(self.seed, op, "assignment")
            e_seed = derive_seed(self.seed, op, "engine")
            start = self.clock()
            with self._root("op", op):
                result, slots, watchdogs = run_one(spec, a_seed, e_seed, sink)
            out.seconds += self.clock() - start
            out.runs += 1
            anomalies += sum(len(w.anomalies) for w in watchdogs)
            groups[(spec.protocol, spec.backend)] += 1
            problems = check_run(spec, result)
            if problems:
                out.failed += 1
                out.problems.append(f"op {op} ({spec.protocol}): " + "; ".join(problems))
                run_slots.append(0)
            else:
                run_slots.append(spec.n * slots)
        if sink is not None:
            problems = self._store_batch(number, sink, shard, anomalies, groups, out)
            if problems:
                out.failed = out.runs
                out.problems.append(f"batch {number}: " + "; ".join(problems))
                run_slots = []
        out.node_slots = sum(run_slots)
        return out

    def _store_batch(
        self,
        number: int,
        sink: TelemetrySink,
        shard: Path,
        anomalies: int,
        groups: Counter[tuple[str, str]],
        out: RoundResult,
    ) -> list[str]:
        store_dir = self.workdir / f"store-{number}"
        start = self.clock()
        with self._root("batch", number):
            first, second, rows = _ingest_and_query(sink, shard, store_dir)
        out.seconds += self.clock() - start
        try:
            records = read_telemetry(shard)
            if self.tracer is not None:
                self.tracer.add("obs.telemetry.bytes", shard.stat().st_size)
            return gate.check_batch(
                records=records,
                record_problems=[validate_record(record) for record in records],
                runs=out.runs,
                anomalies=anomalies,
                first=first,
                second=second,
                groups=groups,
                query_rows=rows,
            )
        finally:
            shard.unlink(missing_ok=True)
            shutil.rmtree(store_dir, ignore_errors=True)


def _ingest_and_query(sink: TelemetrySink, shard: Path, store_dir: Path):
    sink.close()
    store = RunStore(store_dir)
    first = store.ingest([shard])
    second = store.ingest([shard])
    rows = [
        query.run_query(store, group_by=QUERY_GROUP, stat=stat) for stat in QUERY_STATS
    ]
    return first, second, rows
