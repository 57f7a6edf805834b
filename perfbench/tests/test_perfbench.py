"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from benchlib.program import load_program  # noqa: E402

load_program(ROOT / "src")

from benchlib import gate  # noqa: E402
from benchlib.measure import prepare, run_benchmark  # noqa: E402
from benchlib.workloads import RunSpec, run_one  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
COUNTS = ("sim.engine.slots", "sim.nodes_built", "obs.telemetry.records", "obs.store.ingested")


def _run(name: str, workdir: Path, *, trace: bool) -> dict:
    prepare(name, workdir)
    record, _ = run_benchmark(
        name,
        3,
        seconds=0.05,
        trace=trace,
        workdir=workdir,
        run_py=BENCH / "run.py",
        root=ROOT,
        setup_probes=1,
        tiny=True,
        trace_rounds=2,
    )
    assert record["correct"], record
    return record


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(name, tmp_path):
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        metrics = _run(name, tmp_path, trace=trace)["metrics"]
        assert {m: metrics[m]["unit"] for m in metrics} == {
            m["name"]: m["unit"] for m in declared
        }


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(name, tmp_path):
    first, second = (_run(name, tmp_path, trace=True)["metrics"] for _ in range(2))
    for count in COUNTS:
        assert first[count]["value"] == second[count]["value"], count
    assert first["obs.watchdog.anomalies"]["value"] == 0


def test_tracer_covers_the_broadcast_op(tmp_path):
    metrics = _run("broadcast-1e5-vector", tmp_path, trace=True)["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["sim.backends.vector.engaged_ratio"]["value"] == 1.0
    assert metrics["sim.nodes_built"]["value"] == 2 * 300


def test_gate_rejects_a_parent_informed_after_its_child():
    spec = RunSpec("cogcast", 64, 16, 4, "exact")
    result, _, _ = run_one(spec, 5, 6, None)
    assert gate.check_broadcast(result, n=64, source=0, slot_bound=10_000) == []
    child = next(node for node in range(64) if result.parents[node] not in (None, 0))
    slots = list(result.informed_slots)
    slots[result.parents[child]] = slots[child] + 1
    corrupted = dataclasses.replace(result, informed_slots=tuple(slots))
    assert gate.check_broadcast(corrupted, n=64, source=0, slot_bound=10_000)


def test_gate_rejects_a_sum_off_by_one():
    spec = RunSpec("cogcomp", 16, 8, 2, "exact")
    result, _, _ = run_one(spec, 5, 6, None)
    assert gate.check_aggregation(result, n=16) == []
    corrupted = dataclasses.replace(result, value=result.value + 1)
    assert gate.check_aggregation(corrupted, n=16)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trials-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
