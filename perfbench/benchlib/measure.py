"""Set-up, timed and traced phases of one benchmark run, and its metrics."""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

from benchlib.calibrate import Calibration
from benchlib.tracer import Tracer
from benchlib.workloads import RoundResult, RoundRunner, workloads

#: Fresh processes timed from spawn to ready; ``setup_s`` is their median.
SETUP_PROBES = 3

#: Rounds of the traced block, run once untraced and once traced.  A
#: fixed block (not a time budget) makes every count repeat exactly
#: for a seed and keeps totals comparable between commits.
TRACE_ROUNDS = {"broadcast-1e5-vector": 3, "trials-exact": 30, "trials-observed": 4}

#: Fewest latency samples for which ``run_s_p90`` is reported: ten
#: samples must lie beyond it.
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "node_slots_per_s": "1/s",
    "run_s_p50": "s",
    "peak_rss_mb": "MB",
}

#: A round paired with the host slowdown measured while it ran.
Timed = tuple[RoundResult, float]


def prepare(name: str, workdir: Path) -> None:
    """Everything before the first timed op: imports and a warm-up round.

    The warm-up runs one round of the tiny variant of the workload, so
    lazy imports and first-call costs land here and not in a timed op.
    """
    import numpy  # noqa: F401  (the vector backend imports it lazily)

    warm = RoundRunner(workloads(tiny=True)[name], 0, workdir).round(0)
    if warm.failed:
        raise RuntimeError("warm-up round failed: " + "; ".join(warm.problems))


def setup_samples(
    name: str, run_py: Path, root: Path, probes: int, calibration: Calibration
) -> list[tuple[float, float]]:
    """(raw seconds, slowdown) from spawning a fresh benchmark process to ready."""
    samples = []
    for _ in range(probes):
        mark = len(calibration.samples)
        calibration.burst()
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(run_py), "--workload", name, "--setup-probe"],
            cwd=root,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline().strip()
            seconds = perf_counter() - start
            child.stdout.close()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} after {line!r}")
        calibration.burst()
        samples.append((seconds, calibration.slowdown(mark)))
    return samples


def run_rounds(
    runner: RoundRunner,
    calibration: Calibration,
    *,
    seconds: float | None = None,
    rounds: int | None = None,
) -> list[Timed]:
    """Closed loop: each round starts when the previous one is checked.

    Runs *rounds* rounds, or rounds until *seconds* of wall time passed,
    while *calibration* samples the host.  *runner* must time with
    ``calibration.clock``.
    """
    results: list[RoundResult] = []
    marks: list[int | None] = []
    with calibration.sampling():
        start = calibration.clock()
        while True:
            marks.append(len(calibration.samples))
            results.append(runner.round(len(results)))
            if rounds is not None and len(results) >= rounds:
                break
            if seconds is not None and calibration.clock() - start >= seconds:
                break
    marks.append(None)
    return [
        (result, calibration.slowdown(marks[i], marks[i + 1]))
        for i, result in enumerate(results)
    ]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(rounds: list[Timed], setup: list[tuple[float, float]]) -> dict[str, float]:
    """The end-to-end metrics, each time divided by the slowdown it was taken at."""
    seconds = [result.seconds / slowdown for result, slowdown in rounds]
    timed = sum(seconds)
    correct = sum(result.runs - result.failed for result, _ in rounds)
    return {
        "setup_s": statistics.median(raw / slowdown for raw, slowdown in setup),
        "runs_per_s": correct / timed,
        "node_slots_per_s": sum(result.node_slots for result, _ in rounds) / timed,
        "run_s_p50": statistics.median(seconds),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_benchmark(
    name: str,
    seed: int,
    *,
    seconds: float,
    trace: bool,
    workdir: Path,
    run_py: Path,
    root: Path,
    setup_probes: int = SETUP_PROBES,
    tiny: bool = False,
    trace_rounds: int | None = None,
) -> tuple[dict[str, Any], list[str]]:
    """One benchmark run; returns the result object and report lines.

    The process must already be prepared (:func:`prepare`).  Untraced,
    it times rounds for *seconds* and reports every end-to-end metric;
    traced, it runs a fixed block untraced and then traced and reports
    every per-layer metric.  Times are divided by the host slowdown
    measured while they were taken (:mod:`benchlib.calibrate`).
    *run_py* and *root* locate the *setup_probes* set-up probes.
    """
    workload = workloads(tiny=tiny)[name]
    lines: list[str] = []
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        setup_cal, timed_cal = Calibration(), Calibration()
        setup = setup_samples(name, run_py, root, setup_probes, setup_cal)
        rounds = run_rounds(
            RoundRunner(workload, seed, workdir, clock=timed_cal.clock),
            timed_cal,
            seconds=seconds,
        )
        for metric, value in end_to_end(rounds, setup).items():
            metrics[metric] = (value, END_TO_END_UNITS[metric])
        unscaled = end_to_end([(r, 1.0) for r, _ in rounds], [(s, 1.0) for s, _ in setup])
        lines.append(
            f"host slowdown {timed_cal.slowdown():.4f} timed, "
            f"{setup_cal.slowdown():.4f} set-up; unscaled: "
            + ", ".join(f"{metric} {value:.6g}" for metric, value in unscaled.items())
        )
        samples = sorted(result.seconds / slowdown for result, slowdown in rounds)
        lines.append(
            f"setup_s from {len(setup)} fresh processes; latency samples: "
            f"{len(samples)} rounds of {len(workload.cycle)} run(s)"
        )
        if len(samples) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(samples, n=10)[-1]
            lines.append(f"run_s_p90 {p90:.6f} s (n={len(samples)})")
        else:
            lines.append(f"run_s_p90 undefined: {len(samples)} rounds < {P90_MIN_SAMPLES}")
        results = [result for result, _ in rounds]
    else:
        count = trace_rounds if trace_rounds is not None else TRACE_ROUNDS[name]
        plain_cal, traced_cal = Calibration(), Calibration()
        plain = run_rounds(
            RoundRunner(workload, seed, workdir, clock=plain_cal.clock),
            plain_cal,
            rounds=count,
        )
        tracer = Tracer(clock=traced_cal.clock)
        with tracer.installed():
            traced = run_rounds(
                RoundRunner(workload, seed, workdir, clock=traced_cal.clock, tracer=tracer),
                traced_cal,
                rounds=count,
            )
        slowdown = traced_cal.slowdown()
        for metric, (value, unit) in tracer.layer_metrics().items():
            metrics[metric] = (value / slowdown if unit == "s" else value, unit)
        plain_s = sum(result.seconds / s for result, s in plain)
        traced_s = sum(result.seconds / s for result, s in traced)
        metrics["trace.overhead_x"] = (traced_s / plain_s, "x")
        lines.append(
            f"host slowdown {plain_cal.slowdown():.4f} untraced, {slowdown:.4f} traced"
        )
        if tracer.missing:
            lines.append(
                "entry points not found, their metrics read 0: " + ", ".join(tracer.missing)
            )
        results = [result for result, _ in plain + traced]
    attempted = sum(r.runs for r in results)
    failed = sum(r.failed for r in results)
    lines.append(f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted} runs)")
    for result in results:
        lines.extend(result.problems)
    for metric, (value, unit) in metrics.items():
        lines.append(f"{metric} {value:.6g} {unit}")
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()
        },
    }
    return record, lines
