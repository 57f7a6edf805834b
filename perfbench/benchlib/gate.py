"""Per-run and per-batch correctness checks.

Each check returns a list of problems; an empty list means the run (or
batch) is correct.  A run that fails any check counts towards
``failed_frac`` and makes the benchmark exit nonzero.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def check_broadcast(result: Any, *, n: int, source: int, slot_bound: int) -> list[str]:
    """COGCAST: complete, every node informed, causal tree, Theorem 4 bound.

    Every non-source node must have a parent that was informed strictly
    before it (the source's ``informed_slot`` is ``-1``).
    """
    problems: list[str] = []
    if not result.completed:
        problems.append("broadcast did not complete")
    if result.informed_count != n:
        problems.append(f"informed_count {result.informed_count} != n {n}")
    if result.slots > slot_bound:
        problems.append(f"slots {result.slots} exceed the bound {slot_bound}")
    parents = result.parents
    slots = result.informed_slots
    if len(parents) != n or len(slots) != n:
        problems.append(f"{len(parents)} parents / {len(slots)} slots for n={n}")
        return problems
    for node in range(n):
        if node == source:
            continue
        parent = parents[node]
        mine = slots[node]
        if parent is None or mine is None:
            problems.append(f"node {node} has parent {parent}, slot {mine}")
            break
        theirs = slots[parent]
        if theirs is None or theirs >= mine:
            problems.append(
                f"node {node} informed at slot {mine} by parent {parent} "
                f"informed at slot {theirs}"
            )
            break
    return problems


def check_aggregation(result: Any, *, n: int) -> list[str]:
    """COGCOMP with ``SumAggregator`` over values ``0..n-1``."""
    problems: list[str] = []
    if not result.completed:
        problems.append("aggregation did not complete")
    if result.failures:
        problems.append(f"failed nodes {list(result.failures)[:5]}")
    expected = n * (n - 1) // 2
    if result.value != expected:
        problems.append(f"sum {result.value!r} != {expected}")
    return problems


def check_batch(
    *,
    records: Sequence[Mapping[str, Any]],
    record_problems: Sequence[Sequence[str]],
    runs: int,
    anomalies: int,
    first: Any,
    second: Any,
    groups: Mapping[tuple[str, str], int],
    query_rows: Sequence[Sequence[Mapping[str, Any]]],
) -> list[str]:
    """One observed batch: telemetry shard, store ingest, and queries.

    *records* are the shard's records with *record_problems* their
    ``validate_record`` findings; *first* and *second* are the ingest
    and re-ingest reports; *groups* maps ``(protocol, backend)`` to the
    runs the batch made of it, which every query in *query_rows* must
    count exactly.
    """
    problems: list[str] = []
    for index, found in enumerate(record_problems):
        if found:
            problems.append(f"record {index} invalid: {'; '.join(found)}")
    run_records = sum(1 for record in records if record.get("kind") == "run")
    if run_records != runs:
        problems.append(f"{run_records} run records for {runs} runs")
    if anomalies:
        problems.append(f"{anomalies} watchdog anomalies")
    if first.ingested != runs:
        problems.append(f"ingested {first.ingested} of {runs} runs")
    if second.ingested != 0 or second.deduplicated != runs:
        problems.append(
            f"re-ingest wrote {second.ingested} and deduplicated "
            f"{second.deduplicated} of {runs} runs"
        )
    for rows in query_rows:
        counts = {(row["protocol"], row["backend"]): row["count"] for row in rows}
        if counts != dict(groups):
            problems.append(f"query groups {counts} != {dict(groups)}")
    return problems
