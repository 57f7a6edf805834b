"""Layer tracing from outside the program, by patching its entry points.

The tracer replaces module attributes and class methods of ``repro``
with wrappers that record a span (name, start, end, parent span, op id)
per call and count work at the same boundary.  Names the runners bind
on import (``build_engine``, ``run_record``, ``flush_anomalies``) are
patched in ``repro.core.runners`` itself.  Spans stay in memory until
the run ends.  A layer's self time is its span's duration minus the
time its child spans cover.

Per-node methods (``CogCast.vector_export``/``vector_import``) run once
per node, 10^5 times per op at the largest size, so consecutive calls
under one parent fold into one span that counts its calls; the loop
between those calls is charged to that span.

A target the program no longer has is skipped and listed in
:attr:`Tracer.missing`; its metrics then read 0.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: Span index, ``[name, start, end, parent, op, calls]``.
NAME, START, END, PARENT, OP, CALLS = range(6)

#: Root spans opened by the benchmark itself (one per op, one per store batch).
ROOTS = ("op", "batch")


def _targets() -> list[tuple[Any, str, str, bool]]:
    """(owner, attribute, span name, coalesce) for every traced entry point."""
    import repro.assignment
    import repro.assignment.generators
    import repro.core.runners
    import repro.obs.query
    import repro.sim.engine
    from repro.core.cogcast import CogCast
    from repro.obs.store import RunStore
    from repro.obs.telemetry import TelemetrySink
    from repro.sim.backends.vector import VectorEngine
    from repro.sim.channels import ChannelAssignment, Network

    runners = repro.core.runners
    return [
        (repro.assignment, "shared_core", "assignment.shared_core", False),
        (repro.assignment.generators, "shared_core", "assignment.shared_core", False),
        (ChannelAssignment, "shuffled_labels", "assignment.shuffled_labels", False),
        (Network, "static", "assignment.network_static", False),
        (repro.sim.engine, "make_views", "sim.make_views", False),
        (runners, "build_engine", "sim.build", False),
        (CogCast, "vector_export", "core.cogcast.vector_export", True),
        (CogCast, "vector_import", "core.cogcast.vector_import", True),
        (VectorEngine, "run", "sim.backends.vector.run", False),
        (repro.sim.engine.Engine, "run", "sim.engine.run", False),
        (runners, "run_local_broadcast", "core.runners", False),
        (runners, "run_data_aggregation", "core.runners", False),
        (runners, "run_record", "obs.telemetry.run_record", False),
        (TelemetrySink, "emit", "obs.telemetry.emit", False),
        (runners, "flush_anomalies", "obs.watchdog.flush", False),
        (RunStore, "ingest", "obs.store.ingest", False),
        (repro.obs.query, "run_query", "obs.query.run_query", False),
    ]


class Tracer:
    """Spans and counts of one traced run; :meth:`installed` patches ``repro``."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._ingested_paths: set[tuple[Path, str]] = set()

    # -- recording ---------------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        """Count *amount* of work under *name*."""
        self.counts[name] += amount

    @contextmanager
    def root(self, name: str, op: int) -> Iterator[None]:
        """A root span the benchmark opens around one op or store batch."""
        self._op = op
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, -1, op, 1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][END] = self.clock()

    def _wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([name, 0.0, None, stack[-1] if stack else -1, self._op, 1])
            stack.append(index)
            spans[index][START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][END] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _wrap_coalesced(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            parent = stack[-1] if stack else -1
            last = spans[-1] if spans else None
            if last is not None and last[NAME] == name and last[PARENT] == parent:
                last[END] = end
                last[CALLS] += 1
            else:
                spans.append([name, start, end, parent, self._op, 1])
            return result

        return traced

    # -- counts taken where the work happens ---------------------------------

    def _after_build(self, args: tuple, kwargs: dict, engine: Any) -> None:
        self.counts["sim.nodes_built"] += len(engine.protocols)

    def _after_vector_run(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.counts["vector.runs"] += 1
        self.counts["vector.engaged"] += bool(args[0].vector_engaged)

    def _after_engine_run(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.counts["engine.runs"] += 1
        self.counts["engine.fast"] += bool(args[0].fast_path_engaged)
        self.counts["sim.engine.slots"] += result.slots

    def _after_emit(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.counts["obs.telemetry.records"] += 1

    def _after_flush(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.counts["obs.watchdog.anomalies"] += result

    def _after_ingest(self, args: tuple, kwargs: dict, report: Any) -> None:
        store = args[0]
        paths = args[1] if len(args) > 1 else kwargs["paths"]
        keys = {(Path(store.root), str(path)) for path in paths}
        if keys <= self._ingested_paths:
            self.counts["store.reoffered"] += report.ingested + report.deduplicated
            self.counts["store.deduplicated"] += report.deduplicated
        self._ingested_paths |= keys
        self.counts["obs.store.ingested"] += report.ingested
        self.counts["obs.store.manifest_bytes"] += store.manifest_path.stat().st_size

    def _after_query(self, args: tuple, kwargs: dict, rows: Any) -> None:
        self.counts["obs.query.rows"] += len(rows)

    # -- patching ------------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target for the duration of the block."""
        after = {
            "sim.build": self._after_build,
            "sim.backends.vector.run": self._after_vector_run,
            "sim.engine.run": self._after_engine_run,
            "obs.telemetry.emit": self._after_emit,
            "obs.watchdog.flush": self._after_flush,
            "obs.store.ingest": self._after_ingest,
            "obs.query.run_query": self._after_query,
        }
        saved: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, name, coalesce in _targets():
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                is_classmethod = isinstance(original, classmethod)
                fn = original.__func__ if is_classmethod else original
                if coalesce:
                    wrapped = self._wrap_coalesced(name, fn)
                else:
                    wrapped = self._wrap(name, fn, after.get(name))
                setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of the traced run, as (value, unit)."""
        own = self.self_times()
        self_s: Counter[str] = Counter()
        total_s: Counter[str] = Counter()
        for span, seconds in zip(self.spans, own):
            self_s[span[NAME]] += seconds
            total_s[span[NAME]] += span[END] - span[START]
        counts = self.counts
        roots = sum(total_s[name] for name in ROOTS)
        layers = sum(seconds for name, seconds in self_s.items() if name not in ROOTS)

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        seconds = {
            "assignment.generate_s": self_s["assignment.shared_core"]
            + self_s["assignment.shuffled_labels"]
            + self_s["assignment.network_static"],
            "sim.make_views_s": self_s["sim.make_views"],
            "sim.build_s": self_s["sim.build"],
            "core.cogcast.vector_export_s": self_s["core.cogcast.vector_export"],
            "core.cogcast.vector_import_s": self_s["core.cogcast.vector_import"],
            "sim.backends.vector.run_s": total_s["sim.backends.vector.run"],
            "sim.backends.vector.kernel_s": self_s["sim.backends.vector.run"],
            "sim.engine.run_s": self_s["sim.engine.run"],
            "core.runners.self_s": self_s["core.runners"],
            "obs.telemetry.run_record_s": self_s["obs.telemetry.run_record"],
            "obs.telemetry.emit_s": self_s["obs.telemetry.emit"],
            "obs.store.ingest_s": self_s["obs.store.ingest"],
            "obs.query.run_query_s": self_s["obs.query.run_query"],
        }
        metrics: dict[str, tuple[float, str]] = {
            name: (value, "s") for name, value in seconds.items()
        }
        for name in (
            "sim.nodes_built",
            "sim.engine.slots",
            "obs.telemetry.records",
            "obs.watchdog.anomalies",
            "obs.store.ingested",
            "obs.query.rows",
        ):
            metrics[name] = (counts[name], "count")
        metrics["obs.telemetry.bytes"] = (counts["obs.telemetry.bytes"], "bytes")
        metrics["obs.store.manifest_bytes"] = (counts["obs.store.manifest_bytes"], "bytes")
        metrics["sim.backends.vector.engaged_ratio"] = (
            ratio(counts["vector.engaged"], counts["vector.runs"]),
            "ratio",
        )
        metrics["sim.engine.fast_path_ratio"] = (
            ratio(counts["engine.fast"], counts["engine.runs"]),
            "ratio",
        )
        metrics["obs.store.dedup_ratio"] = (
            ratio(counts["store.deduplicated"], counts["store.reoffered"]),
            "ratio",
        )
        metrics["trace.coverage"] = (ratio(layers, roots), "ratio")
        return metrics
