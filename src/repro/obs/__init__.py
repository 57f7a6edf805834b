"""Streaming observability for the simulation engine.

The paper's claims are asymptotic slot bounds; understanding *why* a
run took the slots it did previously required recording a full
:class:`~repro.sim.trace.EventTrace` (memory-heavy, opt-in) and
analysing it after the fact.  This package provides the always-on,
constant-memory alternative:

- **Probes** (:class:`SlotProbe`, :class:`ProtocolProbe`) — hook
  objects the engine fires per slot / channel event / node action.
  With no probe attached the engine pays only a ``None`` check, so
  production sweeps keep their benchmark numbers.
- **Streaming aggregators** (:class:`StreamingStat`,
  :class:`FixedHistogram`) and :class:`ActivityProbe` (per-node
  broadcast/listen/idle tallies).  Channel events are counted once,
  streaming, by :class:`MetricsProbe` (see **Metrics**); the reference
  fold over a recorded trace is
  :func:`repro.sim.metrics.compute_metrics`.
- **Spans** (:class:`SpanProbe`, :class:`SpanTree`, :class:`Span`) —
  the causal layer: reconstructs COGCAST's distribution tree (who
  informed whom, when, on which channel) and COGCOMP's four phase
  spans plus per-cluster aggregation conversations from engine ground
  truth; :func:`chrome_trace` / :func:`write_chrome_trace` export the
  timeline as Chrome-trace / Perfetto JSON (``repro obs
  export-trace``).
- **Watchdogs** (:class:`WatchdogProbe` and the concrete
  :class:`SlotBudgetWatchdog`, :class:`MediatorUniquenessWatchdog`,
  :class:`ClusterSizeAgreementWatchdog`, :class:`InformedSetWatchdog`)
  — live checks of the paper's invariants that raise structured
  :class:`Anomaly` records into telemetry (``kind="anomaly"``) instead
  of crashing the run.
- **Telemetry** (:class:`TelemetrySink`) — machine-readable JSONL run
  manifests (seed, ``n``/``c``/``k``/``C``, protocol, slot count,
  outcome, counters, timings, span summaries) emitted by the runner
  harnesses, plus a ``python -m repro obs`` CLI that validates, tails,
  and summarizes telemetry files and surfaces anomalies.  The file
  verbs share the run store's pieces: one line parser
  (:func:`parse_lines`), one anomaly-to-run join
  (:func:`join_anomalies`), and one group-by (``summary`` runs
  :func:`run_query` over a :class:`TelemetryView` of the file).
- **Metrics** (:class:`MetricsRegistry` with :class:`Counter`,
  :class:`Gauge`, :class:`Histogram`) — a process-safe, constant-memory
  instrument registry with label sets, snapshot/restore/merge (so
  :func:`repro.perf.pmap_trials` workers consolidate
  deterministically), a Prometheus text exporter
  (:func:`render_prometheus`), an engine-hook feeder
  (:class:`MetricsProbe`), and a :class:`ResourceSampler` (RSS, CPU
  time, GC) whose deltas ride on run records.
- **Regression plane** (:mod:`repro.obs.regress`) — ``repro obs diff``
  compares two telemetry files per metric (protocol-class series must
  match; timing-class series are reported with bootstrap CIs), and
  ``repro bench check`` gates the BENCH_*.json trajectory with
  machine-fingerprinted, CI-backed per-benchmark baselines.
- **Run store & queries** (:mod:`repro.obs.provenance`,
  :mod:`repro.obs.store`, :mod:`repro.obs.query`) — every record is
  stamped with a provenance block (canonical config hash + code
  version), ``repro obs ingest`` indexes shards into an append-only
  content-addressed :class:`RunStore` keyed by ``(config hash, seed,
  code version)``, ``repro obs query`` filters/groups/aggregates the
  manifest (:func:`run_query`), ``repro obs follow`` live-tails a
  growing file (:func:`follow_file`), and ``repro obs explain`` joins
  a watchdog anomaly back to its run's span tree and metrics snapshot
  (:func:`explain_records`).

Everything here is analysis-side: protocols never see probes or
sinks (lint rule R4 forbids protocol modules from importing
this package).
"""

from repro.obs.aggregators import FixedHistogram, StreamingStat
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsProbe,
    MetricsRegistry,
    ResourceSampler,
    merge_snapshots,
    render_prometheus,
    validate_snapshot,
)
from repro.obs.export import (
    chrome_trace,
    span_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.probe import (
    ActivityProbe,
    MultiProbe,
    ProtocolProbe,
    SlotProbe,
    attach,
)
from repro.obs.provenance import (
    CODE_VERSION,
    canonical_json,
    config_hash,
    detect_code_version,
    provenance_block,
    validate_provenance,
)
from repro.obs.query import (
    Filter,
    explain_records,
    follow_file,
    parse_filters,
    render_rows,
    run_query,
)
from repro.obs.store import (
    STORE_SCHEMA_VERSION,
    IngestReport,
    RunStore,
    TelemetryView,
    join_anomalies,
    manifest_entry,
)
from repro.obs.spans import InformEdge, Span, SpanProbe, SpanTree, payload_kind
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryError,
    TelemetrySink,
    anomaly_record,
    campaign_record,
    experiment_record,
    parse_lines,
    read_telemetry,
    run_record,
    validate_record,
)
from repro.obs.watchdog import (
    Anomaly,
    ClusterSizeAgreementWatchdog,
    InformedSetWatchdog,
    MediatorUniquenessWatchdog,
    SlotBudgetWatchdog,
    WatchdogProbe,
    flush_anomalies,
)

__all__ = [
    "ActivityProbe",
    "Anomaly",
    "CODE_VERSION",
    "ClusterSizeAgreementWatchdog",
    "Counter",
    "Filter",
    "FixedHistogram",
    "Gauge",
    "Histogram",
    "InformEdge",
    "InformedSetWatchdog",
    "IngestReport",
    "METRICS_SCHEMA_VERSION",
    "MediatorUniquenessWatchdog",
    "MetricsError",
    "MetricsProbe",
    "MetricsRegistry",
    "MultiProbe",
    "ProtocolProbe",
    "ResourceSampler",
    "RunStore",
    "STORE_SCHEMA_VERSION",
    "SlotBudgetWatchdog",
    "SlotProbe",
    "Span",
    "SpanProbe",
    "SpanTree",
    "StreamingStat",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryError",
    "TelemetrySink",
    "TelemetryView",
    "WatchdogProbe",
    "anomaly_record",
    "attach",
    "campaign_record",
    "canonical_json",
    "chrome_trace",
    "config_hash",
    "detect_code_version",
    "experiment_record",
    "explain_records",
    "flush_anomalies",
    "follow_file",
    "join_anomalies",
    "manifest_entry",
    "merge_snapshots",
    "parse_filters",
    "parse_lines",
    "payload_kind",
    "provenance_block",
    "read_telemetry",
    "render_prometheus",
    "render_rows",
    "run_query",
    "run_record",
    "span_summary",
    "validate_chrome_trace",
    "validate_provenance",
    "validate_record",
    "validate_snapshot",
    "write_chrome_trace",
]
