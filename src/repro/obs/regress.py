"""Cross-run telemetry diffing (``repro obs diff A.jsonl B.jsonl``).

Load two telemetry files, align their records into named metric
series, and report a structured per-metric delta.  Series are classed
as *protocol* (deterministic functions of ``(config, seed)``: slots,
counters, span critical paths, protocol-category registry metrics) or
*timing* (``elapsed_s``, ``timings.build``, resources, timing-category
metrics).  Protocol series must match — a difference is *significant*
(bit-inequality for single runs, bootstrap-CI-backed for trial-level
samples via :mod:`repro.analysis.bootstrap`); timing series are
reported with ratios and CIs but never fail the diff, because wall
time legitimately varies run to run.  Two runs of the same config/seed
therefore diff clean, and a fast-path-on vs fast-path-off pair shows
identical protocol metrics with differing timing metrics — the
bit-identity contract of ``docs/performance.md``, checkable from
telemetry alone.

Speed comparisons between code versions belong to the repository
benchmark (``perfbench/``), which pairs runs on one machine.

Everything here is analysis-side and stdlib-only; nothing imports the
engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.analysis.bootstrap import BootstrapCI, speedup_ci

#: Run-record fields whose values are timing-class (vary run to run).
_TIMING_FIELDS = ("elapsed_s",)

#: Record fields that describe configuration, not measurement.
_CONFIG_FIELDS = frozenset(
    {
        "schema",
        "kind",
        "protocol",
        "seed",
        "n",
        "c",
        "k",
        "universe",
        "fast",
        "fast_path",
        "experiment",
        "campaign",
        "point",
        "detail",
        "rule",
        "message",
    }
)


@dataclass(frozen=True)
class MetricDelta:
    """One compared series: its class, summaries, and a verdict.

    ``verdict`` is one of ``identical``, ``significant``,
    ``within-noise``, ``timing``, ``a-only``, ``b-only``.
    """

    scope: str
    metric: str
    klass: str
    count_a: int
    count_b: int
    mean_a: float | None
    mean_b: float | None
    ratio: float | None
    ci: BootstrapCI | None
    verdict: str


@dataclass
class DiffReport:
    """The structured result of diffing two telemetry files."""

    label_a: str
    label_b: str
    deltas: list[MetricDelta] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def significant(self) -> list[MetricDelta]:
        """Protocol-class deltas that are statistically (or bit-) real."""
        return [d for d in self.deltas if d.verdict == "significant"]

    @property
    def exit_code(self) -> int:
        """0 when no significant protocol deltas exist, else 1."""
        return 1 if self.significant else 0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``--json`` output / report artifact)."""
        return {
            "a": self.label_a,
            "b": self.label_b,
            "significant": len(self.significant),
            "notes": list(self.notes),
            "deltas": [
                {
                    "scope": d.scope,
                    "metric": d.metric,
                    "class": d.klass,
                    "count_a": d.count_a,
                    "count_b": d.count_b,
                    "mean_a": d.mean_a,
                    "mean_b": d.mean_b,
                    "ratio": d.ratio,
                    "ci_low": d.ci.low if d.ci else None,
                    "ci_high": d.ci.high if d.ci else None,
                    "verdict": d.verdict,
                }
                for d in self.deltas
            ],
        }

    def render(self) -> str:
        """An aligned text report, scopes grouped, worst news first."""
        lines = [f"diff: {self.label_a} vs {self.label_b}"]
        for note in self.notes:
            lines.append(f"note: {note}")
        order = {
            "significant": 0,
            "a-only": 1,
            "b-only": 1,
            "within-noise": 2,
            "timing": 3,
            "identical": 4,
        }
        deltas = sorted(
            self.deltas, key=lambda d: (order[d.verdict], d.scope, d.metric)
        )
        for delta in deltas:
            mean_a = "-" if delta.mean_a is None else f"{delta.mean_a:.4g}"
            mean_b = "-" if delta.mean_b is None else f"{delta.mean_b:.4g}"
            ratio = "" if delta.ratio is None else f" ratio={delta.ratio:.3f}"
            ci = (
                f" ci=[{delta.ci.low:.3f}, {delta.ci.high:.3f}]"
                if delta.ci is not None
                else ""
            )
            lines.append(
                f"[{delta.verdict:>12}] {delta.scope} {delta.metric} "
                f"({delta.klass}): {mean_a} -> {mean_b}{ratio}{ci} "
                f"(n={delta.count_a}/{delta.count_b})"
            )
        verdict = (
            "IDENTICAL protocol metrics"
            if not self.significant
            else f"{len(self.significant)} SIGNIFICANT protocol deltas"
        )
        timing_diffs = [
            d
            for d in self.deltas
            if d.klass == "timing" and d.mean_a is not None and d.mean_a != d.mean_b
        ]
        lines.append(
            f"summary: {verdict}; {len(timing_diffs)} timing metrics differ "
            "(reporting only)"
        )
        return "\n".join(lines)


def _numeric_leaves(prefix: str, value: Any) -> list[tuple[str, float]]:
    """Flatten nested dicts to dotted (key, number) pairs, sorted."""
    if isinstance(value, bool):
        return [(prefix, float(value))]
    if isinstance(value, (int, float)):
        return [(prefix, float(value))]
    leaves: list[tuple[str, float]] = []
    if isinstance(value, Mapping):
        for key in sorted(value):
            leaves.extend(_numeric_leaves(f"{prefix}.{key}", value[key]))
    return leaves


def _snapshot_series(snapshot: Mapping[str, Any]) -> list[tuple[str, str, float]]:
    """(metric path, class, value) triples from a metrics snapshot."""
    out: list[tuple[str, str, float]] = []
    for name in sorted(snapshot.get("metrics", {})):
        entry = snapshot["metrics"][name]
        klass = "timing" if entry.get("category") == "timing" else "protocol"
        for series in entry.get("series", []):
            labels = ",".join(str(v) for v in series.get("labels", []))
            path = f"metrics.{name}{{{labels}}}" if labels else f"metrics.{name}"
            if entry["type"] in ("counter", "gauge"):
                out.append((path, klass, float(series["value"] or 0.0)))
            else:
                stat = series.get("stat", {})
                out.append((f"{path}.count", klass, float(stat.get("count", 0))))
                out.append((f"{path}.sum", klass, float(series.get("sum", 0.0))))
    return out


def collect_series(
    records: Sequence[Mapping[str, Any]],
) -> dict[tuple[str, str], tuple[str, list[float]]]:
    """Fold telemetry records into ``(scope, metric) -> (class, samples)``.

    Scopes group comparable records: ``run/<protocol>``,
    ``experiment/<id>``, ``campaign/<name>/<point>``, ``anomaly``.
    Within a scope each numeric field becomes one named series, sample
    order following record order (emission order, which is
    deterministic for seeded runs).
    """
    series: dict[tuple[str, str], tuple[str, list[float]]] = {}

    def push(scope: str, metric: str, klass: str, value: float) -> None:
        key = (scope, metric)
        if key not in series:
            series[key] = (klass, [])
        series[key][1].append(float(value))

    for record in records:
        kind = record.get("kind")
        if kind == "run":
            scope = f"run/{record.get('protocol', '?')}"
            push(scope, "slots", "protocol", record.get("slots", 0))
            push(
                scope,
                "completed",
                "protocol",
                1.0 if record.get("outcome") == "completed" else 0.0,
            )
            for name, value in sorted((record.get("counters") or {}).items()):
                push(scope, f"counters.{name}", "protocol", value)
            for name, stat in sorted((record.get("timings") or {}).items()):
                push(scope, f"timings.{name}.seconds", "timing", stat["seconds"])
            for path, value in _numeric_leaves("spans", record.get("spans") or {}):
                push(scope, path, "protocol", value)
            for name, value in sorted((record.get("resources") or {}).items()):
                push(scope, f"resources.{name}", "timing", value)
            for field_name in _TIMING_FIELDS:
                if field_name in record:
                    push(scope, field_name, "timing", record[field_name])
            for path, klass, value in _snapshot_series(record.get("metrics") or {}):
                push(scope, path, klass, value)
        elif kind == "experiment":
            scope = f"experiment/{record.get('experiment', '?')}"
            push(scope, "rows", "protocol", record.get("rows", 0))
            push(scope, "elapsed_s", "timing", record.get("elapsed_s", 0.0))
            for name, stat in sorted((record.get("timings") or {}).items()):
                push(scope, f"timings.{name}.seconds", "timing", stat["seconds"])
            for name, value in sorted((record.get("resources") or {}).items()):
                push(scope, f"resources.{name}", "timing", value)
            for path, klass, value in _snapshot_series(record.get("metrics") or {}):
                push(scope, path, klass, value)
        elif kind == "campaign":
            point = record.get("point") or {}
            point_text = ",".join(f"{k}={point[k]}" for k in sorted(point))
            scope = f"campaign/{record.get('campaign', '?')}/{point_text}"
            push(scope, "mean", "protocol", record.get("mean", 0.0))
            push(scope, "trials", "protocol", record.get("trials", 0))
            push(scope, "elapsed_s", "timing", record.get("elapsed_s", 0.0))
            for path, klass, value in _snapshot_series(record.get("metrics") or {}):
                push(scope, path, klass, value)
        elif kind == "anomaly":
            push("anomaly", f"rule.{record.get('rule', '?')}", "protocol", 1.0)
    return series


def diff_records(
    records_a: Sequence[Mapping[str, Any]],
    records_b: Sequence[Mapping[str, Any]],
    *,
    label_a: str = "A",
    label_b: str = "B",
    confidence: float = 0.95,
    resamples: int = 1000,
    seed: int = 0,
) -> DiffReport:
    """Diff two batches of telemetry records into a :class:`DiffReport`.

    Protocol-class series: equal sample lists are ``identical``; with
    at least three samples per side an unequal pair gets a bootstrap
    CI on the mean ratio (``significant`` iff the CI excludes 1.0,
    else ``within-noise``); smaller unequal samples are deterministic
    measurements that disagree, hence ``significant`` outright.
    Timing-class series always get verdict ``timing`` (with a ratio
    and, when sample sizes allow, a CI) and never fail the diff.
    """
    report = DiffReport(label_a=label_a, label_b=label_b)
    series_a = collect_series(records_a)
    series_b = collect_series(records_b)
    for key in sorted(set(series_a) | set(series_b)):
        scope, metric = key
        klass_a, samples_a = series_a.get(key, (None, []))
        klass_b, samples_b = series_b.get(key, (None, []))
        klass = klass_a or klass_b or "protocol"
        mean_a = sum(samples_a) / len(samples_a) if samples_a else None
        mean_b = sum(samples_b) / len(samples_b) if samples_b else None
        ratio = None
        if mean_a is not None and mean_b is not None and mean_a != 0:
            ratio = mean_b / mean_a
        ci: BootstrapCI | None = None
        if not samples_a or not samples_b:
            verdict = "b-only" if not samples_a else "a-only"
        elif klass == "timing":
            verdict = "timing"
            ci = _maybe_ci(samples_a, samples_b, confidence, resamples, seed)
        elif samples_a == samples_b:
            verdict = "identical"
        elif len(samples_a) >= 3 and len(samples_b) >= 3:
            ci = _maybe_ci(samples_a, samples_b, confidence, resamples, seed)
            verdict = (
                "significant"
                if ci is not None and not ci.contains(1.0)
                else "within-noise"
            )
        else:
            verdict = "significant"
        report.deltas.append(
            MetricDelta(
                scope=scope,
                metric=metric,
                klass=klass,
                count_a=len(samples_a),
                count_b=len(samples_b),
                mean_a=mean_a,
                mean_b=mean_b,
                ratio=ratio,
                ci=ci,
                verdict=verdict,
            )
        )
    _note_config_mismatches(report, records_a, records_b)
    return report


def _maybe_ci(
    samples_a: Sequence[float],
    samples_b: Sequence[float],
    confidence: float,
    resamples: int,
    seed: int,
) -> BootstrapCI | None:
    """A ratio CI when both sides have enough non-degenerate samples."""
    if len(samples_a) < 3 or len(samples_b) < 3:
        return None
    if sum(samples_a) == 0:
        return None
    return speedup_ci(
        list(samples_b),
        list(samples_a),
        confidence=confidence,
        resamples=resamples,
        seed=seed,
    )


def _note_config_mismatches(
    report: DiffReport,
    records_a: Sequence[Mapping[str, Any]],
    records_b: Sequence[Mapping[str, Any]],
) -> None:
    """Record configuration differences (seeds, shapes) as notes."""

    def config_values(records: Sequence[Mapping[str, Any]], name: str) -> set[Any]:
        values = set()
        for record in records:
            if name in record:
                value = record[name]
                values.add(
                    json.dumps(value, sort_keys=True)
                    if isinstance(value, dict)
                    else value
                )
        return values

    for name in sorted(_CONFIG_FIELDS - {"schema", "kind", "detail", "message"}):
        values_a = config_values(records_a, name)
        values_b = config_values(records_b, name)
        if values_a and values_b and values_a != values_b:
            report.notes.append(
                f"config field {name!r} differs: "
                f"{sorted(values_a)} vs {sorted(values_b)}"
            )


def diff_files(
    path_a: str | Path,
    path_b: str | Path,
    *,
    confidence: float = 0.95,
    resamples: int = 1000,
    seed: int = 0,
) -> DiffReport:
    """Diff two telemetry JSONL files (lenient read, like the CLI)."""
    from repro.obs.telemetry import read_telemetry

    return diff_records(
        read_telemetry(path_a, strict=False),
        read_telemetry(path_b, strict=False),
        label_a=str(path_a),
        label_b=str(path_b),
        confidence=confidence,
        resamples=resamples,
        seed=seed,
    )
