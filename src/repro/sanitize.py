"""Dual-run determinism sanitizer: ``repro sanitize <experiment>``.

The reproduction's central promise is that every table is a pure
function of ``(experiment, trials, seed, fast)`` — not of the hash
seed, the worker count, or the engine backend.  The lint rules check
that promise statically (R1–R13); this module checks it *dynamically*,
the way the paper's model demands: run the same seeded entry point
twice under perturbed ambient conditions and bit-diff what comes out.

One **capture** is a subprocess run of the entry point under pinned
conditions (``PYTHONHASHSEED``, ``jobs``, engine backend) that writes a
JSON snapshot: the result table's rows plus the normalized telemetry
and metrics records the run emitted.  Normalization strips exactly the
fields that are *allowed* to vary — wall-clock timings, resource
samples, and timing-category metrics — so everything that remains is
covered by the determinism contract and must match bit for bit.

One **check** perturbs a single condition against the control capture
(``PYTHONHASHSEED=0, jobs=1, backend=exact``):

- ``hashseed`` — a different ``PYTHONHASHSEED``: catches iteration
  order leaking out of salted ``dict``/``set`` hashing (rule R6's
  runtime twin);
- ``jobs`` — ``jobs=1`` vs ``jobs=N``: catches worker-shared state and
  scheduling leaks across the fork boundary (R7/R12's runtime twin);
- ``backend`` — exact engine vs ``vector-replay``: catches hidden
  protocol state the columnar kernel does not replay (R11's runtime
  twin; Tier-A replay mode is bit-identical *by contract*).

A divergence report pinpoints the **first divergent record** — its
index, kind, and the differing field paths with both values — plus the
record's span context when the run carried one.  Exit status: 0 all
checks clean, 1 divergence, 2 usage error.

The experiment argument is a registered id (``E01``) or a
``module:function`` entry point with the ``run(trials=, seed=, fast=)``
signature, so test fixtures and future campaign shards gate through
the same door.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.obs.telemetry import VOLATILE_FIELDS

#: Snapshot schema tag; bump when the capture layout changes.
CAPTURE_SCHEMA = "sanitize-capture-1"

#: Telemetry fields that legitimately differ across the sanitizer's own
#: perturbed conditions — the backend check runs ``exact`` against
#: ``vector-replay``, so execution-identity fields (``backend``,
#: ``fast_path``, ``fast_path_reason``, ``vector_fallback_reason``) and
#: the provenance block (whose config hash includes the backend) must
#: not count as divergence.  Stripped alongside
#: :data:`~repro.obs.telemetry.VOLATILE_FIELDS`.
_CONDITION_FIELDS = (
    "backend",
    "fast_path",
    "fast_path_reason",
    "vector_fallback_reason",
    "provenance",
)

#: The perturbations ``sanitize`` knows how to apply, in run order.
CHECKS = ("hashseed", "jobs", "backend")

#: Control conditions every perturbation is compared against.
CONTROL_HASHSEED = "0"
PERTURBED_HASHSEED = "4242"


@dataclass(frozen=True)
class Conditions:
    """The ambient conditions one capture runs under."""

    hashseed: str
    jobs: int
    backend: str

    def label(self) -> str:
        return f"hashseed={self.hashseed} jobs={self.jobs} backend={self.backend}"

    def as_dict(self) -> dict[str, Any]:
        return {"hashseed": self.hashseed, "jobs": self.jobs, "backend": self.backend}


CONTROL = Conditions(hashseed=CONTROL_HASHSEED, jobs=1, backend="exact")


class SanitizeError(RuntimeError):
    """A capture subprocess failed; carries its stderr tail."""


# ----------------------------------------------------------------------
# Capture: one entry-point run → one snapshot
# ----------------------------------------------------------------------


class _ListSink:
    """An in-memory telemetry sink (any ``emit()`` object works)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def emit(self, record: Mapping[str, Any]) -> None:
        self.records.append(dict(record))


def _canonical(value: Any) -> Any:
    """A JSON-stable form of *value* for bit-diffing.

    Floats stay floats (``json`` serializes the shortest round-trip
    repr, which is bit-faithful for doubles); anything not JSON-native
    is reduced to ``repr()`` so exotic row values still diff sanely.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): _canonical(value[key]) for key in value}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return repr(value)


def _normalize_telemetry(record: Mapping[str, Any]) -> dict[str, Any]:
    """Strip the fields the determinism contract does not cover."""
    normalized = {
        key: _canonical(value)
        for key, value in record.items()
        if key not in VOLATILE_FIELDS and key not in _CONDITION_FIELDS
    }
    metrics = normalized.get("metrics")
    if isinstance(metrics, dict) and isinstance(metrics.get("metrics"), list):
        metrics = dict(metrics)
        metrics["metrics"] = [
            entry
            for entry in metrics["metrics"]
            if not (isinstance(entry, dict) and entry.get("category") == "timing")
        ]
        normalized["metrics"] = metrics
    return normalized


def resolve_entry(target: str) -> Any:
    """Resolve *target* to an :class:`ExperimentSpec`-shaped object.

    ``E01`` goes through the experiment registry; ``module:function``
    imports the module and wraps the callable, so fixtures and external
    entry points sanitize through the same machinery.
    """
    from repro.experiments.harness import ExperimentSpec

    if ":" in target:
        import importlib

        module_name, _, function_name = target.partition(":")
        module = importlib.import_module(module_name)
        entry: Callable[..., Any] = getattr(module, function_name)
        return ExperimentSpec(
            experiment_id=target,
            title=f"sanitize entry {target}",
            claim="deterministic in (trials, seed, fast)",
            run=entry,
        )
    from repro.experiments.registry import get

    return get(target.upper())


def run_capture(
    target: str,
    *,
    trials: int | None = None,
    seed: int = 0,
    fast: bool = False,
    jobs: int = 1,
    backend: str = "exact",
) -> dict[str, Any]:
    """Run *target* once in-process and build its snapshot document.

    The snapshot holds one record per table row (the protocol-level
    ground truth), followed by the normalized telemetry the run
    emitted.  Everything in ``records`` is covered by the determinism
    contract; the ``conditions``/``pool`` provenance is not diffed.
    """
    from repro.experiments.harness import run_with_telemetry
    from repro.perf import default_jobs, pool_fingerprint, set_default_jobs
    from repro.sim.backends import backend_scope

    spec = resolve_entry(target)
    sink = _ListSink()
    previous_jobs = default_jobs()
    set_default_jobs(jobs)
    try:
        with backend_scope(backend):
            table = run_with_telemetry(
                spec, sink, trials=trials, seed=seed, fast=fast
            )
    finally:
        set_default_jobs(previous_jobs)

    records: list[dict[str, Any]] = [
        {
            "kind": "table",
            "experiment_id": table.experiment_id,
            "columns": list(table.columns),
        }
    ]
    for index, row in enumerate(table.rows):
        records.append(
            {
                "kind": "row",
                "index": index,
                "values": {
                    column: _canonical(value)
                    for column, value in zip(table.columns, row)
                },
            }
        )
    for record in sink.records:
        records.append(
            {"kind": "telemetry", "record": _normalize_telemetry(record)}
        )
    return {
        "schema": CAPTURE_SCHEMA,
        "experiment": target,
        "seed": seed,
        "trials": trials,
        "fast": fast,
        "conditions": {
            "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
            "jobs": jobs,
            "backend": backend,
        },
        "pool": pool_fingerprint(),
        "records": records,
    }


def capture_subprocess(
    target: str,
    conditions: Conditions,
    out_path: str | Path,
    *,
    trials: int | None = None,
    seed: int = 0,
    fast: bool = False,
    timeout: float = 600.0,
) -> dict[str, Any]:
    """Run one capture in a fresh interpreter and load its snapshot.

    A subprocess is the only honest way to perturb ``PYTHONHASHSEED``:
    it is read once at interpreter start.  The child runs
    ``python -m repro sanitize <target> --capture <file>`` with the
    condition's hash seed pinned in its environment.
    """
    command = [
        sys.executable,
        "-m",
        "repro",
        "sanitize",
        target,
        "--capture",
        str(out_path),
        "--seed",
        str(seed),
        "--jobs",
        str(conditions.jobs),
        "--backend",
        conditions.backend,
    ]
    if trials is not None:
        command += ["--trials", str(trials)]
    if fast:
        command.append("--fast")
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = conditions.hashseed
    completed = subprocess.run(
        command,
        env=environment,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if completed.returncode != 0:
        tail = (completed.stderr or completed.stdout or "").strip()[-2000:]
        raise SanitizeError(
            f"capture under {conditions.label()} exited "
            f"{completed.returncode}: {tail}"
        )
    return json.loads(Path(out_path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Diff: two snapshots → the first divergent record
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDelta:
    """One differing field inside a divergent record."""

    path: str
    control: Any
    perturbed: Any


@dataclass(frozen=True)
class Divergence:
    """The first record where two captures stop being bit-identical."""

    index: int
    kind: str
    identity: str
    deltas: tuple[FieldDelta, ...]
    span_context: Any = None

    def describe(self) -> str:
        parts = [f"record #{self.index} ({self.identity})"]
        for delta in self.deltas:
            parts.append(
                f"  {delta.path}: control={delta.control!r} "
                f"perturbed={delta.perturbed!r}"
            )
        if self.span_context is not None:
            parts.append(f"  span context: {self.span_context!r}")
        return "\n".join(parts)


def _field_deltas(prefix: str, control: Any, perturbed: Any) -> list[FieldDelta]:
    """Recursively collect differing leaf paths between two values."""
    if isinstance(control, dict) and isinstance(perturbed, dict):
        deltas: list[FieldDelta] = []
        for key in sorted(set(control) | set(perturbed)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in control:
                deltas.append(FieldDelta(path, "<absent>", perturbed[key]))
            elif key not in perturbed:
                deltas.append(FieldDelta(path, control[key], "<absent>"))
            else:
                deltas.extend(_field_deltas(path, control[key], perturbed[key]))
        return deltas
    if isinstance(control, list) and isinstance(perturbed, list):
        deltas = []
        for position in range(max(len(control), len(perturbed))):
            path = f"{prefix}[{position}]"
            if position >= len(control):
                deltas.append(FieldDelta(path, "<absent>", perturbed[position]))
            elif position >= len(perturbed):
                deltas.append(FieldDelta(path, control[position], "<absent>"))
            else:
                deltas.extend(
                    _field_deltas(path, control[position], perturbed[position])
                )
        return deltas
    if control != perturbed or type(control) is not type(perturbed):
        return [FieldDelta(prefix or "<value>", control, perturbed)]
    return []


def _record_identity(record: Mapping[str, Any]) -> str:
    kind = record.get("kind", "?")
    if kind == "row":
        return f"kind=row index={record.get('index')}"
    if kind == "telemetry":
        inner = record.get("record", {})
        return f"kind=telemetry telemetry-kind={inner.get('kind', '?')}"
    return f"kind={kind}"


def diff_captures(
    control: Mapping[str, Any], perturbed: Mapping[str, Any]
) -> Divergence | None:
    """The first divergent record between two snapshots, or ``None``.

    Records are compared pairwise in emission order via their canonical
    JSON forms — a bit-diff, not a tolerance check: the determinism
    contract is exact equality.
    """
    control_records = list(control.get("records", []))
    perturbed_records = list(perturbed.get("records", []))
    for index in range(min(len(control_records), len(perturbed_records))):
        left, right = control_records[index], perturbed_records[index]
        if json.dumps(left, sort_keys=True) == json.dumps(right, sort_keys=True):
            continue
        deltas = tuple(_field_deltas("", left, right)) or (
            FieldDelta("<record>", left, right),
        )
        span_context = None
        for candidate in (left, right):
            inner = candidate.get("record", candidate)
            if isinstance(inner, Mapping) and inner.get("spans") is not None:
                span_context = inner["spans"]
                break
        return Divergence(
            index=index,
            kind=str(left.get("kind", "?")),
            identity=_record_identity(left),
            deltas=deltas,
            span_context=span_context,
        )
    if len(control_records) != len(perturbed_records):
        index = min(len(control_records), len(perturbed_records))
        longer = control_records if len(control_records) > len(
            perturbed_records
        ) else perturbed_records
        return Divergence(
            index=index,
            kind=str(longer[index].get("kind", "?")),
            identity=(
                f"record count differs: control={len(control_records)} "
                f"perturbed={len(perturbed_records)}"
            ),
            deltas=(
                FieldDelta(
                    "<record count>", len(control_records), len(perturbed_records)
                ),
            ),
        )
    return None


# ----------------------------------------------------------------------
# The sanitize driver
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one perturbation check."""

    name: str
    perturbed: Conditions
    divergence: Divergence | None = None
    skipped: str | None = None

    @property
    def clean(self) -> bool:
        return self.divergence is None and self.skipped is None


@dataclass
class SanitizeReport:
    """Everything one ``repro sanitize`` invocation learned."""

    experiment: str
    control: Conditions
    checks: list[CheckResult] = field(default_factory=list)
    pool: dict[str, Any] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if any(check.divergence is not None for check in self.checks) else 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": "sanitize-report-1",
            "experiment": self.experiment,
            "control": self.control.as_dict(),
            "pool": self.pool,
            "clean": self.exit_code == 0,
            "checks": [
                {
                    "name": check.name,
                    "perturbed": check.perturbed.as_dict(),
                    "skipped": check.skipped,
                    "divergence": None
                    if check.divergence is None
                    else {
                        "index": check.divergence.index,
                        "kind": check.divergence.kind,
                        "identity": check.divergence.identity,
                        "deltas": [
                            {
                                "path": delta.path,
                                "control": delta.control,
                                "perturbed": delta.perturbed,
                            }
                            for delta in check.divergence.deltas
                        ],
                        "span_context": check.divergence.span_context,
                    },
                }
                for check in self.checks
            ],
        }

    def render(self) -> str:
        lines = [
            f"sanitize {self.experiment} — control: {self.control.label()}"
        ]
        for check in self.checks:
            if check.skipped is not None:
                lines.append(
                    f"  [skip] {check.name} ({check.perturbed.label()}): "
                    f"{check.skipped}"
                )
            elif check.divergence is None:
                lines.append(
                    f"  [ok]   {check.name} ({check.perturbed.label()}): "
                    "bit-identical"
                )
            else:
                lines.append(
                    f"  [DIVERGED] {check.name} ({check.perturbed.label()}): "
                    "first divergent "
                    + check.divergence.describe().replace("\n", "\n    ")
                )
        verdict = (
            "clean: results are independent of hash seed, worker count, "
            "and backend"
            if self.exit_code == 0
            else "DIVERGENCE: the run depends on ambient conditions it must not"
        )
        lines.append(verdict)
        return "\n".join(lines)


def _perturbed_conditions(name: str, jobs: int) -> Conditions:
    if name == "hashseed":
        return Conditions(hashseed=PERTURBED_HASHSEED, jobs=1, backend="exact")
    if name == "jobs":
        return Conditions(hashseed=CONTROL_HASHSEED, jobs=jobs, backend="exact")
    if name == "backend":
        return Conditions(hashseed=CONTROL_HASHSEED, jobs=1, backend="vector-replay")
    raise ValueError(f"unknown sanitize check {name!r}; known: {', '.join(CHECKS)}")


def sanitize(
    target: str,
    *,
    trials: int | None = None,
    seed: int = 0,
    fast: bool = False,
    jobs: int = 2,
    checks: Sequence[str] = CHECKS,
    workdir: str | Path | None = None,
) -> SanitizeReport:
    """Run the control capture plus one capture per perturbation check.

    Captures run in subprocesses (the hash seed demands it) inside
    *workdir* (a temporary directory by default, kept if given
    explicitly).  The ``backend`` check is skipped with a note when
    numpy is unavailable — the vector backend cannot run without it.
    The ``jobs`` check needs ``jobs >= 2`` (``ValueError`` otherwise).
    """
    from repro.perf import pool_fingerprint
    from repro.sim.backends.base import numpy_available

    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise ValueError(
            f"unknown sanitize check(s) {', '.join(unknown)}; "
            f"known: {', '.join(CHECKS)}"
        )
    if "jobs" in checks and jobs < 2:
        raise ValueError(
            f"the jobs check needs jobs >= 2, got {jobs}: the control "
            "capture already runs with jobs=1"
        )

    report = SanitizeReport(
        experiment=target, control=CONTROL, pool=pool_fingerprint()
    )
    with tempfile.TemporaryDirectory(prefix="sanitize-") as temporary:
        base = Path(workdir) if workdir is not None else Path(temporary)
        base.mkdir(parents=True, exist_ok=True)
        control_snapshot = capture_subprocess(
            target,
            CONTROL,
            base / "control.json",
            trials=trials,
            seed=seed,
            fast=fast,
        )
        for name in checks:
            perturbed = _perturbed_conditions(name, jobs)
            if perturbed.backend == "vector-replay" and not numpy_available():
                report.checks.append(
                    CheckResult(
                        name=name,
                        perturbed=perturbed,
                        skipped="numpy unavailable: vector-replay cannot run",
                    )
                )
                continue
            snapshot = capture_subprocess(
                target,
                perturbed,
                base / f"{name}.json",
                trials=trials,
                seed=seed,
                fast=fast,
            )
            report.checks.append(
                CheckResult(
                    name=name,
                    perturbed=perturbed,
                    divergence=diff_captures(control_snapshot, snapshot),
                )
            )
    return report


# ----------------------------------------------------------------------
# CLI plumbing (dispatched from ``repro sanitize``)
# ----------------------------------------------------------------------


def add_arguments(parser: Any) -> None:
    """Attach the ``sanitize`` subcommand's arguments to *parser*."""
    import argparse

    from repro.obs.cli import _non_negative, _positive

    parser.add_argument(
        "experiment",
        help="experiment id (e.g. E01) or MODULE:FUNC entry point",
    )
    parser.add_argument(
        "--trials", type=_positive, default=None, help="trials per row"
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--fast", action="store_true", help="shrunken sweeps (CI-sized)"
    )
    parser.add_argument(
        "--jobs",
        type=_non_negative,
        default=2,
        metavar="N",
        help="worker count for the jobs perturbation, at least 2 "
        "(default: 2)",
    )
    parser.add_argument(
        "--checks",
        default=",".join(CHECKS),
        metavar="LIST",
        help=f"comma-separated checks to run (default: {','.join(CHECKS)})",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the JSON divergence report to FILE",
    )
    parser.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="keep capture snapshots in DIR instead of a temp directory",
    )
    # Internal: a capture child writes its snapshot and exits.  The
    # parent pins PYTHONHASHSEED in the child's environment.
    parser.add_argument("--capture", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--backend", default="exact", help=argparse.SUPPRESS)


def dispatch(args: Any) -> int:
    """Run the ``sanitize`` subcommand from parsed CLI *args*."""
    if args.capture is not None:
        snapshot = run_capture(
            args.experiment,
            trials=args.trials,
            seed=args.seed,
            fast=args.fast,
            jobs=args.jobs,
            backend=args.backend,
        )
        Path(args.capture).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return 0
    checks = [part.strip() for part in args.checks.split(",") if part.strip()]
    try:
        report = sanitize(
            args.experiment,
            trials=args.trials,
            seed=args.seed,
            fast=args.fast,
            jobs=args.jobs,
            checks=checks,
            workdir=args.workdir,
        )
    except (SanitizeError, ValueError, KeyError, ImportError, AttributeError) as error:
        print(f"repro sanitize: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.report is not None:
        Path(args.report).write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.report}")
    return report.exit_code
