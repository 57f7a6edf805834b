"""Command-line entry point: list and run the reproduction experiments.

Usage::

    repro-experiments list
    repro-experiments run E01 [--trials N] [--seed S] [--fast] [--jobs N] [--telemetry F]
    repro-experiments run all [--trials N] [--seed S] [--fast] [--jobs N] [--telemetry F]
    repro-experiments lint [paths ...] [--format json] [--select R4,R6]
    repro-experiments obs validate|summary|tail|anomalies telemetry.jsonl [...]
    repro-experiments obs diff A.jsonl B.jsonl
    repro-experiments obs export-trace --protocol cogcomp -o trace.json
    repro-experiments sanitize E01 [--fast] [--checks hashseed,jobs,backend]

(Equivalently ``python -m repro ...``.  ``lint`` is also installed as
the standalone ``repro-lint`` console script (see :mod:`repro.lint`)
and ``obs`` as ``repro-obs`` (see :mod:`repro.obs`).  ``--telemetry``
appends one JSONL manifest per experiment to the given file.)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.experiments.registry import get, load_all


def _version_string() -> str:
    """Version plus which engine backends this environment can run."""
    from repro import __version__
    from repro.sim.backends import available_backends

    described = ", ".join(
        name if reason is None else f"{name} (unavailable: {reason})"
        for name, reason in available_backends().items()
    )
    return f"repro {__version__} — backends: {described}"


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI (list / run / report subcommands)."""
    from repro.obs.cli import _non_negative, _positive
    from repro.sim.backends import BACKEND_NAMES

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduction experiments for 'Efficient Communication in "
            "Cognitive Radio Networks' (PODC 2015)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=_version_string(),
        help="print the version and available engine backends",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list all experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment or 'all'")
    run_parser.add_argument("experiment", help="experiment id (e.g. E01) or 'all'")
    run_parser.add_argument(
        "--trials", type=_positive, default=None, help="trials per row"
    )
    run_parser.add_argument("--seed", type=int, default=0, help="root seed")
    run_parser.add_argument(
        "--fast", action="store_true", help="shrunken sweeps (CI-sized)"
    )
    run_parser.add_argument(
        "--jobs",
        type=_non_negative,
        default=1,
        metavar="N",
        help="worker processes for trial loops (0 = all cores); results "
        "are identical to --jobs 1",
    )
    run_parser.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="append one JSONL manifest per experiment to FILE",
    )
    run_parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="engine backend for all runs (default: exact); 'vector' "
        "needs numpy and transparently falls back per run when a "
        "configuration has no columnar form",
    )

    report_parser = subparsers.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report_parser.add_argument(
        "--output", default="experiments_report.md", help="report file path"
    )
    report_parser.add_argument("--trials", type=_positive, default=None)
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument("--fast", action="store_true")
    report_parser.add_argument(
        "--jobs",
        type=_non_negative,
        default=1,
        metavar="N",
        help="worker processes for trial loops (0 = all cores); results "
        "are identical to --jobs 1",
    )
    report_parser.add_argument(
        "--telemetry", default=None, metavar="FILE",
        help="append one JSONL manifest per experiment to FILE",
    )
    report_parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="engine backend for all runs (default: exact)",
    )

    obs_parser = subparsers.add_parser(
        "obs", help="inspect telemetry files / export causal traces"
    )
    from repro.obs.cli import add_subcommands as add_obs_subcommands

    add_obs_subcommands(obs_parser.add_subparsers(dest="obs_command", required=True))

    sanitize_parser = subparsers.add_parser(
        "sanitize",
        help="dual-run determinism sanitizer: perturb hashseed/jobs/"
        "backend and bit-diff the captured tables and telemetry",
    )
    from repro.sanitize import add_arguments as add_sanitize_arguments

    add_sanitize_arguments(sanitize_parser)

    lint_parser = subparsers.add_parser(
        "lint", help="check sources against the model-soundness rules"
    )
    lint_parser.add_argument(
        "paths", nargs="*", help="files or directories (default: src/repro)"
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    lint_parser.add_argument("--select", default=None, metavar="RULES")
    lint_parser.add_argument("--ignore", default=None, metavar="RULES")
    lint_parser.add_argument("--baseline", default=None, metavar="FILE")
    lint_parser.add_argument("--update-baseline", action="store_true")
    lint_parser.add_argument("--prune-baseline", action="store_true")
    lint_parser.add_argument("--list-rules", action="store_true")
    lint_parser.add_argument("--explain", default=None, metavar="RULE")
    lint_parser.add_argument("--root", default="src/repro", metavar="PATH")
    return parser


def _run_one(
    experiment_id: str,
    trials: int | None,
    seed: int,
    fast: bool,
    telemetry: object | None = None,
) -> None:
    spec = get(experiment_id)
    start = time.perf_counter()
    if telemetry is not None:
        from repro.experiments.harness import run_with_telemetry
        from repro.obs.metrics import MetricsRegistry, ResourceSampler

        registry = MetricsRegistry()
        registry.counter(
            "experiments_run", "experiments executed", labels=("experiment",)
        ).inc(experiment=experiment_id)
        table = run_with_telemetry(
            spec,
            telemetry,
            trials=trials,
            seed=seed,
            fast=fast,
            metrics=registry,
            resources=ResourceSampler().start(),
        )
    else:
        kwargs: dict[str, object] = {"seed": seed, "fast": fast}
        if trials is not None:
            kwargs["trials"] = trials
        table = spec.run(**kwargs)
    elapsed = time.perf_counter() - start
    print(table.render())
    print(f"[{experiment_id} finished in {elapsed:.1f}s]\n")


def _open_sink(path: str | None) -> object | None:
    """A :class:`repro.obs.telemetry.TelemetrySink` for *path*, if given."""
    if path is None:
        return None
    from repro.obs.telemetry import TelemetrySink

    return TelemetrySink(path)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id, spec in load_all().items():
            print(f"{experiment_id}  {spec.title}")
            print(f"      {spec.claim}")
        return 0
    if args.command in ("run", "report") and args.jobs != 1:
        from repro.perf import set_default_jobs

        set_default_jobs(args.jobs)
    if args.command in ("run", "report") and args.backend is not None:
        from repro.sim.backends import set_default_backend

        set_default_backend(args.backend)
    if args.command == "run":
        sink = _open_sink(args.telemetry)
        try:
            if args.experiment.lower() == "all":
                for experiment_id in load_all():
                    _run_one(experiment_id, args.trials, args.seed, args.fast, sink)
            else:
                _run_one(
                    args.experiment.upper(), args.trials, args.seed, args.fast, sink
                )
        finally:
            if sink is not None:
                sink.close()  # type: ignore[attr-defined]
        return 0
    if args.command == "report":
        sink = _open_sink(args.telemetry)
        try:
            write_report(
                args.output,
                trials=args.trials,
                seed=args.seed,
                fast=args.fast,
                telemetry=sink,
            )
        finally:
            if sink is not None:
                sink.close()  # type: ignore[attr-defined]
        print(f"wrote {args.output}")
        return 0
    if args.command == "lint":
        from repro.lint import cli as lint_cli

        if args.list_rules:
            return lint_cli.list_rules()
        if args.explain is not None:
            return lint_cli.explain(args.explain)
        if args.paths and args.paths[0] == "effects":
            if len(args.paths) != 2:
                print(
                    "usage: repro lint effects MODULE:FUNC [--root PATH]",
                    file=sys.stderr,
                )
                return 2
            return lint_cli.effects_command(args.paths[1], root=args.root)
        return lint_cli.run(
            args.paths,
            output_format=args.format,
            select=args.select,
            ignore=args.ignore,
            baseline=args.baseline,
            update_baseline=args.update_baseline,
            prune_baseline=args.prune_baseline,
        )
    if args.command == "sanitize":
        from repro.sanitize import dispatch as sanitize_dispatch

        return sanitize_dispatch(args)
    if args.command == "obs":
        from repro.obs import cli as obs_cli

        return obs_cli.dispatch(args)
    return 2


def write_report(
    path: str,
    *,
    trials: int | None = None,
    seed: int = 0,
    fast: bool = False,
    telemetry: object | None = None,
) -> None:
    """Run every registered experiment and write one markdown report.

    The report records the exact invocation so any table can be
    regenerated in isolation.  When *telemetry* (a
    :class:`repro.obs.telemetry.TelemetrySink`) is given, each
    experiment also emits one manifest record.
    """
    sections: list[str] = [
        "# Reproduction report",
        "",
        f"Generated by `repro-experiments report` (seed={seed}, "
        f"trials={'default' if trials is None else trials}, fast={fast}).",
        "",
    ]
    for experiment_id, spec in load_all().items():
        start = time.perf_counter()
        if telemetry is not None:
            from repro.experiments.harness import run_with_telemetry

            table = run_with_telemetry(
                spec, telemetry, trials=trials, seed=seed, fast=fast
            )
        else:
            kwargs: dict[str, object] = {"seed": seed, "fast": fast}
            if trials is not None:
                kwargs["trials"] = trials
            table = spec.run(**kwargs)
        elapsed = time.perf_counter() - start
        sections.append(f"## {experiment_id} — {spec.title}")
        sections.append("")
        sections.append(f"Claim: {spec.claim}.")
        sections.append("")
        sections.append("```")
        sections.append(table.render().rstrip())
        sections.append("```")
        sections.append("")
        sections.append(f"_Runtime: {elapsed:.1f}s._")
        sections.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(sections))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
