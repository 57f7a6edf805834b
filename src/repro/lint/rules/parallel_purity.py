"""R7 — parallel purity: trial functions must be effect-pure.

The deterministic parallel layer (:func:`repro.perf.pmap_trials`,
:func:`repro.experiments.harness.map_trials`, and
``Campaign.run(jobs=)``) promises byte-identical results at any worker
count.  That promise holds only if every submitted callable is a pure
function of its (pickled) arguments: a trial that appends to a
module-level list, reads ``os.environ``, draws from the ambient
``random`` stream, or writes a file produces results that depend on
worker scheduling, process boundaries, or host state — a data race the
order-preserving executor cannot mask, and one that stays invisible in
serial test runs.

This rule is the static race detector for that layer: at every
submission site it resolves the submitted callable (bare reference or
``functools.partial``) and walks its *transitive* effect signature
through the project call graph.  Shared-mutable-state writes
(``global-write``), ambient randomness, wallclock reads, environment
reads, I/O, and nondeterministic builtins anywhere in the reachable
graph are flagged at the submission site, with the witness chain down
to the line that introduces the effect.

Fix it by: deriving all randomness from the trial's seed argument
(``repro.sim.rng.derive_rng``), returning data instead of mutating
module state, and moving I/O (telemetry, persistence) to the harness
side of the fan-out: workers return values and the parent merges and
emits them after the map.  Seeded draws
(``rng``) and monotonic timing (``perf-counter``) are allowed.
Lambdas are skipped: they are unpicklable, so the executor already
falls back to in-process serial execution for them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.analysis import (
    IMPURE_EFFECTS,
    ProjectContext,
)
from repro.lint.analysis.callgraph import resolve_callable_expr
from repro.lint.findings import Finding
from repro.lint.registry import ProjectRule, register

#: APIs whose *first positional argument* is fanned across workers.
FIRST_ARG_SUBMITTERS = {
    "repro.perf.executor:pmap_trials": "pmap_trials",
    "repro.experiments.harness:map_trials": "map_trials",
}
FIRST_ARG_EXTERNAL = {
    "repro.perf.pmap_trials": "pmap_trials",
    "repro.perf.executor.pmap_trials": "pmap_trials",
    "repro.experiments.harness.map_trials": "map_trials",
}

#: ``Campaign(name=..., measure=...)`` — the measure is what
#: ``Campaign.run(jobs=...)`` later submits to the pool.
CAMPAIGN_EXTERNAL = frozenset(
    {
        "repro.experiments.campaign.Campaign",
        "repro.experiments.Campaign",
    }
)


@register
class ParallelPurityRule(ProjectRule):
    """Flag impure callables submitted to the parallel trial layer."""

    rule_id = "R7"
    title = "parallel-purity"
    invariant = (
        "every callable submitted to pmap_trials / map_trials / "
        "Campaign.run(jobs=) is transitively free of shared-state "
        "writes and ambient effects, so worker count never changes "
        "results"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info, site in project.call_sites():
            api, submitted = self._submission(site)
            if submitted is None:
                continue
            target = resolve_callable_expr(
                project.callgraph, project.imports, info, submitted
            )
            if target is None:
                continue
            signature = project.effects.signature(target)
            for effect in sorted(signature & IMPURE_EFFECTS):
                yield self.project_finding(
                    info.path,
                    site.line,
                    site.col,
                    f"'{target}' submitted to {api}() must be effect-pure "
                    f"for deterministic parallel execution, but has "
                    f"'{effect}' ({project.effects.render_witness(target, effect)}); "
                    "derive state from the seeded arguments or merge results "
                    "after the map",
                )

    @staticmethod
    def _submission(site) -> tuple[str, ast.expr | None]:
        """(api name, submitted callable expr) for a submission site."""
        api = None
        if site.resolved in FIRST_ARG_SUBMITTERS:
            api = FIRST_ARG_SUBMITTERS[site.resolved]
        elif site.external in FIRST_ARG_EXTERNAL:
            api = FIRST_ARG_EXTERNAL[site.external]
        if api is not None:
            if site.node.args:
                return api, site.node.args[0]
            return api, None
        if site.external in CAMPAIGN_EXTERNAL or (
            site.resolved is None and site.dotted == "Campaign"
        ):
            for keyword in site.node.keywords:
                if keyword.arg == "measure":
                    return "Campaign", keyword.value
            if len(site.node.args) >= 2:
                return "Campaign", site.node.args[1]
        return "", None
